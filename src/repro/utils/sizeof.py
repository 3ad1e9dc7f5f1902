"""Byte-size accounting used for communication-cost experiments.

The paper's Figs. 13/14 and 19/20 measure the number of bytes shipped between
the data center and the data sources.  Since our "network" is an in-process
simulated channel, we need a deterministic estimate of how many bytes a
message would occupy on the wire: ``encoded_size(obj)`` is the size of a
compact, schema-less binary encoding (integers as 8 bytes, floats as 8
bytes, strings as UTF-8, containers as the sum of their elements plus a
small header).  Numpy scalars and 1-D numeric arrays are priced exactly like
the Python numbers and lists they stand for, the arrays in O(1).  The
simulated channel uses it because it approximates a realistic serialisation
such as protobuf or msgpack rather than Python object overhead.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Sequence, Set

import numpy as np

__all__ = ["encoded_size"]

_CONTAINER_HEADER_BYTES = 4
_NUMBER_BYTES = 8


def encoded_size(obj: object) -> int:
    """Estimate the wire size in bytes of ``obj`` under a compact encoding."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _NUMBER_BYTES
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "iuf":
            return _CONTAINER_HEADER_BYTES + _NUMBER_BYTES * obj.size
        return encoded_size(obj.tolist())
    if isinstance(obj, str):
        return _CONTAINER_HEADER_BYTES + len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return _CONTAINER_HEADER_BYTES + len(obj)
    if isinstance(obj, Mapping):
        return _CONTAINER_HEADER_BYTES + sum(
            encoded_size(key) + encoded_size(value) for key, value in obj.items()
        )
    if isinstance(obj, (Sequence, Set, frozenset)):
        return _CONTAINER_HEADER_BYTES + sum(encoded_size(item) for item in obj)
    if hasattr(obj, "wire_payload"):
        return encoded_size(obj.wire_payload())
    if hasattr(obj, "__dict__"):
        return encoded_size(vars(obj))
    return sys.getsizeof(obj)

