"""Byte-size accounting used for communication-cost experiments.

The paper's Figs. 13/14 and 19/20 measure the number of bytes shipped between
the data center and the data sources.  Since our "network" is an in-process
simulated channel, we need a deterministic estimate of how many bytes a
message would occupy on the wire.  Two flavours are provided:

``encoded_size(obj)``
    the size of a compact, schema-less binary encoding (integers as 8 bytes,
    floats as 8 bytes, strings as UTF-8, containers as the sum of their
    elements plus a small header).  Numpy scalars and 1-D numeric arrays are
    priced exactly like the Python numbers and lists they stand for, the
    arrays in O(1).  This is what the simulated channel uses
    because it approximates a realistic serialisation such as protobuf or
    msgpack rather than Python object overhead.

``deep_size_of(obj)``
    recursive :func:`sys.getsizeof`, used for index memory-footprint
    experiments (Fig. 8 right) where in-memory size is the quantity of
    interest.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Sequence, Set

import numpy as np

__all__ = ["encoded_size", "deep_size_of"]

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


def deep_size_of(obj: object, _seen: set[int] | None = None) -> int:
    """Recursive in-memory size of ``obj`` in bytes.

    Shared sub-objects are counted once; cycles are handled via the ``_seen``
    identity set.
    """
    seen = _seen if _seen is not None else set()
    obj_id = id(obj)
    if obj_id in seen:
        return 0
    seen.add(obj_id)

    size = sys.getsizeof(obj)
    if isinstance(obj, (str, bytes, bytearray, int, float, bool)) or obj is None:
        return size
    if isinstance(obj, Mapping):
        size += sum(
            deep_size_of(key, seen) + deep_size_of(value, seen)
            for key, value in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_size_of(item, seen) for item in obj)
    if hasattr(obj, "__dict__"):
        size += deep_size_of(vars(obj), seen)
    if hasattr(obj, "__slots__"):
        size += sum(
            deep_size_of(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size
