"""Small generic utilities shared across the :mod:`repro` package.

The utilities are intentionally dependency-free (standard library plus
``numpy``) so they can be used from the lowest layers of the library (grid
encoding, index nodes) without creating import cycles.
"""

from repro.utils.sizeof import deep_size_of, encoded_size
from repro.utils.zorder import zorder_decode, zorder_encode

__all__ = [
    "deep_size_of",
    "encoded_size",
    "zorder_decode",
    "zorder_encode",
]
