"""Small helpers for int-bitmask sets.

Vertex sets, edge sets and label sets are plain Python ints: bit i set means
element i is in the set.  Python's arbitrary-precision ints make this exact at
any size the exact algorithms here can reach.
"""
from __future__ import annotations

from typing import Iterable, Iterator, List


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> List[int]:
    return list(iter_bits(mask))


def check_set(mask: int, size: int, name: str = "D") -> None:
    """Raise ValueError unless mask is a nonempty set inside {0..size-1}."""
    if mask == 0:
        raise ValueError(f"{name} must be nonempty")
    if mask >> size:
        raise ValueError(f"{name} has vertices outside the graph")


def check_vertex(v: int, size: int) -> None:
    """Raise ValueError unless v is a vertex of {0..size-1}."""
    if not 0 <= v < size:
        raise ValueError(f"vertex {v} out of range for order {size}")
