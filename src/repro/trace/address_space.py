"""Shared-segment address allocation for the synthetic applications.

Applications allocate named shared arrays; the allocator hands out
disjoint byte ranges and remembers the total footprint, which is the
"shared space touched" column of Table 2 and the input to the paper's
cache-scaling rule (§6.3: scale caches to preserve the dataset:cache
ratio of a full-sized run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class SharedArray:
    """A named shared region: ``addr(i)`` gives the byte address of item i."""

    name: str
    base: int
    element_bytes: int
    num_elements: int

    @property
    def nbytes(self) -> int:
        return self.element_bytes * self.num_elements

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.num_elements:
            raise IndexError(
                f"{self.name}[{index}] out of range (size {self.num_elements})"
            )
        return self.base + index * self.element_bytes

    def addr2(self, row: int, col: int, num_cols: int) -> int:
        """Row-major 2-D convenience accessor."""
        return self.addr(row * num_cols + col)


class AddressSpace:
    """Bump allocator for shared segments, aligned to cache blocks."""

    def __init__(self, block_bytes: int = 16, base: int = 0) -> None:
        if block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        self.block_bytes = block_bytes
        self._next = self._align(base)
        self.arrays: Dict[str, SharedArray] = {}

    def _align(self, addr: int) -> int:
        rem = addr % self.block_bytes
        return addr if rem == 0 else addr + self.block_bytes - rem

    def alloc(self, name: str, num_elements: int, element_bytes: int = 8) -> SharedArray:
        """Allocate a block-aligned array of ``num_elements`` items."""
        if name in self.arrays:
            raise ValueError(f"shared array {name!r} already allocated")
        if num_elements < 1 or element_bytes < 1:
            raise ValueError("num_elements and element_bytes must be >= 1")
        arr = SharedArray(name, self._next, element_bytes, num_elements)
        self.arrays[name] = arr
        self._next = self._align(arr.base + arr.nbytes)
        return arr

    @property
    def total_shared_bytes(self) -> int:
        """Footprint of all shared segments (the Table 2 'shared space')."""
        return sum(a.nbytes for a in self.arrays.values())


def scaled_cache_bytes(
    dataset_bytes: int, dataset_to_cache_ratio: float, num_processors: int
) -> int:
    """Per-processor cache size preserving a dataset:cache ratio (§6.3).

    The paper's example: a full-blown DWF problem occupies 1 GB on a
    64-processor DASH with 16 MB of total cache — ratio 64.  With a 3.9 MB
    simulated dataset the total cache becomes 64 KB, i.e. 2 KB per
    processor on 32 processors.
    """
    if dataset_to_cache_ratio <= 0 or num_processors < 1:
        raise ValueError("ratio must be > 0 and num_processors >= 1")
    total = dataset_bytes / dataset_to_cache_ratio
    return max(1, int(total / num_processors))
