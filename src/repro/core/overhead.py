"""Analytic directory-memory overhead model (Table 1 and §5 arithmetic).

The paper sizes machines by a simple bit-counting argument:

* a directory entry costs *presence bits* + 1 dirty bit, plus
  ``ceil(log2(sparsity))`` tag bits when the directory is sparse
  ("since sparse directories contain a large fraction of main memory
  blocks, tags need only be a few bits wide" — the §5 worked example uses
  exactly ``log2(sparsity)`` bits);
* overhead = directory bits / main-memory bits.

Reference points this module must (and does — see tests) reproduce:

* DASH prototype: 16 clusters, 16-byte blocks, full bit vector →
  17 bits / 128 bits = **13.3 %**;
* 32-node full vector at sparsity 64 → 39 bits per 64 blocks versus
  33 bits per block non-sparse: a **savings factor ≈ 54**;
* the three Table 1 machines all land near 13 % overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.base import DirectoryScheme
from repro.core.coarse_vector import CoarseVectorScheme
from repro.core.full_bit_vector import FullBitVectorScheme


@dataclass(frozen=True)
class DirectoryOverhead:
    """Result of one overhead computation."""

    scheme_name: str
    sparsity: float
    bits_per_entry: int
    entries_per_block: float  # 1/sparsity
    bits_per_block: float  # bits_per_entry / sparsity
    overhead_fraction: float  # bits_per_block / block_bits

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead_fraction


def tag_bits_for_sparsity(sparsity: float) -> int:
    """Tag width for a sparse directory (0 for a full map)."""
    if sparsity <= 1:
        return 0
    return math.ceil(math.log2(sparsity))


def directory_overhead(
    scheme: DirectoryScheme,
    block_bytes: int,
    *,
    sparsity: float = 1.0,
) -> DirectoryOverhead:
    """Overhead of ``scheme`` at a given block size and sparsity.

    ``sparsity`` is the ratio of main-memory blocks to directory entries
    (§4.2); 1.0 means a full map.
    """
    if block_bytes < 1:
        raise ValueError("block_bytes must be >= 1")
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1 (1 == full map)")
    bits_per_entry = scheme.presence_bits() + 1 + tag_bits_for_sparsity(sparsity)
    block_bits = block_bytes * 8
    bits_per_block = bits_per_entry / sparsity
    return DirectoryOverhead(
        scheme_name=scheme.name,
        sparsity=sparsity,
        bits_per_entry=bits_per_entry,
        entries_per_block=1.0 / sparsity,
        bits_per_block=bits_per_block,
        overhead_fraction=bits_per_block / block_bits,
    )


def full_vector_overhead(
    num_nodes: int, block_bytes: int, *, sparsity: float = 1.0
) -> DirectoryOverhead:
    """Convenience wrapper for the most common query."""
    return directory_overhead(
        FullBitVectorScheme(num_nodes), block_bytes, sparsity=sparsity
    )


def limited_pointer_overhead(
    num_nodes: int,
    num_pointers: int,
    block_bytes: int,
    *,
    broadcast_bit: bool = True,
    sparsity: float = 1.0,
) -> DirectoryOverhead:
    """Overhead of a generic ``i``-pointer scheme."""
    from repro.core.limited_pointer import (
        LimitedPointerBroadcastScheme,
        LimitedPointerNoBroadcastScheme,
    )

    cls = LimitedPointerBroadcastScheme if broadcast_bit else LimitedPointerNoBroadcastScheme
    return directory_overhead(cls(num_nodes, num_pointers), block_bytes, sparsity=sparsity)


def savings_factor(
    scheme: DirectoryScheme, block_bytes: int, sparsity: float
) -> float:
    """Storage saved by going sparse: non-sparse bits / sparse bits.

    §5 worked example: 32-node full vector, sparsity 64 → ≈ 54.
    """
    dense = directory_overhead(scheme, block_bytes, sparsity=1.0)
    sparse = directory_overhead(scheme, block_bytes, sparsity=sparsity)
    return dense.bits_per_block / sparse.bits_per_block


@dataclass(frozen=True)
class MachineRow:
    """One row of Table 1."""

    clusters: int
    processors: int
    main_memory_mbytes: int
    cache_mbytes: int
    block_bytes: int
    scheme_label: str
    sparsity: float
    overhead_percent: float


def table1_configurations(
    *,
    mbytes_main_per_processor: int = 16,
    kbytes_cache_per_processor: int = 256,
    block_bytes: int = 16,
) -> List[MachineRow]:
    """The three machines of Table 1, recomputed from first principles.

    * 64 procs / 16 clusters: non-sparse ``Dir16`` full bit vector;
    * 256 procs / 64 clusters: sparse (sparsity 4) ``Dir64`` full vector;
    * 1024 procs / 256 clusters: sparse (sparsity 4) ``Dir8CV4``.
    """
    rows: List[MachineRow] = []

    def add(clusters: int, processors: int, scheme: DirectoryScheme,
            label: str, sparsity: float) -> None:
        ov = directory_overhead(scheme, block_bytes, sparsity=sparsity)
        rows.append(
            MachineRow(
                clusters=clusters,
                processors=processors,
                main_memory_mbytes=processors * mbytes_main_per_processor,
                cache_mbytes=processors * kbytes_cache_per_processor // 1024,
                block_bytes=block_bytes,
                scheme_label=label,
                sparsity=sparsity,
                overhead_percent=ov.overhead_percent,
            )
        )

    add(16, 64, FullBitVectorScheme(16), "Dir16", 1.0)
    add(64, 256, FullBitVectorScheme(64), "sparse Dir64", 4.0)
    add(256, 1024, CoarseVectorScheme(256, 8, 4), "sparse Dir8CV4", 4.0)
    return rows
