"""Directory organizations: the paper's contribution and its baselines.

This subpackage implements every directory-entry format compared in the
paper (full bit vector ``Dir_N``, limited pointers with and without
broadcast ``Dir_iB`` / ``Dir_iNB``, the superset scheme ``Dir_iX``, and the
proposed coarse vector ``Dir_iCV_r``), the proposed *sparse directory*
(a set-associative directory cache with no backing store), the replacement
policies studied in Section 6.3.2 (LRU / random / LRA), the analytic
directory-memory overhead model behind Table 1, and two extensions the
paper discusses qualitatively (an SCI-style linked-list directory and a
wide-entry overflow cache).
"""

from repro.core.base import DirectoryEntry, DirectoryScheme
from repro.core.full_bit_vector import FullBitVectorScheme
from repro.core.limited_pointer import (
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
)
from repro.core.superset import SupersetScheme
from repro.core.coarse_vector import CoarseVectorScheme
from repro.core.linked_list import LinkedListScheme
from repro.core.overflow_cache import OverflowCacheScheme
from repro.core.replacement import (
    LRAPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.core.sparse import SparseDirectory, FullMapDirectory, DirectoryStore
from repro.core.shared_entry import SharedEntryDirectory
from repro.core.overhead import (
    DirectoryOverhead,
    full_vector_overhead,
    limited_pointer_overhead,
    savings_factor,
    table1_configurations,
)
from repro.core.registry import SCHEME_FACTORIES, make_scheme

__all__ = [
    "DirectoryEntry",
    "DirectoryScheme",
    "FullBitVectorScheme",
    "LimitedPointerBroadcastScheme",
    "LimitedPointerNoBroadcastScheme",
    "SupersetScheme",
    "CoarseVectorScheme",
    "LinkedListScheme",
    "OverflowCacheScheme",
    "ReplacementPolicy",
    "LRUPolicy",
    "LRAPolicy",
    "RandomPolicy",
    "make_policy",
    "SparseDirectory",
    "FullMapDirectory",
    "DirectoryStore",
    "SharedEntryDirectory",
    "DirectoryOverhead",
    "full_vector_overhead",
    "limited_pointer_overhead",
    "savings_factor",
    "table1_configurations",
    "SCHEME_FACTORIES",
    "make_scheme",
]
