"""Content-addressed result cache for sweeps and benchmarks.

Re-running a figure script mostly re-simulates grid points whose inputs
have not changed.  This module makes that rerun cheap: each completed
grid point is persisted under a key that is a stable hash of

* the **machine configuration** — every :class:`MachineConfig` field,
  via :meth:`~repro.machine.config.MachineConfig.cache_key_fields`;
* the **workload identity** — ``Workload.fingerprint()``: class, name,
  every instance attribute; the identity compiled streams are shared by;
* a **simulator code fingerprint** — a digest over every ``.py`` file in
  the installed ``repro`` package, so *any* source change invalidates
  *every* entry (sound, if blunt: simulation outputs can depend on any
  module);
* the run flags that affect execution (currently ``check``).

Entries are JSON files holding a lossless
:meth:`~repro.machine.stats.SimStats.to_state` snapshot.  Loading
validates the schema and the embedded key; any mismatch, parse error, or
malformed payload counts as a *corrupt* entry and falls back to
simulation — a damaged cache can cost time, never correctness.

Writes are atomic (tmp file + ``os.replace``), so concurrent writers —
e.g. two parallel sweep shards finishing the same point from different
processes — cannot interleave partial JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.machine.config import MachineConfig
from repro.machine.stats import SimStats
from repro.trace.workload import Workload

#: version of the on-disk cache-entry format; bump on shape changes
#: (old entries then miss by schema, not by key).  2: the workload
#: fingerprint keeps op classes and shared arrays, so every key moved
CACHE_SCHEMA = 2

#: environment variable consulted for a default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: age (seconds) after which an orphaned atomic-write temp file — left
#: behind by a writer that was killed between ``mkstemp`` and
#: ``os.replace`` — is garbage-collected on cache startup.  The TTL
#: keeps a *live* concurrent writer's in-flight temp file safe.
ORPHAN_TTL = 3600.0

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` source file in the ``repro`` package.

    Computed once per process and memoized: the sources cannot change
    under a running simulator in any scenario the cache supports.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def point_key(
    config: MachineConfig,
    workload: Workload,
    *,
    check: bool = False,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """The content hash addressing one (config, workload, flags) result.

    ``extra`` lets callers fold additional run parameters into the key
    (kept sorted; must be JSON-safe).
    """
    envelope = {
        "cache_schema": CACHE_SCHEMA,
        "code": code_fingerprint(),
        "config": config.cache_key_fields(),
        "workload": workload.fingerprint(),
        "check": bool(check),
        "extra": dict(sorted(extra.items())) if extra else {},
    }
    blob = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Optional[Path]:
    """The directory named by ``$REPRO_CACHE_DIR``, or None when unset."""
    value = os.environ.get(CACHE_DIR_ENV)
    return Path(value) if value else None


class ResultCache:
    """Filesystem-backed store of simulation results, addressed by content.

    Tracks ``hits`` / ``misses`` / ``stores`` / ``corrupt`` counters so
    callers (and tests) can assert, e.g., that a warm rerun executed
    zero simulations.
    """

    def __init__(self, root: Path | str, *, sweep_orphans: bool = True) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.orphans = 0
        if sweep_orphans:
            self.sweep_orphans()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def sweep_orphans(self, ttl: float = ORPHAN_TTL) -> int:
        """Remove atomic-write temp files older than ``ttl`` seconds.

        A writer SIGKILLed between ``mkstemp`` and ``os.replace`` leaks
        a ``*.tmp`` file that no rerun would ever clean up.  This
        covers both cached-result temps (``<key>.json.tmp``) and the
        checkpoint temps sweep workers write under
        ``<root>/checkpoints/`` (``pointNNNNN.ckpt.tmp`` — a worker
        killed mid-snapshot leaks one; the committed ``.ckpt`` next to
        it stays, it is the resume point).  Run on startup; files
        younger than the TTL are left alone because a concurrent live
        writer may still be about to rename them.  Returns the number
        of files removed (also accumulated on the ``orphans`` counter).
        """
        cutoff = time.time() - ttl
        removed = 0
        # os.walk yields nothing for a missing root and skips directories
        # that vanish under it, so neither case needs a check here
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".tmp"):
                    continue
                tmp = os.path.join(dirpath, name)
                try:
                    if os.stat(tmp).st_mtime < cutoff:
                        os.unlink(tmp)
                        removed += 1
                except OSError:
                    continue  # raced with a concurrent sweep/writer
        self.orphans += removed
        return removed

    def __contains__(self, key: str) -> bool:
        """Whether an entry for ``key`` is on disk (read by nothing, so
        no hit or miss is counted)."""
        return self._path(key).exists()

    def get(self, key: str) -> Optional[SimStats]:
        """The cached stats for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            if record["schema"] != CACHE_SCHEMA or record["key"] != key:
                raise ValueError("cache entry schema/key mismatch")
            stats = SimStats.from_state(record["stats"])
        except Exception:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: SimStats) -> Path:
        """Persist one result atomically; returns the entry path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "stats": stats.to_state(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def counters(self) -> Dict[str, int]:
        """Flat hit/miss/store/corrupt/orphan counts for reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "orphans": self.orphans,
        }

    def summary(self) -> str:
        """One-line human summary (printed by the benchmark runner)."""
        c = self.counters()
        return (
            f"cache {self.root}: {c['hits']} hits, {c['misses']} misses, "
            f"{c['stores']} stored"
            + (f", {c['corrupt']} corrupt" if c["corrupt"] else "")
            + (f", {c['orphans']} orphans swept" if c["orphans"] else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultCache {self.root} {self.counters()}>"
