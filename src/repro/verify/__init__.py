"""Protocol verification layer: model checker (`check`) and lint (`lint`).

PR 1's :class:`~repro.machine.invariants.InvariantChecker` audits the
coherence invariants *online*, along the one interleaving a given seed
happens to execute.  This package closes the remaining gap for small
configurations:

* :mod:`repro.verify.model` — a guarded-transition abstraction of the
  DASH directory protocol, instantiated from the **real**
  :mod:`repro.core` scheme classes so the checker exercises the same
  overflow/eviction code the simulator runs;
* :mod:`repro.verify.explorer` — a bounded BFS state-space explorer with
  canonical state hashing (symmetry reduction over node permutations)
  that checks every reachable state and emits a minimal counterexample
  trace, replayable through :class:`~repro.trace.scripted.ScriptedWorkload`;
* :mod:`repro.verify.lint` — an AST analyzer enforcing simulator-specific
  rules the type checker cannot express.

Run them via ``python -m repro verify {check,conform,lint}``.
"""

from repro.verify.explorer import Counterexample, ExploreResult, explore
from repro.verify.lint import Finding, LINT_RULES, run_lint
from repro.verify.model import (
    ModelConfig,
    ModelState,
    ModelViolation,
    counterexample_workload,
    replay_counterexample,
)

__all__ = [
    "Counterexample",
    "ExploreResult",
    "explore",
    "Finding",
    "LINT_RULES",
    "run_lint",
    "ModelConfig",
    "ModelState",
    "ModelViolation",
    "counterexample_workload",
    "replay_counterexample",
]
