"""The Figure 2 model: expected invalidations vs. number of sharers.

The paper's methodology (§4.1): *"for each invalidation event, the
sharers were randomly chosen and the number of invalidations required was
recorded.  After a very large number of events, these invalidation
figures were averaged and plotted."*

Conventions matching the paper's numbers:

* the writer and the home are drawn distinct from the sharers, and
  neither ever receives an invalidation **message** (the home's copy dies
  on its local bus) — this is why ``Dir_iB``'s plateau sits at ``N - 2``
  ("the home cluster and the new owning cluster do not require an
  invalidation");
* the full bit vector therefore plots exactly ``y = x`` — the intrinsic
  distribution every other scheme is judged against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core.base import DirectoryScheme
from repro.core.registry import make_scheme


@dataclass(frozen=True)
class InvalidationModel:
    """Monte-Carlo estimator for one scheme on an ``num_nodes`` machine."""

    scheme_factory: Callable[[], DirectoryScheme]
    num_nodes: int
    trials: int = 500
    seed: int = 0

    def average_invalidations(self, num_sharers: int) -> float:
        """Mean invalidation messages when ``num_sharers`` nodes share."""
        if not 0 <= num_sharers <= self.num_nodes - 2:
            raise ValueError(
                f"num_sharers must be in [0, {self.num_nodes - 2}] so the "
                f"writer and home can be distinct non-sharers"
            )
        rng = random.Random(f"fig2:{self.seed}:{num_sharers}")
        total = 0
        for _ in range(self.trials):
            scheme = self.scheme_factory()
            writer, home = rng.sample(range(self.num_nodes), 2)
            candidates = [
                n for n in range(self.num_nodes) if n != writer and n != home
            ]
            sharers = rng.sample(candidates, num_sharers)
            entry = scheme.make_entry()
            for s in sharers:
                for victim in entry.record_sharer(s):
                    # Dir_iNB evictions happen at read time; in this model
                    # they simply shrink the sharer set (the cost is
                    # charged in the machine simulation, not here).
                    pass
            targets = entry.invalidation_targets(exclude=(writer, home))
            total += len(targets)
        return total / self.trials


def average_invalidations(
    scheme_name: str,
    num_nodes: int,
    num_sharers: int,
    *,
    trials: int = 500,
    seed: int = 0,
) -> float:
    """One point of Figure 2 for a scheme given by name."""
    model = InvalidationModel(
        lambda: make_scheme(scheme_name, num_nodes, seed=seed),
        num_nodes,
        trials=trials,
        seed=seed,
    )
    return model.average_invalidations(num_sharers)


def figure2_series(
    scheme_names: Sequence[str],
    num_nodes: int,
    *,
    max_sharers: int | None = None,
    trials: int = 500,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Average invalidations for sharers = 0 .. max for each scheme.

    Figure 2a uses ``num_nodes=32`` with Dir_N, Dir3B, Dir3CV2;
    Figure 2b uses ``num_nodes=64`` adding Dir3X and Dir3CV4.
    """
    if max_sharers is None:
        max_sharers = num_nodes - 2
    series: Dict[str, List[float]] = {}
    for name in scheme_names:
        model = InvalidationModel(
            lambda name=name: make_scheme(name, num_nodes, seed=seed),
            num_nodes,
            trials=trials,
            seed=seed,
        )
        series[name] = [
            model.average_invalidations(k) for k in range(max_sharers + 1)
        ]
    return series
