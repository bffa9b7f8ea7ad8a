"""Cross-validation: the analytic Figure 2 model vs the full simulator.

The Monte-Carlo/closed-form model predicts the expected invalidation
messages per write given the sharing degree; the machine, running a
controlled sharing-degree workload, must land near that prediction.
This binds the two halves of the reproduction together: if either the
model's conventions or the simulator's accounting drifted, these tests
break.
"""

import pytest

from repro.apps import SharingDegreeWorkload
from repro.machine import MachineConfig, run_workload
from repro.machine.stats import InvalCause

from tests.exact_model import exact_expected_invalidations

PROCS = 16


def simulate(scheme, sharers, *, rounds=6, blocks=48):
    wl = SharingDegreeWorkload(
        PROCS, sharers=sharers, num_blocks=blocks, rounds=rounds, seed=21
    )
    cfg = MachineConfig(num_clusters=PROCS, scheme=scheme)
    return run_workload(cfg, wl, check=True)


def sim_invals_per_write_event(stats):
    """Mean invalidations over write-caused events with >= 1 target."""
    hist = stats.inval_hist[InvalCause.WRITE]
    # skip size-0 events: writes to blocks whose only sharer is the writer
    events = sum(c for s, c in hist.items() if s > 0)
    invals = sum(s * c for s, c in hist.items())
    return invals / events if events else 0.0


class TestModelMatchesSimulation:
    """The simulator differs from the model in one systematic way: the
    model's writer is never a sharer, while the workload's writer may be
    one of the readers (prob sharers/P), and the home's invalidation is
    free.  Both shrink the simulated count, so we check the model's
    prediction brackets the measurement from above within that slack.
    """

    @pytest.mark.parametrize("sharers", [1, 2])
    def test_exact_regime_all_schemes_match(self, sharers):
        # below pointer overflow every scheme is exact: identical counts.
        # Degree must stay <= i-1 because the previous writer re-enters
        # the sharer set when the next round's readers forward from it,
        # making the effective degree sharers+1.
        base = simulate("full", sharers).invalidations_sent()
        for scheme in ("Dir3CV2", "Dir3B"):
            assert simulate(scheme, sharers).invalidations_sent() == base

    @pytest.mark.parametrize("scheme", ["full", "Dir3B", "Dir3CV2"])
    def test_prediction_brackets_measurement(self, scheme):
        sharers = 6
        predicted = exact_expected_invalidations(scheme, PROCS, sharers)
        measured = sim_invals_per_write_event(simulate(scheme, sharers))
        # home-free invalidation (-1 at most) and writer-among-readers
        # (-1 at most, prob 6/16) bound the downward bias
        assert predicted - 2.2 <= measured <= predicted + 0.5, (
            scheme, predicted, measured,
        )

    def test_scheme_ordering_preserved_end_to_end(self):
        sharers = 6
        sim = {
            s: sim_invals_per_write_event(simulate(s, sharers))
            for s in ("full", "Dir3CV2", "Dir3B")
        }
        model = {
            s: exact_expected_invalidations(s, PROCS, sharers)
            for s in ("full", "Dir3CV2", "Dir3B")
        }
        assert sim["full"] <= sim["Dir3CV2"] <= sim["Dir3B"]
        assert model["full"] <= model["Dir3CV2"] <= model["Dir3B"]

    def test_broadcast_plateau_visible_in_simulation(self):
        stats = simulate("Dir3B", 6)
        hist = stats.inval_hist[InvalCause.WRITE]
        # broadcast events: N-2 or N-1 invalidation messages
        assert any(s >= PROCS - 2 for s in hist), dict(hist)
