"""Committed reference of the observable trace surface.

The sha256 of the JSONL export and of ``SimStats.metrics`` for three
small traced runs, recorded from the commit *before* the tracer moved to
flat ring rows (PR 19).  How an event is stored is free to change; these
bytes are not.  Re-record (``python tests/test_obs_reference.py``) only
for a deliberate change of the trace vocabulary or the machine's timing.
"""

import hashlib
import json

import pytest

from repro.apps import LocusRouteWorkload, MP3DWorkload
from repro.machine.config import MachineConfig
from repro.machine.system import run_workload
from repro.obs.export import write_jsonl
from repro.obs.tracer import Tracer


def _mp3d(n, particles=96):
    return MP3DWorkload(n, num_particles=particles, steps=2, seed=0)


CONFIGS = {
    "dir3cv2-plain": dict(
        config=MachineConfig(num_clusters=8, scheme="Dir3CV2"),
        workload=lambda: _mp3d(8),
    ),
    "dir1nb-sparse-hints": dict(
        config=MachineConfig(
            num_clusters=8, scheme="Dir1NB", sparse_size_factor=1.0,
            l1_bytes=128, l2_bytes=512, replacement_hints=True,
        ),
        workload=lambda: _mp3d(8, particles=300),
    ),
    "dir2b-faults": dict(
        config=MachineConfig(num_clusters=4, scheme="Dir2B"),
        workload=lambda: LocusRouteWorkload(4, seed=0),
        faults=11,
    ),
}

#: name -> (sha256 of the JSONL export, sha256 of SimStats.metrics)
REFERENCE = {
    "dir1nb-sparse-hints": (
        "30a3ca84df68014b3244261232f9e659323b2d2a31293c2b22949b7b8c73eee5",
        "d2a451e091b9b3a7b810c4eb2bed163b645141f6d1771fff923dd058b20ab525",
    ),
    "dir2b-faults": (
        "579e7a1b25a6b12d809b6083cceedf44162b96f0ab6f6e369c8054c0d32dbeff",
        "3105f221844cc922cc58367cf5d2ecbe8a97be0994d049483a805729ac63ac45",
    ),
    "dir3cv2-plain": (
        "911bb65b169e27490e5f96d7f758aba11877d33fd6afe6d2d7bd9a15a86c1226",
        "05f13c044d85fb2e03b7b626e7948f3542a7102057f21ebd393d6328205d3ddc",
    ),
}


def _digests(name, tmp_dir):
    spec = CONFIGS[name]
    tracer = Tracer(1 << 20)
    stats = run_workload(
        spec["config"], spec["workload"](), obs=tracer,
        faults=spec.get("faults"),
    )
    path = write_jsonl(tracer, f"{tmp_dir}/{name}.jsonl", meta={"ref": name})
    with open(path, "rb") as fh:
        trace = hashlib.sha256(fh.read()).hexdigest()
    metrics = hashlib.sha256(
        json.dumps(stats.to_dict()["metrics"], sort_keys=True).encode()
    ).hexdigest()
    return (trace, metrics), tracer


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_and_metrics_bytes_match_reference(name, tmp_path):
    digests, _ = _digests(name, tmp_path)
    assert digests == REFERENCE[name]


def test_reference_configs_cover_the_machine_vocabulary(tmp_path):
    from repro.obs.registry import EVENTS

    seen = set()
    for name in CONFIGS:
        seen.update(_digests(name, tmp_path)[1].counts)
    machine = {n for n in EVENTS if not n.startswith(("ckpt.", "sweep."))}
    assert seen == machine


if __name__ == "__main__":  # re-record
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for ref in sorted(CONFIGS):
            got, tr = _digests(ref, tmp)
            print(f'    "{ref}": (\n        "{got[0]}",\n        "{got[1]}",\n    ),')
            print("   #", dict(sorted(tr.counts.items())))
