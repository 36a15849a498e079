"""Self-test of the benchmark: exact counters and digests repeat.

Run from the repository root (about two minutes on two cores)::

    python3 -m pytest perfbench/test_perfbench.py -q

For every workload the traced run is made twice at the default seed.
Each run already fails (exit code 1) when its traced digest differs from
the untraced one or from the digest committed in ``digests.json``; the
test also asserts that every counter documented as exact in
``metrics.json`` is bit-for-bit identical across the two runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clean_small", "faulty_large")


def _traced_run(workload: str) -> tuple:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def _exact_metrics() -> list:
    with open(os.path.join(HERE, "metrics.json")) as handle:
        documented = json.load(handle)["per_layer"]
    return sorted(name for name, entry in documented.items() if entry["exact"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_and_digest_repeat(workload: str) -> None:
    first_digest, first = _traced_run(workload)
    second_digest, second = _traced_run(workload)
    assert first_digest == second_digest
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for name in _exact_metrics():
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_every_declared_metric_is_documented() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "metrics.json")) as handle:
        documented = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == set(documented["end_to_end"])
    assert {m["name"] for m in spec["per_layer"]} == set(documented["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(documented["workloads"])
