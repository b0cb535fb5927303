"""Tests of the benchmark itself:  python -m pytest -q bench

They run the benchmark from the repository root, as its command line is
meant to be used, on tiny sizes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import checks
import spans
import workloads
from run import END_TO_END, ROOT, SRC, load_oracles

sys.path.insert(0, str(SRC))  # tests/oracles.py imports conicring
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def first_ops(workload: str, seed: int, root: Path, n: int = 12):
    root.mkdir()
    fixed, stream = workloads.make_ops(workload, seed, root)
    return [
        (op.label, [Path(a).name if a.startswith(str(root)) else a for a in op.argv],
         [Path(a).read_text() for a in op.argv if a.startswith(str(root))], op.expect)
        for op in list(fixed) + list(islice(stream, n))
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    a = first_ops(workload, 7, tmp_path / "a")
    assert a == first_ops(workload, 7, tmp_path / "b")
    assert a != first_ops(workload, 8, tmp_path / "c")
    streamed = [(label, files) for label, _, files, _ in a if not label.startswith("fixed:")]
    assert len(set(map(str, streamed))) == len(streamed), "an op repeats within a run"


def test_spec_lists_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    units = spans.metric_units()
    assert [m["name"] for m in SPEC["per_layer"]] == list(units)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == units
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    res = result(run_bench("--workload", workload, "--seed", "3", "--seconds", "3",
                           "--trace", "0", "--max-ops", "10"))
    assert res["correct"] is True
    assert 1 <= res["attempted"] <= 10
    assert res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_calls_repeat_on_the_same_seed(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "3", "--trace", "1",
            "--max-ops", "8")
    first, second = result(run_bench(*args)), result(run_bench(*args))
    units = spans.metric_units()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {k: u for k, (u, _) in units.items()}
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["cli.main.calls"] == 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "classify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_local_solvability_agrees_with_the_oracle():
    oracles = load_oracles()
    rng = random.Random(0)
    values = [v for v in range(-60, 61) if v and checks.is_squarefree(v)]
    for _ in range(300):
        a, b = rng.choice(values), rng.choice(values)
        for p in (2, 3, 5, 7):
            assert checks.solvable(a, b, p) == checks.oracle_solvable(oracles, a, b, p), (a, b, p)

