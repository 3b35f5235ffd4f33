"""Self-tests of the end-to-end benchmark, at the smoke size.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads
from repro.service import OpenLoopWorkload
from repro.util.rng import RandomSource

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = run_cli(workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in wanted:
        assert f"# {metric['name']} = " in done.stdout
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def snapshot(tracer_targets) -> dict:
    """Identity of every attribute a tracer could replace."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "repro"]
    owners += [owner for owner, *_ in tracer_targets if not isinstance(owner, str)]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_traced_cycles_cover_the_reps_and_restore_the_library(tmp_path):
    targets = (workloads.sweep_targets(workloads.Tracer())
               + workloads.service_targets(workloads.Tracer(), workloads.LoggedClosedLoop, {})
               + workloads.service_targets(workloads.Tracer(), workloads.ScheduledOpenLoop, {}))
    produced = set()
    for name in NAMES:
        (tmp_path / name).mkdir()
        w = workloads.WORKLOADS[name](0, workloads.SMOKE, str(tmp_path / name))
        w.setup()
        w.rep()
        before = snapshot(targets)
        reps, layers = w.trace_cycle()
        after = snapshot(targets)
        assert after.keys() == before.keys(), name
        assert all(after[key] is before[key] for key in before), name
        assert all(not rep.problems for rep in reps), [rep.problems for rep in reps]
        assert layers["trace.coverage"] >= 0.95, name
        produced |= set(layers)
        tracer = w.tracer
        assert tracer.spans and not tracer.missing, name
        assert min(tracer.self_times()) >= -1e-9, name
        for _, start, end, parent, _ in tracer.spans:
            assert end >= start
            if parent >= 0:
                _, p_start, p_end, _, _ = tracer.spans[parent]
                assert p_start <= start and end <= p_end
    assert produced == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ["sweep_sync_sharded", "sweep_async_serial",
                                      "service_storm"])
def test_same_seed_same_outputs(workload, tmp_path):
    def one(seed: int, sub: str):
        (tmp_path / sub).mkdir()
        w = workloads.WORKLOADS[workload](seed, workloads.SMOKE, str(tmp_path / sub))
        w.setup()
        rep = w.rep()
        assert not rep.problems, rep.problems
        return rep

    first, again, other = one(0, "a"), one(0, "b"), one(1, "c")
    assert first.digest == again.digest
    exact = {k: v for k, v in first.layers.items() if k in compare.EXACT}
    assert exact and exact == {k: again.layers[k] for k in exact}
    if workload.startswith("sweep"):
        assert other.digest != first.digest


def test_open_loop_schedule_matches_the_library():
    ours = workloads.ScheduledOpenLoop(8, 500, rate=0.2, rng=RandomSource(5))
    library = OpenLoopWorkload(8, 500, rate=0.2, rng=RandomSource(5))
    now = 0.0
    while not library.exhausted():
        assert ours.next_arrival() == library.next_arrival()
        assert ours.due(now) == library.due(now)
        now += 0.5
    assert ours.exhausted() and len(ours.admitted) == 500


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("service_steady", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def write_run(directory: Path, name: str, workload: str, seed: int, metrics: dict) -> None:
    directory.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    (directory / name).write_text(
        f"# e2e workload={workload} seed={seed} trace=0\n{json.dumps(result)}\n",
        encoding="utf-8",
    )


def test_compare_flags_bounds_and_exact_counts(tmp_path, capsys):
    for seed in range(3):
        write_run(tmp_path / "a", f"{seed}", "service_steady", seed,
                  {"items_per_s": 100.0 + seed, "net.bits_per_cell": 8.0})
        write_run(tmp_path / "b", f"{seed}", "service_steady", seed,
                  {"items_per_s": 97.0 + seed, "net.bits_per_cell": 8.0})
        write_run(tmp_path / "c", f"{seed}", "service_steady", seed,
                  {"items_per_s": 60.0, "net.bits_per_cell": 9.0})
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    out = capsys.readouterr().out
    assert "WORSE" in out and "DIFFERS" in out
