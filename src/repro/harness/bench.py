"""Performance-gate kernels: measured, normalized, regression-checked.

This module is the engine behind both entry points:

* ``repro-consensus bench`` (the CLI subcommand), and
* ``python benchmarks/bench_perf_gate.py`` (the checkout-level script CI
  runs) — a thin wrapper importing everything from here.

Usage pattern:

* ``bench --write-baseline BENCH_PR6.json`` measures the kernels and
  writes a machine-readable baseline;
* ``bench --check-against BENCH_PR6.json`` compares fresh measurements
  to a previously written baseline and exits non-zero when any kernel
  regressed beyond ``--tolerance`` (default 1.25 = +25%).

Raw wall-clock is not comparable across machines, so every kernel is
*normalized* by a pure-Python calibration loop timed in the same process:
``score = kernel_seconds / calibration_seconds``.  Scores measure "how
many calibration units does this kernel cost", which tracks algorithmic
regressions while cancelling out most host-speed differences — that is
what the gate compares.  Raw seconds are recorded alongside for humans.

Kernels (via the scenario layer):

* ``one_round_n64``   — crw n=64, failure-free: one dense broadcast round;
* ``cascade_n128``    — crw n=128, f=16 coordinator-killer: 17 sparse
  rounds, the per-(process, round) overhead kernel;
* ``async_mr99_n32``  — MR99 n=32, f=8 ◇S run: the event-queue /
  delivery-scheduling kernel (PR 4's columnar table + pooled tuple
  entries on top of PR 3's tuple heap);
* ``async_mr99_const_n32`` — the same run under a constant delay model:
  every broadcast's deliveries land at one instant, so this is the
  same-instant-heavy kernel gating PR 5's fanout-block event queue (one
  heap entry and one dispatch frame per same-instant delivery run);
* ``ffd_n16``         — fast-failure-detector n=16, f=4: the timed-model
  kernel (fired-slot reconstruction + takeover grid);
* ``lease_crw_n32_40c`` — 40 same-configuration cells through one
  :class:`~repro.scenarios.execute.EngineLease`: the engine-reuse
  kernel, gating the reset/cache path sweeps lean on;
* ``sweep_serial_256c`` — a 256-cell serial grid with JSONL persistence:
  the sweep data-path throughput kernel (PR 5's columnar record
  pipeline — normalized records, batch persistence, key-indexed resume);
* ``service_kv_throughput`` — 200 closed-loop client commands through
  the consensus service's replicated-log slots, failure-free: the
  serving-loop kernel (admission, session table, leased slot engine);
* ``service_p99_latency`` — an open-loop run through a leader-kill
  storm: rotation + fencing + retry/dedup on the hot path, asserting
  the exactly-once report stays clean;
* ``vec_cascade_n128`` — the cascade scenario with ``batched=True``
  pinned: PR 9's whole-column stepping kernel (numpy state columns when
  numpy is importable, stdlib ``array`` otherwise — byte-identical
  records either way, see ``tests/sync/test_vector_parity.py``);
* ``sweep_serial_*c`` — the ``--quick`` grid (~100 cells) through the
  serial executor with JSONL persistence;
* ``shard_sweep_*``   — the quick grid, and with a full run the ~1k-cell
  grid, over the sharded work-stealing fabric (:mod:`repro.fabric`):
  manifest planning, shard workers with shared-memory scalar return,
  per-shard columnar files.  Gated on same-core-count hosts only;
* ``vec_sweep_*``     — the full grid through the *serial* executor:
  every cell steps through the auto-detected vector tables and the
  engine lease, so this is the single-core ceiling of the vectorized
  sweep data path (gated on any host, unlike the multiprocess sweeps).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import warnings
from typing import Callable

__all__ = ["measure", "compare", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def _calibrate(target_seconds: float = 0.05) -> float:
    """Seconds per calibration unit: a fixed pure-Python workload.

    The workload (integer arithmetic + list building) deliberately mirrors
    the interpreter operations the engine hot path is made of, so the
    kernel/calibration ratio is stable across CPython versions and hosts.
    """

    def unit() -> int:
        acc = 0
        xs = list(range(500))
        for i in xs:
            acc += i * i % 7
        return acc

    # Warm up, then time enough repetitions to fill ~target_seconds.
    unit()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            unit()
        dt = time.perf_counter() - t0
        if dt >= target_seconds:
            return dt / reps
        reps *= 4


def _best_of(fn: Callable[[], object], repeats: int, min_seconds: float) -> float:
    """Best wall-clock of ``repeats`` runs (at least ``min_seconds`` total)."""
    fn()  # warm-up: imports, registries, bit-size cache
    best = float("inf")
    spent = 0.0
    runs = 0
    while runs < repeats or spent < min_seconds:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        runs += 1
        if runs >= repeats * 10:  # safety valve for very slow hosts
            break
    return best


def _kernel_one_round_n64() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="crw", n=64, t=63, f=0, adversary="none", seed=0))
    assert record.rounds_executed == 1


def _kernel_cascade_n128() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="crw", n=128, t=127, f=16,
                              adversary="coordinator-killer", seed=0))
    assert record.last_decision_round == 17


def _kernel_vec_cascade_n128() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="crw", n=128, t=127, f=16,
                              adversary="coordinator-killer", seed=0),
                     batched=True)
    assert record.last_decision_round == 17


def _kernel_async_mr99_n32() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="mr99", n=32, f=8,
                              adversary="coordinator-killer", seed=0))
    assert record.spec_ok and record.f_actual == 8


def _kernel_async_mr99_const_n32() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="mr99", n=32, f=8,
                              adversary="coordinator-killer", seed=0,
                              timing={"delay": "constant", "value": 1.0}))
    assert record.spec_ok and record.f_actual == 8


def _kernel_ffd_n16() -> None:
    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="ffd", n=16, f=4,
                              adversary="coordinator-killer", seed=0))
    assert record.spec_ok and record.f_actual == 4


def _kernel_lease_crw_n32_40c() -> None:
    from repro.scenarios import EngineLease, Scenario, execute

    lease = EngineLease()
    base = Scenario(algorithm="crw", n=32, t=31, f=4,
                    adversary="coordinator-killer")
    for seed in range(40):
        record = execute(base.with_(seed=seed), lease=lease)
        assert record.spec_ok
    assert len(lease) == 1  # one configuration: 39 of 40 cells reset


def _kernel_service_kv_throughput() -> None:
    from repro.service import ClosedLoopWorkload, ConsensusService

    service = ConsensusService(5, machine="kv", t=3, seed=0)
    report = service.run(ClosedLoopWorkload(8, 25))
    assert report.ok and report.counters["acked"] == 200


def _kernel_service_p99_latency() -> None:
    from repro.fabric.faults import ServiceFaultPlan
    from repro.service import ConsensusService, OpenLoopWorkload
    from repro.util.rng import RandomSource

    plan = ServiceFaultPlan.from_spec("kill:leader,after=10,every=25,count=3", seed=0)
    service = ConsensusService(6, machine="kv", t=4, seed=0, faults=plan)
    workload = OpenLoopWorkload(8, 120, rate=0.2, rng=RandomSource(0))
    report = service.run(workload)
    assert report.ok and report.counters["acked"] == 120
    assert report.rotations == 3 and report.latency["p99"] >= report.latency["p50"]


def _sweep_cells(quick: bool):
    from repro.scenarios import expand_grid

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if quick:  # ~100 cells: CI smoke
            return expand_grid(["crw", "early-stopping"], [8],
                               adversaries=("coordinator-killer",), seeds=7)
        return expand_grid(["crw", "early-stopping"], [16, 24, 32],
                           adversaries=("coordinator-killer", "staggered"), seeds=4)


def _kernel_sweep(quick: bool, executor: str) -> None:
    from repro.scenarios import SweepRunner

    cells = _sweep_cells(quick)
    with tempfile.TemporaryDirectory() as tmp:
        # The sharded executor's jsonl_path is a shard *directory*; the
        # serial one persists to a single file.  Both pay for full
        # JSONL persistence.
        path = os.path.join(tmp, "shards" if executor == "sharded" else "sweep.jsonl")
        runner = SweepRunner(cells, executor=executor, jsonl_path=path)
        records = runner.run()
        assert len(records) == len(cells) and runner.executed == len(cells)


def _kernel_sweep_serial_256c() -> None:
    """Sweep data-path throughput: 256 serial cells, JSONL persisted."""
    from repro.scenarios import SweepRunner, expand_grid

    cells = expand_grid(["crw", "early-stopping"], [16],
                        adversaries=("coordinator-killer",), seeds=8)
    assert len(cells) == 256
    with tempfile.TemporaryDirectory() as tmp:
        runner = SweepRunner(
            cells, executor="serial", jsonl_path=os.path.join(tmp, "sweep.jsonl")
        )
        records = runner.run()
        assert len(records) == 256 and runner.executed == 256


def measure(quick: bool) -> dict:
    """Measure all kernels; returns the baseline document.

    A full run also measures the ``--quick`` sweep grid so a committed
    full baseline contains the kernel CI's quick run needs to match.
    """
    calibration = _calibrate()
    quick_cells = len(_sweep_cells(True))
    kernels = {
        "one_round_n64": _best_of(_kernel_one_round_n64, repeats=10, min_seconds=0.3),
        "cascade_n128": _best_of(_kernel_cascade_n128, repeats=10, min_seconds=0.5),
        "vec_cascade_n128": _best_of(
            _kernel_vec_cascade_n128, repeats=10, min_seconds=0.5
        ),
        "async_mr99_n32": _best_of(_kernel_async_mr99_n32, repeats=5, min_seconds=0.5),
        "async_mr99_const_n32": _best_of(
            _kernel_async_mr99_const_n32, repeats=5, min_seconds=0.5
        ),
        "ffd_n16": _best_of(_kernel_ffd_n16, repeats=10, min_seconds=0.3),
        "lease_crw_n32_40c": _best_of(
            _kernel_lease_crw_n32_40c, repeats=5, min_seconds=0.3
        ),
        "sweep_serial_256c": _best_of(
            _kernel_sweep_serial_256c, repeats=3, min_seconds=0.5
        ),
        "service_kv_throughput": _best_of(
            _kernel_service_kv_throughput, repeats=5, min_seconds=0.3
        ),
        "service_p99_latency": _best_of(
            _kernel_service_p99_latency, repeats=5, min_seconds=0.3
        ),
        # The serial sweep is core-count independent, so it gates across
        # hosts; the sharded sweep's score scales with parallelism and is
        # gated only on a matching cpu_count (see compare()).
        f"sweep_serial_{quick_cells}c": _best_of(
            lambda: _kernel_sweep(True, "serial"), repeats=3, min_seconds=0.5
        ),
        f"shard_sweep_{quick_cells}c": _best_of(
            lambda: _kernel_sweep(True, "sharded"), repeats=3, min_seconds=0.5
        ),
    }
    if not quick:
        full_cells = len(_sweep_cells(False))
        kernels[f"shard_sweep_{full_cells}c"] = _best_of(
            lambda: _kernel_sweep(False, "sharded"), repeats=2, min_seconds=1.0
        )
        kernels[f"vec_sweep_{full_cells}c"] = _best_of(
            lambda: _kernel_sweep(False, "serial"), repeats=2, min_seconds=1.0
        )
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "calibration_unit_s": calibration,
        "kernels": {
            name: {"seconds": secs, "score": secs / calibration}
            for name, secs in kernels.items()
        },
    }


def compare(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regressions of ``current`` vs ``baseline`` (empty = gate passes).

    Kernels are matched by name on their normalized score; kernels present
    on only one side are reported informationally but do not fail the
    gate (grid sizes legitimately differ between --quick and full runs).
    ``shard_sweep_*`` kernels additionally gate only when both sides ran
    on the same core count — a multi-process sweep's score scales with
    parallelism, which calibration cannot cancel out.  Kernels only the
    baseline has (e.g. the retired ``sweep_pool_*``) are ignored.
    """
    failures: list[str] = []
    base_kernels = baseline.get("kernels", {})
    same_host_shape = current.get("cpu_count") == baseline.get("cpu_count")
    for name, entry in current["kernels"].items():
        base = base_kernels.get(name)
        if base is None:
            print(f"  [new] {name}: score {entry['score']:.1f} (no baseline)")
            continue
        multiproc = name.startswith("shard_sweep_")
        if multiproc and not same_host_shape:
            print(
                f"  [info] {name}: score {entry['score']:.1f} vs baseline "
                f"{base['score']:.1f} (not gated: cpu_count "
                f"{current.get('cpu_count')} != {baseline.get('cpu_count')})"
            )
            continue
        ratio = entry["score"] / base["score"] if base["score"] > 0 else float("inf")
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(
            f"  [{verdict}] {name}: score {entry['score']:.1f} "
            f"vs baseline {base['score']:.1f} (x{ratio:.2f}, limit x{tolerance:.2f})"
        )
        if ratio > tolerance:
            failures.append(
                f"{name}: normalized score {entry['score']:.1f} is "
                f"{ratio:.2f}x the baseline {base['score']:.1f} "
                f"(tolerance {tolerance:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-consensus bench",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--quick", action="store_true",
                        help="small sweep grid (CI smoke)")
    parser.add_argument("--write-baseline", "--out", dest="out", default=None,
                        metavar="PATH",
                        help="write measurements to this JSON baseline file")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="fail on regression vs this baseline JSON")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="max allowed score ratio vs baseline (default 1.25)")
    args = parser.parse_args(argv)

    print("measuring perf-gate kernels" + (" (--quick grid)" if args.quick else ""))
    doc = measure(args.quick)
    print(f"calibration unit: {doc['calibration_unit_s'] * 1e6:.1f} us")
    for name, entry in doc["kernels"].items():
        print(f"  {name}: {entry['seconds'] * 1e3:.3f} ms  score {entry['score']:.1f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        print(f"checking against {args.check_against}")
        failures = compare(doc, baseline, args.tolerance)
        if failures:
            print("PERF GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("perf gate passed")
    return 0
