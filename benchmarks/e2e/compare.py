"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py SET_A SET_B

A set is a directory holding the captured standard output of runs of
``run.py``, one file per run (any file name).  For every (metric,
workload) pair this prints each set's median and quartiles over its
runs and a verdict:

* end-to-end metrics: ``ok`` when B's median is no worse than A's by
  more than the metric's bound, else ``WORSE``;
* exact work counts: ``same`` when every seed that both sets ran gives
  the same value in both, else ``DIFFERS``;
* other per-layer metrics: ``info`` (they have no bound).

B must also fail no larger share of its attempted operations than A.
Exits 1 when any verdict is ``WORSE`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that are exact work counts for a given seed: the
#: virtual-time service and the seeded sweeps repeat them bit for bit,
#: so any change is a behaviour change, not noise.
EXACT = frozenset({
    "sync.engine.rounds_per_cell",
    "net.messages_per_cell",
    "net.bits_per_cell",
    "fabric.shardio.bytes_per_cell",
    "fabric.dispatcher.retries",
    "fabric.dispatcher.respawns",
    "scenarios.execute.lease_hit_ratio",
    "sync.engine.refill_hit_ratio",
    "rsm.log.rounds_per_slot",
    "service.virtual_p99_rounds",
    "service.traffic.admit_lag_p99_rounds",
    "service.loop.slots_per_ack",
    "service.loop.retry_ratio",
    "service.sessions.deduped",
    "service.sessions.rejected_stale",
    "service.ring.rotations",
})


def load_set(directory: str) -> dict[str, list[tuple[int, dict]]]:
    """workload → [(seed, result line)] over the run outputs in ``directory``."""
    runs: dict[str, list[tuple[int, dict]]] = {}
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        header = next((line for line in lines if line.startswith("# e2e ")), None)
        if header is None or not lines[-1].startswith("{"):
            print(f"skipping {path}: not a run output", file=sys.stderr)
            continue
        fields = dict(item.split("=", 1) for item in header[len("# e2e "):].split())
        runs.setdefault(fields["workload"], []).append(
            (int(fields["seed"]), json.loads(lines[-1]))
        )
    return runs


def summary(values: list[float]) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(set_a: dict, set_b: dict, spec: dict) -> list[str]:
    """Print one row per (metric, workload); return the failing rows."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failures: list[str] = []
    for workload in sorted(set(set_a) & set(set_b)):
        a_runs, b_runs = set_a[workload], set_b[workload]
        names = sorted({name for _, result in a_runs + b_runs for name in result["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for _, r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for _, r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            if name in bounds:
                metric = bounds[name]
                ratio = statistics.median(b) / statistics.median(a)
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                verdict = "ok" if worse <= metric["bound"] else "WORSE"
                note = f"{(ratio - 1) * 100:+.1f}% (bound {metric['bound'] * 100:.0f}%)"
            elif name in EXACT:
                a_seed = {seed: r["metrics"][name]["value"] for seed, r in a_runs
                          if name in r["metrics"]}
                same = all(a_seed[seed] == r["metrics"][name]["value"]
                           for seed, r in b_runs if seed in a_seed and name in r["metrics"])
                verdict, note = ("same" if same else "DIFFERS"), "exact"
            else:
                verdict, note = "info", ""
            row = (f"{verdict:8} {workload:20} {name:42} "
                   f"A {summary(a)} | B {summary(b)} {note}")
            print(row)
            if verdict in ("WORSE", "DIFFERS"):
                failures.append(row)
        a_failed = sum(r["failed"] for _, r in a_runs) / sum(r["attempted"] for _, r in a_runs)
        b_failed = sum(r["failed"] for _, r in b_runs) / sum(r["attempted"] for _, r in b_runs)
        verdict = "ok" if b_failed <= a_failed else "WORSE"
        row = f"{verdict:8} {workload:20} {'failed/attempted':42} A {a_failed:.6g} | B {b_failed:.6g}"
        print(row)
        if verdict == "WORSE":
            failures.append(row)
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = compare(load_set(args[0]), load_set(args[1]), spec)
    print(f"{len(failures)} failing row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
