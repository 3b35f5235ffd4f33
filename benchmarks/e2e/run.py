"""End-to-end benchmark of the sweep→atlas and request→ack paths.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload sweep_sync_sharded --seed 0 \\
        --seconds 18 --trace 0

One run sets the workload up from ``--seed``, does one warm-up rep, then
timed reps for about ``--seconds`` (at least 8), checks the outputs of
every rep, prints each metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(each timed one is taken per rep and reported at the fast quartile of
the reps); with ``--trace 1`` the reps alternate untraced and traced
runs and the metrics are the per-layer ones, and the last traced rep's
spans are written as JSONL to ``--spans``.  A failed check exits 1.

The benchmark only reads and writes inside the checkout: its scratch
directory is ``.e2e_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set-up probes re-run the set-up in fresh processes; with this run's
#: own set-up they give the median ``setup_s`` reports.
SETUP_PROBES = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"error: repro imported from {origin}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def quartiles(values: list[float]) -> tuple[float, ...]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest finished child's (shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process: imports, inputs, warm-up rep."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the fabric started, and wait."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Run:
    """One benchmark run: set-up, reps, checks, and the metrics they give."""

    def __init__(self, args: argparse.Namespace, started: float) -> None:
        import workloads

        self.lib = workloads
        self.args = args
        self.started = started
        self.sizes = workloads.SMOKE if args.smoke else workloads.FULL
        self.workdir = str(ROOT / ".e2e_work" / f"{args.workload}-{os.getpid()}")
        os.makedirs(self.workdir)
        self.workload = workloads.WORKLOADS[args.workload](
            args.seed, self.sizes, self.workdir
        )
        self.reps = []
        self.warmups = []

    def setup(self) -> float:
        self.workload.setup()
        self.warmups.append(self.workload.rep())
        return time.perf_counter() - self.started

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        reps = []
        begun = time.perf_counter()
        while len(reps) < self.sizes.min_reps or time.perf_counter() - begun < self.args.seconds:
            gc.collect()  # every rep starts from the same heap, untimed
            reps.append(self.workload.rep())
        self.reps += reps
        rss = peak_rss_mb()  # before the probes: only shard workers are children
        setups = [setup_s] + [setup_probe(self.args) for _ in range(SETUP_PROBES)]
        rates = [rep.items / rep.wall for rep in reps]
        # Sweeps return one result per rep (the atlas or summary): their
        # latency is the rep's wall.  The service's is per request.
        p50s = [self.lib.percentile(rep.latencies_ms, 50) if rep.latencies_ms
                else rep.wall * 1e3 for rep in reps]
        latencies = [ms for rep in reps for ms in rep.latencies_ms]
        self.note("setup_s", setups, "s")
        self.note("items_per_s", rates, "items/s")
        self.note("wall_p50_ms", p50s, "ms")
        self.note("rep_wall_s", [rep.wall for rep in reps], "s")
        if latencies:
            print(f"# request wall_ms pooled: p50 {self.lib.percentile(latencies, 50):.6g} "
                  f"p99 {self.lib.percentile(latencies, 99):.6g} ms (n={len(latencies)})")
        # The shared host slows each vCPU about 1.5x in bursts of a few
        # seconds.  A burst only adds time, and a two-worker rep waits on
        # both vCPUs, so the median rep swings with how much of the run the
        # bursts covered; the fast quartile holds until they cover three
        # quarters of it (README, Steadiness).
        return {
            "setup_s": statistics.median(setups),
            "items_per_s": quartiles(rates)[2],
            "wall_p50_ms": quartiles(p50s)[0],
            "peak_rss_mb": rss,
        }

    def per_layer(self) -> dict[str, float]:
        cycles = []
        begun = time.perf_counter()
        while True:
            gc.collect()
            reps, layers = self.workload.trace_cycle()
            self.reps += reps
            cycles.append(layers)
            # A sharded cycle is four reps: start another only if it fits.
            spent = time.perf_counter() - begun
            if spent * (len(cycles) + 1) / len(cycles) > self.args.seconds:
                break
        tracer = self.workload.tracer
        if tracer.missing:
            print(f"# not traced (missing in this checkout): {', '.join(tracer.missing)}")
        tracer.write_jsonl(self.args.spans or str(
            ROOT / ".e2e_work" / f"spans-{self.args.workload}.jsonl"
        ))
        print(f"# traced cycles: {len(cycles)}")
        names = {name for layers in cycles for name in layers}
        return {name: statistics.median(layers.get(name, 0.0) for layers in cycles)
                for name in sorted(names)}

    @staticmethod
    def note(name: str, values: list[float], unit: str) -> None:
        """A human-readable line: median, quartiles and sample count."""
        q1, q2, q3 = quartiles(values)
        print(f"# {name}: median {q2:.6g} {unit} [q1 {q1:.6g}, q3 {q3:.6g}] (n={len(values)})")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="span JSONL path for --trace 1 "
                             "(default .e2e_work/spans-WORKLOAD.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    spec = load_spec()
    args = parse_args(argv, spec)
    import_checkout()
    run = Run(args, started)
    try:
        # Anything the library puts in a temporary file stays in the checkout.
        os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(run.workdir, "tmp")
        os.makedirs(tempfile.tempdir)
        setup_s = run.setup()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"# e2e workload={args.workload} seed={args.seed} trace={args.trace}")
        if args.trace:
            values, wanted = run.per_layer(), spec["per_layer"]
        else:
            values, wanted = run.end_to_end(setup_s), spec["end_to_end"]
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        stop_resource_tracker()
    problems = [p for rep in run.warmups + run.reps for p in rep.problems]
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    metrics = {}
    for metric in wanted:
        # A per-layer metric a workload never reaches reads 0: the layer
        # is bypassed (e.g. the fabric on the serial sweep).
        value = values.get(metric["name"], 0.0) if args.trace else values[metric["name"]]
        print(f"# {metric['name']} = {value:.6g} {metric['unit']}")
        # A latency that never ended (a failed request) has no JSON number.
        metrics[metric["name"]] = {
            "value": value if math.isfinite(value) else None, "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in run.reps),
        "failed": sum(rep.failed for rep in run.reps),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
