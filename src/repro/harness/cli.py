"""Command-line interface: ``repro-consensus`` (or ``python -m repro.harness.cli``).

Subcommands
-----------
``run``             one consensus run (flat flags), printing outcome and stats
``scenario run``    one declarative scenario (any registered algorithm/backend)
``scenario sweep``  a scenario grid: serial (one JSONL file) or sharded
                    (work-stealing fabric, shard directory), with resume
``atlas summarize`` merge-on-read tradeoff tables over a sharded sweep
                    directory (streaming; ``--out`` writes the artifact)
``service run``     the consensus service: stream client commands through
                    leader-rotating log slots under optional ``--chaos``
                    kill storms; reports throughput, p50/p99 latency, and
                    exactly-once verification (exit 1 on degradation)
``experiment``      regenerate one of the paper's experiments (e1..e8)
``list``            algorithms, adversaries, workloads, machines, experiments
``explore``         exhaustive adversary search on a small system

``run --json`` and the ``scenario`` subcommands emit machine-readable
JSON (scenario echo + normalized RunRecord) with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro._version import __version__


def _parse_kv(pairs: list[str], flag: str) -> dict[str, Any]:
    """Parse repeated ``key=value`` flags; values decode as JSON when possible."""
    from repro.errors import ConfigurationError

    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"{flag} expects key=value, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _note_trace_ignored(backend: str) -> None:
    print(
        f"note: --trace records round events; the {backend!r} backend has "
        f"none, flag ignored",
        file=sys.stderr,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.rsm.machine import MACHINES
    from repro.scenarios.registry import ADVERSARIES, ALGORITHMS, WORKLOADS

    print("algorithms: ", ", ".join(ALGORITHMS.names()))
    print("adversaries:", ", ".join(ADVERSARIES.names()))
    print("workloads:  ", ", ".join(WORKLOADS.names()))
    print("machines:   ", ", ".join(sorted(MACHINES)))
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    if args.verbose:
        print()
        print("algorithm details (name / backend / description):")
        for name, algo in ALGORITHMS.items():
            print(f"  {name:24s} {algo.backend:9s} {algo.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.execute import execute
    from repro.scenarios.scenario import Scenario
    from repro.sync.spec import check_consensus

    sized = args.value_bits is not None
    scenario = Scenario(
        algorithm=args.algorithm,
        n=args.n,
        t=args.t,  # None -> the algorithm's own rule, applied by execute()
        f=args.f,
        adversary=args.adversary,
        workload="sized" if sized else "distinct-ints",
        workload_params={"bits": args.value_bits} if sized else {},
        seed=args.seed,
    )
    record = execute(scenario, trace=args.trace)
    result = record.raw
    # The record verdict already uses each algorithm's registered spec
    # (e.g. the vector checker for interactive consistency); crw keeps the
    # legacy extra requirement that no decision lands after round f+1.
    ok, violations = record.spec_ok, record.violations
    if args.algorithm == "crw":
        report = check_consensus(result, require_early_stopping=True)
        ok, violations = report.ok, report.violations
    if args.json:
        payload = record.to_dict()
        # Keep the emitted verdict consistent with the exit code (the crw
        # branch above is stricter than the record's default check).
        payload["spec_ok"] = ok
        payload["violations"] = list(violations)
        out: dict = {"scenario": record.scenario.to_dict(), "record": payload}
        if args.trace and record.backend in ("extended", "classic"):
            out["trace"] = result.trace.format()
        elif args.trace:
            _note_trace_ignored(record.backend)
        print(json.dumps(out, sort_keys=True))
        return 0 if ok else 1
    print(record.summary() if record.backend not in ("extended", "classic") else result.summary())
    if record.backend in ("extended", "classic"):
        print(f"stats: {result.stats}")
    print(f"spec:  {'OK' if ok else '; '.join(violations)}")
    if args.trace:
        if record.backend in ("extended", "classic"):
            print(result.trace.format())
        else:
            _note_trace_ignored(record.backend)
    return 0 if ok else 1


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.scenarios.execute import execute
    from repro.scenarios.scenario import Scenario

    if args.file is not None:
        from repro.errors import ConfigurationError

        # The file is the whole scenario; flags that would silently lose
        # to it (e.g. sweeping --seed over a base file) are rejected —
        # the None-sentinel parser defaults make any explicit flag
        # detectable, even one passed at its documented default value.
        scenario_flags = (
            "algorithm", "n", "t", "f", "adversary", "workload",
            "workload_param", "timing", "param", "seed", "max_rounds",
        )
        overridden = [
            f"--{name.replace('_', '-')}"
            for name in scenario_flags
            if getattr(args, name) not in (None, [])
        ]
        if overridden:
            raise ConfigurationError(
                f"--file defines the whole scenario; also passing "
                f"{', '.join(overridden)} would be silently ignored — "
                f"edit the file (or drop --file) instead"
            )
        if args.file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read scenario file {args.file!r}: {exc}"
                ) from exc
        scenario = Scenario.from_json(text)
    else:
        # Only explicitly-passed flags become kwargs; the Scenario
        # dataclass supplies every other default (algorithm/n have no
        # dataclass default, so the CLI pins them here).
        flags = {
            "algorithm": args.algorithm, "n": args.n, "t": args.t,
            "f": args.f, "adversary": args.adversary,
            "workload": args.workload, "seed": args.seed,
            "max_rounds": args.max_rounds,
        }
        kwargs = {"algorithm": "crw", "n": 8}
        kwargs.update({k: v for k, v in flags.items() if v is not None})
        scenario = Scenario(
            workload_params=_parse_kv(args.workload_param, "--workload-param"),
            timing=_parse_kv(args.timing, "--timing"),
            params=_parse_kv(args.param, "--param"),
            **kwargs,
        )
    record = execute(scenario, trace=args.trace)
    traced = args.trace and record.backend in ("extended", "classic")
    if args.trace and not traced:
        _note_trace_ignored(record.backend)
    if args.json:
        out: dict = {"scenario": scenario.to_dict(), "record": record.to_dict()}
        if traced:
            out["trace"] = record.raw.trace.format()
        print(json.dumps(out, sort_keys=True))
    else:
        print(record.summary())
        print(f"decisions: {record.decisions}")
        print(f"spec:  {'OK' if record.spec_ok else '; '.join(record.violations)}")
        if traced:
            print(record.raw.trace.format())
    return 0 if record.spec_ok else 1


def _split_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios.sweep import SweepRunner, expand_grid, summarize_records
    from repro.util.tables import Table

    cells = expand_grid(
        algorithms=[a for chunk in (args.algorithm or ["crw"]) for a in chunk.split(",")],
        n_values=_split_ints(args.n),
        f_values=_split_ints(args.f) if args.f is not None else None,
        adversaries=[a for chunk in (args.adversary or ["none"]) for a in chunk.split(",")],
        seeds=args.seeds,
    )
    faults = None
    if args.chaos is not None:
        from repro.fabric.faults import FaultPlan

        faults = FaultPlan.from_spec(args.chaos, seed=args.chaos_seed)
    runner = SweepRunner(
        cells,
        executor=args.executor,
        processes=args.jobs,
        chunk_size=args.chunk_size,
        jsonl_path=args.jsonl,
        shards=args.shards,
        faults=faults,
        liveness_timeout=args.liveness_timeout,
        max_respawns=args.max_respawns,
    )
    records = runner.run()
    # Quarantined cells come back as None (sharded executor); everything
    # downstream reports over the records that exist.
    covered = [r for r in records if r is not None]
    summaries = summarize_records(covered)
    # Throughput summary: executed cells over the wall clock of run().
    cells_per_s = runner.executed / runner.elapsed if runner.elapsed > 0 else 0.0
    if args.json:
        out = {
            "cells": len(cells),
            "executed": runner.executed,
            "resumed": runner.resumed,
            "elapsed_s": runner.elapsed,
            "cells_per_s": cells_per_s,
            "records": [r.to_dict() if r is not None else None for r in records],
        }
        if args.executor == "sharded":
            # Per-shard stats carry each shard's own cells_per_s (0.0 for
            # shards resumed wholesale off the manifest).
            out["shards"] = runner.shard_stats
            out["resumed_shards"] = runner.resumed_shards
            out["fresh_shards"] = runner.fresh_shards
            out["stolen_chunks"] = runner.stolen_chunks
            out["retries"] = runner.retries
            out["respawns"] = runner.respawns
            out["quarantined"] = runner.quarantined
        print(json.dumps(out, sort_keys=True))
    else:
        table = Table(
            ["algorithm", "n", "t", "f", "adversary", "seeds",
             "mean last round", "max last round", "mean msgs", "mean time", "spec"],
            title=f"sweep: {len(cells)} cells ({runner.executed} executed, "
            f"{runner.resumed} resumed)",
        )
        for row in summaries:
            table.add_row(
                row.algorithm, row.n, row.t if row.t is not None else "auto",
                row.f, row.adversary, row.seeds, row.mean_last_round,
                row.max_last_round, row.mean_messages,
                row.mean_sim_time if row.mean_sim_time is not None else "-",
                "ok" if row.spec_ok else "VIOLATED",
            )
        print(table.to_ascii())
        progress = (
            f"progress: {runner.executed} executed in {runner.elapsed:.2f}s "
            f"({cells_per_s:.0f} cells/s), {runner.resumed} resumed"
        )
        if args.executor == "sharded":
            progress += (
                f"; shards: {runner.fresh_shards} fresh, "
                f"{runner.resumed_shards} resumed, "
                f"{runner.stolen_chunks} stolen"
            )
            if runner.retries or runner.respawns or runner.quarantined:
                progress += (
                    f"; supervision: {runner.retries} retries, "
                    f"{runner.respawns} respawns, "
                    f"{runner.quarantined} quarantined"
                )
        print(progress)
    # Quarantined cells mean honest-but-partial coverage: non-zero exit so
    # scripts cannot mistake a degraded sweep for a complete one.
    return 0 if all(r.spec_ok for r in covered) and runner.quarantined == 0 else 1


def _cmd_atlas_summarize(args: argparse.Namespace) -> int:
    from repro.fabric.atlas import build_atlas
    from repro.util.tables import Table

    doc = build_atlas(args.dir)
    if args.out is not None:
        from repro.fabric.atlas import write_atlas

        write_atlas(args.dir, args.out)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    quarantined = doc.get("quarantined", 0)
    coverage = (
        f", {doc['covered_cells']}/{doc['cells']} covered "
        f"({quarantined} quarantined)"
        if quarantined
        else ""
    )
    table = Table(
        ["algorithm", "n", "t", "f", "adversary", "seeds",
         "mean rounds", "mean msgs", "mean bits", "spec"],
        title=(
            f"atlas: {doc['cells']} cells in {doc['shards']} shards "
            f"(grid {doc['grid_hash']}){coverage}"
        ),
    )
    for row in doc["rows"]:
        table.add_row(
            row["algorithm"], row["n"],
            row["t"] if row["t"] is not None else "auto",
            row["f"], row["adversary"], row["seeds"],
            row["mean_last_round"], row["mean_messages"], row["mean_bits"],
            "ok" if row["spec_ok"] else "VIOLATED",
        )
    print(table.to_ascii())
    if quarantined:
        print(
            f"coverage: {quarantined} quarantined cell(s) excluded — see "
            f"quarantine.json in the shard directory"
        )
    if args.out is not None:
        print(f"wrote atlas artifact to {args.out}")
    return 0 if all(row["spec_ok"] for row in doc["rows"]) else 1


def _cmd_service_run(args: argparse.Namespace) -> int:
    from repro.fabric.faults import ServiceFaultPlan
    from repro.service import (
        ClosedLoopWorkload,
        ConsensusService,
        OpenLoopWorkload,
        RetryPolicy,
    )
    from repro.util.rng import RandomSource

    faults = None
    if args.chaos is not None:
        chaos_seed = args.chaos_seed if args.chaos_seed is not None else args.seed
        faults = ServiceFaultPlan.from_spec(args.chaos, seed=chaos_seed)
    policy = RetryPolicy(timeout=args.timeout, max_attempts=args.max_attempts)
    service = ConsensusService(
        args.n,
        machine=args.machine,
        t=args.t,
        seed=args.seed,
        faults=faults,
        policy=policy,
        round_time=args.round_time,
    )
    if args.loop == "closed":
        workload = ClosedLoopWorkload(
            args.clients,
            args.requests,
            machine=args.machine,
            think_time=args.think_time,
        )
    else:
        workload = OpenLoopWorkload(
            args.clients,
            args.requests,
            rate=args.rate,
            machine=args.machine,
            rng=RandomSource(args.seed).spawn("arrivals"),
        )
    report = service.run(workload)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0 if report.ok else 1
    c = report.counters
    lat = report.latency
    print(
        f"service: n={report.n} t={report.t} machine={report.machine} "
        f"loop={args.loop} -> {report.state.upper()}"
    )
    print(
        f"traffic: {c['submitted']} submitted, {c['acked']} acked, "
        f"{c['refused']} refused, {c['failed']} failed "
        f"({c['retried']} retries, {c['deduped']} deduped)"
    )
    print(
        f"log:     {c['slots']} slots ({c['noop_slots']} noop), "
        f"{c['kills']} kills, {report.rotations} rotations "
        f"(epoch {report.epoch}), {c['rejected_stale']} acks fenced"
    )
    print(
        f"perf:    {report.throughput:.3f} acks/unit over {report.elapsed:.1f} "
        f"units; latency p50={lat['p50']:.1f} p99={lat['p99']:.1f} "
        f"max={lat['max']:.1f}"
    )
    survivors = ", ".join(f"p{pid}:{d}" for pid, d in sorted(report.digests.items()))
    print(f"state:   {survivors}")
    if report.budget_exhausted:
        print(f"budget:  crash budget t={report.t} exhausted; drained honestly")
    print(f"spec:    {'OK' if not report.problems else '; '.join(report.problems)}")
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.harness.report import render_experiment_markdown

    name = args.name.lower()
    if name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: {', '.join(sorted(ALL_EXPERIMENTS))}")
        return 2
    result = ALL_EXPERIMENTS[name]()
    if args.markdown:
        print(render_experiment_markdown(result))
    else:
        print(result.render())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.crw import CRWConsensus
    from repro.core.variants import TruncatedCRW
    from repro.lowerbound.explorer import ExplorationConfig, Explorer

    n = args.n

    def factory():
        if args.truncate_at is not None:
            return {
                pid: TruncatedCRW(pid, n, pid, k=args.truncate_at)
                for pid in range(1, n + 1)
            }
        return {pid: CRWConsensus(pid, n, pid) for pid in range(1, n + 1)}

    config = ExplorationConfig(
        max_crashes=args.max_crashes,
        max_crashes_per_round=args.per_round,
        max_rounds=args.max_rounds,
        dedupe=args.dedupe,
    )
    report = Explorer(factory, config).explore()
    print(f"leaves: {report.leaves}  nodes: {report.nodes}")
    print(f"worst last decision round: {report.worst_last_decision_round}")
    print(f"early stopping (<= f+1 everywhere): {report.early_stopping_holds}")
    print(f"violating leaves: {len(report.violating_leaves)}")
    for leaf in report.violating_leaves[:3]:
        print(f"  - {leaf.violations} via {[str(ev) for ev in leaf.schedule]}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description="Cao-Raynal-Wang-Wu (ICPP'06) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list algorithms/adversaries/workloads/experiments")
    p_list.add_argument("--verbose", "-v", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one consensus instance (flat flags)")
    p_run.add_argument("--algorithm", "-a", default="crw")
    p_run.add_argument("--n", type=int, default=8)
    p_run.add_argument("--t", type=int, default=None)
    p_run.add_argument("--f", type=int, default=0)
    p_run.add_argument("--adversary", default="coordinator-killer")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--value-bits", type=int, default=None,
                       help="propose |v|-bit values (the 'sized' workload)")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.set_defaults(func=_cmd_run)

    p_s = sub.add_parser("scenario", help="declarative scenario API")
    s_sub = p_s.add_subparsers(dest="scenario_command", required=True)

    # Scenario-field flags default to None sentinels so that "explicitly
    # passed" is detectable: any of them alongside --file is an error
    # (they would silently lose to the file), even at its default value.
    p_sr = s_sub.add_parser("run", help="execute one scenario on its backend")
    p_sr.add_argument("--algorithm", "-a", default=None, help="default: crw")
    p_sr.add_argument("--n", type=int, default=None, help="default: 8")
    p_sr.add_argument("--t", type=int, default=None)
    p_sr.add_argument("--f", type=int, default=None, help="default: 0")
    p_sr.add_argument("--adversary", default=None, help="default: none")
    p_sr.add_argument("--workload", default=None, help="default: distinct-ints")
    p_sr.add_argument("--workload-param", action="append", default=[], metavar="K=V")
    p_sr.add_argument("--timing", action="append", default=[], metavar="K=V")
    p_sr.add_argument("--param", action="append", default=[], metavar="K=V",
                      help="algorithm-specific parameter")
    p_sr.add_argument("--seed", type=int, default=None, help="default: 0")
    p_sr.add_argument("--max-rounds", type=int, default=None)
    p_sr.add_argument("--file", default=None,
                      help="load the scenario from a JSON file ('-' for stdin)")
    p_sr.add_argument("--trace", action="store_true")
    p_sr.add_argument("--json", action="store_true", help="machine-readable output")
    p_sr.set_defaults(func=_cmd_scenario_run)

    p_sw = s_sub.add_parser("sweep", help="run a scenario grid with persistence/resume")
    p_sw.add_argument("--algorithm", "-a", action="append", default=None,
                      help="algorithm name(s), repeatable or comma-separated")
    p_sw.add_argument("--n", default="4,8", help="comma-separated n values")
    p_sw.add_argument("--f", default=None, help="comma-separated f values (default: 0..t)")
    p_sw.add_argument("--adversary", action="append", default=None,
                      help="adversary name(s), repeatable or comma-separated")
    p_sw.add_argument("--seeds", type=int, default=10)
    p_sw.add_argument("--executor", choices=("serial", "sharded"),
                      default="serial")
    p_sw.add_argument("--jobs", type=int, default=None,
                      help="sharded executor: worker count")
    p_sw.add_argument("--chunk-size", type=int, default=None,
                      help="cells per flush (default: 32 serial, auto-tuned "
                      "per shard)")
    p_sw.add_argument("--shards", type=int, default=None,
                      help="sharded executor: shard count for a fresh sweep "
                      "(default: ~4 per worker; a resumed directory's "
                      "manifest wins)")
    p_sw.add_argument("--jsonl", default=None,
                      help="persistence/resume path: a JSONL file (serial) "
                      "or a shard *directory* — manifest + per-shard files "
                      "(sharded)")
    p_sw.add_argument("--chaos", default=None, metavar="SPEC",
                      help="sharded executor: inject deterministic faults, "
                      "e.g. 'kill:worker=0,after=1;hang:shard=2,worker=1;"
                      "raise:cell=7' (see repro.fabric.faults)")
    p_sw.add_argument("--chaos-seed", type=int, default=None,
                      help="seed resolving 'rand' targets in --chaos")
    p_sw.add_argument("--liveness-timeout", type=float, default=None,
                      help="sharded executor: seconds without worker "
                      "results/heartbeats before a busy worker is declared "
                      "hung and replaced (default: disabled)")
    p_sw.add_argument("--max-respawns", type=int, default=None,
                      help="sharded executor: replacement-worker budget "
                      "(default: the worker count); exhausting it degrades "
                      "to in-process draining")
    p_sw.add_argument("--json", action="store_true", help="machine-readable output")
    p_sw.set_defaults(func=_cmd_scenario_sweep)

    p_atlas = sub.add_parser(
        "atlas", help="merge-on-read summaries over a sharded sweep directory"
    )
    a_sub = p_atlas.add_subparsers(dest="atlas_command", required=True)
    p_as = a_sub.add_parser(
        "summarize",
        help="stream a shard directory's files into the tradeoff tables",
    )
    p_as.add_argument("--dir", required=True,
                      help="shard directory (manifest.json + shard-*.jsonl)")
    p_as.add_argument("--out", default=None, metavar="PATH",
                      help="also write the regeneratable atlas artifact JSON")
    p_as.add_argument("--json", action="store_true", help="machine-readable output")
    p_as.set_defaults(func=_cmd_atlas_summarize)

    p_svc = sub.add_parser(
        "service", help="consensus as a service: chaos-drilled traffic loops"
    )
    svc_sub = p_svc.add_subparsers(dest="service_command", required=True)
    p_svr = svc_sub.add_parser(
        "run", help="serve a client workload through the replicated log"
    )
    p_svr.add_argument("--n", type=int, default=5, help="replica count")
    p_svr.add_argument("--t", type=int, default=None,
                       help="crash budget (default: n-1)")
    p_svr.add_argument("--machine", default="kv",
                       help="replicated state machine (see 'list')")
    p_svr.add_argument("--clients", type=int, default=4)
    p_svr.add_argument("--requests", type=int, default=8,
                       help="closed loop: requests per client; open loop: total")
    p_svr.add_argument("--loop", choices=("closed", "open"), default="closed",
                       help="closed: one outstanding per client; open: "
                       "seeded Poisson arrivals at --rate")
    p_svr.add_argument("--rate", type=float, default=0.5,
                       help="open loop: arrivals per virtual-time unit")
    p_svr.add_argument("--think-time", type=float, default=0.0,
                       help="closed loop: delay between ack and next request")
    p_svr.add_argument("--timeout", type=float, default=12.0,
                       help="client ack deadline per attempt (virtual time)")
    p_svr.add_argument("--max-attempts", type=int, default=8,
                       help="client attempts before an honest failure")
    p_svr.add_argument("--round-time", type=float, default=1.0,
                       help="virtual-time cost of one consensus round")
    p_svr.add_argument("--seed", type=int, default=0)
    p_svr.add_argument("--chaos", default=None, metavar="SPEC",
                       help="service faults, e.g. 'kill:leader,after=3,"
                       "every=4,count=2,point=rand' or 'raise:slot=5,until=2' "
                       "(see repro.fabric.faults)")
    p_svr.add_argument("--chaos-seed", type=int, default=None,
                       help="seed resolving 'rand' targets (default: --seed)")
    p_svr.add_argument("--json", action="store_true", help="machine-readable output")
    p_svr.set_defaults(func=_cmd_service_run)

    p_exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    p_exp.add_argument("name", help="e1..e8")
    p_exp.add_argument("--markdown", action="store_true")
    p_exp.set_defaults(func=_cmd_experiment)

    p_x = sub.add_parser("explore", help="exhaustive adversary search")
    p_x.add_argument("--n", type=int, default=3)
    p_x.add_argument("--max-crashes", type=int, default=1)
    p_x.add_argument("--per-round", type=int, default=1)
    p_x.add_argument("--max-rounds", type=int, default=4)
    p_x.add_argument("--truncate-at", type=int, default=None)
    p_x.add_argument(
        "--dedupe",
        action="store_true",
        help="prune repeated configurations (bigger systems, same conclusions)",
    )
    p_x.set_defaults(func=_cmd_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # User-input errors carry curated messages; a traceback buries them.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
