"""E1–E8: one regenerable experiment per claim of the paper.

Each ``eN_*`` function returns an :class:`ExperimentResult` holding the
table(s) the claim predicts plus machine-checkable findings.  The
``benchmarks/bench_eN_*.py`` files time and print them, and
``repro-consensus experiment eN --markdown`` renders any of them as a
Markdown section.

Runs are driven through the unified scenario API
(:func:`repro.scenarios.execute` on a :class:`~repro.scenarios.Scenario`);
E1 and E5 run their grids in one serial
:class:`~repro.scenarios.SweepRunner` pass and aggregate each
configuration's seeds with :func:`~repro.scenarios.summarize_records`.
Every bound and completion time comes from
:mod:`repro.analysis.formulas`.  See ``DESIGN.md`` §4 for the experiment
index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis import formulas
from repro.core.crw import CRWConsensus
from repro.core.variants import IncreasingCommitCRW, TruncatedCRW
from repro.scenarios.execute import execute
from repro.scenarios.registry import ALGORITHMS
from repro.scenarios.scenario import Scenario
from repro.scenarios.sweep import CellSummary, SweepRunner, summarize_records
from repro.lowerbound.certificates import (
    certify_f_plus_one,
    certify_no_run_exceeds,
    refute_round_bound,
)
from repro.lowerbound.explorer import ExplorationConfig
from repro.lowerbound.valency import find_bivalent_initial
from repro.rsm.log import ReplicatedLog
from repro.rsm.machine import Command, KVStore
from repro.simulation.extended_on_classic import run_extended_on_classic
from repro.util.rng import RandomSource
from repro.util.tables import Table
from repro.workloads.crashes import make_adversary

__all__ = [
    "ExperimentResult",
    "e1_rounds",
    "e2_bits",
    "e3_timing",
    "e4_lowerbound",
    "e5_mr99",
    "e6_ffd",
    "e7_simulation",
    "e8_scaling",
    "ALL_EXPERIMENTS",
]


@dataclass(slots=True)
class ExperimentResult:
    """One experiment's regenerated evidence."""

    exp_id: str
    title: str
    claim: str
    tables: list[Table] = field(default_factory=list)
    findings: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Full plain-text report (printed by the benches)."""
        parts = [f"== {self.exp_id}: {self.title} ==", f"claim: {self.claim}", ""]
        for table in self.tables:
            parts.append(table.to_ascii())
            parts.append("")
        for key, value in self.findings.items():
            parts.append(f"{key}: {value}")
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# E1 — Theorem 1: rounds-to-decision.
# ---------------------------------------------------------------------------


def _summaries(configs: list[Scenario], seeds: int) -> list[CellSummary]:
    """Seeds ``0..seeds-1`` of every configuration, run in one serial
    :class:`SweepRunner` pass; one :class:`CellSummary` per configuration,
    in order."""
    records = SweepRunner(
        [config.with_(seed=seed) for config in configs for seed in range(seeds)]
    ).run()
    return [
        summarize_records(records[i:i + seeds])[0]
        for i in range(0, len(records), seeds)
    ]


def e1_rounds(
    n_values: tuple[int, ...] = (4, 8, 16),
    seeds: int = 10,
    adversary: str = "coordinator-killer",
) -> ExperimentResult:
    """CRW decides in <= f+1 rounds (1 round if p1 survives); classic
    baselines pay t+1 / min(f+2, t+1)."""
    cells = [
        Scenario(algorithm=algorithm, n=n, t=n - 1, f=f, adversary=adversary)
        for n in n_values
        for f in sorted({0, 1, (n - 1) // 2, n - 1})
        for algorithm in ("crw", "early-stopping", "floodset")
    ]
    # The benign pattern: f crashes that never touch a coordinator.
    benign_cells = [
        Scenario(algorithm="crw", n=n, t=n - 1, f=f, adversary="staggered")
        for n in n_values
        for f in (1, 2, 3)
    ]
    summaries = _summaries(cells + benign_cells, seeds)

    table = Table(
        ["algorithm", "n", "t", "f", "mean last round", "max last round", "bound", "spec"],
        title=f"E1: decision rounds under the {adversary} adversary",
    )
    all_ok = True
    tight = True
    for row in summaries[:len(cells)]:
        bound = ALGORITHMS.get(row.algorithm).round_bound(row.f, row.t)
        all_ok = all_ok and row.spec_ok
        if row.algorithm == "crw":
            tight = tight and row.max_last_round == bound
        table.add_row(
            row.algorithm,
            row.n,
            row.t,
            row.f,
            row.mean_last_round,
            row.max_last_round,
            bound,
            "ok" if row.spec_ok else "VIOLATED",
        )
    benign = Table(
        ["n", "f", "crw max last round"],
        title="E1b: crashes that miss the coordinator cost nothing (staggered)",
    )
    one_round = True
    for row in summaries[len(cells):]:
        one_round = one_round and row.max_last_round == 1
        benign.add_row(row.n, row.f, row.max_last_round)
    # Decision skew: Figure 1 is early-deciding, not simultaneous — the
    # commit-split adversary spreads decisions over up to f+1 rounds while
    # the silent cascade keeps them simultaneous (cf. the paper's [8]).
    from repro.analysis.simultaneity import skew_profile
    from repro.sync.adversary import CommitSplitter, CoordinatorKiller

    skew = Table(
        ["adversary", "n", "mean skew", "max skew", "skew <= f everywhere"],
        title="E1c: decision skew (simultaneity; rounds between first and last decision)",
    )
    skew_bounded = True
    for name, adversary in (
        ("coordinator-killer", CoordinatorKiller(2)),
        ("commit-splitter", CommitSplitter(2, prefix_len=1)),
    ):
        profile = skew_profile(
            lambda: [CRWConsensus(pid, 8, 100 + pid) for pid in range(1, 9)],
            adversary,
            n=8,
            t=7,
            seeds=seeds,
            adversary_name=name,
        )
        skew_bounded = skew_bounded and profile.skew_bounded_by_f
        skew.add_row(name, 8, profile.skew.mean, profile.max_skew, profile.skew_bounded_by_f)

    return ExperimentResult(
        exp_id="E1",
        title="rounds to decision (Theorem 1)",
        claim="CRW: <= f+1 rounds, exactly f+1 under the coordinator cascade, "
        "1 round when p1 survives; classic: t+1 (FloodSet) and min(f+2, t+1) "
        "(early stopping)",
        tables=[table, benign, skew],
        findings={
            "all_runs_satisfy_uniform_consensus": all_ok,
            "crw_bound_tight_under_cascade": tight,
            "crw_single_round_under_benign_crashes": one_round,
            "decision_skew_bounded_by_f": skew_bounded,
        },
    )


# ---------------------------------------------------------------------------
# E2 — Theorem 2: bit complexity.
# ---------------------------------------------------------------------------


def e2_bits(
    n_values: tuple[int, ...] = (4, 8, 16, 32),
    bit_widths: tuple[int, ...] = (8, 64, 1024),
) -> ExperimentResult:
    """Measured traffic vs the closed forms: best (n-1)(|v|+1) bits; worst
    bounded by sum_{r=1..t+1} (n-r)(|v|+1) bits / 2*sum messages."""
    table = Table(
        ["case", "n", "t", "|v|", "msgs", "msg bound", "bits", "bit bound", "bits/bound"],
        title="E2: bit complexity (Theorem 2)",
    )
    best_exact = True
    worst_within = True
    for n in n_values:
        for bits in bit_widths:
            sized = Scenario(algorithm="crw", n=n, t=n - 1, workload="sized",
                             workload_params={"bits": bits})
            # Best case: failure-free, single round.
            record = execute(sized)
            m_bound = formulas.crw_best_messages(n)
            b_bound = formulas.crw_best_bits(n, bits)
            best_exact = best_exact and (
                record.messages_sent == m_bound and record.bits_sent == b_bound
            )
            table.add_row(
                "best", n, n - 1, bits,
                record.messages_sent, m_bound,
                record.bits_sent, b_bound,
                record.bits_sent / b_bound,
            )
            # Worst case: max-traffic cascade with f = t.
            t = n - 1
            record = execute(sized.with_(f=t, adversary="max-traffic"))
            m_bound = formulas.crw_worst_messages_bound(n, t)
            b_bound = formulas.crw_worst_bits_bound(n, t, bits)
            worst_within = worst_within and (
                record.messages_sent <= m_bound and record.bits_sent <= b_bound
            )
            table.add_row(
                "worst", n, t, bits,
                record.messages_sent, m_bound,
                record.bits_sent, b_bound,
                record.bits_sent / b_bound,
            )
    return ExperimentResult(
        exp_id="E2",
        title="bit complexity (Theorem 2)",
        claim="best case exactly (n-1)(|v|+1) bits / 2(n-1) messages; worst case "
        "within sum_{r<=t+1}(n-r)(|v|+1) bits / 2*sum messages",
        tables=[table],
        findings={
            "best_case_matches_formula_exactly": best_exact,
            "worst_case_within_paper_bound": worst_within,
        },
    )


# ---------------------------------------------------------------------------
# E3 — Section 2.2: timing crossover.
# ---------------------------------------------------------------------------


def _e3_times(D: float, d: float, f: int) -> tuple[float, float]:
    """E3's row view: CRW's ``(f+1)(D+d)`` and early stopping's ``(f+2)D``
    (any ``t >= f + 1`` keeps ``min(f+2, t+1)`` at ``f + 2``)."""
    return (
        formulas.extended_time(formulas.crw_round_bound(f), D, d),
        formulas.classic_time(formulas.early_stopping_round_bound(f, f + 1), D),
    )


def e3_timing(D: float = 100.0) -> ExperimentResult:
    """(f+1)(D+d) vs (f+2)D with the crossover at d = D/(f+1)."""
    table = Table(
        ["f", "d/D", "crw time", "early-stopping time", "extended wins"],
        title="E3: completion-time comparison (Section 2.2)",
    )
    for f in (0, 1, 2, 4):
        for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5):
            crw, early = _e3_times(D, frac * D, f)
            table.add_row(f, frac, crw, early, "yes" if crw < early else "no")
    cross = Table(
        ["f", "crossover d/D (model)", "formula D/(f+1) /D"],
        title="E3b: crossover position",
    )
    matches = True
    for f in (0, 1, 2, 4):
        # Locate the empirical flip with a fine sweep.
        flip = None
        for k in range(1, 2001):
            d = D * k / 1000.0
            crw, early = _e3_times(D, d, f)
            if not crw < early:
                flip = d / D
                break
        formula = formulas.crossover_d(D, f) / D
        matches = matches and flip is not None and abs(flip - formula) <= 1e-3
        cross.add_row(f, flip, formula)
    return ExperimentResult(
        exp_id="E3",
        title="timing crossover (Section 2.2)",
        claim="extended model wins iff d < D/(f+1); always true for realistic "
        "LAN values (d << D, f small)",
        tables=[table, cross],
        findings={"empirical_crossover_matches_formula": matches},
    )


# ---------------------------------------------------------------------------
# E4 — Theorems 3-5: lower bound, tightness, ablation.
# ---------------------------------------------------------------------------


def e4_lowerbound() -> ExperimentResult:
    """Exhaustive small-system verification of the bounds."""
    table = Table(
        ["statement", "n", "t/f", "leaves checked", "holds"],
        title="E4: lower-bound certificates (Theorems 3-5)",
    )
    findings: dict[str, Any] = {}

    # Tightness: the cascade forces exactly f+1.
    for n, f in ((4, 2), (6, 3), (8, 5)):
        cert = certify_f_plus_one(
            lambda n=n: [CRWConsensus(pid, n, 100 + pid) for pid in range(1, n + 1)], f
        )
        table.add_row("cascade forces f+1 (tight)", n, f, cert.leaves_checked, cert.holds)
        findings[f"tight_n{n}_f{f}"] = cert.holds

    # Upper bound, exhaustively: no adversary exceeds f+1.
    for n, t in ((3, 2), (4, 2), (4, 3)):
        cert = certify_no_run_exceeds(
            lambda n=n: {pid: CRWConsensus(pid, n, pid) for pid in range(1, n + 1)},
            max_crashes=t,
            max_crashes_per_round=t,
        )
        table.add_row("no run exceeds f+1 (exhaustive)", n, t, cert.leaves_checked, cert.holds)
        findings[f"upper_n{n}_t{t}"] = cert.holds

    # Impossibility: any t-round algorithm has a violating run (n >= t+2).
    for n, t in ((4, 1), (4, 2), (5, 2)):
        cert = refute_round_bound(
            lambda n=n, t=t: {
                pid: TruncatedCRW(pid, n, pid, k=t) for pid in range(1, n + 1)
            },
            max_crashes=t,
            max_rounds=t + 1,
        )
        table.add_row("t-round algorithm refuted", n, t, cert.leaves_checked, cert.holds)
        findings[f"refuted_n{n}_t{t}"] = cert.holds

    # Bivalency: a bivalent initial configuration exists.
    cfg = ExplorationConfig(max_crashes=1, max_crashes_per_round=1, max_rounds=3)
    bive = find_bivalent_initial(
        lambda props: {
            pid: CRWConsensus(pid, len(props), props[pid - 1])
            for pid in range(1, len(props) + 1)
        },
        3,
        cfg,
    )
    table.add_row("bivalent initial configuration exists", 3, 1, bive.leaves if bive else 0, bive is not None)
    findings["bivalent_initial_found"] = bive is not None

    # Bivalency chain: maintainable through round t-1 for the correct
    # algorithm (the reach of the Aguilera-Toueg induction) and past the
    # deadline for a truncated one (the disagreement witness).
    from repro.lowerbound.chain import extend_bivalent_chain

    chain_cfg = ExplorationConfig(max_crashes=2, max_crashes_per_round=1, max_rounds=5)
    crw_chain = extend_bivalent_chain(
        lambda: {pid: CRWConsensus(pid, 4, [0, 1, 1, 1][pid - 1]) for pid in range(1, 5)},
        chain_cfg,
    )
    table.add_row(
        "bivalence chain reaches round t-1 (CRW)", 4, 2, crw_chain.length, crw_chain.length == 1
    )
    findings["crw_chain_length_t_minus_1"] = crw_chain.length == 1
    trunc_chain = extend_bivalent_chain(
        lambda: {
            pid: TruncatedCRW(pid, 4, [0, 1, 1, 1][pid - 1], k=1) for pid in range(1, 5)
        },
        ExplorationConfig(max_crashes=1, max_crashes_per_round=1, max_rounds=3),
    )
    table.add_row(
        "bivalence survives a k=1 deadline (TruncatedCRW)", 4, 1, trunc_chain.length, trunc_chain.length >= 1
    )
    findings["truncated_chain_past_deadline"] = trunc_chain.length >= 1

    # Ablation: increasing commit order loses the f+1 property (not safety).
    cert = certify_no_run_exceeds(
        lambda: {pid: IncreasingCommitCRW(pid, 4, pid) for pid in range(1, 5)},
        max_crashes=2,
        max_crashes_per_round=2,
        max_rounds=5,
    )
    table.add_row("ablation: increasing commit order keeps f+1", 4, 2, cert.leaves_checked, cert.holds)
    findings["increasing_commit_breaks_f_plus_one"] = not cert.holds

    return ExperimentResult(
        exp_id="E4",
        title="lower bound and optimality (Theorems 3-5)",
        claim="f+1 is forced (tight), never exceeded (exhaustive), t rounds "
        "are impossible (refutation witness), and the decreasing commit "
        "order is load-bearing (ablation)",
        tables=[table],
        findings=findings,
    )


# ---------------------------------------------------------------------------
# E5 — Section 4: the MR99 bridge.
# ---------------------------------------------------------------------------


def e5_mr99(
    n_values: tuple[int, ...] = (5, 9),
    seeds: int = 10,
) -> ExperimentResult:
    """MR99 under the async simulator: rounds used vs crash count, with the
    same two-step round structure the paper maps COMMIT onto."""
    table = Table(
        ["algorithm", "n", "t", "f", "delay", "mean rounds", "max rounds", "mean msgs", "spec"],
        title="E5: asynchronous diamond-S algorithms across crash counts and delay models",
    )
    delays = (
        {"delay": "uniform", "lo": 0.5, "hi": 1.5},
        {"delay": "lognormal", "mu": 0.0, "sigma": 0.75},
    )
    configs = [
        Scenario(
            algorithm=algo_name,
            n=n,
            t=(n - 1) // 2,
            f=f,
            adversary="coordinator-killer",  # first f coordinators die at t=0
            timing={**delay, "detection_latency": 1.0},
        )
        for algo_name in ("mr99", "chandra-toueg")
        for n in n_values
        for f in range((n - 1) // 2 + 1)
        for delay in delays
    ]
    summaries = _summaries(configs, seeds)
    for config, row in zip(configs, summaries):
        table.add_row(
            row.algorithm,
            row.n,
            row.t,
            row.f,
            config.timing["delay"],
            row.mean_last_round,
            row.max_last_round,
            row.mean_messages,
            "ok" if row.spec_ok else "VIOLATED",
        )
    structure = Table(
        ["model", "per-round steps", "who sends step 2", "what step 2 means"],
        title="E5b: the structural bridge (paper Section 4)",
    )
    structure.add_row("extended sync (CRW)", "data + commit", "coordinator only", "value locked")
    structure.add_row("async diamond-S (MR99)", "EST + AUX", "every process", "value locked")
    structure.add_row("async diamond-S (CT [5])", "EST/TRY + ACK", "every process", "value locked")
    return ExperimentResult(
        exp_id="E5",
        title="bridge to asynchronous consensus (Section 4)",
        claim="MR99 realizes the same two-step/locking pattern; rounds used "
        "grow with dead coordinators exactly as CRW's do",
        tables=[table, structure],
        findings={"all_async_runs_uniform": all(row.spec_ok for row in summaries)},
    )


# ---------------------------------------------------------------------------
# E6 — related work [1]: fast failure detector comparison.
# ---------------------------------------------------------------------------


def e6_ffd(
    D: float = 100.0,
    d_fd: float = 1.0,
    d_ext: float = 1.0,
    f_values: tuple[int, ...] = (0, 1, 2, 3, 4),
    n: int = 6,
) -> ExperimentResult:
    """Measured FFD decision time ~ D + f*d_fd, vs CRW's (f+1)(D+d)."""
    table = Table(
        ["f", "ffd measured", "ffd model D+(f+1)d", "crw model (f+1)(D+d)", "ffd wins"],
        title="E6: fast-FD consensus vs extended-model consensus (time)",
    )
    ok = True
    within = True
    for f in f_values:
        record = execute(Scenario(
            algorithm="ffd",
            n=n,
            f=f,
            adversary="coordinator-killer",  # first f grid slots die at t=0
            timing={"D": D, "d": d_fd},
            seed=f,
        ))
        ok = ok and record.spec_ok
        measured = record.raw.max_decision_time
        model = formulas.ffd_time_bound(f, D, d_fd)
        crw = formulas.extended_time(formulas.crw_round_bound(f), D, d_ext)
        within = within and measured <= model + 1e-9
        table.add_row(f, measured, model, crw, "yes" if model < crw else "no")
    return ExperimentResult(
        exp_id="E6",
        title="fast failure detector comparison (related work [1])",
        claim="fast-FD consensus decides in ~ D + f*d; both approaches beat "
        "classic (f+2)D, with fast-FD ahead once f >= 1 (it pays D once)",
        tables=[table],
        findings={
            "ffd_runs_uniform": ok,
            "measured_within_model_bound": within,
        },
    )


# ---------------------------------------------------------------------------
# E7 — Section 2.2: computability equivalence cost.
# ---------------------------------------------------------------------------


def e7_simulation(
    n_values: tuple[int, ...] = (4, 8),
    f_values: tuple[int, ...] = (0, 1, 2),
) -> ExperimentResult:
    """Extended-on-classic adapter preserves consensus; blow-up factor = n."""
    table = Table(
        ["n", "f", "native rounds", "simulated classic rounds", "blow-up"],
        title="E7: simulating the extended model on the classic model",
    )
    ok = True
    for n in n_values:
        for f in f_values:
            rng = RandomSource(7)
            schedule = make_adversary("coordinator-killer", f).schedule(n, n - 1, rng)
            native = execute(Scenario(algorithm="crw", n=n, t=n - 1, f=f,
                                      adversary="coordinator-killer", seed=7))
            simulated = run_extended_on_classic(
                lambda n=n: [CRWConsensus(pid, n, 100 + pid) for pid in range(1, n + 1)],
                schedule,
                t=n - 1,
            )
            from repro.sync.spec import check_consensus

            ok = ok and check_consensus(simulated).ok
            table.add_row(
                n,
                f,
                native.last_decision_round,
                simulated.last_decision_round,
                simulated.last_decision_round / max(1, native.last_decision_round),
            )
    return ExperimentResult(
        exp_id="E7",
        title="computability equivalence (Section 2.2)",
        claim="the extended model simulates on the classic model at a cost of "
        "one classic round per control position (factor n here)",
        tables=[table],
        findings={"simulated_runs_uniform": ok},
    )


# ---------------------------------------------------------------------------
# E8 — engine scaling and RSM throughput (repro quality check).
# ---------------------------------------------------------------------------


def e8_scaling(
    n_values: tuple[int, ...] = (8, 16, 32, 64),
    slots: int = 20,
) -> ExperimentResult:
    """Simulator throughput vs n, plus replicated-log slot latency."""
    table = Table(
        ["n", "runs/s (failure-free)", "messages/run", "mean slot rounds (RSM)"],
        title="E8: engine scaling and replicated-log throughput",
    )
    for n in n_values:
        # Throughput of failure-free CRW runs.
        reps = 30
        start = time.perf_counter()
        msgs = 0
        for seed in range(reps):
            record = execute(Scenario(algorithm="crw", n=n, t=n - 1, seed=seed))
            msgs = record.messages_sent
        elapsed = time.perf_counter() - start
        # RSM: commit `slots` slots, crash-free.
        log = ReplicatedLog(n, KVStore, t=n - 1, rng=RandomSource(1))
        rounds = []
        for s in range(slots):
            slot = log.commit({1: Command(1, f"set k{s} v{s}")})
            rounds.append(slot.rounds)
        assert log.check_invariants() == []
        table.add_row(n, reps / elapsed, msgs, sum(rounds) / len(rounds))
    return ExperimentResult(
        exp_id="E8",
        title="engine scaling + RSM throughput",
        claim="(repro quality) simulator scales to n=64+; failure-free RSM "
        "commits every slot in one extended round",
        tables=[table],
        findings={},
    )


ALL_EXPERIMENTS = {
    "e1": e1_rounds,
    "e2": e2_bits,
    "e3": e3_timing,
    "e4": e4_lowerbound,
    "e5": e5_mr99,
    "e6": e6_ffd,
    "e7": e7_simulation,
    "e8": e8_scaling,
}
