"""E6 — related work [1]: fast-failure-detector consensus timing."""

from __future__ import annotations

from repro.ffd.consensus import run_ffd_consensus
from repro.ffd.timed import TimedCrash, TimedSpec
from repro.harness.experiments import e6_ffd
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource


def test_e6_report(benchmark, report):
    result = benchmark.pedantic(e6_ffd, rounds=1, iterations=1)
    report(result)
    assert result.findings["ffd_runs_uniform"] is True
    assert result.findings["measured_within_model_bound"] is True


def test_e6_kernel_cascade(benchmark):
    spec = TimedSpec(n=6, D=100.0, d=1.0)

    def kernel():
        return run_ffd_consensus(
            spec,
            [100 + pid for pid in range(1, 7)],
            [TimedCrash(pid, 0.0) for pid in range(1, 4)],
            rng=RandomSource(3),
        )

    result = benchmark(kernel)
    assert check_consensus(result).ok
    # D + f*d (+ the implementation's one-slot detector settle).
    assert result.max_decision_time <= 100.0 + 3 * 1.0 + 1.0 + 1e-9
