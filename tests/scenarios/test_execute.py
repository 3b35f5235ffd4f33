"""The execute() facade: backend coverage, spec verdicts, engine parity, CLI front doors."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ADVERSARIES, ALGORITHMS, WORKLOADS, EngineLease, Scenario, execute
from repro.util.rng import RandomSource


class TestBackendCoverage:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS.names()))
    def test_every_registered_algorithm_executes(self, algorithm):
        record = execute(Scenario(algorithm=algorithm, n=5, f=1,
                                  adversary="coordinator-killer", seed=3))
        assert record.spec_ok, record.violations
        assert record.backend == ALGORITHMS.get(algorithm).backend
        assert len(record.decisions) >= 1
        assert record.f_actual == 1

    def test_crw_early_stopping_shape(self):
        record = execute(Scenario(algorithm="crw", n=8, f=3,
                                  adversary="coordinator-killer"))
        assert record.last_decision_round == record.f_actual + 1

    def test_eager_crw_violates_under_partial_data_delivery(self):
        # The ablation exists to fail: a coordinator crash that delivers
        # DATA to only a subset splits eager deciders from the rest.
        record = execute(Scenario(algorithm="eager-crw", n=4, f=1,
                                  adversary="coordinator-killer-subset", seed=0))
        assert not record.spec_ok
        assert any("agreement" in v for v in record.violations)

    def test_truncated_crw_takes_k_param(self):
        record = execute(Scenario(algorithm="truncated-crw", n=5, f=0,
                                  adversary="none", params={"k": 2}))
        assert record.last_decision_round <= 2

    def test_interactive_consistency_uses_vector_spec(self):
        record = execute(Scenario(algorithm="interactive-consistency", n=4, f=1,
                                  adversary="random", seed=5))
        # Vector decisions are not proposals; the dedicated IC checker
        # must be in effect (the plain checker would flag validity).
        assert record.spec_ok, record.violations

    def test_async_records_sim_time(self):
        record = execute(Scenario(algorithm="mr99", n=5, f=1,
                                  adversary="coordinator-killer",
                                  timing={"delay": "uniform", "lo": 0.5, "hi": 1.5}))
        assert record.spec_ok and record.sim_time is not None

    def test_ffd_timing_params(self):
        record = execute(Scenario(algorithm="ffd", n=6, f=2,
                                  adversary="coordinator-killer",
                                  timing={"D": 50.0, "d": 1.0}))
        assert record.spec_ok
        assert record.raw.max_decision_time <= 50.0 + 3 * 1.0
        assert record.messages_sent > 0

    def test_deterministic_per_scenario(self):
        s = Scenario(algorithm="chandra-toueg", n=5, f=1, adversary="random", seed=9)
        a, b = execute(s), execute(s)
        assert a.to_dict() == b.to_dict()


class TestRejections:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            execute(Scenario(algorithm="paxos", n=4))

    def test_unknown_adversary(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            execute(Scenario(algorithm="crw", n=4, adversary="byzantine"))

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            execute(Scenario(algorithm="crw", n=4, workload="zipfian"))

    def test_model_mismatch(self):
        with pytest.raises(ConfigurationError, match="backend"):
            execute(Scenario(algorithm="crw", n=4, model="async"))

    def test_model_match_accepted(self):
        assert execute(Scenario(algorithm="crw", n=4, model="extended")).spec_ok

    def test_f_beyond_default_t(self):
        # mr99 default t = (n-1)//2 = 2; f=3 exceeds it.
        with pytest.raises(ConfigurationError, match="exceeds"):
            execute(Scenario(algorithm="mr99", n=5, f=3))

    def test_sync_adversary_without_timed_plan(self):
        with pytest.raises(ConfigurationError, match="timed crash plan"):
            execute(Scenario(algorithm="mr99", n=5, f=1, adversary="commit-splitter"))

    def test_unknown_delay_model(self):
        with pytest.raises(ConfigurationError, match="delay model"):
            execute(Scenario(algorithm="mr99", n=5, timing={"delay": "teleport"}))

    def test_typoed_timing_key_rejected(self):
        # 'sigm' would silently fall back to the default sigma otherwise.
        with pytest.raises(ConfigurationError, match="timing key"):
            execute(Scenario(algorithm="mr99", n=5,
                             timing={"delay": "lognormal", "sigm": 0.75}))
        with pytest.raises(ConfigurationError, match="timing key"):
            execute(Scenario(algorithm="ffd", n=6, timing={"DD": 50.0}))

    @pytest.mark.parametrize("scenario, key, backend", [
        (Scenario(algorithm="mr99", n=4, timing={"delay": "uniform", "lo": "x"}),
         "lo", "async"),
        (Scenario(algorithm="mr99", n=4, timing={"until": "soon"}), "until", "async"),
        (Scenario(algorithm="mr99", n=4, timing={"max_events": "many"}),
         "max_events", "async"),
        (Scenario(algorithm="mr99", n=4, timing={"max_events": float("inf")}),
         "max_events", "async"),
        (Scenario(algorithm="chandra-toueg", n=4, timing={"churn_rate": None}),
         "churn_rate", "async"),
        (Scenario(algorithm="ffd", n=4, timing={"D": "big"}), "D", "ffd"),
    ], ids=["lo", "until", "max_events", "max_events-inf", "churn_rate", "D"])
    def test_non_numeric_timing_values_rejected(self, scenario, key, backend):
        with pytest.raises(ConfigurationError, match=rf"timing '{key}'.*'{backend}'"):
            execute(scenario)

    @pytest.mark.parametrize("algorithm", ["crw", "floodset"])  # extended, classic
    def test_sync_backends_reject_timing_keys_no_backend_reads(self, algorithm):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            execute(Scenario(algorithm=algorithm, n=4, timing={"bogus": 1}))

    def test_sync_backends_accept_other_backends_timing_keys(self):
        # A mixed-backend grid shares one base timing across its cells.
        shared = {"delay": "uniform", "lo": 0.5, "D": 50.0, "until": 100.0}
        for algorithm in ("crw", "mr99", "ffd"):
            timing = shared if algorithm == "crw" else {
                k: v for k, v in shared.items()
                if (k == "D") == (algorithm == "ffd")
            }
            assert execute(Scenario(algorithm=algorithm, n=4, timing=timing)).spec_ok

    def test_unknown_workload_param_key_rejected(self):
        # No workload reads 'bogus': reject it, do not run the defaults.
        with pytest.raises(ConfigurationError, match=r"'bogus'.*distinct-ints"):
            execute(Scenario(algorithm="crw", n=4,
                             workload_params={"bogus": 1}))
        with pytest.raises(ConfigurationError, match="'bit'"):
            execute(Scenario(algorithm="crw", n=4, workload="sized",
                             workload_params={"bit": 16}))

    def test_unknown_algorithm_param_key_rejected(self):
        # crw reads no params: k only means something to truncated-crw.
        with pytest.raises(ConfigurationError, match=r"'k'.*'crw'"):
            execute(Scenario(algorithm="crw", n=4, params={"k": 3}))
        with pytest.raises(ConfigurationError, match="'deadline'"):
            execute(Scenario(algorithm="truncated-crw", n=4,
                             params={"deadline": 2}))
        with pytest.raises(ConfigurationError, match="'k'"):
            execute(Scenario(algorithm="mr99", n=5, params={"k": 1}))

    def test_registrations_accept_no_params_by_default(self):
        from repro.scenarios import AlgorithmDef, WorkloadDef

        algo = AlgorithmDef(name="x", backend="extended", factory=None)
        workload = WorkloadDef(name="x", build=lambda n, rng, params: [])
        assert algo.param_keys == workload.param_keys == frozenset()

    @pytest.mark.parametrize("scenario", [
        Scenario(algorithm="truncated-crw", n=4, params={"k": "a"}),
        Scenario(algorithm="crw", n=4, workload="skewed",
                 workload_params={"alphabet": "x"}),
        Scenario(algorithm="crw", n=4, workload="sized",
                 workload_params={"bits": None}),
        Scenario(algorithm="crw", n=4, workload="binary",
                 workload_params={"p_one": "half"}),
        # JSON's Infinity (as `--param k=Infinity` decodes it) overflows int().
        Scenario(algorithm="truncated-crw", n=4, params={"k": float("inf")}),
        Scenario(algorithm="crw", n=4, workload="sized",
                 workload_params={"bits": float("inf")}),
        # The deadline is a round number, so k >= 1.
        Scenario(algorithm="truncated-crw", n=4, params={"k": 0}),
        Scenario(algorithm="truncated-crw", n=4, params={"k": -5}),
    ], ids=["k", "alphabet", "bits", "p_one", "k-inf", "bits-inf", "k-zero", "k-negative"])
    def test_non_numeric_numeric_params_rejected(self, scenario):
        with pytest.raises(ConfigurationError, match="parameter"):
            execute(scenario)

    def test_numeric_strings_still_accepted(self):
        record = execute(Scenario(algorithm="truncated-crw", n=5, f=0,
                                  adversary="none", params={"k": "2"}))
        assert record.last_decision_round <= 2

    def test_unhashable_proposals_rejected_before_running(self, monkeypatch):
        import repro.sync.engine as engine

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine must not run")

        monkeypatch.setattr(engine.SynchronousEngine, "run", no_engine)
        with pytest.raises(ConfigurationError, match=r"'identical'.*unhashable"):
            execute(Scenario(algorithm="crw", n=4, workload="identical",
                             workload_params={"value": [1, 2]}))

    def test_detector_churn_params_forwarded(self):
        record = execute(Scenario(
            algorithm="mr99", n=5, f=1, adversary="coordinator-killer",
            timing={"stabilization_time": 5.0, "churn_rate": 0.5,
                    "false_suspicion_duration": 2.0},
        ))
        assert record.spec_ok, record.violations


#: (algorithm, adversary) cells of the three algorithms E1 tabulates.  The
#: extended model takes every adversary; the classic engines reject
#: DURING_CONTROL crash points, so classic algorithms pair only with the
#: adversaries whose schedules are classic-legal (execute maps "random"
#: to "random-classic" for them).
PARITY_CELLS = [
    (algorithm, adversary)
    for algorithm, adversaries in (
        ("crw", ["none", "coordinator-killer", "commit-splitter", "max-traffic",
                 "staggered", "random"]),
        ("floodset", ["none", "staggered", "random"]),
        ("early-stopping", ["none", "staggered", "random"]),
    )
    for adversary in adversaries
]


def hand_wired_run(scenario: Scenario, *, trace: bool = False):
    """The scenario run on a fresh per-object engine wired from the registries.

    Same labelled RNG streams as execute() (``workload`` / ``adversary``
    / ``engine``), but no lease, no vector or batched table and no
    record normalization: the reference execute() must reproduce.
    """
    from repro.sync.engine import ClassicSynchronousEngine
    from repro.sync.extended import ExtendedSynchronousEngine

    algo = ALGORITHMS.get(scenario.algorithm)
    n = scenario.n
    t = scenario.t if scenario.t is not None else algo.default_t(n)
    rng = RandomSource(scenario.seed)
    proposals = WORKLOADS.get(scenario.workload).build(
        n, rng.spawn("workload"), dict(scenario.workload_params)
    )
    adversary = scenario.adversary
    if algo.backend == "classic" and adversary == "random":
        adversary = "random-classic"
    schedule = ADVERSARIES.get(adversary).make_sync(scenario.f).schedule(
        n, t, rng.spawn("adversary")
    )
    engine_cls = (
        ExtendedSynchronousEngine if algo.backend == "extended" else ClassicSynchronousEngine
    )
    engine = engine_cls(
        algo.factory(n, t, proposals, dict(scenario.params)), schedule,
        t=t, rng=rng.spawn("engine"), trace=trace, batched=False,
    )
    return engine.run(scenario.max_rounds)


class TestHandWiredParity:
    """execute(scenario) reproduces a hand-wired per-object engine run."""

    @pytest.mark.parametrize("algorithm,adversary", PARITY_CELLS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decisions_and_rounds_identical(self, algorithm, adversary, seed):
        scenario = Scenario(algorithm=algorithm, n=6, t=5, f=2,
                            adversary=adversary, seed=seed)
        reference = hand_wired_run(scenario)
        # Through a lease that already ran a neighbouring seed, so the
        # leased engine is refilled or reset rather than built fresh.
        lease = EngineLease()
        execute(scenario.with_(seed=seed + 100), lease=lease)
        record = execute(scenario, lease=lease)
        assert record.decisions == reference.decisions
        assert record.decision_rounds == reference.decision_rounds
        assert record.crashed == reference.crashed_pids
        assert record.rounds_executed == reference.rounds_executed
        assert record.messages_sent == reference.stats.messages_sent
        assert record.bits_sent == reference.stats.bits_sent

    def test_value_bits_parity(self):
        scenario = Scenario(algorithm="crw", n=4, t=3, f=0, adversary="none",
                            workload="sized", workload_params={"bits": 128})
        reference = hand_wired_run(scenario)
        record = execute(scenario)
        # Single round: 3 data * 128 bits + 3 commits * 1 bit.
        assert record.bits_sent == reference.stats.bits_sent == 3 * 128 + 3

    def test_trace_parity(self):
        scenario = Scenario(algorithm="crw", n=5, t=4, f=2,
                            adversary="coordinator-killer", seed=4)
        reference = hand_wired_run(scenario, trace=True)
        record = execute(scenario, trace=True)
        assert len(record.raw.trace) == len(reference.trace) > 0
        assert record.decisions == reference.decisions

    @pytest.mark.parametrize("algorithm", ["crw", "floodset", "early-stopping"])
    def test_sync_raw_is_run_result(self, algorithm):
        from repro.sync.result import RunResult

        record = execute(Scenario(algorithm=algorithm, n=4, t=3))
        assert isinstance(record.raw, RunResult)
        assert record.raw.model == record.backend


class TestCli:
    """The CLI's ``run`` and ``scenario run`` front doors over execute()."""

    def test_cli_run_value_bits_is_the_sized_workload(self, capsys):
        import json

        from repro.harness.cli import main

        assert main(["run", "-a", "crw", "--n", "4", "--f", "0", "--adversary",
                     "none", "--value-bits", "64", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenario"]["workload"] == "sized"
        assert out["scenario"]["workload_params"] == {"bits": 64}
        # One round: 3 data messages of |v| bits + 3 one-bit commits.
        assert out["record"]["bits_sent"] == 3 * 65

    def test_cli_run_defaults_t_per_algorithm(self, capsys):
        # `run` without --t must use the algorithm's own t rule:
        # n-1 would violate mr99's majority requirement and traceback.
        from repro.harness.cli import main

        assert main(["run", "-a", "mr99", "--n", "5", "--f", "1",
                     "--adversary", "coordinator-killer"]) == 0
        assert "spec:  OK" in capsys.readouterr().out

    def test_cli_scenario_run_trace_prints(self, capsys):
        from repro.harness.cli import main

        assert main(["scenario", "run", "-a", "crw", "--n", "4", "--trace"]) == 0
        assert "decide" in capsys.readouterr().out

    def test_cli_scenario_file_rejects_conflicting_flags(self, tmp_path, capsys):
        # Flags alongside --file would lose silently (e.g. sweeping --seed
        # over a base file runs the file's seed every time).
        from repro.harness.cli import main

        path = tmp_path / "s.json"
        path.write_text(Scenario(algorithm="crw", n=4).to_json())
        assert main(["scenario", "run", "--file", str(path), "--seed", "99"]) == 2
        assert "--seed" in capsys.readouterr().err
        # Even a flag passed at its documented default must be caught —
        # the file's value (not the flag's) would win otherwise.
        assert main(["scenario", "run", "--file", str(path), "--seed", "0"]) == 2

    def test_cli_config_errors_are_clean(self, capsys):
        # User-input mistakes exit 2 with the curated one-line message,
        # not a traceback.
        from repro.harness.cli import main

        assert main(["scenario", "run", "-a", "paxos", "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown algorithm 'paxos'")
        assert main(["scenario", "run", "-a", "crw", "--n", "4",
                     "--timing", "bogus=1"]) == 2
        assert "'bogus'" in capsys.readouterr().err

    def test_cli_run_uses_registered_spec(self, capsys):
        # `run` accepts every registered algorithm; the CLI must
        # judge each with its registered checker (IC decides vectors,
        # which the plain validity clause would wrongly flag).
        from repro.harness.cli import main

        assert main(["run", "-a", "interactive-consistency", "--n", "4",
                     "--t", "1", "--adversary", "none"]) == 0
        assert "spec:  OK" in capsys.readouterr().out
