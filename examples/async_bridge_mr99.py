#!/usr/bin/env python3
"""The Section-4 bridge: COMMIT is MR99's second communication step.

Runs the paper's synchronous algorithm and the MR99 asynchronous ◇S
algorithm side by side on equivalent failure scenarios and shows the
structural correspondence the paper draws:

* both are rotating-coordinator, two-step-per-round protocols;
* step 2 ("COMMIT" / the AUX exchange) certifies that the coordinator's
  estimate is *locked*;
* the extended model lets a single process (the coordinator) issue step 2
  with zero extra synchronization — asynchrony makes everyone exchange it.

    python examples/async_bridge_mr99.py
"""

from repro import (
    CoordinatorKiller,
    CRWConsensus,
    ExtendedSynchronousEngine,
    check_consensus,
)
from repro.asyncsim import AsyncCrash, AsyncRunner, DetectorSpec, MR99Consensus
from repro.util import RandomSource, Table


def run_crw(n: int, f: int) -> tuple[int, int]:
    rng = RandomSource(5)
    procs = [CRWConsensus(pid, n, 100 + pid) for pid in range(1, n + 1)]
    schedule = CoordinatorKiller(f).schedule(n, n - 1, rng)
    result = ExtendedSynchronousEngine(procs, schedule, t=n - 1, rng=rng).run()
    return result.last_decision_round, result.stats.messages_sent


def run_mr99(n: int, t: int, f: int) -> tuple[int, int]:
    procs = [MR99Consensus(pid, n, 100 + pid, t) for pid in range(1, n + 1)]
    runner = AsyncRunner(
        procs,
        t=t,
        crashes=[AsyncCrash(pid, 0.0) for pid in range(1, f + 1)],
        detector_spec=DetectorSpec(detection_latency=1.0),
        rng=RandomSource(5),
    )
    result = runner.run()
    assert check_consensus(result).ok
    return max(result.decision_rounds.values()), result.stats.async_sent


def main() -> None:
    n = 5
    t = (n - 1) // 2  # MR99 needs a correct majority

    print("same principle, two models (n=5, first-f-coordinators crash):\n")
    table = Table(
        ["f", "CRW rounds", "MR99 rounds", "CRW msgs", "MR99 msgs"],
        title="rounds to decide / messages sent",
    )
    for f in range(t + 1):
        crw_rounds, crw_msgs = run_crw(n, f)
        mr_rounds, mr_msgs = run_mr99(n, t, f)
        table.add_row(f, crw_rounds, mr_rounds, crw_msgs, mr_msgs)
    print(table.to_ascii())

    print(
        "\nBoth protocols spend one coordinated round per dead coordinator.\n"
        "The message bill differs by design: MR99's second step is an\n"
        "all-to-all AUX exchange plus round-number headers (asynchrony has\n"
        "no free round boundaries), while the extended model's COMMIT is a\n"
        "single pipelined 1-bit message from the coordinator."
    )


if __name__ == "__main__":
    main()
