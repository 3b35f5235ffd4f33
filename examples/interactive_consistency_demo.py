#!/usr/bin/env python3
"""Interactive consistency: the problem behind the paper's t+1 citation.

The introduction's classic lower bound ("any t-resilient consensus
algorithm requires t+1 rounds") cites Fischer–Lynch, whose result is
stated for *interactive consistency*: every correct process outputs the
same full **vector** of proposals, with ⊥ allowed only for crashed
processes.  This demo runs the flooding IC algorithm under a partial
crash and shows the agreed vector, then derives consensus from it
(decide the minimum entry) — the reduction that carries the lower bound
over to consensus.

    python examples/interactive_consistency_demo.py
"""

from repro.baselines import (
    BOTTOM,
    ICConsensus,
    InteractiveConsistency,
    check_interactive_consistency,
)
from repro.sync import ClassicSynchronousEngine, CrashEvent, CrashPoint, CrashSchedule
from repro.util import RandomSource


def main() -> None:
    n, t = 5, 2
    proposals = [17, 4, 23, 8, 15]
    print(f"n={n}, t={t}, proposals={proposals}")
    print("p1 crashes mid-broadcast, reaching only p3;")
    print("p4 crashes silently before ever speaking.\n")

    schedule = CrashSchedule(
        [
            CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({3})),
            CrashEvent(4, 1, CrashPoint.BEFORE_SEND),
        ]
    )

    procs = [
        InteractiveConsistency(pid, n, proposals[pid - 1], t)
        for pid in range(1, n + 1)
    ]
    result = ClassicSynchronousEngine(
        procs, schedule, t=t, rng=RandomSource(3)
    ).run()

    problems = check_interactive_consistency(result)
    print(f"IC spec: {'OK' if not problems else problems}")
    vector = next(iter(result.decisions.values()))
    print(f"agreed vector ({result.rounds_executed} rounds = t+1):")
    for j, entry in enumerate(vector, start=1):
        status = "crashed" if j in result.crashed else "correct"
        shown = "⊥" if entry is BOTTOM else entry
        print(f"  V[{j}] = {shown:>3}   (p{j} {status})")
    print(
        "\np1's 17 survived through p3's relay; p4 never spoke, so its slot"
        "\nis ⊥ at every decider — identically, which is the whole point.\n"
    )

    # The reduction: consensus = min over the agreed vector.
    procs = [ICConsensus(pid, n, proposals[pid - 1], t) for pid in range(1, n + 1)]
    result = ClassicSynchronousEngine(
        procs,
        CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({3})),
                CrashEvent(4, 1, CrashPoint.BEFORE_SEND),
            ]
        ),
        t=t,
        rng=RandomSource(3),
    ).run()
    print(f"IC -> consensus reduction decides: {set(result.decisions.values())}")


if __name__ == "__main__":
    main()
