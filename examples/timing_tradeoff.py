#!/usr/bin/env python3
"""When do synchronization messages pay off? (Section 2.2, related work [1])

Prints the paper's completion-time comparison across the three designs:

* extended model (this paper):        (f+1)(D+d)
* classic early-stopping consensus:   (f+2)D
* fast-failure-detector consensus:    ~ D + f*d_fd   (related work [1])

and locates the crossover d = D/(f+1), then validates the fast-FD curve
against the *measured* decision times of the timed simulator.

    python examples/timing_tradeoff.py
"""

from repro import check_consensus
from repro.analysis.formulas import (
    classic_time,
    crossover_d,
    crw_round_bound,
    early_stopping_round_bound,
    extended_time,
    ffd_time_bound,
)
from repro.ffd import TimedCrash, TimedSpec, run_ffd_consensus
from repro.util import RandomSource, Table


def main() -> None:
    D = 100.0

    print("-- completion time (D = 100) --\n")
    table = Table(["f", "d/D", "extended (f+1)(D+d)", "classic ES (f+2)D", "winner"])
    for f in (0, 1, 2, 4):
        for frac in (0.01, 0.1, 0.5, 1.0):
            crw = extended_time(crw_round_bound(f), D, frac * D)
            # any t >= f + 1 keeps min(f+2, t+1) at f + 2
            es = classic_time(early_stopping_round_bound(f, f + 1), D)
            table.add_row(f, frac, crw, es, "extended" if crw < es else "classic")
    print(table.to_ascii())

    print("\n-- crossover: the extended model wins iff d < D/(f+1) --\n")
    for f in (0, 1, 2, 4):
        print(f"  f={f}: break-even d = {crossover_d(D, f):.1f}  (= D/{f + 1})")

    print("\n-- fast failure detector (d_fd = 1 << D = 100), measured --\n")
    n = 6
    spec = TimedSpec(n=n, D=D, d=1.0)
    table = Table(["f", "measured decision time", "model D+(f+1)d", "extended (f+1)(D+d)"])
    for f in (0, 1, 2, 3):
        crashes = [TimedCrash(pid, 0.0) for pid in range(1, f + 1)]
        result = run_ffd_consensus(
            spec, [100 + pid for pid in range(1, n + 1)], crashes, rng=RandomSource(f)
        )
        assert check_consensus(result).ok
        table.add_row(
            f,
            result.max_decision_time,
            ffd_time_bound(f, D, 1.0),
            extended_time(crw_round_bound(f), D, 1.0),
        )
    print(table.to_ascii())
    print(
        "\nBoth enrichments beat the classic bound; the fast detector pays D once\n"
        "while the extended model pays D per round — and needs no extra hardware."
    )


if __name__ == "__main__":
    main()
