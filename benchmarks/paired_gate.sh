#!/usr/bin/env bash
# Paired end-to-end performance gate: this checkout against a base checkout.
#
#     benchmarks/paired_gate.sh BASE_CHECKOUT
#
# BASE_CHECKOUT is a checkout of the commit to compare against (in CI, a
# `git worktree` of the merge base).  For every workload named in both
# checkouts' BENCHMARK.json, the gate runs
#
#     python3 benchmarks/e2e/run.py --workload W --seed S --trace 0 --seconds 8
#
# in 6 pairs.  Each side runs its own run.py, which imports its own src/.
# Pair S uses seed S on both sides, so host speed, core count and drift
# cancel within a pair.  The side that runs first alternates, and the
# pair count is even so that each side runs first equally often: on a
# shared 2-core host the second run of a pair was the slower one in 9 of
# 10 service pairs.  benchmarks/e2e/compare.py judges the runs with
# BENCHMARK.json's bounds.  A workload it finds WORSE is run again on 6
# fresh pairs (seeds 6-11), and the gate fails only if compare.py finds
# it WORSE again: the spread of service_storm's wall_p50_ms alone
# exceeds its 25% bound.  The run outputs are kept in
# .paired_gate/{gate,replay}/{base,change}/ at this checkout's root.
#
# Exits 1 when a WORSE verdict replicates, and also when any run exits
# non-zero or prints no result line: compare.py skips a workload that is
# missing from one set, so a broken run must not pass as a skipped one.
# Exits 2 on a usage error.

set -u

PAIRS=6
SECONDS_PER_RUN=8

if [ $# -ne 1 ] || [ ! -f "$1/benchmarks/e2e/run.py" ]; then
    echo "usage: $0 BASE_CHECKOUT (a checkout holding benchmarks/e2e/run.py)" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
out="$change/.paired_gate"
rm -rf "$out"

# Workloads in this checkout's BENCHMARK.json order, kept if the base
# names them too: a workload the base lacks has nothing to pair with.
workloads=$(python3 - "$change/BENCHMARK.json" "$base/BENCHMARK.json" <<'EOF'
import json, sys
change, base = ([w["name"] for w in json.load(open(p))["workloads"]] for p in sys.argv[1:])
for name in change:
    if name in base:
        print(name)
    else:
        print(f"# {name}: not in the base, not gated", file=sys.stderr)
EOF
) || exit 2

broken=()

# run CHECKOUT SET SIDE WORKLOAD SEED: one run.py run into $out/SET/SIDE/.
run() {
    local file="$out/$2/$3/$4-$5.txt" err="$out/$2/$3-$4-$5.err"
    local started=$SECONDS status
    (cd "$1" && python3 benchmarks/e2e/run.py --workload "$4" --seed "$5" \
        --trace 0 --seconds "$SECONDS_PER_RUN") >"$file" 2>"$err"
    status=$?
    echo "# $2 $3 $4 seed=$5: exit $status in $((SECONDS - started)) s"
    if [ $status -ne 0 ] || ! tail -n 1 "$file" | grep -q '^{'; then
        broken+=("$3 $4 seed=$5 (exit $status)")
        tail -n 5 "$err" >&2
    fi
}

# pairs SET FIRST_SEED WORKLOAD...: PAIRS alternating pairs per workload,
# then compare.py over the set; its output goes to $out/SET.txt.
pairs() {
    local set=$1 first=$2 workload seed
    shift 2
    mkdir -p "$out/$set/base" "$out/$set/change"
    for workload in "$@"; do
        for ((seed = first; seed < first + PAIRS; seed++)); do
            if ((seed % 2 == 0)); then
                run "$base" "$set" base "$workload" "$seed"
                run "$change" "$set" change "$workload" "$seed"
            else
                run "$change" "$set" change "$workload" "$seed"
                run "$base" "$set" base "$workload" "$seed"
            fi
        done
    done
    python3 "$change/benchmarks/e2e/compare.py" "$out/$set/base" "$out/$set/change" \
        | tee "$out/$set.txt"
    return "${PIPESTATUS[0]}"
}

pairs gate 0 $workloads
verdict=$?
if [ $verdict -eq 1 ] && [ ${#broken[@]} -eq 0 ]; then
    worse=$(awk '$1 == "WORSE" || $1 == "DIFFERS" { print $2 }' "$out/gate.txt" | sort -u)
    echo "# WORSE on" $worse "- replaying on $PAIRS fresh pairs"
    pairs replay "$PAIRS" $worse
    verdict=$?
fi
echo "# paired gate: $SECONDS s in all"
if [ ${#broken[@]} -gt 0 ]; then
    echo "paired gate: ${#broken[@]} run(s) failed or left no result line:" >&2
    printf '  %s\n' "${broken[@]}" >&2
    exit 1
fi
exit $verdict
