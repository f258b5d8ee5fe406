#!/usr/bin/env bash
# Paired dharma-bench runs: a parent commit against the working tree.
#
#   scripts/bench-pair.sh [options] <parent-ref> [workload...]
#
#   --rounds N               alternating pairs per workload (default 4)
#   --seconds S              measured seconds per run (default: run_seconds
#                            of BENCHMARK.json)
#   --datagrams-may-change   do not fail when fixed-work counts differ
#
# The parent is exported (`git archive`) under /root/scratch — or $TMPDIR,
# or /tmp — and both sides are built once, offline, into their own
# CARGO_TARGET_DIR. The two binaries then alternate from the repository
# root (which side runs first flips every round) and the script prints, per
# workload, each end-to-end metric's median parent -> change beside its
# BENCHMARK.json bound. Last, every simulated workload runs `--ops 4000` at
# seeds 7 and 1234 on both sides: a change that alters no datagram repeats
# lookups_per_op / msgs_per_op / bytes_per_op bit for bit, and the script
# exits 1 when they differ unless told that datagrams may change.
#
# Only the JSON object on the benchmark's last stdout line is read.
set -euo pipefail

rounds=4
seconds=
may_change=0
while [ $# -gt 0 ]; do
    case "$1" in
        --rounds) rounds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --datagrams-may-change) may_change=1; shift ;;
        -h|--help) sed -n '2,21p' "$0"; exit 0 ;;
        --*) echo "unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 1 ]; then
    echo "usage: scripts/bench-pair.sh [--rounds N] [--seconds S] [--datagrams-may-change] <parent-ref> [workload...]" >&2
    exit 2
fi
parent_ref=$1; shift

root=$(git rev-parse --show-toplevel)
cd "$root"
spec=$(tr -d '\n' < BENCHMARK.json)
: "${seconds:=$(grep -o '"run_seconds": *[0-9.]*' <<<"$spec" | grep -o '[0-9.]*$')}"
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    workloads=(tag_plain search_plain mixed_full udp_search)
fi

if [ -d /root/scratch ] && [ -w /root/scratch ]; then
    base=/root/scratch
else
    base=${TMPDIR:-/tmp}
fi
work=$base/bench-pair
rm -rf "$work/runs"
mkdir -p "$work/runs"
# Re-export (and so rebuild) the parent only when the ref moved.
parent_sha=$(git rev-parse "$parent_ref^{commit}")
if [ "$(cat "$work/parent-src/.exported" 2>/dev/null)" != "$parent_sha" ]; then
    rm -rf "$work/parent-src"
    mkdir -p "$work/parent-src"
    git archive "$parent_sha" | tar -x -C "$work/parent-src"
    echo "$parent_sha" > "$work/parent-src/.exported"
fi

build() { # <side> <source root>
    echo "building $1 ..." >&2
    CARGO_TARGET_DIR=$work/target-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/dharma-bench/Cargo.toml"
}
build parent "$work/parent-src"
build change "$root"

run() { # <side> <workload> <args...>: prints the JSON last line
    local side=$1 workload=$2; shift 2
    "$work/target-$side/release/dharma-bench" --workload "$workload" --trace 0 "$@" | tail -n 1
}

metric() { # <metric> reads JSON lines on stdin, prints one value per line
    grep -o "\"$1\": *{\"value\": *[^,}]*" | sed 's/.*"value": *//'
}

median() { # numbers on stdin
    sort -g | awk '{v[NR]=$1} END {if (NR==0) print "nan"; else if (NR%2) print v[(NR+1)/2]; else print (v[NR/2]+v[NR/2+1])/2}'
}

# name better bound, one end-to-end metric per line.
bounds=$(grep -o '{[^{}]*"bound"[^{}]*}' <<<"$spec" |
    sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/')

status=0
for w in "${workloads[@]}"; do
    for r in $(seq 1 "$rounds"); do
        if [ $((r % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "$w round $r/$rounds: $side" >&2
            run "$side" "$w" --seed 42 --seconds "$seconds" >> "$work/runs/$side-$w.jsonl"
        done
    done
    echo "== $w: medians of $rounds x ${seconds}s, parent ($parent_ref) -> change"
    for side in parent change; do
        if grep -q '"correct": *false' "$work/runs/$side-$w.jsonl" ||
            grep -q '"failed": *[1-9]' "$work/runs/$side-$w.jsonl"; then
            echo "   $side: a run failed its output check or failed operations"
            status=1
        fi
    done
    while read -r name better bound; do
        p=$(metric "$name" < "$work/runs/parent-$w.jsonl" | median)
        c=$(metric "$name" < "$work/runs/change-$w.jsonl" | median)
        awk -v n="$name" -v p="$p" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN {
            ratio = (p == 0) ? 1 : c / p
            worse = (better == "higher") ? (ratio < 1 - bound) : (ratio > 1 + bound)
            printf "   %-16s %14.4f -> %14.4f  x%.3f  (better=%s, bound %s)%s\n",
                n, p, c, ratio, better, bound, worse ? "  WORSE THAN BOUND" : ""
        }'
    done <<<"$bounds"
done

echo "== fixed work: --ops 4000, seeds 7 and 1234"
for w in "${workloads[@]}"; do
    [ "$w" = udp_search ] && continue # real sockets: counts do not repeat
    for seed in 7 1234; do
        for side in parent change; do
            run "$side" "$w" --seed "$seed" --ops 4000 > "$work/runs/fixed-$side-$w-$seed.json"
        done
        names="lookups_per_op msgs_per_op bytes_per_op"
        [ "$w" = mixed_full ] && names="$names lat_p50_ms" # virtual time
        for name in $names; do
            p=$(metric "$name" < "$work/runs/fixed-parent-$w-$seed.json")
            c=$(metric "$name" < "$work/runs/fixed-change-$w-$seed.json")
            if [ "$p" = "$c" ]; then
                echo "   $w seed $seed $name: $p (identical)"
            else
                echo "   $w seed $seed $name: $p -> $c DIFFERS"
                [ "$may_change" -eq 1 ] || status=1
            fi
        done
    done
done
[ "$status" -eq 0 ] || echo "bench-pair: FAILED (see above)" >&2
exit "$status"
