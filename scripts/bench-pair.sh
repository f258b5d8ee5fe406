#!/usr/bin/env bash
# Paired dharma-bench runs: a parent commit against the working tree.
#
#   scripts/bench-pair.sh [options] <parent-ref> [workload...]
#
#   --rounds N               alternating pairs per workload (default 4)
#   --seconds S              measured seconds per run (default: run_seconds
#                            of BENCHMARK.json)
#   --seed N                 workload seed of the timed runs (default 42; a
#                            claim must also hold at one unused so far)
#   --datagrams-may-change W[,W...]
#                            the named workloads' fixed-work counts may differ;
#                            every other simulated workload is still held to
#                            bit-identical counts
#   --claim METRIC@WORKLOAD  also print the verdict on a claimed gain
#   --json FILE              also record what is printed, as one JSON run
#                            object appended to the array in FILE (created
#                            when absent): both revs, seed, rounds, seconds,
#                            every metric's medians, quartiles, pairs won and
#                            bound, the claim verdict, the fixed-work counts,
#                            and a host fingerprint (nproc, CPU model,
#                            kernel)
#
# The parent is exported (`git archive`) under /root/scratch — or $TMPDIR,
# or /tmp — and both sides are built once, offline, into their own
# CARGO_TARGET_DIR. The two binaries then alternate from the repository
# root (which side runs first flips every round) and the script prints, per
# workload, each end-to-end metric's median [quartiles] parent -> change,
# how many of the pairs the change won (run r against run r; a tie counts
# for neither) and its BENCHMARK.json bound. With --claim it then applies
# the rule a claimed gain is held to: the change wins at least nine tenths
# of the pairs and the medians lie further apart than the parent's own
# quartiles do -> "claim holds", anything else -> "unresolved" (ten pairs
# or more, `--rounds 10`, for a claim that counts). Last, every simulated
# workload runs `--ops 4000` at
# seeds 7 and 1234 on both sides: a change that alters no datagram repeats
# lookups_per_op / msgs_per_op / bytes_per_op bit for bit, and the script
# exits 1 when they differ — except on a workload the change says it moves
# (--datagrams-may-change): there the counts print parent -> change, and one
# `--trace 1 --ops 4000` run per side (seed 7) adds the traffic delta, every
# per-message-type count and maintenance, timer, event, failure, staleness,
# storage and RTT-sample row that differs — what a re-pin attaches as its
# evidence. (Those two traced results stay in runs/traced-<side>-<workload>.json
# for the wall-clock handler rows, which differ on every run.)
#
# Each timed run's whole output is kept in runs/<side>-<workload>-<round>.out,
# its `#` lines next to its JSON. Per workload and side the script prints
# the median raw rate (the "... raw" figure every workload's `#` line
# gives) and the median calibration tick (where the workload prints one):
# a calibrated metric that moves while the raw rate does not is the tick
# moving. Then, per pair, both sides' raw rates beside their calibrated
# ops_per_s and ticks (recorded as "pairs" with --json). Everything else is read from the JSON object on the benchmark's
# last stdout line.
set -euo pipefail

rounds=4
seconds=
seed=42
may_change=
claim=
json=
while [ $# -gt 0 ]; do
    case "$1" in
        --rounds) rounds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --datagrams-may-change) may_change=$2; shift 2 ;;
        --claim) claim=$2; shift 2 ;;
        --json) json=$(realpath -m "$2"); shift 2 ;;
        -h|--help) sed -n '2,53p' "$0"; exit 0 ;;
        --*) echo "unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 1 ]; then
    echo "usage: scripts/bench-pair.sh [--rounds N] [--seconds S] [--seed N] [--datagrams-may-change W[,W...]] [--claim METRIC@WORKLOAD] [--json FILE] <parent-ref> [workload...]" >&2
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

# JSON fragments, gathered as the results print (only with --json).
js_workloads=() js_claim=null js_fixed=()
declare -A raw tick # per side: the workload's median raw rate and tick

run() { # <side> <workload> <trace 0|1> <args...>: prints the JSON last line
    local side=$1 workload=$2 trace=$3; shift 3
    "$work/target-$side/release/dharma-bench" --workload "$workload" --trace "$trace" "$@" | tail -n 1
}

timed() { # <side> <workload> <round>: one timed run, output kept whole
    local out=$work/runs/$1-$2-$3.out
    "$work/target-$1/release/dharma-bench" --workload "$2" --trace 0 --seed "$seed" \
        --seconds "$seconds" > "$out"
    tail -n 1 "$out" >> "$work/runs/$1-$2.jsonl"
}

raw_rate() { # reads a run's output, prints its "... raw" rate
    awk '/^#/ && match($0, /[0-9][0-9.]*( [a-z]+)?\/s raw/) {
        s = substr($0, RSTART, RLENGTH); sub(/[^0-9.].*/, "", s); print s; exit }'
}

tick_us() { # reads a run's output, prints its median calibration tick
    sed -n 's|^# calibration: .*quartiles [0-9.]* / \([0-9.]*\) / .*|\1|p'
}

median_of() { # <extractor> <files...>: median of one figure over the files
    local f=$1; shift
    local m
    m=$(for out in "$@"; do "$f" < "$out"; done | quartiles | cut -d' ' -f2)
    [ "$m" = nan ] && echo null || echo "$m"
}

metric() { # <metric> reads JSON lines on stdin, prints one value per line
    grep -o "\"$1\": *{\"value\": *[^,}]*" | sed 's/.*"value": *//'
}

quartiles() { # numbers on stdin; prints "q1 median q3" (linear interpolation)
    sort -g | awk '
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        { v[NR] = $1 }
        END { if (NR == 0) print "nan nan nan"; else printf "%.10g %.10g %.10g\n", q(0.25), q(0.5), q(0.75) }'
}

pairs_won() { # <better> <parent file> <change file> <metric>: pairs the change won
    paste <(metric "$4" < "$2") <(metric "$4" < "$3") |
        awk -v better="$1" '$1 != $2 && (better == "higher") == ($2 > $1) {won++} END {print won + 0}'
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
            timed "$side" "$w" "$r"
        done
    done
    echo "== $w: median [quartiles] of $rounds x ${seconds}s at seed $seed, parent ($parent_ref) -> change"
    for side in parent change; do
        raw[$side]=$(median_of raw_rate "$work/runs/$side-$w-"*.out)
        tick[$side]=$(median_of tick_us "$work/runs/$side-$w-"*.out)
        echo "   $side: raw rate median ${raw[$side]}/s, calibration tick median ${tick[$side]} us"
    done
    pairs=()
    for r in $(seq 1 "$rounds"); do
        read -r pr cr < <(for side in parent change; do raw_rate < "$work/runs/$side-$w-$r.out"; done | paste -sd' ')
        read -r pt ct < <(for side in parent change; do tick_us < "$work/runs/$side-$w-$r.out"; done | paste -sd' ')
        read -r po co < <(for side in parent change; do tail -n 1 "$work/runs/$side-$w-$r.out" | metric ops_per_s; done | paste -sd' ')
        printf '   pair %2d: raw %s -> %s /s, calibrated ops_per_s %.1f -> %.1f, tick %s -> %s us\n' \
            "$r" "${pr:-?}" "${cr:-?}" "$po" "$co" "${pt:-?}" "${ct:-?}"
        pairs+=("{\"raw_rate\": [${pr:-null}, ${cr:-null}], \"ops_per_s\": [$po, $co], \"tick_us\": [${pt:-null}, ${ct:-null}]}")
    done
    verdict=
    for side in parent change; do
        if grep -q '"correct": *false' "$work/runs/$side-$w.jsonl" ||
            grep -q '"failed": *[1-9]' "$work/runs/$side-$w.jsonl"; then
            echo "   $side: a run failed its output check or failed operations"
            status=1
        fi
    done
    : > "$work/json-metrics"
    while read -r name better bound; do
        read -r p1 p p3 < <(metric "$name" < "$work/runs/parent-$w.jsonl" | quartiles)
        read -r c1 c c3 < <(metric "$name" < "$work/runs/change-$w.jsonl" | quartiles)
        won=$(pairs_won "$better" "$work/runs/parent-$w.jsonl" "$work/runs/change-$w.jsonl" "$name")
        awk -v n="$name" -v p="$p" -v p1="$p1" -v p3="$p3" -v c="$c" -v c1="$c1" -v c3="$c3" \
            -v won="$won" -v rounds="$rounds" -v better="$better" -v bound="$bound" \
            -v jf="$work/json-metrics" 'BEGIN {
            ratio = (p == 0) ? 1 : c / p
            worse = (better == "higher") ? (ratio < 1 - bound) : (ratio > 1 + bound)
            printf "   %-15s %11.4f [%.4f, %.4f] -> %11.4f [%.4f, %.4f]  x%.3f  won %d/%d  (better=%s, bound %s)%s\n",
                n, p, p1, p3, c, c1, c3, ratio, won, rounds, better, bound, worse ? "  WORSE THAN BOUND" : ""
            if (p == "nan" || c == "nan") exit
            printf "\"%s\": {\"parent\": {\"q1\": %s, \"median\": %s, \"q3\": %s}, \"change\": {\"q1\": %s, \"median\": %s, \"q3\": %s}, \"ratio\": %.4f, \"won\": %d, \"better\": \"%s\", \"bound\": %s, \"worse_than_bound\": %s}\n",
                n, p1, p, p3, c1, c, c3, ratio, won, better, bound, worse ? "true" : "false" >> jf
        }'
        if [ "$claim" = "$name@$w" ]; then
            verdict=$(awk -v p="$p" -v p1="$p1" -v p3="$p3" -v c="$c" -v won="$won" -v rounds="$rounds" \
                -v better="$better" -v claim="$claim" -v jf="$work/json-claim" 'BEGIN {
                gain = (better == "higher") ? c - p : p - c
                holds = 10 * won >= 9 * rounds && gain > p3 - p1
                printf "won %d/%d pairs (needs %d), medians apart by %.4f against a parent interquartile range of %.4f: %s",
                    won, rounds, int((9 * rounds + 9) / 10), gain, p3 - p1, holds ? "claim holds" : "unresolved"
                printf "{\"claim\": \"%s\", \"won\": %d, \"needed\": %d, \"gain\": %.4f, \"parent_iqr\": %.4f, \"verdict\": \"%s\"}\n",
                    claim, won, int((9 * rounds + 9) / 10), gain, p3 - p1, holds ? "claim holds" : "unresolved" > jf
            }')
            js_claim=$(cat "$work/json-claim")
        fi
    done <<<"$bounds"
    case "$claim" in *"@$w") echo "== claim $claim: ${verdict:-no such end-to-end metric}" ;; esac
    printf '"raw_rate": {"parent": %s, "change": %s}\n"tick_us": {"parent": %s, "change": %s}\n' \
        "${raw[parent]}" "${raw[change]}" "${tick[parent]}" "${tick[change]}" >> "$work/json-metrics"
    (IFS=,; printf '"pairs": [%s]\n' "${pairs[*]}") >> "$work/json-metrics"
    js_workloads+=("  \"$w\": {$(awk 'NR > 1 { printf ", " } { printf "%s", $0 }' "$work/json-metrics")}")
done

# The ledger rows that count datagrams and what they leave behind: exact per
# seed, so a row that differs is the change and not the host.
traffic_rows='^(kad\.node\.(msgs_per_op\..*|maint_msgs_per_op|timers_per_op)|net\.sim\.events_per_op|e2e\.(fail|stale_read)_share|kad\.storage\.keys_per_node_max|kad\.rtt\.samples_per_op)$'

echo "== fixed work: --ops 4000, seeds 7 and 1234"
for w in "${workloads[@]}"; do
    [ "$w" = udp_search ] && continue # real sockets: counts do not repeat
    case ",$may_change," in *",$w,"*) waived=1 ;; *) waived=0 ;; esac
    for fs in 7 1234; do
        for side in parent change; do
            run "$side" "$w" 0 --seed "$fs" --ops 4000 > "$work/runs/fixed-$side-$w-$fs.json"
        done
        names="lookups_per_op msgs_per_op bytes_per_op"
        [ "$w" = mixed_full ] && names="$names lat_p50_ms" # virtual time
        for name in $names; do
            p=$(metric "$name" < "$work/runs/fixed-parent-$w-$fs.json")
            c=$(metric "$name" < "$work/runs/fixed-change-$w-$fs.json")
            same=$([ "$p" = "$c" ] && echo true || echo false)
            js_fixed+=("  {\"workload\": \"$w\", \"seed\": $fs, \"metric\": \"$name\", \"parent\": ${p:-null}, \"change\": ${c:-null}, \"identical\": $same}")
            if [ "$p" = "$c" ]; then
                echo "   $w seed $fs $name: $p (identical)"
            elif [ "$waived" -eq 1 ]; then
                echo "   $w seed $fs $name: $p -> $c (may change)"
            else
                echo "   $w seed $fs $name: $p -> $c DIFFERS"
                status=1
            fi
        done
    done
    [ "$waived" -eq 1 ] || continue
    echo "   $w traffic delta: --trace 1 --ops 4000 --seed 7, rows that differ"
    for side in parent change; do
        run "$side" "$w" 1 --seed 7 --ops 4000 > "$work/runs/traced-$side-$w.json"
    done
    grep -o '"[a-z0-9_.]*": *{"value"' "$work/runs/traced-parent-$w.json" | cut -d'"' -f2 |
        grep -E "$traffic_rows" | while read -r name; do
        p=$(metric "$name" < "$work/runs/traced-parent-$w.json")
        c=$(metric "$name" < "$work/runs/traced-change-$w.json")
        [ "$p" = "$c" ] || printf '      %-40s %12s -> %s\n' "$name" "$p" "$c"
    done
done

if [ -n "$json" ]; then
    joined() { local IFS=$'\x1f'; local s="$*"; printf '%s' "${s//$'\x1f'/$',\n'}"; }
    dirty=false
    git diff --quiet HEAD || dirty=true
    cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo | head -n 1 | tr -d '"\\')
    run_json=$(cat <<EOF
{"parent_ref": "$parent_ref", "parent_rev": "$parent_sha",
 "change_rev": "$(git rev-parse HEAD)", "change_dirty": $dirty, "change_diff_sha1": "$(git diff HEAD | sha1sum | cut -c1-40)",
 "seed": $seed, "rounds": $rounds, "seconds": $seconds, "failed": $([ "$status" -eq 0 ] && echo false || echo true),
 "host": {"nproc": $(nproc), "cpu_model": "$cpu", "kernel": "$(uname -r)"},
 "claim": $js_claim,
 "workloads": {
$(joined "${js_workloads[@]}")
 },
 "fixed_work": [
$(joined "${js_fixed[@]}")
 ]}
EOF
)
    if [ -s "$json" ]; then # an array already: drop its closing line, append
        prior=$(sed '$d' "$json")
        printf '%s,\n%s\n]\n' "$prior" "$run_json" > "$json"
    else
        printf '[\n%s\n]\n' "$run_json" > "$json"
    fi
    echo "== recorded in $json" >&2
fi
[ "$status" -eq 0 ] || echo "bench-pair: FAILED (see above)" >&2
exit "$status"
