#!/usr/bin/env bash
# Sampling CPU profile of any command, with no perf or gdb on the host.
#
#   scripts/profile.sh [--top N] [--under FN] [--out DIR] -- <command> [args...]
#   scripts/profile.sh [--top N] [--under FN] --report <samples file>
#
#   --top N      rows per table (default 25)
#   --under FN   also break down the samples with FN on their stack: the
#                self and inclusive tables again, over those samples and
#                the frames FN called (its outermost frame counts), each
#                share given of FN's samples and of all (FN is an awk
#                regular expression matched against the demangled names,
#                e.g. 'bulk_load_sim')
#   --out DIR    where the sampler, its samples and the command's stdout go
#                (default: $TMPDIR or /tmp, under dharma-profile/)
#   --report F   report on a samples file an earlier run left, without
#                running anything; refused when the executable at the
#                recorded path is no longer the file that was sampled
#
# The sampler (scripts/sigprof.c) is built with the system `cc` and loaded
# into the command with LD_PRELOAD. It records the call stack every
# millisecond of the process's CPU time and writes the stacks when the
# process exits normally (a killed process leaves none). Addresses in the
# executable are resolved with `addr2line -i`, so an inlined function
# counts as its own frame; addresses in shared libraries count as the
# library. The samples file records the executable's path and identity
# (inode, size, mtime): addresses are resolved against the file at that
# path, so a report on a rebuilt binary would print plausible but wrong
# names, and the script refuses it instead. Build the command with debug info (the workspace's release
# profile has it) for names and inlining. The report gives, per function,
#
#   self      the share of samples whose innermost frame it is;
#   inclusive the share of samples it is anywhere on the stack of (counted
#             once per sample, so recursion does not inflate it).
#
# Example, the benchmark's set-up of one workload:
#
#   cargo build --release --offline --manifest-path dharma-bench/Cargo.toml
#   scripts/profile.sh --under bulk_load_sim -- \
#       dharma-bench/target/release/dharma-bench --workload search_plain --ops 50
set -euo pipefail

top=25 under= out=${TMPDIR:-/tmp}/dharma-profile report=
while [ $# -gt 0 ]; do
    case "$1" in
        --top) top=$2; shift 2 ;;
        --under) under=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --report) report=$2; shift 2 ;;
        --) shift; break ;;
        -h|--help) sed -n '2,40p' "$0"; exit 0 ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
if [ -z "$report" ]; then
    if [ $# -lt 1 ]; then
        echo "usage: scripts/profile.sh [--top N] [--under FN] [--out DIR] -- <command> [args...]" >&2
        exit 2
    fi
    mkdir -p "$out"
    out=$(realpath "$out")
    cc -O2 -shared -fPIC -o "$out/sigprof.so" "$(dirname "$0")/sigprof.c"
    report=$out/samples.txt
    rm -f "$report"
    LD_PRELOAD=$out/sigprof.so SIGPROF_OUT=$report "$@" > "$out/command.out"
    echo "command stdout: $out/command.out; samples: $report" >&2
fi
[ -s "$report" ] || { echo "no samples in $report (did the command exit normally?)" >&2; exit 1; }
exe=$(sed -n 's/^exe //p' "$report" | head -n 1)
sampled=$(sed -n 's/^exe-id //p' "$report" | head -n 1)
now=$(stat -L -c '%i %s %Y' "$exe" 2>/dev/null || echo missing)
if [ "$sampled" != "$now" ]; then
    echo "refusing to report: $exe is not the executable that was sampled" >&2
    echo "  (inode size mtime when sampled: ${sampled:-not recorded}; now: $now)." >&2
    echo "  It was rebuilt or replaced since; its addresses would resolve to the wrong functions." >&2
    echo "  Profile the command again." >&2
    exit 1
fi
# A position-independent executable is loaded at the start of its mapping
# at file offset 0; a fixed-address one (ELF type 2) where it was linked.
pie=1
[ "$(od -An -tu2 -j16 -N2 "$exe" | tr -d ' ')" = 2 ] && pie=0

# One line per sample: its frames innermost first, each as e:<address in
# the executable to look up> or l:<library>. The first frame is the
# sampled instruction; the others are return addresses, looked up one byte
# back so they name the call, not the instruction after it.
keys=$(mktemp)
resolved=$(mktemp)
trap 'rm -f "$keys" "$resolved"' EXIT
awk -v exe="$exe" -v pie="$pie" '
    function hex(s,   i, n, c) {
        n = 0; s = tolower(s)
        for (i = 1; i <= length(s); i++) { c = index("0123456789abcdef", substr(s, i, 1)); n = n * 16 + c - 1 }
        return n
    }
    $1 == "map" {
        split($2, r, "-"); m++; lo[m] = hex(r[1]); hi[m] = hex(r[2]); path[m] = $7
        if ($7 == exe && hex($4) == 0 && !(exe in base)) base[exe] = pie ? lo[m] : 0
        next
    }
    $1 == "stack" { stacks[++n] = $0 }
    END {
        for (s = 1; s <= n; s++) {
            k = split(stacks[s], f, " "); line = ""
            for (i = 2; i <= k; i++) {
                a = hex(f[i]) - (i > 2); key = "l:?"
                for (j = 1; j <= m; j++) if (a >= lo[j] && a < hi[j]) {
                    if (path[j] == exe) key = sprintf("e:%x", a - base[exe])
                    else { p = path[j]; sub(/.*\//, "", p); key = "l:[" (p == "" ? "anon" : p) "]" }
                    break
                }
                line = line (i > 2 ? " " : "") key
            }
            print line
        }
    }' "$report" > "$keys"

# addr2line, once per distinct address: "<key>\t<inline chain, innermost
# first, names joined by the unit separator \037>" (a Rust name can hold
# ';' or ' '), hash suffixes of Rust symbols dropped.
tr ' ' '\n' < "$keys" | sed -n 's/^e://p' | sort -u | sed 's/^/0x/' |
    addr2line -a -f -i -C -e "$exe" |
    awk '
        /^0x[0-9a-f]+$/ { if (key != "") print key "\t" chain; key = "e:" substr($0, 3); sub(/^e:0*/, "e:", key); chain = ""; odd = 1; next }
        odd { name = $0; sub(/::h[0-9a-f]{16}$/, "", name); chain = chain (chain == "" ? "" : "\037") name; odd = 0; next }
        { odd = 1 }
        END { if (key != "") print key "\t" chain }' > "$resolved"

awk -v top="$top" -v under="$under" -F'\t' '
    FILENAME == ARGV[1] { sub(/^e:0*/, "e:", $1); name[$1] = $2; next }
    {
        samples++; d = 0; split("", seen)
        k = split($0, f, " ")
        for (i = 1; i <= k; i++) {
            key = f[i]; if (key ~ /^e:/) sub(/^e:0*/, "e:", key)
            chain = key ~ /^l:/ ? substr(key, 3) : (key in name ? name[key] : "??")
            c = split(chain, parts, "\037")
            for (j = 1; j <= c; j++) frame[++d] = parts[j]
        }
        self[frame[1]]++
        for (i = 1; i <= d; i++) if (!(frame[i] in seen)) { seen[frame[i]] = 1; incl[frame[i]]++ }
        if (under != "") {
            outer = 0
            for (i = 1; i <= d; i++) if (frame[i] ~ under) outer = i
            if (outer) {
                hits++; self_under[frame[1]]++; split("", seen)
                for (i = 1; i < outer; i++) if (!(frame[i] in seen)) { seen[frame[i]] = 1; incl_under[frame[i]]++ }
            }
        }
    }
    function table(title, counts, base, of,   fn, n, i, j, t, order) {
        n = 0; for (fn in counts) order[++n] = fn
        for (i = 2; i <= n; i++) { t = order[i]; for (j = i - 1; j >= 1 && counts[order[j]] < counts[t]; j--) order[j + 1] = order[j]; order[j + 1] = t }
        printf "\n%s\n", title
        for (i = 1; i <= n && i <= top; i++)
            printf "%6.1f%%%s  %s\n", 100 * counts[order[i]] / base, of == "" ? "" : sprintf("  %6.1f%%", 100 * counts[order[i]] / of), order[i]
    }
    END {
        printf "%d samples\n", samples
        if (!samples) exit
        table("self (share of all samples)", self, samples, "")
        table("inclusive (share of all samples)", incl, samples, "")
        if (under != "") {
            if (!hits) { printf "\nno sample has %s on its stack\n", under; exit }
            printf "\n%s: on the stack of %d samples, %.1f%% of all\n", under, hits, 100 * hits / samples
            table("self under it (share of its samples, then of all)", self_under, hits, samples)
            table("inclusive under it (share of its samples, then of all)", incl_under, hits, samples)
        }
    }' "$resolved" "$keys"
