#!/usr/bin/env bash
# Reruns the pinned experiment command lines and checks every file they
# write against tests/outputs.sha256.
#
#   scripts/check-outputs.sh
#
# Builds the release bins, empties outputs/ at the repository root and runs
# each command below from inside it with a relative --out directory; the
# command's stdout is saved there as stdout.txt, beside its CSVs. Timings go
# to stderr and are not hashed. The digests of every file under outputs/
# are always written to outputs/outputs.sha256, so pinning new outputs is
#
#   cp outputs/outputs.sha256 tests/outputs.sha256
#
# plus a reviewed diff. Exits 1 if a command fails or a digest differs from
# the manifest; the diff printed last names every drifted file.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p dharma-sim --bins
bin=${CARGO_TARGET_DIR:-$root/target}/release
out=$root/outputs
rm -rf "$out"
mkdir -p "$out"
cd "$out"

status=0
# run DIR BIN [ARG...]: one pinned command line, writing under DIR/.
run() {
    local dir=$1 cmd=$2 start=$SECONDS
    shift 2
    local line="$cmd${*:+ $*} --out $dir"
    mkdir -p "$dir"
    if ! "$bin/$cmd" "$@" --out "$dir" > "$dir/stdout.txt"; then
        echo "FAILED: $line" >&2
        status=1
    fi
    echo "$line: $((SECONDS - start)) s" >&2
}

run run_all run_all --seed 42
run run_all-threads1 run_all --seed 42 --threads 1
for a in churn adaptive freshness latency; do
    run "$a-smoke" "ablation_$a" --smoke
done
run bench_ci bench_ci

find . -type f ! -name outputs.sha256 -printf '%P\n' | LC_ALL=C sort | xargs sha256sum > outputs.sha256
if ! diff -u "$root/tests/outputs.sha256" outputs.sha256; then
    echo "outputs differ from tests/outputs.sha256 (see the diff above)" >&2
    status=1
fi
exit "$status"
