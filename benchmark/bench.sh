#!/usr/bin/env bash
# Build the benchmark (release, offline) and run one of its commands.
#
#   bash benchmark/bench.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/bench.sh check [RESULT.json ...]
#   bash benchmark/bench.sh aa [--seed N] [--out FILE]
#
# Run from the root of a checkout. Everything it writes goes under the
# cargo target directory ($CARGO_TARGET_DIR, else benchmark/target) unless
# a command is given --out / --out-dir; the only other file is
# benchmark/Cargo.lock, which cargo writes.
#
# The repository's crates depend on rand, parking_lot, crossbeam and bytes.
# Where those do not resolve offline (a bare checkout with no registry),
# this script substitutes the minimal stand-ins under benchmark/shims/ for
# this build only, says so, and labels every result "deps": "stand-ins".
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
# cargo resolves a relative CARGO_TARGET_DIR against the working directory.
case $target in /*) ;; *) target=$PWD/$target ;; esac
out=$target/benchmark
mkdir -p "$out"

build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" "$@"
}

stand_ins=()
for crate in rand parking_lot crossbeam bytes; do
    stand_ins+=(--config "patch.crates-io.$crate.path=\"$here/shims/$crate\"")
done

# Which dependencies resolved is decided once per target directory: a
# failed resolution costs seconds, and every later run pays only for a
# no-op build.
mode_file=$out/deps-mode
mode=$(cat "$mode_file" 2>/dev/null || true)
log=$out/build.log
case $mode in
published)
    build >"$log" 2>&1 || { cat "$log" >&2; exit 1; }
    ;;
stand-ins)
    build "${stand_ins[@]}" >"$log" 2>&1 || { cat "$log" >&2; exit 1; }
    ;;
*)
    if build >"$log" 2>&1; then
        mode=published
    else
        echo "bench.sh: rand/parking_lot/crossbeam/bytes did not resolve offline;" \
            "building with the stand-ins in benchmark/shims/" >&2
        # A lock file written for the other set of crates cannot be reused.
        rm -f "$here/Cargo.lock"
        if ! build "${stand_ins[@]}" >>"$log" 2>&1; then
            cat "$log" >&2
            exit 1
        fi
        mode=stand-ins
    fi
    echo "$mode" >"$mode_file"
    ;;
esac

# No child is left behind: cargo ran in the foreground, and the benchmark
# replaces this shell. Its own children (`aa` runs) are waited for there.
exec "$target/release/ooc-benchmark" "$@" --deps "$mode" --out-dir "$out"
