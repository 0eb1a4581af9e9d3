#!/usr/bin/env bash
# Non-test Rust lines per crate, plus `root` for the root package's src/:
# every line of every crates/*/src/**/*.rs and src/**/*.rs up to (not
# including) the file's first module-level `#[cfg(test)]`. This is the
# ruler for ROADMAP item 5's line target; run it from any checkout root:
#   bash scripts/loc.sh [ROOT]
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        in_tests = 0; n_dirs = split(FILENAME, p, "/")
        crate = (p[1] == "crates") ? p[2] : "root"
    }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n[crate]++; total++ }
    END {
        for (c in n) printf "%-10s %6d\n", c, n[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
