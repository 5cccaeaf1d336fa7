#!/usr/bin/env bash
# Prints the SHA-256 of every figure CSV in a results directory (default
# `results/`), in the format of `tests/golden/figures.sha256`.
#
# The CSVs are the ones `repro` (every experiment) writes at
# `DTS_REPS=1 DTS_TASKS=20 DTS_PROCS=4`; every one of them is a pure
# function of the seed except for wall-clock columns:
#   - fig4.csv is all wall-clock and is skipped;
#   - ablate_popsize.csv is digested without its `wall_seconds` column.
#
# Regenerate the golden file after a change that moves the science:
#   DTS_REPS=1 DTS_TASKS=20 DTS_PROCS=4 cargo run --release -p dts-bench --bin repro
#   bash tests/golden/figures.sh > tests/golden/figures.sha256
#
# `tests/golden/figures_default.sha256` pins the scenario figures at default
# scale (no DTS_* variables); regenerate it from a results directory that
# holds only their CSVs:
#   rm -f results/*.csv
#   cargo run --release -p dts-bench --bin repro -- fig5 fig6 fig7 fig8 fig9 fig10 fig11
#   bash tests/golden/figures.sh > tests/golden/figures_default.sha256
set -euo pipefail
export LC_ALL=C
dir="${1:-results}"
for path in "$dir"/*.csv; do
  name="$(basename "$path")"
  case "$name" in
    fig4.csv) continue ;;
    ablate_popsize.csv) sum="$(cut -d, -f1-3 "$path" | sha256sum)" ;;
    *) sum="$(sha256sum < "$path")" ;;
  esac
  printf '%s  %s\n' "${sum%% *}" "$name"
done
