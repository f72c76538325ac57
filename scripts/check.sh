#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh            # run everything
#   scripts/check.sh --fix      # apply rustfmt instead of checking
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt
else
    cargo fmt --check
fi
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q

# Perf-regression gates over the committed bench profiles, one row each:
# the BENCH file, the environment variable naming a fresh candidate
# profile, and the extras the committed baseline must carry.
#
# * obs (exp_all), par (exp_par): phase timings only.
# * map (exp_map): the programmed and delta-skipped cell counts of the
#   range-selection trajectory and the tuner's evaluation and
#   evaluated-sample counts; this keeps them from silently vanishing from
#   the baseline, and a lost tuner early exit moves tune_eval_samples.
# * serve (exp_serve): the wear-attribution / latency extras. bench-diff
#   fails on drifted or vanished extras, and unlike wall-clock times the
#   extras are deterministic (pure FP over a fixed admission sequence), so
#   they stay at the strict default tolerance even when the timing
#   tolerance is loosened for cross-machine runs.
# * fleet (exp_fleet): the wear-imbalance pair (exp_fleet asserts
#   wear-balancing strictly beats round-robin when it runs), held at the
#   same strict extras tolerance as serve's.
#
# The self-compare is a structural sanity check (the gate must parse the
# baseline and exit 0); when the candidate variable names an existing
# file, it is diffed against the baseline with a loose cross-machine
# tolerance.
manifest=(
    "BENCH_obs.json   MEMAGING_BENCH_CANDIDATE"
    "BENCH_par.json   MEMAGING_BENCH_CANDIDATE_PAR"
    "BENCH_map.json   MEMAGING_BENCH_CANDIDATE_MAP   programmed_cells skipped_cells
        tune_evaluations tune_eval_samples"
    "BENCH_serve.json MEMAGING_BENCH_CANDIDATE_SERVE wear_total_stress wear_inference_read_stress
        wear_remap_stress wear_ledger_entries latency_e2e_count series_points forecast_tiles
        forecast_worst_velocity remap_cells_skipped_frac"
    "BENCH_fleet.json MEMAGING_BENCH_CANDIDATE_FLEET fleet_wear_imbalance
        fleet_wear_imbalance_round_robin"
)
for row in "${manifest[@]}"; do
    # shellcheck disable=SC2086 # word-split the row into its fields
    set -- $row
    bench="$1" var="$2"
    shift 2
    for key in "$@"; do
        grep -q "\"$key\"" "$bench" \
            || { echo "check.sh: $bench is missing extra \"$key\"" >&2; exit 1; }
    done
    cargo run -q -p memaging-bench --bin bench-diff -- "$bench" "$bench"
    candidate="${!var:-}"
    if [[ -n "$candidate" && -f "$candidate" ]]; then
        cargo run -q -p memaging-bench --bin bench-diff -- \
            "$bench" "$candidate" --tolerance 3.0
    fi
done

# Offline trace analyzer over the committed flight dumps: every committed
# line must parse, and identical dumps must diff clean (exit 0, zero
# regressions) — the analyzer's own regression gate applied to itself.
# The 4-replica fleet dump exercises the per-replica folding path.
for dump in results/flight_serve_*.jsonl results/flight_fleet_*.jsonl; do
    cargo run -q -p memaging --bin memaging -- analyze "$dump" > /dev/null
done
cargo run -q -p memaging --bin memaging -- analyze \
    results/flight_serve_1t.jsonl results/flight_serve_1t.jsonl > /dev/null
cargo run -q -p memaging --bin memaging -- analyze \
    results/flight_fleet_r4_1t.jsonl results/flight_fleet_r4_1t.jsonl > /dev/null

echo "check.sh: all green"
