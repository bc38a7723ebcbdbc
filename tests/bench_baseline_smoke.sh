#!/usr/bin/env bash
# Perf-trajectory smoke, one check per invocation so ctest can run them in
# parallel:
#   * <bench> [compare-args...]: a fresh run of that report generator must
#     reproduce its committed bench/baselines/ record on this machine (the
#     simulated numbers are deterministic, so --strict is safe);
#   * planted: bench_compare must actually catch a planted regression in
#     --strict mode.
#
# Usage: bench_baseline_smoke.sh <bench-dir> <bench-compare> \
#                                <baselines-dir> <work-dir> \
#                                <bench|planted> [compare-args...]
set -euo pipefail

BENCH_DIR=$1
COMPARE=$2
BASELINES=$3
WORK=$4
CHECK=$5
shift 5

mkdir -p "$WORK"

if [ "$CHECK" != planted ]; then
  SPNHBM_BENCH_JSON_DIR=$WORK "$BENCH_DIR/$CHECK" > /dev/null
  "$COMPARE" "$BASELINES/BENCH_$CHECK.json" "$WORK/BENCH_$CHECK.json" \
    --strict "$@"
  echo "fresh $CHECK run reproduces the committed baseline"
  exit 0
fi

# A planted 50% throughput drop must warn by default and fail --strict.
cat > "$WORK/planted.json" <<'EOF'
{"bench":"planted","records":[{"series":"a","x_samples_per_s":100.0}]}
EOF
cat > "$WORK/planted_regressed.json" <<'EOF'
{"bench":"planted","records":[{"series":"a","x_samples_per_s":50.0}]}
EOF
OUT=$("$COMPARE" "$WORK/planted.json" "$WORK/planted_regressed.json")
echo "$OUT" | grep -q "REGRESSION"
echo "$OUT" | grep -q "1 regression"
if "$COMPARE" "$WORK/planted.json" "$WORK/planted_regressed.json" \
    --strict > /dev/null; then
  echo "bench_compare --strict missed a planted regression"; exit 1
fi
echo "bench_compare catches planted regressions"
