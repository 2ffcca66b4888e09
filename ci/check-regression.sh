#!/usr/bin/env bash
# Gates one full sweep of the benchmark registry on both committed
# baselines. Usage:
#
#   ci/check-regression.sh
#
# The script builds the CLI and sweeps the whole registry once, stripped
# of timings, into report.json. suite-run itself exits non-zero if any
# cell errors or panics. The report then goes through two gates:
#
# 1. Byte gate: report.json must be byte-identical to
#    ci/baseline-report.json. On a mismatch `parchmint report-diff`
#    explains it, one line per difference: a changed top-level member, a
#    cell on one side only, a cell's changed status, detail and metrics,
#    or the same cells in another order.
# 2. Quality gate: `parchmint quality-check` holds every pnr cell's
#    quality metrics (failed nets, wirelength, HPWL, bends, max
#    congestion) within the per-metric tolerances recorded in
#    ci/baseline-quality.json: any newly failed net or a >2% wirelength
#    regression fails. It runs even after a byte mismatch, since it is
#    what tells an intended layout change from a quality regression.
#
# The script exits non-zero if either gate fails.
#
# To refresh both baselines after an intentional quality change:
#
#   cargo run --release -p parchmint-cli -- \
#     suite-run --strip-timings -o ci/baseline-report.json
#   cargo run --release -p parchmint-cli -- \
#     quality-baseline ci/baseline-report.json -o ci/baseline-quality.json
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=ci/baseline-report.json
QUALITY=ci/baseline-quality.json
REPORT=report.json

cargo build --release -p parchmint-cli
target/release/parchmint suite-run --threads 0 --strip-timings -o "$REPORT"

status=0
if cmp -s "$REPORT" "$BASELINE"; then
  echo "report is byte-identical to $BASELINE"
else
  echo "report differs from $BASELINE:" >&2
  target/release/parchmint report-diff "$BASELINE" "$REPORT" || true
  echo "check-regression: report is not byte-identical to $BASELINE" >&2
  status=1
fi
target/release/parchmint quality-check "$QUALITY" "$REPORT" || status=1
exit "$status"
