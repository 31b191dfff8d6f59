#!/bin/sh
# Perf-baseline harness: builds and runs the `baseline` bin, which emits
# BENCH_pr10.json (wall time, simulated time, per-phase model residuals,
# fabric hotspot summary, run-health diagnostics, critical-path
# profiling, fault-recovery accounting, full-tree lint timing,
# interprocedural flow timing) plus the raw exporter artifacts —
# written through the unified exporter API — under target/observatory/.
#
#   scripts/bench.sh            # full run -> BENCH_pr10.json
#   scripts/bench.sh --smoke --out target/bench-smoke.json
#                               # CI-sized run, same embedded checks
#   scripts/bench.sh diff A B   # budgeted cross-run comparison
#
# The bin exits non-zero if the congested workload shows no hotspot, if
# the exports are not byte-identical across a same-seed double run, if
# the tour's model residual blows past its sanity bar, if the coupled
# run-health diagnostics differ across a double run or the sentinel
# trips, if the critical-path profiler misattributes the injected
# straggler or drifts off the phase model, if the fault-recovery tour
# fails to fire its planned crash, recover bit-identically, or
# retransmit through the lossy link window, if the lint pass finds
# unsuppressed violations, or (in --smoke) if the lint::flow call-graph
# + fixpoint pass exceeds its wall-clock budget, or if the SPMD
# collective-uniformity pass reports a divergence or blows its budget.
set -eu
cd "$(dirname "$0")/.."

cargo build -q --release -p hyades-bench --bin baseline
exec ./target/release/baseline "$@"
