//! The metric tables printed by the benchmark. Names, units and meanings
//! are defined in `METRICS.md`; `BENCHMARK.json` lists the same names.

/// End-to-end metrics, reported by an untraced run (`--trace 0`) on every
/// workload. Each is the workload's own quantity in a shared unit: see
/// `METRICS.md` for what the operation is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`) on every
/// workload; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("host.setup_s", "s"),
    ("host.op_ms.p50", "ms"),
    ("host.kernel_ms", "ms"),
    ("failed_op_share", "ratio"),
    ("gcm_step_ms.p95", "ms"),
    ("collective_op_ms.p95", "ms"),
    ("gcm.compute_ms_per_step", "ms"),
    ("gcm.flops_per_step.ps", "flop"),
    ("gcm.flops_per_step.ds", "flop"),
    ("gcm.host_mflops", "Mflop/s"),
    ("gcm.cg_iters_per_solve.atmos", "count"),
    ("gcm.cg_iters_per_solve.ocean", "count"),
    ("gcm.cg_solves_failed", "count"),
    ("gcm.nonfinite_steps", "count"),
    ("gcm.model_build_ms", "ms"),
    ("comms.world.exchange_calls_per_step", "count"),
    ("comms.world.reduce_calls_per_step", "count"),
    ("comms.world.exchange_bytes_per_step", "B"),
    ("comms.world.exchange_host_ms_per_step", "ms"),
    ("comms.world.reduce_host_ms_per_step", "ms"),
    ("comms.timed.sim_comm_ms_per_step", "sim_ms"),
    ("comms.exchange_host_us.2x2", "us"),
    ("comms.exchange_host_us.4x4", "us"),
    ("comms.gsum_host_us.n4", "us"),
    ("comms.gsum_host_us.n16", "us"),
    ("comms.exchange_sim_us", "sim_us"),
    ("comms.gsum_sim_us", "sim_us"),
    ("fault.ops", "count"),
    ("fault.retries_per_op", "count"),
    ("fault.timeouts_per_op", "count"),
    ("fault.failed_ops", "count"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.pending_peak", "count"),
    ("arctic.stage_crossings", "count"),
    ("arctic.ns_per_stage_crossing", "ns"),
    ("arctic.crc_failures", "count"),
    ("fabric.uniform.sim_us_per_wall_s", "sim_us/s"),
    ("fabric.bitreverse.sim_us_per_wall_s", "sim_us/s"),
    ("arctic.build_us", "us"),
    ("lint.rules_ms", "ms"),
    ("lint.flow_ms", "ms"),
    ("lint.uniform_ms", "ms"),
    ("lint.files", "count"),
    ("lint.functions", "count"),
    ("lint.findings", "count"),
    ("lint.flow.call_edges", "count"),
    ("lint.uniform.call_edges", "count"),
    ("trace.overhead_ratio", "ratio"),
];
