//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step).

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced run. Every workload reports each one, measured
/// on its own traffic (see the README for what each means per workload).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_share", "share", "higher"),
    m("throughput_per_s", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("outcome_share", "share", "higher"),
];

/// Metrics of the traced run. A workload whose traffic does not reach a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // proxy_transcode: self time per delivered frame, by layer.
    m("video.render_us_per_frame", "us", "lower"),
    m("imgproc.rgb_to_yuv_us_per_frame", "us", "lower"),
    m("imgproc.yuv_to_rgb_us_per_frame", "us", "lower"),
    m("imgproc.downscale_us_per_frame", "us", "lower"),
    m("codec.encode_us_per_frame", "us", "lower"),
    m("codec.decode_us_per_frame", "us", "lower"),
    m("core.profile_us_per_frame", "us", "lower"),
    m("core.compensate_us_per_frame", "us", "lower"),
    m("stream.client_play_us_per_frame", "us", "lower"),
    m("stream.untraced_us_per_frame", "us", "lower"),
    m("serve.annotate_us_per_session", "us", "lower"),
    m("codec.decode_allocs_per_frame", "count", "lower"),
    m("codec.encode_allocs_per_frame", "count", "lower"),
    m("imgproc.colour_allocs_per_frame", "count", "lower"),
    m("core.compensate_allocs_per_frame", "count", "lower"),
    m("stream.client_allocs_per_frame", "count", "lower"),
    m("codec.bytes_per_frame", "B", "lower"),
    m("imgproc.clipped_share", "share", "lower"),
    // serve_fleet: control plane.
    m("serve.submit_ns_per_request", "ns", "lower"),
    m("serve.drain_us_per_miss", "us", "lower"),
    m("serve.hits", "count", "higher"),
    m("serve.misses", "count", "lower"),
    m("serve.evictions", "count", "lower"),
    m("serve.clip_profiles", "count", "lower"),
    m("serve.resident_bytes", "B", "lower"),
    m("serve.overloaded", "count", "lower"),
    m("serve.queue_depth_max", "count", "lower"),
    m("serve.reject_share", "share", "lower"),
    // reactor_fleet: scheduler, state machines, fault replay.
    m("reactor.ns_per_step", "ns", "lower"),
    m("reactor.sched_ns_per_step", "ns", "lower"),
    m("machine.step_ns_per_step", "ns", "lower"),
    m("reactor.rounds", "count", "lower"),
    m("reactor.steps", "count", "lower"),
    m("machine.bytes_per_session", "B", "lower"),
    m("machine.spawn_us_per_session", "us", "lower"),
    m("faults.dropped", "count", "lower"),
    m("faults.retransmits", "count", "lower"),
    m("faults.undeliverable", "count", "lower"),
    m("faults.degraded_share", "share", "lower"),
    // Every workload: what the spans cost.
    m("trace.overhead_share", "share", "lower"),
];
