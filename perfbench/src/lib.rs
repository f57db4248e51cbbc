//! The repository benchmark.
//!
//! One closed-loop client on one thread drives a workload through the
//! program crates' public functions: it issues the next operation only
//! after the previous one returned. A run prints every end-to-end metric
//! with its unit, checks the simulated outputs against a recorded digest,
//! and ends with one JSON line. With tracing on, the same workload runs
//! with spans around the calls into each layer, and the JSON line carries
//! the per-layer metrics instead. See `README.md` in this directory.

mod alloc;
pub mod digest;
pub mod host;
mod replica;
pub mod stats;
mod trace;
mod wl_fleet;
mod wl_spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Inputs come in this many variants; `--seed` picks one (`seed %
/// VARIANTS`), so every seed maps to inputs whose digest is recorded.
pub const VARIANTS: u64 = 16;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-request REAP batches over a hot frame cache, one shard.
    ReapFleetHot,
    /// Span writes followed by rollups and reports.
    SpanStore,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ReapFleetHot, Workload::SpanStore];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReapFleetHot => "reap_fleet_hot",
            Workload::SpanStore => "span_store",
        }
    }

    /// The name of `items_per_s` on this workload: what one item is.
    pub fn items_name(self) -> &'static str {
        match self {
            Workload::ReapFleetHot => "cold_starts_per_s",
            Workload::SpanStore => "spans_per_s",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// On an unknown name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Input size: the full benchmark, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Two functions, small batches and traces.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed; the inputs depend on `seed % VARIANTS` only.
    pub seed: u64,
    /// Measured-phase length. The phase also runs at least the
    /// workload's checked operations.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// How many times set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Digest the checked outcomes must have; `None` checks nothing.
    pub expected: Option<u64>,
}

impl Config {
    /// The input variant `seed` selects.
    pub fn variant(&self) -> u64 {
        self.seed % VARIANTS
    }

    /// Seed for a workload-specific input stream.
    pub(crate) fn input_seed(&self, stream: u64) -> u64 {
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.variant() + 1) ^ stream
    }

    pub(crate) fn tiny(&self) -> bool {
        self.size == Size::Tiny
    }
}

/// End-to-end metrics, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("host_ms_p50", "ms"),
    ("host_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `(name, unit)`. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("vm.vmm_load_ms", "ms"),
    ("vm.shell_ms", "ms"),
    ("vm.verify_ms", "ms"),
    ("vm.replay_ms", "ms"),
    ("vm.boot_ms", "ms"),
    ("vm.capture_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.prefetch_ms", "ms"),
    ("core.trace_check_ms", "ms"),
    ("core.mispredict_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.timed_ms", "ms"),
    ("core.record_ms", "ms"),
    ("core.monitor.demand_served", "count"),
    ("core.monitor.prefetched", "count"),
    ("core.monitor.residual", "count"),
    ("core.monitor.eexist", "count"),
    ("guest_mem.faults", "count"),
    ("guest_mem.copies", "count"),
    ("guest_mem.zero_pages", "count"),
    ("guest_mem.cow_breaks", "count"),
    ("guest_mem.aliased_pages", "count"),
    ("storage.frame_cache.hit_ratio", "ratio"),
    ("storage.frame_cache.misses", "count"),
    ("storage.frame_cache.evicted", "count"),
    ("storage.frame_cache.admitted", "count"),
    ("storage.frame_cache.deduped", "count"),
    ("storage.frame_cache.bytes", "bytes"),
    ("storage.read_calls", "count"),
    ("storage.write_calls", "count"),
    ("cluster.batch_ms", "ms"),
    ("cluster.serve_wall_ms", "ms"),
    ("telemetry.emit_us", "us"),
    ("telemetry.write_ms", "ms"),
    ("telemetry.rollup_ms", "ms"),
    ("telemetry.scan_ms", "ms"),
    ("telemetry.window_ms", "ms"),
    ("telemetry.attribution_ms", "ms"),
    ("telemetry.query_read_calls", "count"),
    ("host.allocs_per_op", "count"),
    ("host.alloc_bytes_per_op", "bytes"),
    ("host.unattributed_pct", "%"),
    ("host.tracing_overhead_pct", "%"),
];

/// Share of a cold start's timed prepare the replica's phases must cover
/// before the rest is flagged as unattributed.
pub const UNATTRIBUTED_FLAG_PCT: f64 = 10.0;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each measured operation.
    pub op_ms: Vec<f64>,
    /// Items (cold starts or spans) the measured operations
    /// completed.
    pub items: u64,
    /// Wall-clock length of the measured phase, seconds.
    pub elapsed_s: f64,
    /// `VmHWM` after [`RSS_OPS`] measured operations, MB.
    pub peak_rss_mb: Option<Result<f64, String>>,
    /// Operations attempted (set-up excluded).
    pub attempted: u64,
    /// Operations that panicked, failed a check or returned a request
    /// that was not completed.
    pub failed: u64,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    /// Digest of the checked outcomes.
    pub digest: Digest,
    /// Per-layer metrics of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Prefetch lanes the workload's orchestrator was configured with
    /// (`None` when it runs none).
    pub prefetch_lanes: Option<usize>,
    /// Spans of a traced run, as JSON lines.
    pub trace_jsonl: String,
}

pub use digest::Digest;

use alloc::AllocCount;
use sim_storage::FrameCacheStats;
use stats::median;
use trace::Tracer;

impl Report {
    /// Records a failed check (the operation it belongs to counts as
    /// failed once).
    pub(crate) fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }
}

/// Outcome of one measured operation.
pub(crate) struct Op {
    /// Host milliseconds the operation took.
    pub ms: f64,
    /// Items it completed.
    pub items: u64,
    /// The first failed check, if any.
    pub error: Option<String>,
}

/// `peak_rss_mb` is read once this many operations were measured. The
/// program's memory grows with the operations it serves, so reading it
/// after a fixed amount of work keeps a faster program from reading as a
/// larger one.
pub const RSS_OPS: usize = 32;

/// Runs `op(i)` for i = 0, 1, ... as a closed loop until `seconds` have
/// passed and at least `min_ops` and [`RSS_OPS`] ran. A panicking
/// operation counts as failed and ends the loop (the state it left is not
/// trusted).
pub(crate) fn closed_loop(
    rep: &mut Report,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Op,
) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops.max(RSS_OPS) || start.elapsed().as_secs_f64() < seconds {
        rep.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| op(i))) {
            Ok(o) => {
                rep.op_ms.push(o.ms);
                rep.items += o.items;
                if let Some(e) = o.error {
                    rep.failed += 1;
                    rep.fail(format!("op {i}: {e}"));
                }
            }
            Err(_) => {
                rep.failed += 1;
                rep.fail(format!("op {i} panicked"));
                break;
            }
        }
        i += 1;
        if i == RSS_OPS {
            rep.peak_rss_mb = Some(host::peak_rss_mb());
        }
    }
    rep.elapsed_s = start.elapsed().as_secs_f64();
}

/// Milliseconds since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one workload and applies the digest check.
pub fn run(cfg: &Config) -> Report {
    let mut rep = match catch_unwind(AssertUnwindSafe(|| match cfg.workload {
        Workload::ReapFleetHot => wl_fleet::run(cfg),
        Workload::SpanStore => wl_spans::run(cfg),
    })) {
        Ok(rep) => rep,
        Err(_) => {
            let mut rep = Report {
                attempted: 1,
                failed: 1,
                ..Report::default()
            };
            rep.fail("set-up panicked".to_string());
            rep
        }
    };
    if let Some(want) = cfg.expected {
        if rep.digest.value() != want {
            rep.fail(format!(
                "digest {:016x} differs from the recorded {want:016x}",
                rep.digest.value()
            ));
            rep.failed = rep.attempted;
        }
    }
    rep
}

/// The end-to-end metrics of an untraced run, `(name, unit, value)`.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn end_to_end(rep: &Report) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let items_per_s = if rep.elapsed_s > 0.0 {
        rep.items as f64 / rep.elapsed_s
    } else {
        0.0
    };
    let values = [
        stats::median(&rep.setup_s),
        items_per_s,
        stats::median(&rep.op_ms),
        stats::tail(&rep.op_ms).value,
        match &rep.peak_rss_mb {
            Some(mb) => mb.clone()?,
            // The loop ended early (an operation panicked).
            None => host::peak_rss_mb()?,
        },
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect())
}

/// The per-layer metrics of a traced run, every name present.
pub fn per_layer(rep: &Report) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, rep.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(rep: &Report, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        rep.errors.is_empty() && rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
    )
}

/// Per-layer metrics that are medians of span durations, as `(metric,
/// span name, scale to the metric's unit)`.
const SPAN_METRICS: [(&str, &str, f64); 19] = [
    ("vm.vmm_load_ms", "vm.vmm_load", 1.0),
    ("vm.shell_ms", "vm.shell", 1.0),
    ("vm.verify_ms", "vm.verify", 1.0),
    ("vm.replay_ms", "vm.replay", 1.0),
    ("vm.boot_ms", "vm.boot", 1.0),
    ("vm.capture_ms", "vm.capture", 1.0),
    ("core.prepare_ms", "core.prepare", 1.0),
    ("core.prefetch_ms", "core.prefetch", 1.0),
    ("core.trace_check_ms", "core.trace_check", 1.0),
    ("core.mispredict_ms", "core.mispredict", 1.0),
    ("core.compile_ms", "core.compile", 1.0),
    ("core.timed_ms", "core.timed", 1.0),
    ("core.record_ms", "core.record", 1.0),
    ("telemetry.emit_us", "telemetry.emit", 1e3),
    ("telemetry.write_ms", "telemetry.write", 1.0),
    ("telemetry.rollup_ms", "telemetry.rollup", 1.0),
    ("telemetry.scan_ms", "telemetry.scan", 1.0),
    ("telemetry.window_ms", "telemetry.window", 1.0),
    ("telemetry.attribution_ms", "telemetry.attribution", 1.0),
];

/// Fills every span-derived per-layer metric whose span was recorded,
/// and writes the spans out as JSON lines.
pub(crate) fn span_layers(rep: &mut Report, tr: &Tracer) {
    for (metric, span, scale) in SPAN_METRICS {
        let d = tr.durations_ms(span);
        if !d.is_empty() {
            rep.layers.insert(metric, median(&d) * scale);
        }
    }
    rep.trace_jsonl = tr.to_jsonl();
}

/// Host metrics shared by the workloads that alternate untraced and
/// traced operations: allocations per untraced operation, the op spans'
/// unattributed self time, and the traced-vs-untraced gap.
pub(crate) fn report_host(
    rep: &mut Report,
    tr: &Tracer,
    allocs: &[AllocCount],
    plain_ms: &[f64],
    traced_ms: &[f64],
) {
    let l = &mut rep.layers;
    l.insert(
        "host.allocs_per_op",
        median(&allocs.iter().map(|a| a.calls as f64).collect::<Vec<_>>()),
    );
    l.insert(
        "host.alloc_bytes_per_op",
        median(&allocs.iter().map(|a| a.bytes as f64).collect::<Vec<_>>()),
    );
    let unattributed: Vec<f64> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op" && s.ms() > 0.0)
        .map(|(id, s)| tr.self_ms(id) / s.ms() * 100.0)
        .collect();
    l.insert("host.unattributed_pct", median(&unattributed));
    let (plain, traced) = (median(plain_ms), median(traced_ms));
    if plain > 0.0 && traced > 0.0 {
        l.insert("host.tracing_overhead_pct", (traced / plain - 1.0) * 100.0);
    }
}

/// Per-operation counters of a traced cold-start workload, taken around
/// its untraced operations.
#[derive(Debug, Default)]
pub(crate) struct PerOp {
    hits: u64,
    misses: Vec<f64>,
    evicted: Vec<f64>,
    admitted: Vec<f64>,
    deduped: Vec<f64>,
    read_calls: Vec<f64>,
    write_calls: Vec<f64>,
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

impl PerOp {
    /// Adds one operation's deltas.
    pub(crate) fn add(
        &mut self,
        before: &FrameCacheStats,
        after: &FrameCacheStats,
        calls_after: (u64, u64),
        calls_before: (u64, u64),
        allocs: AllocCount,
    ) {
        self.hits += after.hits - before.hits;
        self.misses.push((after.misses - before.misses) as f64);
        self.evicted.push((after.evicted - before.evicted) as f64);
        self.admitted
            .push((after.admitted - before.admitted) as f64);
        self.deduped.push((after.deduped - before.deduped) as f64);
        self.read_calls
            .push((calls_after.0 - calls_before.0) as f64);
        self.write_calls
            .push((calls_after.1 - calls_before.1) as f64);
        self.allocs.push(allocs.calls as f64);
        self.alloc_bytes.push(allocs.bytes as f64);
    }

    /// Writes the medians (and the hit ratio over all operations).
    pub(crate) fn report(&self, rep: &mut Report, cache_bytes: u64) {
        let misses: f64 = self.misses.iter().sum();
        let lookups = self.hits as f64 + misses;
        let l = &mut rep.layers;
        l.insert(
            "storage.frame_cache.hit_ratio",
            if lookups > 0.0 {
                self.hits as f64 / lookups
            } else {
                0.0
            },
        );
        l.insert("storage.frame_cache.misses", median(&self.misses));
        l.insert("storage.frame_cache.evicted", median(&self.evicted));
        l.insert("storage.frame_cache.admitted", median(&self.admitted));
        l.insert("storage.frame_cache.deduped", median(&self.deduped));
        l.insert("storage.frame_cache.bytes", cache_bytes as f64);
        l.insert("storage.read_calls", median(&self.read_calls));
        l.insert("storage.write_calls", median(&self.write_calls));
        l.insert("host.allocs_per_op", median(&self.allocs));
        l.insert("host.alloc_bytes_per_op", median(&self.alloc_bytes));
    }
}
