//! `span_store`: write-and-query cycles over the telemetry store. Each
//! cycle synthesizes seeded spans into a fresh sink (VTB1 encoding,
//! checksum, append), builds the VTR1 rollups, and runs the latency,
//! window and attribution reports over the same store.

use std::time::Instant;

use functionbench::FunctionId;
use sim_storage::FileStore;
use vhive_telemetry::{
    attribution_report, build_rollups, for_each_rollup_row, latency_report, synthesize,
    window_report, TelemetrySink, DEFAULT_WINDOW_NS,
};

use crate::alloc::AllocCount;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{closed_loop, ms_since, report_host, span_layers, Config, Digest, Op, Report};

/// Shards the synthetic spans are homed on.
const SHARDS: u32 = 4;

/// One cycle over a fresh store. Returns the digest of the three reports
/// and the store reads the queries made.
fn cycle(seed: u64, spans: u64, names: &[&str], tr: &mut Tracer) -> Result<(Digest, u64), String> {
    let store = FileStore::new();
    let sink = TelemetrySink::new(store.clone());
    tr.span("telemetry.write", || {
        synthesize(&sink, seed, spans, SHARDS, names);
        sink.flush();
    });
    let (built, scan) = tr.span("telemetry.rollup", || {
        build_rollups(&store, DEFAULT_WINDOW_NS)
    });
    let reads = store.read_calls();
    let latency = tr.span("telemetry.scan", || latency_report(&store));
    let window = tr.span("telemetry.window", || window_report(&store, 0, u64::MAX));
    let attribution = tr.span("telemetry.attribution", || {
        let mut cells = Vec::new();
        for_each_rollup_row(&store, |k, c| cells.push((k.clone(), c.clone())));
        attribution_report(cells.iter().map(|(k, c)| (k, c)))
    });
    let query_reads = store.read_calls() - reads;
    let attributed: u64 = attribution.rows.iter().map(|(_, r)| r.count).sum();
    for (what, n) in [
        ("rollup", built.spans),
        ("latency report", latency.total_count()),
        ("window report", window.total_count()),
        ("attribution", attributed),
    ] {
        if n != spans {
            return Err(format!("{what} covers {n} of {spans} spans"));
        }
    }
    if scan.batches_dropped + latency.scan.batches_dropped > 0 {
        return Err("a span batch was dropped".to_string());
    }
    let mut digest = Digest::default();
    for table in [latency.table(), window.table(), attribution.table()] {
        digest.str(&table.render());
    }
    Ok((digest, query_reads))
}

pub(crate) fn run(cfg: &Config) -> Report {
    let spans: u64 = if cfg.tiny() { 2_000 } else { 60_000 };
    let names: Vec<&str> = FunctionId::ALL.iter().map(|f| f.name()).collect();
    // Every cycle of a run writes the same seeded spans, so each one is
    // checked against the first and their costs stay alike.
    let seed = cfg.input_seed(0x5a4);
    let mut rep = Report::default();
    // Set-up is one untimed cycle: it generates the inputs once and
    // leaves the allocator warm.
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        let warm = cycle(seed, spans, &names, &mut Tracer::off());
        rep.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            rep.fail(format!("set-up cycle: {e}"));
        }
    }
    let mut tr = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let mut first: Option<Digest> = None;
    let mut allocs = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut query_reads = Vec::new();
    closed_loop(&mut rep, cfg.seconds, 1, |i| {
        let traced = cfg.trace && i % 2 == 1;
        let count = AllocCount::now();
        let t = Instant::now();
        let result = if traced {
            tr.set_request(i as u64);
            let top = tr.begin("op");
            let r = cycle(seed, spans, &names, &mut tr);
            tr.end(top);
            r
        } else {
            cycle(seed, spans, &names, &mut Tracer::off())
        };
        let ms = ms_since(t);
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        if !traced {
            allocs.push(count.since());
        }
        let error = match result {
            Err(e) => Some(e),
            Ok((d, reads)) => {
                query_reads.push(reads as f64);
                match first {
                    Some(want) if want != d => Some(format!("cycle {i} differs from the first")),
                    Some(_) => None,
                    None => {
                        first = Some(d);
                        None
                    }
                }
            }
        };
        Op {
            ms,
            items: spans,
            error,
        }
    });
    rep.digest = first.unwrap_or_default();
    if cfg.trace {
        rep.layers
            .insert("telemetry.query_read_calls", median(&query_reads));
        report_host(&mut rep, &tr, &allocs, &plain_ms, &traced_ms);
        span_layers(&mut rep, &tr);
    }
    rep
}
