//! `reap_fleet_hot`: 64-request REAP batches on a one-shard cluster whose
//! frame cache is hot.
//!
//! Traced, each batch runs twice with the same requests and seqs: once
//! through `ClusterOrchestrator::invoke_concurrent` (the untraced
//! operation) and once on a standalone twin of the shard, driven through
//! the public calls the batch is built from, with spans. Both must give
//! identical outcomes. Sampled cold starts are then replayed phase by
//! phase by the [`Replica`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use functionbench::FunctionId;
use sim_core::{DetRng, SimTime};
use sim_storage::FrameCacheDelta;
use vhive_cluster::{ClusterBatch, ClusterOrchestrator, ColdRequest};
use vhive_core::{ColdPolicy, Disposition, InvocationOutcome, Orchestrator};

use crate::alloc::AllocCount;
use crate::replica::{CaseKind, Replica, Sampled};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{closed_loop, ms_since, span_layers, Config, Digest, Op, PerOp, Report};

/// The fleet: light functions with 8-20 MB working sets.
const FLEET: [FunctionId; 4] = [
    FunctionId::helloworld,
    FunctionId::chameleon,
    FunctionId::pyaes,
    FunctionId::json_serdes,
];

/// Orchestrator seed (snapshot contents and per-invocation inputs). It is
/// fixed, so every input variant deploys the same functions and the seed
/// varies the request stream only.
const ORCH_SEED: u64 = 0xC10_5732;

/// Measured batches whose outcomes enter the digest.
const CHECKED_OPS: usize = 2;

/// Traced batches whose cold starts the replica samples.
const SAMPLED_OPS: usize = 2;

pub(crate) fn run(cfg: &Config) -> Report {
    let funcs: &[FunctionId] = if cfg.tiny() { &FLEET[..2] } else { &FLEET };
    let batch_len = if cfg.tiny() { 8 } else { 64 };
    let mut rng = DetRng::new(cfg.input_seed(0xba7c4));
    let mut next_batch = move || {
        let mut reqs: Vec<ColdRequest> = (0..batch_len)
            .map(|i| ColdRequest::independent(funcs[i % funcs.len()], ColdPolicy::Reap))
            .collect();
        rng.shuffle(&mut reqs);
        reqs
    };
    let mut rep = Report::default();
    let mut digest = Digest::default();

    let mut built = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(built.take());
        let t = Instant::now();
        let mut cluster = ClusterOrchestrator::new(ORCH_SEED, 1);
        let records: Vec<InvocationOutcome> = funcs
            .iter()
            .map(|&f| {
                cluster.register(f);
                cluster.invoke_record(f)
            })
            .collect();
        rep.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((cluster, records));
    }
    let (mut cluster, records) = built.expect("at least one set-up");
    rep.prefetch_lanes = Some(cluster.shard(0).prefetch_lanes());
    records.iter().for_each(|o| digest.outcome(o));

    let mut traced = cfg.trace.then(|| Traced::new(ORCH_SEED, funcs, &cluster));

    // Warm-up: fill the frame cache before anything is timed.
    let reqs = next_batch();
    let warm = cluster.invoke_concurrent(&reqs);
    if let Err(e) = check_batch(&reqs, &warm) {
        rep.fail(format!("warm-up batch: {e}"));
    }
    digest.batch(&warm);
    if let Some(t) = traced.as_mut() {
        if let Err(e) = t.twin_batch(&reqs, &warm, None) {
            rep.fail(format!("warm-up twin batch: {e}"));
        }
    }

    let mut per_op = PerOp::default();
    closed_loop(&mut rep, cfg.seconds, CHECKED_OPS, |i| {
        let reqs = next_batch();
        let before = cluster.frame_cache_stats();
        let calls = store_calls(&cluster);
        let allocs = AllocCount::now();
        let t = Instant::now();
        let batch = cluster.invoke_concurrent(&reqs);
        let ms = ms_since(t);
        let allocs = allocs.since();
        let mut error = check_batch(&reqs, &batch).err();
        let after = cluster.frame_cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        if error.is_none() && hits <= 100 * misses {
            error = Some(format!(
                "frame cache not hot: {hits} hits vs {misses} misses"
            ));
        }
        if i < CHECKED_OPS {
            digest.batch(&batch);
        }
        if let Some(t) = traced.as_mut() {
            per_op.add(&before, &after, store_calls(&cluster), calls, allocs);
            t.batch_ms.push(ms);
            t.serve_wall_ms.push(batch.serve_wall.as_secs_f64() * 1e3);
            if let Err(e) = t.twin_batch(&reqs, &batch, Some(i)) {
                error.get_or_insert(e);
            }
        }
        Op {
            ms,
            items: batch.outcomes.len() as u64,
            error,
        }
    });
    rep.digest = digest;

    if let Some(t) = traced {
        t.finish(&mut rep, &per_op, cluster.frame_cache_stats().bytes);
    }
    rep
}

/// The traced run's extra state: the shard's twin, the replica and what
/// they measured.
struct Traced {
    tr: Tracer,
    twin: Orchestrator,
    replica: Replica,
    batch_ms: Vec<f64>,
    serve_wall_ms: Vec<f64>,
    overhead_pct: Vec<f64>,
    record_seq: BTreeMap<FunctionId, u64>,
    sampled: Sampled,
}

impl Traced {
    /// Builds the twin (registered and recorded through the public calls
    /// `invoke_record` is made of) and the replica, and warms both.
    fn new(orch_seed: u64, funcs: &[FunctionId], cluster: &ClusterOrchestrator) -> Traced {
        let mut tr = Tracer::new();
        let mut twin = Orchestrator::new(orch_seed);
        let mut replica = Replica::new(orch_seed, twin.prefetch_lanes());
        let mut record_seq = BTreeMap::new();
        for &f in funcs {
            twin.register(f);
            let id = tr.begin("core.record");
            let mut prepared = twin.prepare_record(f, SimTime::ZERO);
            tr.end(id);
            let (results, disk) = twin.run_timed(vec![prepared.take_program()]);
            let outcome = prepared.into_outcome(results[0], disk);
            record_seq.insert(f, outcome.seq);
            replica.add(f, &mut tr);
            replica
                .ensure_recorded(f, outcome.seq, &twin)
                .unwrap_or_else(|e| panic!("replica record of {f}: {e}"));
            // One untraced replay fills the replica's frame cache.
            replica
                .replay(
                    f,
                    u64::MAX / 2,
                    CaseKind::Cold(ColdPolicy::Reap),
                    &twin,
                    &mut Tracer::off(),
                )
                .unwrap_or_else(|e| panic!("replica warm-up of {f}: {e}"));
        }
        assert_eq!(twin.prefetch_lanes(), cluster.shard(0).prefetch_lanes());
        Traced {
            tr,
            twin,
            replica,
            batch_ms: Vec::new(),
            serve_wall_ms: Vec::new(),
            overhead_pct: Vec::new(),
            record_seq,
            sampled: Sampled::default(),
        }
    }

    /// Serves `reqs` on the twin through `prepare_cold_shadow`,
    /// `take_program`, one merged `Timeline::run`, `into_outcome` and
    /// `emit_telemetry_attributed`, each in a span; checks the outcomes
    /// equal the cluster's; on measured batch `op` < [`SAMPLED_OPS`]
    /// samples the first cold start of every function for the replica.
    fn twin_batch(
        &mut self,
        reqs: &[ColdRequest],
        cluster: &ClusterBatch,
        op: Option<usize>,
    ) -> Result<(), String> {
        let tr = &mut self.tr;
        let twin = &mut self.twin;
        let top = tr.begin("op");
        let mut prepared = Vec::with_capacity(reqs.len());
        let mut prepare_ms = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            tr.set_request(i as u64);
            let id = tr.begin("core.prepare");
            prepared.push(twin.prepare_cold_shadow(r.function, r.policy, r.arrival));
            prepare_ms.push(tr.end(id));
        }
        let programs = tr.span("core.take", || {
            prepared.iter_mut().map(|p| p.take_program()).collect()
        });
        let id = tr.begin("core.timed");
        let mut timeline = twin.timeline();
        let results = timeline.run(programs);
        let disk = timeline.disk_stats();
        tr.end(id);
        let deltas: Vec<FrameCacheDelta> = prepared.iter().map(|p| p.cache_delta()).collect();
        let outcomes: Vec<InvocationOutcome> = tr.span("core.outcome", || {
            prepared
                .into_iter()
                .zip(&results)
                .map(|(p, r)| p.into_outcome(*r, disk))
                .collect()
        });
        for (i, o) in outcomes.iter().enumerate() {
            tr.set_request(i as u64);
            tr.span("telemetry.emit", || {
                twin.emit_telemetry_attributed(o, deltas[i], results[i].end)
            });
        }
        let twin_ms = tr.end(top);

        let (mut mine, mut theirs) = (Digest::default(), Digest::default());
        outcomes.iter().for_each(|o| mine.outcome(o));
        cluster.outcomes.iter().for_each(|o| theirs.outcome(o));
        if mine != theirs {
            return Err("twin outcomes differ from the cluster batch".to_string());
        }
        let Some(op) = op else {
            return Ok(());
        };
        let cluster_ms = self.batch_ms.last().copied().unwrap_or(twin_ms);
        self.overhead_pct.push((twin_ms / cluster_ms - 1.0) * 100.0);
        if op >= SAMPLED_OPS {
            return Ok(());
        }
        let mut seen = BTreeSet::new();
        for (i, o) in outcomes.iter().enumerate() {
            if seen.insert(o.function) {
                self.sampled
                    .sample(o, self.record_seq[&o.function], prepare_ms[i], i as u64);
            }
        }
        Ok(())
    }

    fn finish(mut self, rep: &mut Report, per_op: &PerOp, cache_bytes: u64) {
        if let Err(e) = self
            .sampled
            .replay_all(&mut self.replica, &self.twin, &mut self.tr)
        {
            rep.fail(e);
        }
        let l = &mut rep.layers;
        l.insert("cluster.batch_ms", median(&self.batch_ms));
        l.insert("cluster.serve_wall_ms", median(&self.serve_wall_ms));
        l.insert("host.tracing_overhead_pct", median(&self.overhead_pct));
        per_op.report(rep, cache_bytes);
        self.sampled.report(rep);
        span_layers(rep, &self.tr);
        rep.trace_jsonl = self.tr.to_jsonl();
    }
}

/// Every request served, in order, completed, under REAP.
fn check_batch(reqs: &[ColdRequest], b: &ClusterBatch) -> Result<(), String> {
    if b.outcomes.len() != reqs.len() {
        return Err(format!(
            "{} of {} requests served",
            b.outcomes.len(),
            reqs.len()
        ));
    }
    if let Some(d) = b
        .dispositions
        .iter()
        .find(|d| **d != Disposition::Completed)
    {
        return Err(format!("request not completed: {d:?}"));
    }
    for (r, o) in reqs.iter().zip(&b.outcomes) {
        if o.function != r.function || o.policy != Some(ColdPolicy::Reap) {
            return Err(format!(
                "{} served as {} {:?}",
                r.function, o.function, o.policy
            ));
        }
    }
    Ok(())
}

fn store_calls(cluster: &ClusterOrchestrator) -> (u64, u64) {
    let fs = cluster.shard(0).fs();
    (fs.read_calls(), fs.write_calls())
}
