//! A phase-by-phase replica of one cold start's functional pass.
//!
//! `Orchestrator::prepare_cold` runs restore, prefetch, replay and
//! verification inside one call. The replica re-runs a sampled
//! `(function, seq, policy)` case through the same public `vm`, `core`
//! and `guest-mem` functions, one span per phase, against a snapshot of
//! its own that is built with the orchestrator's `VmConfig`. Its counts
//! must equal the orchestrator's outcome for the case; its phase times
//! give the per-layer split of the prepare pass.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use functionbench::{FunctionId, GuestOp, InputGenerator};
use guest_mem::{PageIdx, UffdStats};
use microvm::{run_lazy, verify_restored_tracked, FaultHandler, MicroVm, Snapshot, VmConfig};
use sim_core::SimTime;
use sim_storage::{FileStore, FrameCacheDelta, SnapshotFrameCache};
use vhive_core::orchestrator::FunctionalRun;
use vhive_core::{
    read_trace_file, read_trace_runs, ColdPolicy, InvocationOutcome, MispredictionReport, Monitor,
    MonitorMode, MonitorStats, Orchestrator, ReapFiles,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{Report, UNATTRIBUTED_FLAG_PCT};

/// What a case is: the record invocation, or a cold start under a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Record-mode invocation (serves on demand, writes REAP files).
    Record,
    /// Cold start under a policy (prefetch mode for working-set policies).
    Cold(ColdPolicy),
}

impl CaseKind {
    /// The kind of case an orchestrator outcome was.
    pub fn of(o: &InvocationOutcome) -> CaseKind {
        if o.recorded {
            CaseKind::Record
        } else {
            CaseKind::Cold(o.policy.expect("cold outcome has a policy"))
        }
    }

    fn mode(self) -> MonitorMode {
        match self {
            CaseKind::Record => MonitorMode::Record,
            CaseKind::Cold(p) if p.uses_ws() => MonitorMode::Prefetch,
            CaseKind::Cold(_) => MonitorMode::OnDemand,
        }
    }
}

/// One replayed case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Monitor counters.
    pub monitor: MonitorStats,
    /// userfaultfd counters of the replica VM.
    pub uffd: UffdStats,
    /// Copy-on-write breaks in the replica's guest memory.
    pub cow_breaks: u64,
    /// Guest pages aliased from frame-cache entries.
    pub aliased_pages: u64,
    /// Host milliseconds the phases took in total.
    pub phases_ms: f64,
}

#[derive(Debug)]
struct ReplicaFn {
    snapshot: Snapshot,
    inputs: InputGenerator,
    /// Seq of the recording the REAP files hold.
    reap: Option<(u64, ReapFiles)>,
}

/// The replica: its own store, frame cache and snapshots.
#[derive(Debug)]
pub struct Replica {
    fs: FileStore,
    cache: Arc<SnapshotFrameCache>,
    lanes: usize,
    orch_seed: u64,
    fns: BTreeMap<FunctionId, ReplicaFn>,
}

impl Replica {
    /// A replica of an orchestrator seeded `orch_seed` that prefetches
    /// with `lanes` lanes.
    pub fn new(orch_seed: u64, lanes: usize) -> Self {
        Replica {
            fs: FileStore::new(),
            cache: Arc::new(SnapshotFrameCache::new()),
            lanes,
            orch_seed,
            fns: BTreeMap::new(),
        }
    }

    /// Boots `f` with the orchestrator's config and captures its
    /// snapshot (spans `vm.boot` and `vm.capture`).
    pub fn add(&mut self, f: FunctionId, tr: &mut Tracer) {
        // The orchestrator's VmConfig for a first-generation snapshot.
        let config = VmConfig {
            mem_mib: 256,
            vcpus: 1,
            seed: self.orch_seed ^ ((f as u64) << 8),
        };
        let (mut vm, _) = tr.span("vm.boot", || MicroVm::boot(f, config));
        vm.pause();
        let snapshot = tr.span("vm.capture", || {
            Snapshot::capture(&vm, &self.fs, &format!("replica/{f}"))
        });
        self.fns.insert(
            f,
            ReplicaFn {
                snapshot,
                inputs: InputGenerator::new(f, self.orch_seed),
                reap: None,
            },
        );
    }

    /// Makes `f`'s REAP files those of the recording at `seq`, recording
    /// untraced if they are not.
    ///
    /// # Errors
    ///
    /// As [`replay`](Self::replay).
    pub fn ensure_recorded(
        &mut self,
        f: FunctionId,
        seq: u64,
        orch: &Orchestrator,
    ) -> Result<(), String> {
        if self.fns.get(&f).and_then(|s| s.reap).map(|(s, _)| s) == Some(seq) {
            return Ok(());
        }
        self.replay(f, seq, CaseKind::Record, orch, &mut Tracer::off())
            .map(|_| ())
    }

    /// Replays case `(f, seq, kind)` phase by phase, one span per phase,
    /// and compiles its timed program with `orch`'s cost model.
    ///
    /// # Errors
    ///
    /// When `f` has no replica snapshot, a working-set case has no
    /// recording, or a phase fails.
    pub fn replay(
        &mut self,
        f: FunctionId,
        seq: u64,
        kind: CaseKind,
        orch: &Orchestrator,
        tr: &mut Tracer,
    ) -> Result<(Case, CaseCounts), String> {
        let st = self
            .fns
            .get(&f)
            .ok_or_else(|| format!("{f}: no replica snapshot"))?;
        let mode = kind.mode();
        let files = match mode {
            MonitorMode::Prefetch => {
                Some(st.reap.ok_or_else(|| format!("{f}: nothing recorded"))?.1)
            }
            _ => None,
        };
        let fs = &self.fs;
        let snap = &st.snapshot;
        let input = st.inputs.input(seq);
        let mut phases_ms = 0.0;

        let id = tr.begin("vm.vmm_load");
        let vmm = snap.load_vmm_state(fs);
        phases_ms += tr.end(id);
        vmm?;
        let id = tr.begin("vm.shell");
        let mut vm = MicroVm::restore_shell(snap.function, snap.config);
        phases_ms += tr.end(id);

        let id = tr.begin("core.prefetch");
        let mut monitor = Monitor::with_cache(snap, fs, mode, Some(&self.cache));
        let first = vm.uffd_mut().inject_first_fault();
        vm.uffd_mut()
            .poll()
            .ok_or("injected first fault not queued")?;
        monitor
            .handle_fault(vm.uffd_mut(), first)
            .map_err(|e| format!("first-fault handshake: {e}"))?;
        vm.uffd_mut().wake();
        if let Some(files) = &files {
            monitor
                .prefetch_lanes(vm.uffd_mut(), files, self.lanes)
                .map_err(|e| format!("prefetch: {e}"))?;
        }
        phases_ms += tr.end(id);
        if let Some(files) = &files {
            let id = tr.begin("core.trace_check");
            let runs = read_trace_runs(fs, files.trace_file);
            phases_ms += tr.end(id);
            runs.map_err(|e| format!("trace check: {e}"))?;
        }

        let id = tr.begin("vm.replay");
        let conn_ops: Vec<GuestOp> = vm
            .kernel()
            .conn_plan()
            .into_iter()
            .map(GuestOp::Touch)
            .collect();
        let conn_trace = run_lazy(&conn_ops, vm.uffd_mut(), &mut monitor);
        let ops = vm.invocation_ops(&input);
        let proc_trace = run_lazy(&ops, vm.uffd_mut(), &mut monitor);
        phases_ms += tr.end(id);

        let id = tr.begin("vm.verify");
        let mut verify_delta = FrameCacheDelta::default();
        let verified = verify_restored_tracked(&vm, snap, fs, Some(&self.cache), &mut verify_delta);
        phases_ms += tr.end(id);
        let verified_pages = verified.map_err(|e| format!("verification: {e}"))?;

        let id = tr.begin("core.collect");
        let mut touched: BTreeSet<PageIdx> = BTreeSet::new();
        for op in &conn_ops {
            if let GuestOp::Touch(c) = op {
                touched.extend(c.iter());
            }
        }
        touched.extend(functionbench::behavior::touched_pages(&ops));
        let recorded =
            (mode == MonitorMode::Record).then(|| monitor.finish_record(&format!("replica/{f}")));
        phases_ms += tr.end(id);

        let monitor_stats = monitor.stats();
        let case = Case {
            monitor: monitor_stats,
            uffd: vm.uffd().stats(),
            cow_breaks: vm.memory().cow_breaks(),
            aliased_pages: vm.memory().aliased_pages(),
            phases_ms: 0.0,
        };
        let counts = CaseCounts {
            verified_pages,
            ws_pages: touched.len() as u64,
            prefetched_pages: monitor_stats.prefetched,
            uffd_faults: conn_trace.uffd_faults + proc_trace.uffd_faults,
        };
        drop(monitor);
        drop(vm);

        if let Some(files) = &files {
            let id = tr.begin("core.mispredict");
            let recorded_pages = read_trace_file(fs, files.trace_file);
            let report = recorded_pages.map(|pages| {
                let pages: BTreeSet<PageIdx> = pages.into_iter().collect();
                MispredictionReport::compute(
                    &pages,
                    &touched,
                    monitor_stats.residual_after_prefetch,
                )
            });
            phases_ms += tr.end(id);
            report.map_err(|e| format!("misprediction: {e}"))?;
        }

        let (policy, record) = match kind {
            CaseKind::Record => (ColdPolicy::Vanilla, true),
            CaseKind::Cold(p) => (p, false),
        };
        let reap = recorded.or_else(|| self.fns[&f].reap.map(|(_, r)| r));
        let run = FunctionalRun {
            conn_trace,
            proc_trace,
            touched,
            monitor_stats,
            verified_pages,
            footprint_bytes: 0,
            input_seq: seq,
            recorded,
            cache_delta: FrameCacheDelta::default(),
        };
        let id = tr.begin("core.compile");
        let program = orch.cold_program(
            f,
            policy,
            record,
            &run,
            orch.instance_files(f),
            reap,
            SimTime::ZERO,
        );
        phases_ms += tr.end(id);
        std::hint::black_box(program);

        if let Some(files) = recorded {
            // Re-recording rewrote the files in place: drop cached extents
            // of the previous recording, as the orchestrator does.
            self.cache.invalidate_file(files.trace_file);
            self.cache.invalidate_file(files.ws_file);
            self.fns.get_mut(&f).expect("checked above").reap = Some((seq, files));
        }
        Ok((Case { phases_ms, ..case }, counts))
    }
}

/// The counts a replayed case must share with the orchestrator's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseCounts {
    /// Pages verified byte-identical to the snapshot.
    pub verified_pages: u64,
    /// Distinct pages touched.
    pub ws_pages: u64,
    /// Pages installed by prefetch.
    pub prefetched_pages: u64,
    /// userfaultfd faults on the critical path.
    pub uffd_faults: u64,
}

impl CaseCounts {
    /// The same counts from an orchestrator outcome.
    pub fn of(o: &InvocationOutcome) -> CaseCounts {
        CaseCounts {
            verified_pages: o.verified_pages,
            ws_pages: o.ws_pages,
            prefetched_pages: o.prefetched_pages,
            uffd_faults: o.uffd_faults,
        }
    }
}

/// A sampled cold start waiting for its replay.
#[derive(Debug)]
struct Pending {
    function: FunctionId,
    seq: u64,
    kind: CaseKind,
    /// Seq of the recording whose files the case prefetched.
    recording: u64,
    counts: CaseCounts,
    prepare_ms: f64,
    request: u64,
}

/// Cold starts sampled during a traced run, replayed once the measured
/// phase is over (so the replica does not disturb it), and how much of
/// each timed prepare their phases covered.
#[derive(Debug, Default)]
pub(crate) struct Sampled {
    pending: Vec<Pending>,
    cases: Vec<Case>,
    /// Share of each case's timed prepare its replayed phases took, %.
    coverage_pct: Vec<f64>,
}

impl Sampled {
    /// Queues the case behind outcome `o`, whose prepare took
    /// `prepare_ms` and which prefetched (if at all) the files of the
    /// recording at seq `recording`.
    pub fn sample(&mut self, o: &InvocationOutcome, recording: u64, prepare_ms: f64, request: u64) {
        self.pending.push(Pending {
            function: o.function,
            seq: o.seq,
            kind: CaseKind::of(o),
            recording,
            counts: CaseCounts::of(o),
            prepare_ms,
            request,
        });
    }

    /// Replays every queued case inside a `replica.case` span and checks
    /// its counts equal the orchestrator's.
    ///
    /// # Errors
    ///
    /// On the first case that fails to replay or counts differently.
    pub fn replay_all(
        &mut self,
        replica: &mut Replica,
        orch: &Orchestrator,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        for p in std::mem::take(&mut self.pending) {
            let what = format!("replica of {} seq {}", p.function, p.seq);
            if p.kind.mode() == MonitorMode::Prefetch {
                replica
                    .ensure_recorded(p.function, p.recording, orch)
                    .map_err(|e| format!("{what}: {e}"))?;
            }
            tr.set_request(p.request);
            let id = tr.begin("replica.case");
            let replayed = replica.replay(p.function, p.seq, p.kind, orch, tr);
            tr.end(id);
            let (case, counts) = replayed.map_err(|e| format!("{what}: {e}"))?;
            if counts != p.counts {
                return Err(format!(
                    "{what} counted {counts:?}, the orchestrator {:?}",
                    p.counts
                ));
            }
            self.coverage_pct
                .push(case.phases_ms / p.prepare_ms * 100.0);
            self.cases.push(case);
        }
        Ok(())
    }

    /// Writes the monitor and guest-memory counts (medians per case) and
    /// the unattributed share (flagged above the threshold).
    pub fn report(&self, rep: &mut Report) {
        let l = &mut rep.layers;
        let per_case = |f: fn(&Case) -> u64| {
            median(&self.cases.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
        };
        l.insert(
            "core.monitor.demand_served",
            per_case(|c| c.monitor.demand_served),
        );
        l.insert(
            "core.monitor.prefetched",
            per_case(|c| c.monitor.prefetched),
        );
        l.insert(
            "core.monitor.residual",
            per_case(|c| c.monitor.residual_after_prefetch),
        );
        l.insert("core.monitor.eexist", per_case(|c| c.monitor.eexist_races));
        l.insert("guest_mem.faults", per_case(|c| c.uffd.faults));
        l.insert("guest_mem.copies", per_case(|c| c.uffd.copies));
        l.insert("guest_mem.zero_pages", per_case(|c| c.uffd.zero_pages));
        l.insert("guest_mem.cow_breaks", per_case(|c| c.cow_breaks));
        l.insert("guest_mem.aliased_pages", per_case(|c| c.aliased_pages));
        let coverage = median(&self.coverage_pct);
        let unattributed = (100.0 - coverage).max(0.0);
        l.insert("host.unattributed_pct", unattributed);
        rep.notes.push(format!(
            "replica: {} cases, counts equal the orchestrator's, phases take {coverage:.1}% of the timed prepare (median)",
            self.cases.len()
        ));
        if unattributed > UNATTRIBUTED_FLAG_PCT {
            rep.notes.push(format!(
                "FLAG: {unattributed:.1}% of the timed prepare is unattributed (over {UNATTRIBUTED_FLAG_PCT}%)"
            ));
        }
    }
}
