//! Tiny-size runs of every workload, the digest check, and the
//! agreement between `BENCHMARK.json` and the metrics the binary prints.

use perfbench::{
    digest, per_layer, result_json, run, Config, Report, Size, Workload, END_TO_END, PER_LAYER,
    VARIANTS,
};

fn tiny(workload: Workload, trace: bool, expected: Option<u64>) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        setup_reps: 1,
        expected,
    }
}

fn assert_clean(rep: &Report, what: &str) {
    assert!(rep.errors.is_empty(), "{what}: {:?}", rep.errors);
    assert_eq!(rep.failed, 0, "{what}");
    assert!(rep.attempted > 0 && rep.items > 0, "{what}");
}

#[test]
fn every_workload_runs_tiny_and_its_traced_run_repeats_the_digest() {
    for w in Workload::ALL {
        let plain = run(&tiny(w, false, None));
        assert_clean(&plain, w.name());
        assert!(plain.setup_s.iter().all(|&s| s > 0.0));
        let traced = run(&tiny(w, true, Some(plain.digest.value())));
        assert_clean(&traced, &format!("{} traced", w.name()));
        let layers = per_layer(&traced);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, _, v)| v.is_finite()));
        assert!(result_json(&traced, &layers).starts_with("{\"correct\": true, "));
    }
}

#[test]
fn cold_start_workloads_report_replica_phases() {
    for w in [Workload::ReapFleetHot] {
        let rep = run(&tiny(w, true, None));
        assert_clean(&rep, w.name());
        for metric in [
            "vm.shell_ms",
            "vm.verify_ms",
            "core.prepare_ms",
            "core.timed_ms",
            "guest_mem.faults",
        ] {
            assert!(
                rep.layers.get(metric).is_some_and(|&v| v > 0.0),
                "{}: {metric}",
                w.name()
            );
        }
    }
}

#[test]
fn digest_mismatch_fails_every_operation() {
    let good = run(&tiny(Workload::SpanStore, false, None));
    assert_clean(&good, "span_store");
    let bad = run(&tiny(
        Workload::SpanStore,
        false,
        Some(good.digest.value() ^ 1),
    ));
    assert!(bad.attempted > 0);
    assert_eq!(bad.failed, bad.attempted);
    assert!(bad
        .errors
        .iter()
        .any(|e| e.contains("differs from the recorded")));
    assert!(result_json(&bad, &[]).starts_with("{\"correct\": false, "));
}

#[test]
fn recorded_digests_cover_every_workload_and_variant() {
    let table = digest::parse_table(digest::RECORDED).expect("digests.txt parses");
    for w in Workload::ALL {
        for v in 0..VARIANTS {
            assert!(
                table.contains_key(&(w.name().to_string(), v)),
                "{} variant {v}",
                w.name()
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
