//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its unit, and ends with
//! one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Exits 1
//! when a check failed. `--print-digest` runs only the checked
//! operations and prints the digest line for `digests.txt`.

use std::process::ExitCode;

use perfbench::{
    digest, end_to_end, host, per_layer, result_json, run, stats, Config, Size, Workload,
};

const USAGE: &str = "usage: perfbench --workload <reap_fleet_hot|span_store> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--print-digest]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut print_digest = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-digest" {
            print_digest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} out of range 0..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        print_digest,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        setup_reps: if args.trace { 1 } else { 3 },
        expected: None,
    };
    let name = args.workload.name();
    if args.print_digest {
        cfg.seconds = 0.0;
        cfg.setup_reps = 1;
        cfg.trace = false;
        let rep = run(&cfg);
        if !rep.errors.is_empty() {
            eprintln!("perfbench: checks failed: {:?}", rep.errors);
            return ExitCode::FAILURE;
        }
        println!("{name} {} {:016x}", cfg.variant(), rep.digest.value());
        return ExitCode::SUCCESS;
    }
    let recorded = match digest::parse_table(digest::RECORDED) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(&want) = recorded.get(&(name.to_string(), cfg.variant())) else {
        eprintln!(
            "perfbench: no recorded digest for {name} variant {}",
            cfg.variant()
        );
        return ExitCode::FAILURE;
    };
    cfg.expected = Some(want);

    let rep = run(&cfg);
    println!(
        "perfbench {name} seed={} variant={} trace={} seconds={}",
        cfg.seed,
        cfg.variant(),
        u8::from(cfg.trace),
        cfg.seconds
    );
    println!("{}", host::metadata_line(rep.prefetch_lanes));
    let metrics = if cfg.trace {
        per_layer(&rep)
    } else {
        match end_to_end(&rep) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for (metric, unit, value) in &metrics {
        let detail = match *metric {
            "setup_s" => format!(" (median of {} set-ups)", rep.setup_s.len()),
            "items_per_s" => format!(
                " ({}: {} items in {:.3} s)",
                args.workload.items_name(),
                rep.items,
                rep.elapsed_s
            ),
            "host_ms_p50" => format!(" (median of {} ops)", rep.op_ms.len()),
            "host_ms_tail" => {
                let t = stats::tail(&rep.op_ms);
                format!(" (p{} of {} ops)", t.percentile, t.samples)
            }
            _ => String::new(),
        };
        println!("{metric}: {value} {unit}{detail}");
    }
    println!(
        "failed_share: {} ({} of {} ops)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    println!(
        "digest: {name} {} {:016x} (recorded {want:016x})",
        cfg.variant(),
        rep.digest.value()
    );
    for note in &rep.notes {
        println!("{note}");
    }
    for e in &rep.errors {
        println!("FAILED: {e}");
    }
    if cfg.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{name}-seed{}.jsonl", cfg.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &rep.trace_jsonl)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&rep, &metrics));
    if rep.errors.is_empty() && rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
