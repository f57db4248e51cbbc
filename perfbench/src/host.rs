//! Host facts recorded with every result: peak memory and the machine
//! and build the numbers came from.

/// `VmHWM` (peak resident set) of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Online CPUs as `nproc --all` counts them (0 when unknown).
fn online_cpus() -> usize {
    let Ok(list) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    list.trim()
        .split(',')
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// One line of host and build metadata, `key=value` pairs, with the
/// prefetch lanes of the workload's orchestrator if it has one.
pub fn metadata_line(prefetch_lanes: Option<usize>) -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lanes = prefetch_lanes.map_or("prefetch_lanes=none".to_string(), |n| {
        format!(
            "prefetch_lanes={n} effective_lanes={}",
            sim_core::effective_lanes(n)
        )
    });
    format!(
        "meta nproc={} available_parallelism={available} host_parallelism={} {lanes} rustc=\"{}\" commit={}",
        online_cpus(),
        sim_core::lanes::host_parallelism(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}
