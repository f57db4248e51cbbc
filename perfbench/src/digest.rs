//! Digests of simulated outcomes, and the table of recorded digests each
//! run is checked against.

use std::collections::BTreeMap;

use vhive_cluster::ClusterBatch;
use vhive_core::InvocationOutcome;

/// The digests recorded for each workload and input variant
/// (`<workload> <variant> <hex digest>` per line, `#` comments).
pub const RECORDED: &str = include_str!("../digests.txt");

/// Incremental 64-bit FNV-1a over the canonical encoding of outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds every simulated field of one invocation: identity, virtual
    /// latency and its breakdown, fault, prefetch and verification
    /// counts, the touched pages, misprediction, disk and recovery.
    pub fn outcome(&mut self, o: &InvocationOutcome) {
        self.str(o.function.name());
        self.str(&format!("{:?}", o.policy));
        self.u64(o.seq);
        self.u64(u64::from(o.recorded));
        self.u64(o.latency.as_nanos());
        let b = &o.breakdown;
        for d in [
            b.load_vmm,
            b.fetch_ws,
            b.install_ws,
            b.conn_restore,
            b.processing,
            b.record_finish,
        ] {
            self.u64(d.as_nanos());
        }
        for v in [
            o.uffd_faults,
            o.prefetched_pages,
            o.residual_faults,
            o.ws_pages,
            o.verified_pages,
            o.footprint_bytes,
        ] {
            self.u64(v);
        }
        self.u64(o.touched.len() as u64);
        for p in &o.touched {
            self.u64(p.as_u64());
        }
        self.str(&format!("{:?}", o.misprediction));
        self.str(&format!("{:?}", o.disk_stats));
        self.str(&format!("{:?}", o.recovery));
    }

    /// Feeds a concurrent batch: every outcome, every disposition, the
    /// served indices and the batch makespan.
    pub fn batch(&mut self, b: &ClusterBatch) {
        for o in &b.outcomes {
            self.outcome(o);
        }
        for d in &b.dispositions {
            self.str(&format!("{d:?}"));
        }
        for &i in &b.served {
            self.u64(i as u64);
        }
        self.str(&format!("{:?}", b.disk_stats));
        self.u64(b.makespan.as_nanos());
    }
}

/// Parses the recorded-digest table: `(workload, variant) -> digest`.
///
/// # Errors
///
/// On a line that is not `<workload> <variant> <hex>`.
pub fn parse_table(text: &str) -> Result<BTreeMap<(String, u64), u64>, String> {
    let mut table = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, variant, hex] = fields[..] else {
            return Err(format!(
                "digest table line {}: expected 3 fields: {line:?}",
                n + 1
            ));
        };
        let variant = variant
            .parse()
            .map_err(|e| format!("digest table line {}: bad variant: {e}", n + 1))?;
        let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("digest table line {}: bad digest: {e}", n + 1))?;
        table.insert((workload.to_string(), variant), digest);
    }
    Ok(table)
}
