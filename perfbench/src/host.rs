//! Host speed, host-noise record and process memory.
//!
//! On a shared virtual machine a slow run is often the host's doing: the
//! same operation sequence runs in a fast or a slow mode for tens of
//! seconds at a time (on a 2-vCPU VM, cold-walk p50 moved between ~35 µs
//! and ~55 µs), on every vCPU at once and with little steal time. A
//! fixed probe of benchmark-owned code slows down in step with the
//! program, so every wall-clock metric is scaled by how much slower or
//! faster than [`PROBE_REF_MS`] the probe ran next to it. The probe's
//! time and the steal ticks over the run are both recorded, so a slow run
//! can be told from a regression.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Probe time, ms, of the reference host speed the metrics are scaled
/// to. Any constant would do: comparisons between runs divide it out.
pub const PROBE_REF_MS: f64 = 2.0;

/// Times the speed probe, ms: the median of three runs of a fixed mix of
/// string formatting, ordered- and hashed-map inserts and lookups, and
/// reference-counted allocations, the same kinds of work the name
/// service's lookup and marshalling paths do. The probe is benchmark
/// code, so a change to the program cannot change it.
pub fn speed_probe_ms() -> f64 {
    let mut runs = [probe_once(), probe_once(), probe_once()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn probe_once() -> f64 {
    type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let t0 = Instant::now();
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<String, Arc<Vec<u32>>, Fixed> = HashMap::default();
    for i in 0..6_000u64 {
        let key = format!("key{}.ctx", i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1500);
        *ordered.entry(key.clone()).or_insert(0u64) += i;
        let v = hashed
            .entry(key)
            .or_insert_with(|| Arc::new(vec![i as u32; 8]))
            .clone();
        black_box(v);
    }
    black_box((&ordered, &hashed));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Factor that scales a time measured next to a probe that took
/// `probe_ms` to the reference host speed.
pub fn speed_factor(probe_ms: f64) -> f64 {
    PROBE_REF_MS / probe_ms
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

impl CpuTicks {
    /// Current counters; zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user/nice.
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }
}

/// What a run records about the host it ran on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Logical cores this process may use.
    pub cores: usize,
    /// CPU model string.
    pub cpu: String,
    /// Steal ticks over the run.
    pub steal_ticks: u64,
    /// Steal ticks as a share of all ticks over the run.
    pub steal_frac: f64,
}

impl HostRecord {
    /// The record for a run that started at `start`.
    pub fn since(start: CpuTicks) -> HostRecord {
        let end = CpuTicks::now();
        let steal = end.steal.saturating_sub(start.steal);
        let total = end.total.saturating_sub(start.total);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        HostRecord {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            steal_ticks: steal,
            steal_frac: if total > 0 {
                steal as f64 / total as f64
            } else {
                0.0
            },
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}
