//! The closed measurement loops and the program's own counters.
//!
//! One client thread issues the next operation when the previous one
//! returns (a closed loop): HRPC callers block on `Import` and `FindNSM`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use crate::host::{speed_factor, speed_probe_ms};
use crate::stats::{median, window_stats};
use crate::trace::{self, Layer, N_LAYERS};
use crate::workload::{Federation, Generator, Op, KINDS};

/// Generates, executes, times and checks one operation. Only
/// [`Federation::exec`] (inside a frame when `traced`) is timed.
#[inline]
fn step(fed: &Federation, gen: &mut Generator, traced: bool) -> (Op, u64, Instant, bool) {
    let op = gen.next_op();
    let t0 = Instant::now();
    let out = if traced {
        trace::frame(Layer::of_op(op), || fed.exec(op))
    } else {
        fed.exec(op)
    };
    let t1 = Instant::now();
    let ok = fed.check(op, &out);
    (op, t1.duration_since(t0).as_nanos() as u64, t1, ok)
}

/// One window's figure as measured, with the speed factor of the probe
/// run right after the window.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    /// The figure as measured.
    pub raw: f64,
    /// [`speed_factor`] of the window's probe.
    pub factor: f64,
}

/// A run-level figure: the median over windows of the figures scaled to
/// the reference host speed, and the median of the figures as measured.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Median of the scaled figures.
    pub scaled: f64,
    /// Median of the figures as measured.
    pub raw: f64,
}

fn figure(series: &[Windowed], scale: impl Fn(&Windowed) -> f64) -> Figure {
    let scaled: Vec<f64> = series.iter().map(scale).collect();
    let raw: Vec<f64> = series.iter().map(|w| w.raw).collect();
    Figure {
        scaled: median(&scaled).unwrap_or(0.0),
        raw: median(&raw).unwrap_or(0.0),
    }
}

/// Result of a timed, untraced loop: per-window figures, each kept with
/// the speed factor of the probe run right after its window.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Operations per second, per window.
    pub qps: Vec<Windowed>,
    /// Median latency (ns), per window.
    pub p50: Vec<Windowed>,
    /// 99th-percentile latency (ns), per window.
    pub p99: Vec<Windowed>,
    /// Speed-probe time (ms) after each window.
    pub probes: Vec<f64>,
    /// Samples in the windows the statistics come from.
    pub samples: u64,
    /// Samples beyond each window's p99, summed.
    pub beyond_p99: u64,
    /// Median latency (ns) per kind, per window with samples of it.
    pub kind_p50: [Vec<Windowed>; 4],
    /// Samples per kind in those windows.
    pub kind_samples: [u64; 4],
}

impl Measured {
    /// A rate over windows: a faster host inflates it, so it is divided
    /// by the factor.
    pub fn rate(series: &[Windowed]) -> Figure {
        figure(series, |w| w.raw / w.factor)
    }

    /// A time over windows: a slower host inflates it, so it is
    /// multiplied by the factor.
    pub fn time(series: &[Windowed]) -> Figure {
        figure(series, |w| w.raw * w.factor)
    }
}

/// Runs the closed loop for `seconds` in windows of `window_ops`
/// operations whose statistics are kept separately: the run reports the
/// median window, so a burst of host noise in one window does not move
/// it, and each window is scaled by the speed probe run right after it.
/// Windows hold a fixed number of samples, so the benchmark's own memory
/// does not grow with the program's speed. A last, partial window counts
/// only when no window filled.
pub fn measure(fed: &Federation, gen: &mut Generator, seconds: f64, window_ops: usize) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut m = Measured::default();
    let mut lat: Vec<u32> = Vec::with_capacity(window_ops);
    let mut kind_lat: [Vec<u32>; 4] = Default::default();
    let mut w_start = Instant::now();
    loop {
        let (op, ns, t1, ok) = step(fed, gen, false);
        m.attempted += 1;
        m.failed += u64::from(!ok);
        let ns = u32::try_from(ns).unwrap_or(u32::MAX);
        lat.push(ns);
        kind_lat[op.kind().index()].push(ns);
        let over = t1 >= deadline;
        if lat.len() == window_ops || (over && m.qps.is_empty()) {
            let probe = speed_probe_ms();
            let factor = speed_factor(probe);
            let at = |raw: f64| Windowed { raw, factor };
            m.probes.push(probe);
            m.qps.push(at(
                lat.len() as f64 / t1.duration_since(w_start).as_secs_f64()
            ));
            m.samples += lat.len() as u64;
            let s = window_stats(&mut lat).expect("window holds the op that closed it");
            m.p50.push(at(f64::from(s.p50)));
            m.p99.push(at(f64::from(s.p99)));
            m.beyond_p99 += s.beyond_p99;
            for k in KINDS {
                let v = &mut kind_lat[k.index()];
                m.kind_samples[k.index()] += v.len() as u64;
                if let Some(s) = window_stats(v) {
                    m.kind_p50[k.index()].push(at(f64::from(s.p50)));
                }
                v.clear();
            }
            lat.clear();
            w_start = Instant::now();
        }
        if over {
            return m;
        }
    }
}

/// The program's own counters, read through its public API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCounts {
    /// Remote (cross-host) HRPC calls.
    pub remote_calls: u64,
    /// Local (same-host) HRPC calls.
    pub local_calls: u64,
    /// Bytes carried by remote calls.
    pub bytes_sent: u64,
    /// Lookups served by the underlying name services.
    pub ns_lookups: u64,
    /// Virtual time, µs.
    pub virtual_us: u64,
    /// Client HNS mapping-cache hits / misses / expirations.
    pub hns_cache: [u64; 3],
    /// Client composed binding-cache hits / misses / expirations.
    pub binding_cache: [u64; 3],
    /// Binding-NSM result-cache hits / misses.
    pub nsm_cache: [u64; 2],
    /// `regd` resolves / collapse hits / chain walks / chain extends.
    pub regd: [u64; 4],
}

fn sub<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

impl ProgramCounts {
    /// Current values.
    pub fn read(fed: &Federation) -> ProgramCounts {
        let world = &fed.testbed().world;
        let c = world.counters();
        let mut out = ProgramCounts {
            remote_calls: c.remote_calls,
            local_calls: c.local_calls,
            bytes_sent: c.bytes_sent,
            ns_lookups: c.ns_lookups,
            virtual_us: world.now().as_us(),
            ..ProgramCounts::default()
        };
        match fed {
            Federation::Lookup(l) => {
                let h = l.client.cache_stats();
                let b = l.client.binding_cache_stats();
                let (bh, bm) = l.nsms.bind.cache_stats();
                let (ch, cm) = l.nsms.ch.cache_stats();
                out.hns_cache = [h.hits, h.misses, h.expired];
                out.binding_cache = [b.hits, b.misses, b.expired];
                out.nsm_cache = [bh + ch, bm + cm];
            }
            Federation::Register(_) => {
                let snap = world.metrics().snapshot();
                out.regd = ["resolves", "collapse_hits", "chain_walks", "chain_extends"]
                    .map(|name| snap.counter("regd", name).unwrap_or(0));
            }
        }
        out
    }

    /// Componentwise `self - earlier`.
    pub fn since(&self, earlier: &ProgramCounts) -> ProgramCounts {
        ProgramCounts {
            remote_calls: self.remote_calls - earlier.remote_calls,
            local_calls: self.local_calls - earlier.local_calls,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            ns_lookups: self.ns_lookups - earlier.ns_lookups,
            virtual_us: self.virtual_us - earlier.virtual_us,
            hns_cache: sub(self.hns_cache, earlier.hns_cache),
            binding_cache: sub(self.binding_cache, earlier.binding_cache),
            nsm_cache: sub(self.nsm_cache, earlier.nsm_cache),
            regd: sub(self.regd, earlier.regd),
        }
    }
}

/// The count window: a fixed number of operations after set-up, over
/// which every count repeats exactly for a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountWindow {
    /// Operations issued.
    pub ops: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Hash of the operation sequence.
    pub fingerprint: u64,
    /// Operations per kind.
    pub kind_ops: [u64; 4],
    /// Remote calls made by the FindNSM operations.
    pub find_nsm_remote_calls: u64,
    /// Program counter deltas over the window.
    pub counts: ProgramCounts,
    /// Frames per layer over the window (zero when untraced).
    pub frames: [u64; N_LAYERS],
    /// Strings added to the global interner over the window.
    pub interned: u64,
    /// Summed operation time, ns.
    pub op_ns: u64,
}

/// Runs the first `n` operations of `gen` against `fed`, counting.
pub fn count_window(fed: &Federation, gen: &mut Generator, n: u64, traced: bool) -> CountWindow {
    let world = &fed.testbed().world;
    let before = ProgramCounts::read(fed);
    let frames0 = trace::frame_calls();
    let interned0 = intern::global().len();
    trace::set_capturing(traced);
    let mut hasher = DefaultHasher::new();
    let mut w = CountWindow {
        ops: n,
        failed: 0,
        fingerprint: 0,
        kind_ops: [0; 4],
        find_nsm_remote_calls: 0,
        counts: ProgramCounts::default(),
        frames: [0; N_LAYERS],
        interned: 0,
        op_ns: 0,
    };
    for _ in 0..n {
        let calls0 = world.counters().remote_calls;
        let (op, ns, _, ok) = step(fed, gen, traced);
        op.hash(&mut hasher);
        w.failed += u64::from(!ok);
        w.op_ns += ns;
        w.kind_ops[op.kind().index()] += 1;
        if let Op::FindNsm { .. } = op {
            w.find_nsm_remote_calls += world.counters().remote_calls - calls0;
        }
    }
    trace::set_capturing(false);
    w.fingerprint = hasher.finish();
    w.counts = ProgramCounts::read(fed).since(&before);
    let frames1 = trace::frame_calls();
    w.frames = std::array::from_fn(|i| frames1[i] - frames0[i]);
    w.interned = (intern::global().len() - interned0) as u64;
    w
}

/// Continues a traced loop until `deadline`, running the speed probe
/// after every `probe_every` operations into `probes`; returns (ops,
/// failed, summed operation ns).
pub fn traced_until(
    fed: &Federation,
    gen: &mut Generator,
    deadline: Instant,
    probe_every: u64,
    probes: &mut Vec<f64>,
) -> (u64, u64, u64) {
    let (mut ops, mut failed, mut op_ns) = (0, 0, 0);
    loop {
        let (_, ns, t1, ok) = step(fed, gen, true);
        ops += 1;
        failed += u64::from(!ok);
        op_ns += ns;
        if ops % probe_every == 0 {
            probes.push(speed_probe_ms());
        }
        if t1 >= deadline {
            return (ops, failed, op_ns);
        }
    }
}
