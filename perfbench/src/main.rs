//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, times the workload's set-up several times, each in a
//! fresh process (reporting the median), then runs the untraced closed
//! loop for `--seconds` and prints the end-to-end metrics. With `--trace 1`,
//! runs the traced loop and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only when every answer was correct.

use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::host::{
    peak_rss_mb, speed_factor, speed_probe_ms, CpuTicks, HostRecord, PROBE_REF_MS,
};
use perfbench::run::{self, Figure, Measured};
use perfbench::stats::median;
use perfbench::trace::{self, Layer, Tracer, LAYERS, PRICE_TOLERANCE, UNATTRIBUTED_TOLERANCE};
use perfbench::workload::{Federation, Generator, Kind, Workload, KINDS};

/// Set-ups per untraced run, each in a fresh process; `setup_s` is their
/// median. A fresh process matters: the name interner is process-global,
/// so a second set-up in one process would find every string already
/// interned and the heap already faulted in.
const SETUP_REPS: usize = 7;

/// Unmeasured warm-up before the measured loop, seconds.
const WARMUP_S: f64 = 0.5;

/// The per-layer metrics of the JSON line of a traced run: those defined
/// on every workload. A per-operation count is always defined (a 0 there
/// is a real 0); a per-call time is listed only when its layer is called
/// on every workload. Ratios over a count that some workload leaves at 0
/// (cache hit ratios, per-FindNSM and per-resolve counts) and the times of
/// layers idle on some workload are printed in the table only, as `n/a`
/// where undefined.
const JSON_PER_LAYER: [&str; 16] = [
    "hrpc.call.self_ns",
    "wire.encoded_len_ns.xdr",
    "wire.encode_ns.xdr",
    "wire.decode_ns.xdr",
    "intern.lookup_ns",
    "hrpc.calls_per_op",
    "hrpc.bytes_per_op",
    "wire.bytes_per_call.xdr",
    "bindns.queries_per_op",
    "clearinghouse.requests_per_op",
    "intern.strings_growth",
    "simnet.virtual_us_per_op",
    "trace.unattributed_frac",
    "trace.glue_frac",
    "trace.overprice_frac",
    "trace.overhead_ratio",
];

/// The end-to-end metrics of the JSON line of an untraced run.
const JSON_END_TO_END: [&str; 7] = [
    "qps",
    "p50_ns",
    "p99_ns",
    "major_p50_ns",
    "minor_p50_ns",
    "peak_rss_mb",
    "setup_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one set-up, print it and exit (the child side of `setup_s`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not `{value}`")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_only = on;
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    /// `None` where the workload leaves the metric undefined.
    value: Option<f64>,
    /// The value before host-speed scaling, for scaled times and rates.
    raw: Option<f64>,
    unit: &'static str,
    samples: String,
}

fn metric(
    name: &str,
    value: Option<f64>,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        raw: None,
        unit,
        samples: samples.into(),
    }
}

/// A metric scaled to the reference host speed, with its raw value.
fn scaled(name: &str, fig: Figure, unit: &'static str, samples: impl Into<String>) -> Metric {
    Metric {
        raw: Some(fig.raw),
        ..metric(name, Some(fig.scaled), unit, samples)
    }
}

/// `num / den`, undefined when `den` is 0.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// What a run hands to the printer.
struct Report {
    attempted: u64,
    failed: u64,
    checks_ok: bool,
    metrics: Vec<Metric>,
    json_names: Vec<&'static str>,
    /// Speed-probe times taken during the run, ms.
    probes: Vec<f64>,
}

/// The child side of `setup_s`: one set-up in this fresh process, then
/// the speed probe; prints `setup <raw seconds> <probe ms>`.
fn setup_only(args: &Args) {
    let (fed, took) = Federation::set_up(args.workload);
    let probe = speed_probe_ms();
    drop(fed);
    println!("setup {:?} {probe:?}", took.as_secs_f64());
}

/// Times one set-up in a fresh process; returns (raw seconds, probe ms).
fn setup_in_child(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup "))
        .and_then(|l| l.split_once(' '))
        .and_then(|(t, p)| Some((t.parse().ok()?, p.parse().ok()?)));
    match parsed {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn untraced(args: &Args) -> Result<Report, String> {
    // Every set-up but the last runs in a process of its own; the last
    // one, with its reference answers, is this process's first and the
    // one measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut probes = Vec::new();
    let mut timed = |raw: f64, probe: f64| {
        probes.push(probe);
        raw_setups.push(raw);
        setups.push(raw * speed_factor(probe));
    };
    for _ in 1..SETUP_REPS {
        let (raw, probe) = setup_in_child(args)?;
        timed(raw, probe);
    }
    let (fed, took) = Federation::build(args.workload);
    timed(took.as_secs_f64(), speed_probe_ms());
    let mut gen = Generator::new(args.workload, args.seed);
    let window = args.workload.window_ops();
    let warm = run::measure(&fed, &mut gen, WARMUP_S, window);
    let m = run::measure(&fed, &mut gen, args.seconds, window);
    probes.extend(&m.probes);
    let wrong_names = fed.final_check(&gen);
    let attempted = warm.attempted + m.attempted;
    let failed = warm.failed + m.failed;

    let ops = format!("{} ops", m.samples);
    let mut metrics = vec![
        scaled(
            "qps",
            Measured::rate(&m.qps),
            "1/s",
            format!("{} windows, {ops}", m.qps.len()),
        ),
        scaled("p50_ns", Measured::time(&m.p50), "ns", ops.clone()),
        scaled(
            "p99_ns",
            Measured::time(&m.p99),
            "ns",
            format!("{ops}, {} beyond p99", m.beyond_p99),
        ),
    ];
    for k in KINDS {
        let n = m.kind_samples[k.index()];
        if n > 0 {
            metrics.push(scaled(
                k.p50_metric(),
                Measured::time(&m.kind_p50[k.index()]),
                "ns",
                format!("{n} ops"),
            ));
        }
    }
    let (major, minor) = args.workload.kinds();
    for (name, k) in [("major_p50_ns", major), ("minor_p50_ns", minor)] {
        metrics.push(scaled(
            name,
            Measured::time(&m.kind_p50[k.index()]),
            "ns",
            format!("= {}", k.p50_metric()),
        ));
    }
    metrics.push(metric(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "frac",
        format!("{attempted} ops"),
    ));
    metrics.push(metric(
        "peak_rss_mb",
        Some(peak_rss_mb().unwrap_or(0.0)),
        "MiB",
        "1 process",
    ));
    metrics.push(scaled(
        "setup_s",
        Figure {
            scaled: median(&setups).expect("set-ups ran"),
            raw: median(&raw_setups).expect("set-ups ran"),
        },
        "s",
        format!("{SETUP_REPS} set-ups, each in a fresh process"),
    ));
    Ok(Report {
        attempted,
        failed,
        checks_ok: wrong_names == 0,
        metrics,
        json_names: JSON_END_TO_END.to_vec(),
        probes,
    })
}

fn traced(args: &Args) -> Report {
    let (fed, _) = Federation::build(args.workload);
    let mut gen = Generator::new(args.workload, args.seed);
    trace::reset();
    let tracer = Tracer::install(&fed);
    let half = args.seconds / 2.0;

    // Traced phase: the count window first, so the counts repeat exactly
    // for a fixed seed, then more traced operations until half the time.
    let window = args.workload.window_ops();
    let mut probes = vec![speed_probe_ms()];
    let t0 = Instant::now();
    let win = run::count_window(&fed, &mut gen, args.workload.count_window(), true);
    let window_rpcs = trace::rpc_counts();
    let deadline = t0 + std::time::Duration::from_secs_f64(half);
    let (more, more_failed, more_ns) = if Instant::now() < deadline {
        run::traced_until(&fed, &mut gen, deadline, window as u64, &mut probes)
    } else {
        (0, 0, 0)
    };
    let traced_ops = win.ops + more;
    let traced_wall = t0.elapsed().as_secs_f64();
    probes.push(speed_probe_ms());
    // One factor scales every traced time: the phase is not windowed.
    let f = speed_factor(median(&probes).expect("probes ran"));
    // The probes ran inside the phase's wall time but outside any
    // operation; take their time out of the traced rate.
    let probe_s: f64 = probes[1..probes.len() - 1].iter().sum::<f64>() / 1e3;
    let traced_qps = traced_ops as f64 / (traced_wall - probe_s) / f;
    let op_ns = (win.op_ns + more_ns) as f64;

    let costs = tracer.replay();
    let att = trace::attribute(op_ns, &costs, &trace::rpc_counts());
    let window_wire = trace::wire_totals(&costs, &window_rpcs);
    let intern_ns = trace::intern_price(&fed.key_strings());
    tracer.uninstall(&fed);

    // Untraced phase on the same federation, for the overhead ratio.
    let m = run::measure(&fed, &mut gen, half, window);
    let untraced_qps = Measured::rate(&m.qps).scaled;
    let wrong_names = fed.final_check(&gen);

    let ops = win.ops as f64;
    let c = &win.counts;
    let wops = format!("{} ops", win.ops);
    // A per-call time, scaled to the reference host speed.
    let time = |name: &str, ns: f64, calls: u64, what: &str| Metric {
        raw: ratio(ns, calls as f64),
        ..metric(
            name,
            ratio(ns, calls as f64).map(|v| v * f),
            "ns",
            format!("{calls} {what}"),
        )
    };
    let per_op = |name: &str, v: u64, unit: &'static str| {
        metric(name, ratio(v as f64, ops), unit, wops.clone())
    };
    let mut metrics = Vec::new();
    for layer in LAYERS {
        let i = layer as usize;
        metrics.push(time(layer.metric(), att.self_ns[i], att.calls[i], "calls"));
    }
    metrics.push(time(
        "hrpc.call.self_ns",
        att.hrpc_ns,
        att.rpc_calls,
        "calls",
    ));
    let hits = |v: &[u64]| ratio(v[0] as f64, v.iter().sum::<u64>() as f64);
    let find_nsms = win.kind_ops[Kind::FindNsm.index()];
    metrics.extend([
        metric(
            "hns.binding_cache.hit_ratio",
            hits(&c.binding_cache),
            "ratio",
            format!("{} probes", c.binding_cache.iter().sum::<u64>()),
        ),
        metric(
            "hns.cache.hit_ratio",
            hits(&c.hns_cache),
            "ratio",
            format!("{} probes", c.hns_cache.iter().sum::<u64>()),
        ),
        metric(
            "hns.remote_calls_per_find_nsm",
            ratio(win.find_nsm_remote_calls as f64, find_nsms as f64),
            "count",
            format!("{find_nsms} FindNSM"),
        ),
        metric(
            "nsms.nsm_cache.hit_ratio",
            hits(&c.nsm_cache),
            "ratio",
            format!("{} probes", c.nsm_cache.iter().sum::<u64>()),
        ),
        per_op("hrpc.calls_per_op", c.remote_calls + c.local_calls, "count"),
        per_op("hrpc.bytes_per_op", c.bytes_sent, "bytes"),
    ]);
    for (i, fmt) in ["xdr", "courier"].into_iter().enumerate() {
        let w = &att.wire[i];
        metrics.extend([
            time(
                &format!("wire.encoded_len_ns.{fmt}"),
                w.len_ns,
                w.calls,
                "calls",
            ),
            time(
                &format!("wire.encode_ns.{fmt}"),
                w.encode_ns,
                w.calls,
                "calls",
            ),
            time(
                &format!("wire.decode_ns.{fmt}"),
                w.decode_ns,
                w.calls,
                "calls",
            ),
        ]);
        let ww = &window_wire[i];
        metrics.push(metric(
            &format!("wire.bytes_per_call.{fmt}"),
            ratio(ww.bytes, ww.calls as f64),
            "bytes",
            format!("{} calls", ww.calls),
        ));
    }
    let dispatches = |layers: &[Layer]| layers.iter().map(|l| win.frames[*l as usize]).sum::<u64>();
    let resolves = c.regd[0] as f64;
    let share = |ns: f64| ratio(ns, att.op_ns);
    let unattributed_frac = share(att.unattributed_ns()).unwrap_or(0.0);
    let prices_ok = match (att.replay_rpc_ns, att.live_rpc_ns) {
        (Some(replay), Some(live)) => replay <= live * (1.0 + PRICE_TOLERANCE),
        _ => true,
    };
    let traced_n = format!("{traced_ops} ops");
    metrics.extend([
        per_op(
            "bindns.queries_per_op",
            dispatches(&[Layer::BindMeta, Layer::BindPublic]),
            "count",
        ),
        per_op(
            "clearinghouse.requests_per_op",
            dispatches(&[Layer::ChRead, Layer::ChWrite]),
            "count",
        ),
        metric(
            "regd.collapse_hit_ratio",
            ratio(c.regd[1] as f64, resolves),
            "ratio",
            format!("{} resolves", c.regd[0]),
        ),
        metric(
            "regd.chain_walks_per_resolve",
            ratio(c.regd[2] as f64, resolves),
            "count",
            format!("{} resolves", c.regd[0]),
        ),
        Metric {
            raw: Some(intern_ns),
            ..metric(
                "intern.lookup_ns",
                Some(intern_ns * f),
                "ns",
                format!("{} keys", fed.key_strings().len()),
            )
        },
        metric(
            "intern.strings_growth",
            Some(win.interned as f64),
            "count",
            wops.clone(),
        ),
        per_op("simnet.virtual_us_per_op", c.virtual_us, "virtual_us"),
        time("trace.op_ns", op_ns, traced_ops, "ops"),
        metric(
            "trace.unattributed_frac",
            Some(unattributed_frac),
            "frac",
            format!("{traced_n}, tolerance {UNATTRIBUTED_TOLERANCE}"),
        ),
        metric(
            "trace.glue_frac",
            share(att.glue_ns.abs()),
            "frac",
            traced_n.clone(),
        ),
        metric(
            "trace.overprice_frac",
            share(att.overprice_ns),
            "frac",
            traced_n.clone(),
        ),
        Metric {
            raw: att.live_rpc_ns,
            ..metric(
                "trace.live_rpc_ns",
                att.live_rpc_ns.map(|v| v * f),
                "ns",
                "fit of frame self time on own RPCs",
            )
        },
        Metric {
            raw: att.replay_rpc_ns,
            ..metric(
                "trace.replay_rpc_ns",
                att.replay_rpc_ns.map(|v| v * f),
                "ns",
                format!("same calls; at most live x{}", 1.0 + PRICE_TOLERANCE),
            )
        },
        metric(
            "trace.overhead_ratio",
            ratio(traced_qps, untraced_qps),
            "ratio",
            format!("{traced_ops} traced, {} untraced ops", m.attempted),
        ),
    ]);
    Report {
        attempted: traced_ops + m.attempted,
        failed: win.failed + more_failed + m.failed,
        checks_ok: wrong_names == 0 && unattributed_frac <= UNATTRIBUTED_TOLERANCE && prices_ok,
        metrics,
        json_names: JSON_PER_LAYER.to_vec(),
        probes: probes.into_iter().chain(m.probes).collect(),
    }
}

/// Formats a float for JSON with all its digits (non-finite values, which
/// no metric should produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <lookup_hot|lookup_cold|register> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        setup_only(&args);
        return ExitCode::SUCCESS;
    }
    let ticks = CpuTicks::now();
    let out = if args.trace {
        traced(&args)
    } else {
        match untraced(&args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let host = HostRecord::since(ticks);
    let correct = out.failed == 0 && out.checks_ok;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // `raw` is the value before host-speed scaling.
    println!(
        "{:<34} {:>16} {:>16} {:<10} samples",
        "metric", "value", "raw", "unit"
    );
    let cell = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
    for m in &out.metrics {
        println!(
            "{:<34} {:>16} {:>16} {:<10} {}",
            m.name,
            cell(m.value),
            m.raw.map_or_else(String::new, |v| format!("{v:.4}")),
            m.unit,
            m.samples
        );
    }
    let probe = median(&out.probes).unwrap_or(PROBE_REF_MS);
    println!(
        "host cores={} cpu=\"{}\" steal_ticks={} steal_frac={:.4} probe_ms={:.4} \
         (x{:.4} to the {PROBE_REF_MS} ms reference, {} probes)",
        host.cores,
        host.cpu,
        host.steal_ticks,
        host.steal_frac,
        probe,
        speed_factor(probe),
        out.probes.len()
    );
    let fields: Vec<String> = out
        .json_names
        .iter()
        .map(|name| {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .expect("every JSON metric is computed");
            let value = m
                .value
                .expect("every JSON metric is defined on every workload");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
