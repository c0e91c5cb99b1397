//! The benchmark's inputs and the program's counts are a function of the
//! seed alone, and tracing does not change what the program computes.

use perfbench::run::{count_window, CountWindow};
use perfbench::trace::{self, Tracer};
use perfbench::workload::{Federation, Generator, Workload, WORKLOADS};

/// Operations per window: enough to cross every operation kind, small
/// enough for an unoptimised build.
fn ops(w: Workload) -> u64 {
    match w {
        Workload::LookupHot => 20_000,
        Workload::LookupCold => 300,
        Workload::Register => 3_000,
    }
}

fn window(w: Workload, seed: u64, traced: bool) -> CountWindow {
    let (fed, _) = Federation::build(w);
    let mut gen = Generator::new(w, seed);
    trace::reset();
    let tracer = traced.then(|| Tracer::install(&fed));
    let win = count_window(&fed, &mut gen, ops(w), traced);
    if let Some(t) = tracer {
        t.uninstall(&fed);
    }
    win
}

/// Everything in a window that must repeat exactly (the summed wall
/// time does not, and the global interner is shared by the whole test
/// process).
fn exact(w: &CountWindow) -> impl PartialEq + std::fmt::Debug {
    (
        w.ops,
        w.failed,
        w.fingerprint,
        w.kind_ops,
        w.find_nsm_remote_calls,
        w.counts,
    )
}

#[test]
fn same_seed_repeats_the_sequence_and_every_count() {
    for w in WORKLOADS {
        let a = window(w, 7, false);
        let b = window(w, 7, false);
        assert_eq!(a.failed, 0, "{w:?}: every answer is correct");
        assert_eq!(exact(&a), exact(&b), "{w:?}");
        assert!(
            a.counts.virtual_us > 0 && a.counts.remote_calls > 0,
            "{w:?}"
        );
        let c = window(w, 8, false);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "{w:?}: another seed, another sequence"
        );
    }
}

#[test]
fn tracing_leaves_the_program_counts_and_virtual_time_unchanged() {
    for w in WORKLOADS {
        let plain = window(w, 3, false);
        let traced = window(w, 3, true);
        assert_eq!(exact(&plain), exact(&traced), "{w:?}");
        assert!(
            traced.frames.iter().sum::<u64>() > traced.ops,
            "{w:?}: decorated servers saw the calls"
        );
    }
}

#[test]
fn cold_find_nsm_walks_all_six_mappings() {
    let win = window(Workload::LookupCold, 5, false);
    let find = win.kind_ops[0];
    assert!(find > 0);
    assert_eq!(win.find_nsm_remote_calls, 6 * find);
    assert_eq!(
        win.counts.hns_cache, [0; 3],
        "the cold client caches nothing"
    );
}
