//! Colocation tuning with equation (1).
//!
//! "The set of colocation alternatives represents a spectrum of tradeoffs
//! in performance for ease of management, from which programmers can
//! choose what best suits each particular application." This example
//! measures the arrangements of Table 3.1 on the live system, then applies
//! the paper's equation (1) to decide where to place the HNS and the NSMs
//! for a given expected cache-hit improvement.
//!
//! ```text
//! cargo run --example colocation_tuning
//! ```

use hns_bench::scenario::{deploy, Arrangement, CacheState};
use hns_repro::hns_core::analysis::Eq1Inputs;
use hns_repro::hns_core::cache::CacheMode;

fn main() {
    println!("measuring the five colocation arrangements (marshalled caches)...\n");
    println!(
        "{:<28} {:>10} {:>12} {:>12}",
        "arrangement", "miss (ms)", "HNS hit", "both hit"
    );
    let mut cells = Vec::new();
    for arrangement in Arrangement::all() {
        let deployed = deploy(arrangement, CacheMode::Marshalled, CacheMode::Marshalled);
        let a = deployed.measure(CacheState::Miss);
        let b = deployed.measure(CacheState::HnsHit);
        let c = deployed.measure(CacheState::BothHit);
        println!("{:<28} {a:>10.1} {b:>12.1} {c:>12.1}", arrangement.label());
        cells.push((a, b, c));
    }

    // Equation (1) for the HNS: compare all-remote hit/miss against the
    // local alternative. C(remote call) ~ one Sun round trip.
    let (row5_a, row5_b, _) = cells[4];
    let hns_inputs = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: row5_b,
        miss_ms: row5_a,
    };
    let hns_threshold = hns_inputs.remote_threshold().expect("caching helps");
    println!(
        "\nequation (1), HNS placement: remote wins if its extra hit fraction q > {:.1}%",
        hns_threshold * 100.0
    );

    let (_, row4_b, row4_c) = cells[3];
    let nsm_inputs = Eq1Inputs {
        remote_call_ms: 33.0,
        hit_ms: row4_c,
        miss_ms: row4_b,
    };
    let nsm_threshold = nsm_inputs.remote_threshold().expect("caching helps");
    println!(
        "equation (1), NSM placement: remote wins if its extra hit fraction q > {:.1}%",
        nsm_threshold * 100.0
    );

    // A worked decision: a long-lived remote HNS server shared by many
    // clients plausibly gains q ~ 0.25 over per-process linked copies
    // (each fresh process starts cold).
    let q = 0.25;
    let p = 0.30;
    println!(
        "\nscenario: shared remote server gains q = {q:.2} over per-process copies (p = {p:.2})"
    );
    for (who, inputs) in [("HNS", hns_inputs), ("NSMs", nsm_inputs)] {
        let local = inputs.local_cost(p);
        let remote = inputs.remote_cost(p, q);
        let pick = if remote < local { "REMOTE" } else { "LOCAL" };
        println!("  {who:<5} local {local:>6.1} ms vs remote {remote:>6.1} ms -> place {pick}");
    }
    println!(
        "\n(the paper's conclusion: the HNS is easy to justify remote, the NSMs are not —\n\
         and management favors remote anyway: \"registering an NSM with the HNS extends\n\
         the functionality of all machines at once\")"
    );
}
