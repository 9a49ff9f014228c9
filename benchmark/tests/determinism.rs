//! The benchmark's inputs are a function of the seed alone, and the counts the
//! README calls deterministic do not depend on the seed at all (or, for
//! `sync.bytes_per_op`, on nothing but the seed).
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (the fleet test drives a few hundred simulated members).

use cv_benchmark::fleet;
use cv_benchmark::inputs::{self, CampaignShape, StreamPage};
use cv_benchmark::probes::PER_LAYER;
use cv_benchmark::repair;
use cv_benchmark::spans::Spans;
use cv_benchmark::stats::Metric;
use cv_benchmark::{Checks, Pass, END_TO_END, WORKLOADS};

const SHAPE: CampaignShape = CampaignShape {
    members: 4096,
    attackers: 5,
    victims: 204,
    verify: 64,
};

fn stream(seed: u64) -> Vec<StreamPage> {
    let mut rng = inputs::rng(seed, 1);
    (0..3)
        .flat_map(|_| inputs::window_pages(&mut rng, 2000, 10))
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for seed in [0, 1, 0xDEAD_BEEF] {
        assert_eq!(stream(seed), stream(seed));
        let orders = |s| {
            let mut rng = inputs::rng(s, 2);
            (0..50)
                .map(|_| inputs::shuffled(&mut rng, 10))
                .collect::<Vec<_>>()
        };
        assert_eq!(orders(seed), orders(seed));
        let round = |s| inputs::campaigns(&mut inputs::rng(s, 3), 8, SHAPE);
        assert_eq!(round(seed), round(seed));
        let benign = |s| inputs::benign_pages(&mut inputs::rng(s, 4), 57);
        assert_eq!(benign(seed), benign(seed));
    }
    assert_ne!(stream(1), stream(2), "different seeds draw different pages");
}

#[test]
fn every_window_holds_two_percent_exploit_pages_four_of_each() {
    let mut rng = inputs::rng(7, 1);
    for _ in 0..3 {
        let pages = inputs::window_pages(&mut rng, 2000, 10);
        assert_eq!(pages.len(), 2000);
        for exploit in 0..10 {
            let n = pages
                .iter()
                .filter(|p| **p == StreamPage::Exploit(exploit))
                .count();
            assert_eq!(n, 4, "exploit {exploit}");
        }
    }
}

fn layer(pass: &Pass, name: &str) -> Metric {
    pass.layers
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .clone()
}

#[test]
fn red_team_counts_do_not_depend_on_the_seed() {
    let run = |seed| {
        let mut checks = Checks::default();
        let (pass, counts) = repair::run_counts(
            &repair::Params::probe(),
            seed,
            0.0,
            &mut Spans::off(),
            &mut checks,
        );
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failures);
        (pass.value("presentations_to_patch"), counts)
    };
    let (a, counts_a) = run(1);
    let (b, counts_b) = run(2);
    assert_eq!(counts_a, counts_b);
    assert_eq!(a, b);
    assert!((a - 49.0 / 9.0).abs() < 1e-9, "presentations_to_patch {a}");
}

#[test]
fn fleet_counts_do_not_depend_on_the_seed() {
    let run = |seed| {
        let mut checks = Checks::default();
        let pass = fleet::run(
            &fleet::Params::small(512),
            seed,
            0.0,
            &mut Spans::off(),
            &mut checks,
        );
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failures);
        pass
    };
    let (a, b) = (run(1), run(2));
    let value = |pass: &Pass, name| layer(pass, name).value;
    assert_eq!(
        value(&a, "fleet.epochs_to_immunity"),
        value(&b, "fleet.epochs_to_immunity")
    );
    assert_eq!(
        a.value("presentations_to_patch"),
        b.value("presentations_to_patch")
    );
    assert_eq!(value(&a, "sync.leaf_served_share"), 1.0);
    // Sync payloads carry the repairs installed so far, so their size follows
    // the seeded campaign order: equal for equal seeds only.
    assert_eq!(
        value(&a, "sync.bytes_per_op"),
        value(&run(1), "sync.bytes_per_op")
    );
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let count = |needle: &str| json.matches(needle).count();
    for w in WORKLOADS {
        assert_eq!(count(&format!("\"name\": \"{w}\"")), 1, "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(count(&entry), 1, "metric {name} [{unit}]");
    }
    assert_eq!(
        count("\"unit\":"),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not report"
    );
}
