//! `fleet_churn`: an event-engine `Fleet` attacked one exploit at a time
//! while members crash and rejoin. Each round builds a fleet and runs one
//! campaign per `MULTI_FAILURE_TARGETS` exploit, in seeded order:
//!
//! 1. the campaign's attackers present the exploit every epoch until the
//!    fleet is protected against it;
//! 2. the coordinator checkpoints; the churn wave crashes a share of the
//!    members in `run_epoch_churn`; half rejoin by delta against the
//!    checkpoint, half by full snapshot, and a few new members join warm;
//! 3. one full-fleet benign epoch runs;
//! 4. the exploit is presented, one `Fleet::present` at a time, to a sample of
//!    churned and never-attacked members, which must all survive.

use crate::inputs::{self, Campaign, CampaignShape};
use crate::spans::Spans;
use crate::stats::{ms, us, BestWindow, Metric, Window};
use crate::{Checks, Pass};
use cv_apps::{
    expanded_learning_suite, red_team_exploits, Browser, Exploit, DONE_MARKER,
    MULTI_FAILURE_TARGETS,
};
use cv_core::ClearViewConfig;
use cv_fleet::{
    DeltaSnapshot, Fleet, FleetConfig, FleetMetrics, MembershipOp, Presentation, Snapshot,
    SyncOutcome,
};
use cv_runtime::RunStatus;
use std::time::{Duration, Instant};

/// Attack epochs after which a campaign counts as failed.
const MAX_ATTACK_EPOCHS: u64 = 40;
/// Fan-out of the manager tree.
const FANOUT: usize = 32;
/// Members attacked each attack epoch.
const ATTACKERS: usize = 5;
/// Share of members the churn wave crashes, in per mille.
const CHURN_PER_MILLE: usize = 50;
/// New members that join warm after each churn wave.
const WARM_JOINS: usize = 3;

/// Sizes of a `fleet_churn` pass.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Members of each fleet.
    pub members: usize,
    /// Set-ups (fleet build plus distributed learning) at the start of each
    /// round; the round runs on the last one.
    pub setups_per_round: usize,
    /// Members in each campaign's verification sample.
    pub verify: usize,
    /// Rounds (one campaign per target each) to run at least, whatever the
    /// time.
    pub min_rounds: usize,
}

impl Params {
    /// The benchmark's sizes: 100,000 members at fan-out 32.
    pub fn full() -> Params {
        Params {
            members: 100_000,
            setups_per_round: 7,
            verify: 64,
            min_rounds: 3,
        }
    }

    /// A small fleet with the same shape, for the fleet-layer probe and tests.
    pub fn small(members: usize) -> Params {
        Params {
            members,
            setups_per_round: 3,
            verify: 16,
            min_rounds: 1,
        }
    }
}

/// Everything a pass samples, for the metrics at its end.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    new_ms: Vec<f64>,
    learn_ms: Vec<f64>,
    presentations: Vec<f64>,
    epochs_to_immunity: Vec<f64>,
    attack_epoch_ms: Vec<f64>,
    churn_epoch_ms: Vec<f64>,
    benign_epoch_ms: Vec<f64>,
    checkpoint_us: Vec<f64>,
    delta_since_us: Vec<f64>,
    rejoin_delta_us: Vec<f64>,
    rejoin_full_us: Vec<f64>,
    join_warm_us: Vec<f64>,
    sync_bytes: Vec<f64>,
    leaf_served: usize,
    snapshot_encode_us: Vec<f64>,
    snapshot_decode_us: Vec<f64>,
    delta_encode_us: Vec<f64>,
    delta_decode_us: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    delta_bytes: Vec<f64>,
    execution_ms: Vec<f64>,
    manager_ms: Vec<f64>,
    push_ms: Vec<f64>,
    patch_applications: Vec<f64>,
    envelopes_sent: Vec<f64>,
    tier_depth: f64,
}

/// Browser, exploits and a learned fleet: one set-up.
struct Setup {
    browser: Browser,
    exploits: Vec<Exploit>,
    fleet: Fleet,
}

fn set_up(p: &Params, spans: &mut Spans, s: &mut Samples, w: &mut Window) -> Setup {
    let start = Instant::now();
    let (browser, _) = spans.time("Browser::build", "apps", Browser::build);
    let (exploits, _) = spans.time("red_team_exploits", "apps", || red_team_exploits(&browser));
    // Sequential: on a small shared machine, worker threads tie every epoch to
    // the availability of a second core, which varies from second to second
    // (see README.md, "Windows and set-ups").
    let config = FleetConfig::new(p.members)
        .sequential()
        .with_tree_fanout(FANOUT);
    let (mut fleet, d) = spans.time("Fleet::new", "fleet", || {
        Fleet::new(
            browser.image.clone(),
            ClearViewConfig::with_stack_walk(2),
            config,
        )
    });
    s.new_ms.push(ms(d));
    let (_, d) = spans.time("distributed_learning", "fleet", || {
        fleet.distributed_learning(&expanded_learning_suite())
    });
    s.learn_ms.push(ms(d));
    w.learn_ms.push(ms(d));
    s.setup_s.push(start.elapsed().as_secs_f64());
    Setup {
        browser,
        exploits,
        fleet,
    }
}

/// A membership op's outcome must leave its member synced, served by a tier
/// row rather than the root.
fn synced_by_tier(fleet: &Fleet, outcome: &SyncOutcome) -> bool {
    outcome.nodes.len() == 1
        && fleet.is_member_synced(outcome.nodes[0])
        && outcome.source_tier.is_some_and(|t| t > 0)
}

/// One campaign, steps 1 to 4 of the module documentation.
fn run_campaign(
    setup: &mut Setup,
    c: &Campaign,
    spans: &mut Spans,
    checks: &mut Checks,
    s: &mut Samples,
    w: &mut Window,
) {
    let (bugzilla, symbol) = MULTI_FAILURE_TARGETS[c.target];
    let exploit = setup
        .exploits
        .iter()
        .find(|e| e.bugzilla == bugzilla)
        .expect("every target is a Red Team exploit");
    let location = setup.browser.sym(symbol);
    let fleet = &mut setup.fleet;
    let before = fleet.metrics().clone();

    // 1. Attack until the fleet is protected.
    let attack: Vec<Presentation> = c
        .attackers
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    let start = Instant::now();
    let mut epochs = 0;
    while !fleet.is_protected_against(location) && epochs < MAX_ATTACK_EPOCHS {
        let (out, d) = spans.time("run_epoch(attack)", "fleet", || fleet.run_epoch(&attack));
        s.attack_epoch_ms.push(ms(d));
        epochs += 1;
        for o in &out.outcomes {
            checks.check(
                o.blocked || !matches!(o.status, RunStatus::Failure(_)),
                || {
                    format!(
                        "exploit {bugzilla} escaped containment on member {}",
                        o.node
                    )
                },
            );
        }
    }
    let immunity = start.elapsed();
    checks.check(fleet.is_protected_against(location), || {
        format!("campaign {bugzilla} ended unprotected after {epochs} epochs")
    });
    w.patch_ms.push(ms(immunity));
    s.epochs_to_immunity.push(epochs as f64);
    s.presentations
        .push((epochs as usize * attack.len()) as f64);

    // 2. Checkpoint, churn wave, rejoins.
    let (base, d) = spans.time("checkpoint", "sync", || fleet.checkpoint());
    s.checkpoint_us.push(us(d));
    let (bytes, d) = spans.time("Snapshot::encode", "store", || base.encode());
    s.snapshot_encode_us.push(us(d));
    s.snapshot_bytes.push(bytes.len() as f64);
    let (decoded, d) = spans.time("Snapshot::decode", "store", || Snapshot::decode(&bytes));
    s.snapshot_decode_us.push(us(d));
    checks.check(decoded.as_ref() == Ok(&base), || {
        format!("snapshot of campaign {bugzilla} did not round-trip")
    });

    let (out, d) = spans.time("run_epoch_churn", "fleet", || {
        fleet.run_epoch_churn(&attack, &c.victims)
    });
    s.churn_epoch_ms.push(ms(d));
    checks.check(out.completed() == attack.len(), || {
        format!("protected attackers did not all survive {bugzilla}")
    });

    let (delta, d) = spans.time("delta_since", "sync", || fleet.delta_since(&base));
    s.delta_since_us.push(us(d));
    let (bytes, d) = spans.time("DeltaSnapshot::encode", "store", || delta.encode());
    s.delta_encode_us.push(us(d));
    s.delta_bytes.push(bytes.len() as f64);
    let (decoded, d) = spans.time("DeltaSnapshot::decode", "store", || {
        DeltaSnapshot::decode(&bytes)
    });
    s.delta_decode_us.push(us(d));
    checks.check(decoded.as_ref() == Ok(&delta), || {
        format!("delta of campaign {bugzilla} did not round-trip")
    });

    let half = c.victims.len() / 2;
    for (i, &node) in c.victims.iter().enumerate() {
        let by_delta = i < half;
        let op = MembershipOp::Rejoin {
            node,
            checkpoint: by_delta.then_some(&base),
        };
        let name = if by_delta {
            "rejoin(delta)"
        } else {
            "rejoin(full)"
        };
        let (outcome, d) = spans.time(name, "sync", || fleet.apply_membership(op));
        if by_delta {
            s.rejoin_delta_us.push(us(d));
        } else {
            s.rejoin_full_us.push(us(d));
        }
        record_sync(fleet, &outcome, checks, s);
    }
    for _ in 0..WARM_JOINS {
        let (outcome, d) = spans.time("join_warm", "sync", || {
            fleet.apply_membership(MembershipOp::JoinWarm)
        });
        s.join_warm_us.push(us(d));
        record_sync(fleet, &outcome, checks, s);
    }
    checks.check(fleet.metrics().root_sync_bypass_count == 0, || {
        "a sync bypassed the tier rows".to_string()
    });

    // 3. One full-fleet benign epoch.
    let members = fleet.node_count();
    let (benign, _) = spans.time("benign_pages", "bench", || {
        let mut rng = inputs::rng(c.benign_seed, 0);
        (0..members)
            .map(|node| Presentation::new(node, inputs::benign_page(&mut rng)))
            .collect::<Vec<_>>()
    });
    let (out, d) = spans.time("run_epoch(benign)", "fleet", || fleet.run_epoch(&benign));
    s.benign_epoch_ms.push(ms(d));
    w.wall += d;
    w.pages += benign.len();
    checks.check(out.outcomes.len() == members, || {
        format!("benign epoch ran {} of {members} pages", out.outcomes.len())
    });
    for o in &out.outcomes {
        let done =
            matches!(o.status, RunStatus::Completed) && o.rendered.last() == Some(&DONE_MARKER);
        checks.check(done, || {
            format!("benign page on member {} ended {:?}", o.node, o.status)
        });
    }

    // 4. Verification sample.
    for &node in &c.verify {
        let (o, d) = spans.time("present", "fleet", || fleet.present(node, exploit.page()));
        w.page_us.push(us(d));
        checks.check(matches!(o.status, RunStatus::Completed), || {
            format!("member {node} did not survive {bugzilla}: {:?}", o.status)
        });
    }

    let after = fleet.metrics();
    let delta_ms = |f: fn(&FleetMetrics) -> Duration| ms(f(after).saturating_sub(f(&before)));
    s.execution_ms.push(delta_ms(|m| m.execution_time));
    s.manager_ms.push(delta_ms(|m| m.manager_time));
    s.push_ms.push(delta_ms(|m| m.patch_propagation_time));
    s.patch_applications
        .push((after.patch_applications - before.patch_applications) as f64);
    s.envelopes_sent
        .push((after.envelopes_sent - before.envelopes_sent) as f64);
    s.tier_depth = after.tier_depth_last as f64;
}

fn record_sync(fleet: &Fleet, outcome: &SyncOutcome, checks: &mut Checks, s: &mut Samples) {
    let ok = synced_by_tier(fleet, outcome);
    checks.check(ok, || format!("membership op ended {outcome:?}"));
    s.sync_bytes.push(outcome.bytes as f64);
    s.leaf_served += usize::from(ok);
}

/// One `fleet_churn` pass: rounds until the pass has lasted `seconds` and
/// run [`Params::min_rounds`] rounds.
pub fn run(p: &Params, seed: u64, seconds: f64, spans: &mut Spans, checks: &mut Checks) -> Pass {
    let mut s = Samples::default();
    // A round lasts about twelve seconds, so only three fit in a run; the
    // best of three measured noisier than the whole pass, which is therefore
    // one window.
    let mut window = Window::default();
    let mut rng = inputs::rng(seed, 3);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < p.min_rounds || start.elapsed().as_secs_f64() < seconds {
        for _ in 1..p.setups_per_round {
            drop(set_up(p, spans, &mut s, &mut window));
        }
        let mut setup = set_up(p, spans, &mut s, &mut window);
        let shape = CampaignShape {
            members: setup.fleet.node_count(),
            attackers: ATTACKERS,
            victims: setup.fleet.node_count() * CHURN_PER_MILLE / 1000,
            verify: p.verify,
        };
        let (round, _) = spans.time("campaigns", "bench", || {
            inputs::campaigns(&mut rng, MULTI_FAILURE_TARGETS.len(), shape)
        });
        for c in &round {
            run_campaign(&mut setup, c, spans, checks, &mut s, &mut window);
        }
        rounds += 1;
    }
    metrics(s, window)
}

fn metrics(s: Samples, window: Window) -> Pass {
    let mut best = BestWindow::default();
    best.add(window);
    let all_rejoins: Vec<f64> = s
        .rejoin_delta_us
        .iter()
        .chain(&s.rejoin_full_us)
        .copied()
        .collect();
    let mut end_to_end = vec![Metric::median("setup_s", "s", &s.setup_s)];
    end_to_end.extend(best.metrics());
    end_to_end.push(Metric::mean(
        "presentations_to_patch",
        "count",
        &s.presentations,
    ));
    Pass {
        end_to_end,
        layers: vec![
            Metric::median("fleet.new_ms", "ms", &s.new_ms),
            Metric::median("fleet.distributed_learning_ms", "ms", &s.learn_ms),
            Metric::median("fleet.attack_epoch_ms", "ms", &s.attack_epoch_ms),
            Metric::median("fleet.benign_epoch_ms", "ms", &s.benign_epoch_ms),
            Metric::median("fleet.churn_epoch_ms", "ms", &s.churn_epoch_ms),
            Metric::mean("fleet.epochs_to_immunity", "count", &s.epochs_to_immunity),
            Metric::mean("fleet.patch_applications", "count", &s.patch_applications),
            Metric::mean("fleet.envelopes_sent", "count", &s.envelopes_sent),
            Metric::value("fleet.tier_depth", "count", s.tier_depth, 1),
            Metric::mean("fleet.execution_ms", "ms", &s.execution_ms),
            Metric::mean("fleet.manager_ms", "ms", &s.manager_ms),
            Metric::mean("fleet.push_ms", "ms", &s.push_ms),
            Metric::median("sync.checkpoint_us", "us", &s.checkpoint_us),
            Metric::median("sync.delta_since_us", "us", &s.delta_since_us),
            Metric::median("sync.rejoin_delta_us", "us", &s.rejoin_delta_us),
            Metric::median("sync.rejoin_full_us", "us", &s.rejoin_full_us),
            Metric::median("sync.join_warm_us", "us", &s.join_warm_us),
            Metric::percentile("sync.rejoin_p50_us", "us", &all_rejoins, 0.5),
            Metric::percentile("sync.rejoin_p99_us", "us", &all_rejoins, 0.99),
            Metric::mean("sync.bytes_per_op", "B", &s.sync_bytes),
            Metric::value(
                "sync.leaf_served_share",
                "ratio",
                s.leaf_served as f64 / s.sync_bytes.len() as f64,
                s.sync_bytes.len(),
            ),
            Metric::median("store.snapshot_encode_us", "us", &s.snapshot_encode_us),
            Metric::median("store.snapshot_decode_us", "us", &s.snapshot_decode_us),
            Metric::median("store.delta_encode_us", "us", &s.delta_encode_us),
            Metric::median("store.delta_decode_us", "us", &s.delta_decode_us),
            Metric::mean("store.snapshot_bytes", "B", &s.snapshot_bytes),
            Metric::mean("store.delta_bytes", "B", &s.delta_bytes),
        ],
    }
}
