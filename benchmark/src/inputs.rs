//! Seeded input generation. Every input the workloads hand to the program —
//! benign pages, exploit choices and orders, attackers, churn victims and
//! verification samples — is drawn here from the workload seed, so the same
//! seed gives the same inputs and the program sees only the generated values.

use cv_apps::{
    benign_array_311710, benign_gc_realloc_312278, benign_gif_285595, benign_hostname_307259,
    benign_js_type_290162, benign_js_type_295854, benign_string_296134, benign_widget_269095,
    benign_widget_320182,
};
use cv_isa::Word;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Share of `protect_pages` pages that are exploits, in per mille.
pub const EXPLOIT_PER_MILLE: u32 = 20;

/// A generator seeded from the workload seed and a stream label, so that the
/// workloads' streams are independent of one another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// One benign page, drawn with `evaluation_suite()`'s generators and value
/// ranges (the feature is drawn too, instead of cycling).
pub fn benign_page(rng: &mut StdRng) -> Vec<Word> {
    match rng.gen_range(0..9u32) {
        0 => benign_js_type_290162(rng.gen_range(1..5000), rng.gen_range(0..2)),
        1 => benign_js_type_295854(rng.gen_range(1..5000), rng.gen_range(0..6)),
        2 => benign_gc_realloc_312278(rng.gen_range(1..5000), rng.gen_range(0..2)),
        3 => benign_widget_269095(rng.gen_range(1..500), rng.gen_range(0..6)),
        4 => benign_widget_320182(rng.gen_range(1..500), rng.gen_range(0..6)),
        5 => benign_string_296134(rng.gen_range(6..=12), rng.gen_range(1..1000)),
        6 => benign_array_311710(
            rng.gen_range(0..4),
            rng.gen_range(0..4),
            rng.gen_range(0..4),
            rng.gen_range(1..1000),
        ),
        7 => benign_gif_285595(rng.gen_range(0..6), rng.gen_range(1..1000)),
        _ => benign_hostname_307259(rng.gen_range(0..6)),
    }
}

/// `n` benign pages.
pub fn benign_pages(rng: &mut StdRng, n: usize) -> Vec<Vec<Word>> {
    (0..n).map(|_| benign_page(rng)).collect()
}

/// A page of the `protect_pages` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamPage {
    /// A benign page.
    Benign(Vec<Word>),
    /// The primary page of exploit `index` (into `red_team_exploits`).
    Exploit(usize),
}

/// The pages of one `protect_pages` window: `n` pages of which exactly
/// [`EXPLOIT_PER_MILLE`]‰ are exploit pages, spread evenly over the
/// `exploits` exploits, at seeded positions; the rest are benign pages. Every
/// window thus has the same mix, and windows differ only in their draws.
pub fn window_pages(rng: &mut StdRng, n: usize, exploits: usize) -> Vec<StreamPage> {
    let attacks = n * EXPLOIT_PER_MILLE as usize / 1000;
    let mut pages: Vec<StreamPage> = (0..attacks)
        .map(|k| StreamPage::Exploit(k % exploits))
        .collect();
    pages.extend((attacks..n).map(|_| StreamPage::Benign(benign_page(rng))));
    shuffle(rng, &mut pages);
    pages
}

/// Shuffle `v` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut v);
    v
}

/// `k` distinct members of `0..n` outside `exclude`, in ascending order.
pub fn distinct(rng: &mut StdRng, n: usize, k: usize, exclude: &BTreeSet<usize>) -> Vec<usize> {
    assert!(k + exclude.len() <= n, "cannot draw {k} of {n} members");
    let mut picked = BTreeSet::new();
    while picked.len() < k {
        let m = rng.gen_range(0..n);
        if !exclude.contains(&m) {
            picked.insert(m);
        }
    }
    picked.into_iter().collect()
}

/// The inputs of one `fleet_churn` campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Index into `MULTI_FAILURE_TARGETS`.
    pub target: usize,
    /// Members that present the exploit every attack epoch.
    pub attackers: Vec<usize>,
    /// Members that crash in the churn wave.
    pub victims: Vec<usize>,
    /// Members the exploit is presented to once the campaign is over: churned
    /// members and members never attacked.
    pub verify: Vec<usize>,
    /// Seed of the full-fleet benign epoch's pages (see [`benign_pages`]),
    /// drawn when the epoch runs so a round never holds every campaign's pages.
    pub benign_seed: u64,
}

/// Shape of a `fleet_churn` campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignShape {
    /// Members at the start of the campaign.
    pub members: usize,
    /// Attackers per attack epoch.
    pub attackers: usize,
    /// Members crashed by the churn wave.
    pub victims: usize,
    /// Members in the verification sample (half churned, half never attacked).
    pub verify: usize,
}

/// The campaigns of one `fleet_churn` round: one per target, in seeded order.
pub fn campaigns(rng: &mut StdRng, targets: usize, shape: CampaignShape) -> Vec<Campaign> {
    shuffled(rng, targets)
        .into_iter()
        .map(|target| {
            let none = BTreeSet::new();
            let attackers = distinct(rng, shape.members, shape.attackers, &none);
            let attacked: BTreeSet<usize> = attackers.iter().copied().collect();
            let victims = distinct(rng, shape.members, shape.victims, &attacked);
            let churned: Vec<usize> = shuffled(rng, victims.len())
                .into_iter()
                .take(shape.verify / 2)
                .map(|i| victims[i])
                .collect();
            let mut taken = attacked;
            taken.extend(victims.iter().copied());
            let mut verify = distinct(rng, shape.members, shape.verify - churned.len(), &taken);
            verify.extend(churned);
            Campaign {
                target,
                attackers,
                victims,
                verify,
                benign_seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_is_a_permutation() {
        let mut r = rng(3, 0);
        let mut v = shuffled(&mut r, 10);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn campaign_members_are_distinct_and_sampled_as_documented() {
        let shape = CampaignShape {
            members: 1000,
            attackers: 5,
            victims: 50,
            verify: 16,
        };
        for c in campaigns(&mut rng(9, 1), 8, shape) {
            let victims: BTreeSet<_> = c.victims.iter().collect();
            assert_eq!(victims.len(), 50);
            assert!(c.attackers.iter().all(|a| !victims.contains(a)));
            assert_eq!(c.verify.len(), 16);
            assert_eq!(c.verify.iter().filter(|m| victims.contains(m)).count(), 8);
        }
    }
}
