//! The workload model: who users ask for, and how often.
//!
//! Popularity is Zipf-distributed *within* each TLD, and ranks are
//! assigned with a big-operator head bias: domains hosted by the largest
//! DNS operators take the top ranks. That is Figure 3's concentration
//! seen from the user side — the query head lands on the handful of
//! operators that host most of the population, so their (mostly absent)
//! DNSSEC policy decides what fraction of real traffic is protected.
//!
//! Everything here is pure and seeded: the same
//! ([`TrafficMix`], seed, world) triple always yields the same query
//! stream, byte for byte.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsec_ecosystem::{Tld, World};
use dsec_wire::{FnvHashMap, Name, RrType};
use dsec_workloads::{QtypeMix, TrafficMix};

/// A seeded Zipf(n, s) sampler over ranks `0..n` built on the inverse
/// CDF, since the vendored rand stub ships no distributions module.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cdf[k]` = P(rank ≤ k); the last entry is 1.0 (up to rounding).
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (rank-`k` weight
    /// ∝ `1/(k+1)^s`). `n` must be non-zero.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler covers no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The normalized probability of rank `k`.
    pub fn weight(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank (inverse CDF).
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Cumulative-weight categorical sampler for the TLD and qtype mixes.
#[derive(Debug, Clone)]
struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    fn new(weights: &[f64]) -> Categorical {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "categorical needs positive total weight");
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Categorical { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One resolvable site and who answers for it.
#[derive(Debug, Clone)]
pub struct Site {
    /// The registered domain (apex).
    pub name: Name,
    /// `www.<domain>`.
    pub www: Name,
    /// Its TLD.
    pub tld: Tld,
    /// Dense index into [`TrafficPopulation::registrars`]: the registrar
    /// the owner bought it from.
    pub registrar_id: u32,
    /// Dense index into [`TrafficPopulation::operators`]: its DNS
    /// operator (same grouping as the scanner's snapshots).
    pub operator_id: u32,
}

/// The SLD population indexed for popularity sampling.
#[derive(Debug, Clone)]
pub struct TrafficPopulation {
    /// Every registered domain, in world (canonical-name) order.
    pub sites: Vec<Site>,
    /// Per-TLD site indices in popularity-rank order (head first).
    pub ranked: BTreeMap<Tld, Vec<u32>>,
    /// Registrar display names, indexed by [`Site::registrar_id`]
    /// (first-occurrence order over the site list).
    pub registrars: Vec<String>,
    /// Operator keys, indexed by [`Site::operator_id`] (first-occurrence
    /// order over the site list).
    pub operators: Vec<String>,
}

impl TrafficPopulation {
    /// Snapshots the world's registered domains with their registrar and
    /// operator attribution, and ranks each TLD's domains head-first:
    /// operators hosting more domains take the earlier (more popular)
    /// ranks, ties broken by operator key then domain name.
    ///
    /// Attribution is read from columns: the domain's registrar id and
    /// its registry's operator column, by row (no domain name is
    /// hashed). A name is made once per world registrar and once per
    /// (TLD, registry-local operator id), and merged by name into the
    /// population's ids.
    pub fn from_world(world: &World) -> TrafficPopulation {
        let mut sites = Vec::with_capacity(world.domain_count());
        let (mut registrars, mut registrar_names) = (Vec::new(), HashMap::new());
        let (mut operators, mut operator_names) = (Vec::new(), HashMap::new());
        let mut registrar_ids: Vec<Option<u32>> = vec![None; world.registrar_count()];
        let mut operator_ids: FnvHashMap<(Tld, u32), u32> = FnvHashMap::default();
        for (id, d) in world.entries() {
            let registry = world.registry(d.tld);
            let local = registry.operator_at(id.row());
            let operator_id = *operator_ids.entry((d.tld, local)).or_insert_with(|| {
                let key = registry.operators()[local as usize].to_string();
                intern(&mut operators, &mut operator_names, key)
            });
            let registrar_id = *registrar_ids[d.registrar.0 as usize].get_or_insert_with(|| {
                let name = world.registrar(d.registrar).name.clone();
                intern(&mut registrars, &mut registrar_names, name)
            });
            sites.push(Site {
                www: d.name.child("www").expect("www label fits"),
                name: d.name.clone(),
                tld: d.tld,
                registrar_id,
                operator_id,
            });
        }

        // One rank per operator — more domains first, then by key — so
        // the per-TLD sorts compare integers.
        let mut sizes = vec![0u64; operators.len()];
        for site in &sites {
            sizes[site.operator_id as usize] += 1;
        }
        let mut by_rank: Vec<usize> = (0..operators.len()).collect();
        by_rank.sort_by(|&a, &b| {
            sizes[b]
                .cmp(&sizes[a])
                .then_with(|| operators[a].cmp(&operators[b]))
        });
        let mut rank = vec![0u32; operators.len()];
        for (r, &id) in by_rank.iter().enumerate() {
            rank[id] = r as u32;
        }

        let mut ranked: BTreeMap<Tld, Vec<u32>> = BTreeMap::new();
        for (i, site) in sites.iter().enumerate() {
            ranked.entry(site.tld).or_default().push(i as u32);
        }
        for indices in ranked.values_mut() {
            // Stable sort: sites are already in canonical-name order, so
            // ties within an operator keep name order — deterministic.
            indices.sort_by_key(|&i| rank[sites[i as usize].operator_id as usize]);
        }
        TrafficPopulation {
            sites,
            ranked,
            registrars,
            operators,
        }
    }

    /// The display name of `site`'s registrar.
    pub fn registrar_of(&self, site: &Site) -> &str {
        &self.registrars[site.registrar_id as usize]
    }

    /// The operator key of `site`.
    pub fn operator_of(&self, site: &Site) -> &str {
        &self.operators[site.operator_id as usize]
    }

    /// Total query-eligible domains.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the world had no registered domains.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// `name`'s index in `names`, appending it on first sight.
fn intern(names: &mut Vec<String>, ids: &mut HashMap<String, u32>, name: String) -> u32 {
    *ids.entry(name).or_insert_with_key(|name| {
        names.push(name.clone());
        (names.len() - 1) as u32
    })
}

/// One query of the client stream, fully determined at planning time.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Index into [`TrafficPopulation::sites`].
    pub site: u32,
    /// Query name (apex or `www`).
    pub qname: Name,
    /// Query type.
    pub qtype: RrType,
    /// Simulated epoch seconds at which the query is issued.
    pub now: u32,
}

/// Generates the deterministic client stream: `count` queries drawn from
/// `mix` with `seed`, timestamps advancing from `base_now` at `sim_qps`
/// queries per simulated second (so TTLs age as the stream runs).
pub fn generate_stream(
    population: &TrafficPopulation,
    mix: &TrafficMix,
    seed: u64,
    count: u64,
    base_now: u32,
    sim_qps: u32,
) -> Vec<PlannedQuery> {
    assert!(!population.is_empty(), "no domains to query");
    let sim_qps = sim_qps.max(1);

    // TLDs with no population drop out of the mix; weights renormalize.
    let tlds: Vec<Tld> = mix
        .tld_share
        .iter()
        .filter(|(tld, w)| *w > 0.0 && population.ranked.contains_key(tld))
        .map(|(tld, _)| *tld)
        .collect();
    assert!(!tlds.is_empty(), "traffic mix matches no populated TLD");
    let tld_pick = Categorical::new(
        &mix.tld_share
            .iter()
            .filter(|(tld, w)| *w > 0.0 && population.ranked.contains_key(tld))
            .map(|(_, w)| *w)
            .collect::<Vec<f64>>(),
    );
    let zipfs: BTreeMap<Tld, Zipf> = tlds
        .iter()
        .map(|&tld| {
            let n = population.ranked[&tld].len();
            (tld, Zipf::new(n, mix.zipf_exponent))
        })
        .collect();
    let qtypes: Vec<QtypeMix> = mix.qtype_share.iter().map(|(q, _)| *q).collect();
    let qtype_pick = Categorical::new(
        &mix.qtype_share
            .iter()
            .map(|(_, w)| *w)
            .collect::<Vec<f64>>(),
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(count as usize);
    for i in 0..count {
        let tld = tlds[tld_pick.sample(rng.random_range(0.0..1.0))];
        let rank = zipfs[&tld].sample(rng.random_range(0.0..1.0));
        let site_idx = population.ranked[&tld][rank];
        let site = &population.sites[site_idx as usize];
        let (qname, qtype) = match qtypes[qtype_pick.sample(rng.random_range(0.0..1.0))] {
            QtypeMix::Mx => (site.name.clone(), RrType::Mx),
            q => {
                let qname = if rng.random_bool(mix.www_share) {
                    site.www.clone()
                } else {
                    site.name.clone()
                };
                let qtype = match q {
                    QtypeMix::Aaaa => RrType::Aaaa,
                    _ => RrType::A,
                };
                (qname, qtype)
            }
        };
        stream.push(PlannedQuery {
            site: site_idx,
            qname,
            qtype,
            now: base_now.saturating_add((i / sim_qps as u64) as u32),
        });
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zipf_weights_sum_to_one() {
        for &(n, s) in &[(1usize, 1.0), (10, 0.5), (1000, 0.95), (500, 1.4)] {
            let zipf = Zipf::new(n, s);
            let sum: f64 = (0..n).map(|k| zipf.weight(k)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} s={s}: sum {sum}");
            assert_eq!(zipf.len(), n);
        }
    }

    #[test]
    fn zipf_rank1_frequency_matches_exponent() {
        // Analytically: P(rank 0) = 1 / H_{n,s}. Check the empirical
        // frequency of 40k inverse-CDF draws lands within 10%.
        let n = 50;
        let s = 1.0;
        let zipf = Zipf::new(n, s);
        let harmonic: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let expected = 1.0 / harmonic;
        assert!((zipf.weight(0) - expected).abs() < 1e-9);

        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let draws = 40_000;
        let hits = (0..draws)
            .filter(|_| zipf.sample(rng.random_range(0.0..1.0)) == 0)
            .count();
        let freq = hits as f64 / draws as f64;
        assert!(
            (freq - expected).abs() / expected < 0.10,
            "rank-1 freq {freq:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn zipf_rank_weights_decay_by_the_exponent() {
        let zipf = Zipf::new(100, 0.95);
        // weight(0) / weight(k-1th) = k^s.
        let ratio = zipf.weight(0) / zipf.weight(9);
        assert!(
            (ratio - 10f64.powf(0.95)).abs() < 1e-6,
            "rank-1/rank-10 ratio {ratio}"
        );
        // Monotone non-increasing.
        for k in 1..100 {
            assert!(zipf.weight(k) <= zipf.weight(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_sample_covers_all_ranks_and_clamps() {
        let zipf = Zipf::new(3, 1.0);
        assert_eq!(zipf.sample(0.0), 0);
        // u just below 1.0 must clamp into range.
        assert_eq!(zipf.sample(0.999_999_999), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[zipf.sample(rng.random_range(0.0..1.0))] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

        #[test]
        fn zipf_draw_sequences_are_seed_reproducible(
            seed in any::<u64>(),
            n in 1usize..400,
        ) {
            let zipf = Zipf::new(n, 0.95);
            let draw = |seed: u64| -> Vec<usize> {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..64).map(|_| zipf.sample(rng.random_range(0.0..1.0))).collect()
            };
            let first = draw(seed);
            let second = draw(seed);
            prop_assert_eq!(&first, &second);
            for &rank in &first {
                prop_assert!(rank < n);
            }
        }
    }
}
