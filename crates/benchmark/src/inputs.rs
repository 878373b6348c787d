//! Everything a workload's inputs are made from: the CLI seed fans out
//! into the population, world, load and fault-plane seeds, and the run
//! scale (full or `--smoke`) fixes sizes and sample counts. The
//! library only ever sees the generated inputs.

use std::collections::{BTreeMap, BTreeSet};

use dsec_ecosystem::{World, WorldConfig};
use dsec_scanner::operator_of;
use dsec_wire::Name;
use dsec_workloads::PopulationConfig;

/// One simulated domain per this many real ones in a full run (~37,000
/// domains). The repository's other benches use 1:2000; that size puts
/// the 92 runs an outside driver makes past its 57-minute cap on this
/// two-core host, and a refused benchmark measures nothing.
pub const FULL_SCALE: u64 = 4000;

/// splitmix64: the seed fan-out and the harness's own sampling stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `count` picks from `items`, with replacement (empty when `items` is).
    pub fn pick<'a, T>(&mut self, items: &'a [T], count: usize) -> Vec<&'a T> {
        if items.is_empty() {
            return Vec::new();
        }
        (0..count)
            .map(|_| &items[(self.next_u64() % items.len() as u64) as usize])
            .collect()
    }
}

/// Sizes and seeds of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub population: PopulationConfig,
    pub load_seed: u64,
    pub fault_seed: u64,
    /// Seed of the harness's own sampling (which domains to probe).
    pub sample_seed: u64,
    /// Queries per `traffic` repetition.
    pub traffic_queries: u64,
    /// Queries per phase of a `degraded` repetition.
    pub degraded_phase_queries: u64,
    /// Last campaign day as days past the window start (`None` = whole window).
    pub campaign_days: Option<u32>,
    /// Samples per unit-cost metric in the traced run.
    pub unit_samples: usize,
}

impl Inputs {
    pub fn new(seed: u64, smoke: bool) -> Inputs {
        let mut fan = SplitMix::new(seed);
        let base = if smoke {
            PopulationConfig::tiny()
        } else {
            PopulationConfig {
                scale: FULL_SCALE,
                ..PopulationConfig::default()
            }
        };
        let population = PopulationConfig {
            seed: fan.next_u64(),
            world: WorldConfig {
                seed: fan.next_u64(),
                ..base.world.clone()
            },
            ..base
        };
        Inputs {
            population,
            load_seed: fan.next_u64(),
            fault_seed: fan.next_u64(),
            sample_seed: fan.next_u64(),
            traffic_queries: if smoke { 2_000 } else { 60_000 },
            degraded_phase_queries: if smoke { 2_048 } else { 20_000 },
            campaign_days: smoke.then_some(21),
            unit_samples: if smoke { 20 } else { 200 },
        }
    }
}

/// The biggest DNS operator's nameserver fleet: the outage victim of
/// `degraded`, guaranteed a healthy share of the Zipf head.
pub fn largest_operator_fleet(world: &World) -> Vec<Name> {
    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    let mut fleets: BTreeMap<String, BTreeSet<Name>> = BTreeMap::new();
    for d in world.domains() {
        let ns = world.registry(d.tld).ns_of(&d.name);
        let Some(op) = operator_of(&ns) else { continue };
        let key = op.to_string();
        *sizes.entry(key.clone()).or_insert(0) += 1;
        fleets.entry(key).or_default().extend(ns);
    }
    let victim = sizes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(k, _)| k.clone())
        .expect("a built world has delegated domains");
    fleets
        .remove(&victim)
        .unwrap_or_default()
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_fan_out() {
        let a = Inputs::new(7, false);
        let b = Inputs::new(7, false);
        assert_eq!(a.population.seed, b.population.seed);
        assert_eq!(a.population.world.seed, b.population.world.seed);
        assert_eq!((a.load_seed, a.fault_seed), (b.load_seed, b.fault_seed));
        let all = [
            a.population.seed,
            a.population.world.seed,
            a.load_seed,
            a.fault_seed,
            a.sample_seed,
        ];
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        assert_ne!(Inputs::new(8, false).population.seed, a.population.seed);
        assert_eq!(a.population.scale, FULL_SCALE);
        assert!(Inputs::new(7, true).population.scale > FULL_SCALE);
    }

    #[test]
    fn pick_is_seeded_and_in_range() {
        let items: Vec<u32> = (0..10).collect();
        let a = SplitMix::new(3).pick(&items, 50);
        let b = SplitMix::new(3).pick(&items, 50);
        assert_eq!(a, b);
        assert!(SplitMix::new(3).pick(&[] as &[u32], 5).is_empty());
    }
}
