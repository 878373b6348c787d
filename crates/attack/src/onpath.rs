//! The on-path forgery arm of the attack plane: Kaminsky-style cache
//! poisoning races, scheduled like every other campaign.
//!
//! Where [`crate::AttackCampaign`] goes *through* the registrar channel,
//! this attacker sits *on the wire*: for every fresh resolution under a
//! contested zone it races a burst of forged responses against the
//! authoritative answer. Whether a burst wins is pure arithmetic over
//! the victim resolver's entropy budget — TXID bits, source-port bits,
//! 0x20 case bits — evaluated deterministically per query name (see
//! [`dsec_resolver::spoofguard`]); no wall-clock, no shared RNG, so
//! campaign outcomes are byte-identical across runs.
//!
//! The campaign is day-pinned: it opens on a launch day, optionally
//! closes on an end day, and records its lifecycle in the world's event
//! log. Each day it is active, [`OnPathCampaign::threat_for`] hands the
//! traffic plane an [`OnPathThreat`] to arm the fleet's resolvers with;
//! outside the window it hands back `None` and the fleet runs clean.

use dsec_ecosystem::{Event, SimDate, World};
use dsec_resolver::OnPathThreat;
use dsec_wire::Name;

/// How the on-path attacker contests resolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnPathVector {
    /// The Kaminsky race: for each fresh resolution under the contested
    /// zone, fire a burst of forged responses guessing the query's
    /// TXID/port/0x20 encoding. Success probability per race is the
    /// birthday-style bound `1 - (1 - 2^-bits)^spoofs`.
    KaminskyRace {
        /// Forged responses the attacker lands per contested exchange
        /// before the authoritative answer arrives.
        spoofs_per_race: u32,
    },
}

/// Where the on-path campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnPathPhase {
    /// Waiting for the launch day.
    Scheduled,
    /// The attacker is racing live resolutions.
    Active,
    /// The campaign window closed.
    Ended,
}

/// A day-pinned on-path forgery campaign against one zone's subtree.
///
/// Drive it in lockstep with the world clock — `world.tick()` then
/// `campaign.tick(&mut world)` — exactly like [`crate::AttackCampaign`];
/// the two compose (a registrar-channel takeover and a wire-level race
/// can run in the same world).
#[derive(Debug, Clone)]
pub struct OnPathCampaign {
    /// The vector in use.
    pub vector: OnPathVector,
    /// The contested zone: every query at or below it is raced.
    pub zone: Name,
    /// First day the attacker races.
    pub launch: SimDate,
    /// First day the attacker is gone again. `None` never ends.
    pub end: Option<SimDate>,
    /// Current phase.
    pub phase: OnPathPhase,
    /// Seed the per-query race draws derive from.
    seed: u64,
}

impl OnPathCampaign {
    /// A campaign racing queries under `zone` from `launch` onwards,
    /// with race draws derived from the default campaign seed.
    pub fn new(vector: OnPathVector, zone: Name, launch: SimDate) -> OnPathCampaign {
        OnPathCampaign {
            vector,
            zone,
            launch,
            end: None,
            phase: OnPathPhase::Scheduled,
            seed: 0x00A7_7AC4_0A7E,
        }
    }

    /// Ends the campaign on `end` (builder style): the attacker stops
    /// racing once `today >= end`.
    pub fn with_end(mut self, end: SimDate) -> OnPathCampaign {
        self.end = Some(end);
        self
    }

    /// Overrides the race-draw seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> OnPathCampaign {
        self.seed = seed;
        self
    }

    /// Whether the attacker is on the wire on `day`.
    pub fn active_on(&self, day: SimDate) -> bool {
        day >= self.launch && self.end.is_none_or(|end| day < end)
    }

    /// Runs one campaign day: opens the window when the launch day
    /// comes, closes it when the end day comes, logging both
    /// transitions. Call after `world.tick()`.
    pub fn tick(&mut self, world: &mut World) {
        let today = world.today;
        if self.phase == OnPathPhase::Scheduled && today >= self.launch {
            self.phase = OnPathPhase::Active;
            world.events.record(
                today,
                Event::PoisonRaceLaunched {
                    zone: self.zone.clone(),
                },
            );
        }
        if self.phase == OnPathPhase::Active && self.end.is_some_and(|end| today >= end) {
            self.phase = OnPathPhase::Ended;
            world.events.record(
                today,
                Event::PoisonRaceEnded {
                    zone: self.zone.clone(),
                },
            );
        }
    }

    /// The wire-level threat the traffic plane should arm resolvers
    /// with on `day` — `None` outside the campaign window, so callers
    /// can pass the result straight to
    /// [`dsec_resolver::Resolver::with_on_path_threat`] /
    /// `LoadConfig::with_threat` only when the attacker is live.
    pub fn threat_for(&self, day: SimDate) -> Option<OnPathThreat> {
        if !self.active_on(day) {
            return None;
        }
        let OnPathVector::KaminskyRace { spoofs_per_race } = self.vector;
        Some(OnPathThreat::new(self.zone.clone(), spoofs_per_race, self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::WorldConfig;
    use dsec_resolver::SpoofGuard;

    fn campaign(launch: u32, end: Option<u32>) -> OnPathCampaign {
        let zone = Name::parse("victim.nl").unwrap();
        let mut c = OnPathCampaign::new(
            OnPathVector::KaminskyRace {
                spoofs_per_race: 300,
            },
            zone,
            SimDate(launch),
        );
        if let Some(end) = end {
            c = c.with_end(SimDate(end));
        }
        c
    }

    #[test]
    fn window_gates_the_threat() {
        let c = campaign(10, Some(20));
        assert!(c.threat_for(SimDate(9)).is_none());
        assert!(c.threat_for(SimDate(10)).is_some());
        assert!(c.threat_for(SimDate(19)).is_some());
        assert!(c.threat_for(SimDate(20)).is_none(), "end day is exclusive");
        assert!(campaign(10, None).threat_for(SimDate(9_999)).is_some());
    }

    #[test]
    fn tick_records_lifecycle_events() {
        let mut world = World::new(WorldConfig::default());
        let mut c = campaign(world.today.0 + 2, Some(world.today.0 + 4));
        while world.today.0 < c.launch.0 + 5 {
            world.tick();
            c.tick(&mut world);
        }
        assert_eq!(c.phase, OnPathPhase::Ended);
        assert_eq!(world.events.count("poison_race_launched"), 1);
        assert_eq!(world.events.count("poison_race_ended"), 1);
    }

    #[test]
    fn threat_is_deterministic_across_clones() {
        let c = campaign(0, None);
        let t1 = c.threat_for(SimDate(5)).unwrap();
        let t2 = c.clone().threat_for(SimDate(7)).unwrap();
        assert_eq!(t1, t2, "same threat every active day");
        let qname = Name::parse("www.victim.nl").unwrap();
        let naive = SpoofGuard::naive();
        assert_eq!(
            t1.race_won(&naive, &qname, dsec_wire::RrType::A),
            t2.race_won(&naive, &qname, dsec_wire::RrType::A),
        );
    }
}
