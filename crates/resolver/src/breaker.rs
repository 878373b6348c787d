//! Per-authority circuit breakers: fail fast during sustained outages.
//!
//! A sustained operator outage would otherwise turn every cache miss into
//! a full retry ladder — `max_attempts` UDP exchanges, backoff, and a
//! possible TCP fallback — against servers that are known to be down.
//! A [`BreakerSet`] tracks consecutive failures per authority hostname:
//! after [`BreakerPolicy::failure_threshold`] consecutive failures the
//! authority's breaker *trips* and subsequent attempts are
//! short-circuited without touching the network.
//!
//! An open breaker is not a permanent verdict. Every
//! [`BreakerPolicy::probe_interval_s`] of *simulated* time, one attempt
//! per authority is let through as a half-open probe; a successful probe
//! closes the breaker, a failed one keeps it open until the next
//! interval. Probe scheduling is a pure function of the query's sim-time
//! (`now / probe_interval_s` buckets) — never wall-clock — so breaker
//! behavior is deterministic and reproducible run-to-run.
//!
//! Each [`Resolver`](crate::Resolver) owns its breaker state (the set is
//! `Send` but deliberately not shared): worker threads of a pool learn
//! about an outage independently, which keeps outcome tallies identical
//! across thread counts when faults are deterministic scheduled windows
//! (a down-window is down for every probe inside it, so fail-fast and
//! full-ladder agree on the answer; only the attempt counts differ).

use std::cell::RefCell;

use dsec_wire::{FnvHashMap, Name};

/// Knobs for per-authority circuit breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures against one authority before its breaker
    /// trips open.
    pub failure_threshold: u32,
    /// Width of the half-open probe window, in simulated seconds: one
    /// attempt per authority is allowed through per window while open.
    pub probe_interval_s: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            probe_interval_s: 1,
        }
    }
}

/// What a breaker did, for the transition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Closed → open: the failure threshold was crossed.
    Trip,
    /// A half-open probe attempt was let through while open.
    Probe,
    /// Open → closed: a probe succeeded.
    Close,
}

impl Transition {
    /// Human-readable label for timelines.
    pub fn label(self) -> &'static str {
        match self {
            Transition::Trip => "trip",
            Transition::Probe => "half-open probe",
            Transition::Close => "close",
        }
    }
}

/// One breaker state change, stamped with the sim-time second it
/// happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerEvent {
    /// Simulated epoch seconds of the query that caused the transition.
    pub at: u32,
    /// The authority hostname whose breaker transitioned.
    pub authority: Name,
    /// What happened.
    pub transition: Transition,
}

#[derive(Debug, Default, Clone, Copy)]
struct AuthorityState {
    /// Consecutive failures since the last success.
    consecutive_failures: u32,
    /// True while tripped open.
    open: bool,
    /// The probe bucket (`now / probe_interval_s`) whose half-open slot
    /// was already spent, if any.
    probed_bucket: Option<u32>,
}

/// Per-authority breaker states for one resolver. See the module docs.
#[derive(Debug, Default)]
pub struct BreakerSet {
    policy: BreakerPolicy,
    states: RefCell<FnvHashMap<Name, AuthorityState>>,
    events: RefCell<Vec<BreakerEvent>>,
}

impl BreakerSet {
    /// An empty set: every authority starts closed (healthy).
    pub fn new(policy: BreakerPolicy) -> Self {
        BreakerSet {
            policy: BreakerPolicy {
                // A zero interval would make every open breaker probe on
                // every attempt (no short-circuiting at all); clamp.
                probe_interval_s: policy.probe_interval_s.max(1),
                failure_threshold: policy.failure_threshold.max(1),
            },
            ..BreakerSet::default()
        }
    }

    /// The (clamped) policy in force.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Whether an attempt against `ns` may proceed at sim-time `now`.
    /// Closed breakers always allow; open breakers allow exactly one
    /// half-open probe per probe interval (logged as such) and
    /// short-circuit everything else.
    pub fn allow(&self, ns: &Name, now: u32) -> bool {
        let mut states = self.states.borrow_mut();
        let Some(state) = states.get_mut(ns) else {
            return true;
        };
        if !state.open {
            return true;
        }
        let bucket = now / self.policy.probe_interval_s;
        if state.probed_bucket == Some(bucket) {
            return false;
        }
        state.probed_bucket = Some(bucket);
        self.events.borrow_mut().push(BreakerEvent {
            at: now,
            authority: ns.clone(),
            transition: Transition::Probe,
        });
        true
    }

    /// Records a failed exchange with `ns`; returns true when this
    /// failure tripped the breaker open.
    pub fn record_failure(&self, ns: &Name, now: u32) -> bool {
        let mut states = self.states.borrow_mut();
        let state = states.entry(ns.clone()).or_default();
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if !state.open && state.consecutive_failures >= self.policy.failure_threshold {
            state.open = true;
            self.events.borrow_mut().push(BreakerEvent {
                at: now,
                authority: ns.clone(),
                transition: Transition::Trip,
            });
            return true;
        }
        false
    }

    /// Records a successful exchange with `ns`; returns true when this
    /// success closed an open breaker.
    pub fn record_success(&self, ns: &Name, now: u32) -> bool {
        let Some(state) = self.states.borrow_mut().remove(ns) else {
            return false;
        };
        let was_open = state.open;
        if was_open {
            self.events.borrow_mut().push(BreakerEvent {
                at: now,
                authority: ns.clone(),
                transition: Transition::Close,
            });
        }
        was_open
    }

    /// How many authorities are currently tripped open.
    pub fn open_count(&self) -> usize {
        self.states.borrow().values().filter(|s| s.open).count()
    }

    /// The transition log so far, in occurrence order.
    pub fn transitions(&self) -> Vec<BreakerEvent> {
        self.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn tripped(set: &BreakerSet, ns: &Name, now: u32) -> bool {
        let mut tripped = false;
        for _ in 0..set.policy().failure_threshold {
            tripped = set.record_failure(ns, now);
        }
        tripped
    }

    #[test]
    fn trips_after_threshold_and_short_circuits() {
        let set = BreakerSet::new(BreakerPolicy::default());
        let ns = name("ns1.op.net");
        assert!(set.allow(&ns, 100));
        assert!(!set.record_failure(&ns, 100));
        assert!(!set.record_failure(&ns, 100));
        assert!(set.record_failure(&ns, 100), "third failure trips");
        assert_eq!(set.open_count(), 1);
        // One half-open probe per sim-second bucket, then short-circuit.
        assert!(set.allow(&ns, 100), "first attempt in bucket probes");
        assert!(!set.allow(&ns, 100), "second attempt short-circuits");
        assert!(set.allow(&ns, 101), "new bucket, new probe");
        assert!(!set.allow(&ns, 101));
    }

    #[test]
    fn successful_probe_closes_the_breaker() {
        let set = BreakerSet::new(BreakerPolicy::default());
        let ns = name("ns1.op.net");
        assert!(tripped(&set, &ns, 50));
        assert!(set.allow(&ns, 51));
        assert!(set.record_success(&ns, 51), "probe success closes");
        assert_eq!(set.open_count(), 0);
        assert!(set.allow(&ns, 51), "closed breaker allows freely");
        assert!(set.allow(&ns, 51));
        // The failure streak reset with the success.
        assert!(!set.record_failure(&ns, 52));
    }

    #[test]
    fn success_on_healthy_authority_is_free() {
        let set = BreakerSet::new(BreakerPolicy::default());
        let ns = name("ns1.op.net");
        assert!(!set.record_success(&ns, 10));
        assert!(set.transitions().is_empty());
    }

    #[test]
    fn breakers_are_independent_per_authority() {
        let set = BreakerSet::new(BreakerPolicy::default());
        let (a, b) = (name("ns1.op.net"), name("ns2.other.net"));
        assert!(tripped(&set, &a, 10));
        assert!(set.allow(&b, 10), "other authority unaffected");
        assert!(set.allow(&b, 10));
        assert_eq!(set.open_count(), 1);
    }

    #[test]
    fn transition_log_records_trip_probe_close_in_order() {
        let set = BreakerSet::new(BreakerPolicy {
            failure_threshold: 2,
            probe_interval_s: 10,
        });
        let ns = name("ns1.op.net");
        set.record_failure(&ns, 100);
        set.record_failure(&ns, 100);
        assert!(set.allow(&ns, 105), "probe in bucket 10");
        assert!(!set.allow(&ns, 109), "same bucket exhausted");
        assert!(set.allow(&ns, 110), "next bucket");
        set.record_success(&ns, 110);
        let kinds: Vec<Transition> =
            set.transitions().iter().map(|e| e.transition).collect();
        assert_eq!(
            kinds,
            vec![
                Transition::Trip,
                Transition::Probe,
                Transition::Probe,
                Transition::Close
            ]
        );
        assert_eq!(set.transitions()[0].at, 100);
        assert_eq!(set.transitions()[3].authority, ns);
    }

    #[test]
    fn zero_policy_values_are_clamped() {
        let set = BreakerSet::new(BreakerPolicy {
            failure_threshold: 0,
            probe_interval_s: 0,
        });
        assert_eq!(set.policy().failure_threshold, 1);
        assert_eq!(set.policy().probe_interval_s, 1);
        let ns = name("ns1.op.net");
        assert!(set.record_failure(&ns, 5), "threshold 1 trips immediately");
        assert!(set.allow(&ns, 5));
        assert!(!set.allow(&ns, 5));
    }
}
