//! Scheduled key-rollover lifecycles: styles, timing plans, and the
//! phase machine the daily tick drives — the one way to roll a zone's
//! keys on purpose ([`crate::world::World::roll_keys_abrupt`] models the
//! misconfiguration, not a plan).
//!
//! Transitions — the ones Osterweil et al. measure across 15 years of
//! deployed DNSSEC — are *schedules*: publish new material, wait for
//! propagation, move the parent DS, withdraw the old material. The DS
//! moves through the registrar, or in-band through the child's CDS
//! ([`DsTiming::Cds`]). Every leg can be mistimed, and the
//! registrar/registry leg (the paper's chokepoint) is the one the child
//! cannot hurry.
//!
//! A [`RolloverPlan`] pins the whole schedule to calendar days, so the
//! bogus window a mistimed DS swap opens is *computable in advance* and
//! the traffic plane can be checked against it day by day.

use crate::clock::SimDate;

/// Which rollover choreography the operator runs (RFC 6781 §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RolloverStyle {
    /// Pre-publish ZSK rollover: the incoming ZSK is published one
    /// propagation interval before it signs; the KSK — and therefore the
    /// parent DS — never changes.
    PrePublishZsk,
    /// Double-signature KSK rollover: both generations are published and
    /// both sign until the old set retires, so the DS may move at any
    /// point inside the window without a bogus moment.
    DoubleSignatureKsk,
    /// Algorithm rollover (RFC 6781 §4.1.4), run conservatively in the
    /// double-signature shape: the new generation uses a different
    /// signing algorithm.
    Algorithm,
}

impl RolloverStyle {
    /// Whether this style moves the parent DS (and therefore crosses the
    /// registrar/registry leg at all).
    pub fn changes_ds(&self) -> bool {
        !matches!(self, RolloverStyle::PrePublishZsk)
    }

    /// Short human label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RolloverStyle::PrePublishZsk => "pre-publish ZSK",
            RolloverStyle::DoubleSignatureKsk => "double-signature KSK",
            RolloverStyle::Algorithm => "algorithm",
        }
    }
}

/// Who moves the DS and when, relative to the plan's scheduled swap day
/// — the timing-fault plane for the DS leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsTiming {
    /// The registrar performs the swap on the scheduled day.
    OnSchedule,
    /// The registrar jumps the gun: the DS moves `days` before schedule.
    /// Landing before the zone serves the new keys opens a bogus window.
    Early {
        /// How many days early.
        days: u32,
    },
    /// The registrar sits on the request: the DS moves `days` after
    /// schedule. Landing after the old keys retire opens a bogus window.
    Late {
        /// How many days late.
        days: u32,
    },
    /// The request is dropped (the paper's §7 relay failure): the DS
    /// never moves, and the domain goes bogus at completion forever.
    Never,
    /// No registrar acts (RFC 7344, the paper's §8): on the scheduled swap
    /// day the zone gains a CDS for the incoming KSK, signed by keys the
    /// parent's DS still chains, and the registry's CDS scan moves the DS
    /// in the same tick. The old keys retire only once the parent holds the
    /// new DS, so on a registry that does not scan the roll stays in flight.
    Cds,
}

/// Where a scheduled rollover currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloverPhase {
    /// Scheduled but the start day has not arrived.
    Scheduled,
    /// The transitional key material is being served (double-signature or
    /// pre-publish set).
    Prepared,
    /// The parent DS points at the new keys and the zone still serves
    /// the transitional set.
    DsSwapped,
    /// Old material withdrawn; the rollover is finished.
    Completed,
}

/// A complete, day-pinned rollover schedule for one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloverPlan {
    /// The choreography.
    pub style: RolloverStyle,
    /// Day the operator starts serving the transitional key set.
    pub start: SimDate,
    /// Propagation interval: the DS swap is *scheduled* for
    /// `start + prepare_days` (time for caches to see the new DNSKEYs).
    pub prepare_days: u32,
    /// Retirement interval: old material is withdrawn at
    /// `scheduled_swap + retire_days`, rollover complete.
    pub retire_days: u32,
    /// What the registrar actually does on the DS leg.
    pub ds_timing: DsTiming,
    /// Bounded RRSIG validity (days) while the rollover is in flight.
    /// `None` keeps the world's long default; `Some(v)` means a stalled
    /// operator's signatures genuinely expire after `v` days and the
    /// domain goes bogus for real.
    pub signature_validity_days: Option<u32>,
}

impl RolloverPlan {
    /// A correctly sequenced plan: DS on schedule, default propagation
    /// and retirement intervals, unbounded signature validity.
    pub fn correct(style: RolloverStyle, start: SimDate) -> Self {
        RolloverPlan {
            style,
            start,
            prepare_days: 3,
            retire_days: 3,
            ds_timing: DsTiming::OnSchedule,
            signature_validity_days: None,
        }
    }

    /// The same plan with a different DS timing.
    pub fn with_ds_timing(mut self, timing: DsTiming) -> Self {
        self.ds_timing = timing;
        self
    }

    /// The same plan with bounded signature validity.
    pub fn with_signature_validity_days(mut self, days: u32) -> Self {
        self.signature_validity_days = Some(days);
        self
    }

    /// The day the DS swap is scheduled for.
    pub fn scheduled_swap(&self) -> SimDate {
        self.start.plus_days(self.prepare_days)
    }

    /// The day the old material retires and the rollover completes.
    pub fn completion(&self) -> SimDate {
        self.scheduled_swap().plus_days(self.retire_days)
    }

    /// The day the DS actually moves under this plan's [`DsTiming`]
    /// (`None` when it never moves, or when the style has no DS leg).
    pub fn actual_swap(&self) -> Option<SimDate> {
        if !self.style.changes_ds() {
            return None;
        }
        match self.ds_timing {
            DsTiming::OnSchedule | DsTiming::Cds => Some(self.scheduled_swap()),
            DsTiming::Early { days } => Some(SimDate(self.scheduled_swap().0.saturating_sub(days))),
            DsTiming::Late { days } => Some(self.scheduled_swap().plus_days(days)),
            DsTiming::Never => None,
        }
    }

    /// The bogus window this plan opens, as a half-open day interval
    /// `[from, until)`; `until = None` means it never closes. `None`
    /// overall means the plan is safe: every day validates.
    ///
    /// The window is pure arithmetic because the operator side runs on
    /// schedule regardless of the DS leg: the transitional set serves
    /// from `start`, old material retires at `completion()`. A DS
    /// pointing at the new keys before `start`, or at the old keys from
    /// `completion()` on, fails validation.
    pub fn bogus_window(&self) -> Option<(SimDate, Option<SimDate>)> {
        if !self.style.changes_ds() {
            // No DS leg; pre-publish hazards are TTL-scale, below the
            // one-day tick resolution.
            return None;
        }
        match self.actual_swap() {
            None => Some((self.completion(), None)),
            Some(t) if t < self.start => Some((t, Some(self.start))),
            Some(t) if t <= self.completion() => None,
            Some(t) => Some((self.completion(), Some(t))),
        }
    }

    /// Whether `day` falls inside the plan's bogus window.
    pub fn is_bogus_on(&self, day: SimDate) -> bool {
        match self.bogus_window() {
            None => false,
            Some((from, None)) => day >= from,
            Some((from, Some(until))) => day >= from && day < until,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(timing: DsTiming) -> RolloverPlan {
        RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, SimDate(100))
            .with_ds_timing(timing)
    }

    #[test]
    fn schedule_arithmetic() {
        let p = plan(DsTiming::OnSchedule);
        assert_eq!(p.scheduled_swap(), SimDate(103));
        assert_eq!(p.completion(), SimDate(106));
        assert_eq!(p.actual_swap(), Some(SimDate(103)));
        assert_eq!(p.bogus_window(), None);
        assert_eq!(plan(DsTiming::Cds).actual_swap(), Some(SimDate(103)));
        assert_eq!(plan(DsTiming::Cds).bogus_window(), None);
    }

    #[test]
    fn early_swap_inside_window_is_safe() {
        // 2 days early still lands after `start` (double-signature serves
        // both generations) — no bogus day.
        assert_eq!(plan(DsTiming::Early { days: 2 }).bogus_window(), None);
        // Swap exactly on the start day: safe.
        assert_eq!(plan(DsTiming::Early { days: 3 }).bogus_window(), None);
    }

    #[test]
    fn too_early_swap_opens_window_until_start() {
        let p = plan(DsTiming::Early { days: 5 });
        assert_eq!(p.bogus_window(), Some((SimDate(98), Some(SimDate(100)))));
        assert!(!p.is_bogus_on(SimDate(97)));
        assert!(p.is_bogus_on(SimDate(98)));
        assert!(p.is_bogus_on(SimDate(99)));
        assert!(
            !p.is_bogus_on(SimDate(100)),
            "zone serves both sets from start"
        );
    }

    #[test]
    fn late_swap_opens_window_from_completion() {
        // 3 days late = exactly the completion day: still safe.
        assert_eq!(plan(DsTiming::Late { days: 3 }).bogus_window(), None);
        let p = plan(DsTiming::Late { days: 7 });
        assert_eq!(p.bogus_window(), Some((SimDate(106), Some(SimDate(110)))));
        assert!(p.is_bogus_on(SimDate(106)));
        assert!(p.is_bogus_on(SimDate(109)));
        assert!(!p.is_bogus_on(SimDate(110)), "DS finally lands");
    }

    #[test]
    fn never_swapped_is_bogus_forever_after_completion() {
        let p = plan(DsTiming::Never);
        assert_eq!(p.bogus_window(), Some((SimDate(106), None)));
        assert!(!p.is_bogus_on(SimDate(105)));
        assert!(p.is_bogus_on(SimDate(106)));
        assert!(p.is_bogus_on(SimDate(10_000)));
    }

    #[test]
    fn zsk_prepublish_has_no_ds_leg() {
        let p = RolloverPlan::correct(RolloverStyle::PrePublishZsk, SimDate(50))
            .with_ds_timing(DsTiming::Never);
        assert!(!p.style.changes_ds());
        assert_eq!(p.actual_swap(), None);
        assert_eq!(p.bogus_window(), None, "no DS to mistime");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RolloverStyle::Algorithm.label(), "algorithm");
        assert!(RolloverStyle::Algorithm.changes_ds());
        assert_eq!(RolloverStyle::PrePublishZsk.label(), "pre-publish ZSK");
    }
}
