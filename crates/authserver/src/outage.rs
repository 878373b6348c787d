//! Declarative outage scenarios on top of the [`FaultPlane`].
//!
//! An [`OutageScenario`] is a named set of scheduled down-windows —
//! which servers, from when, until when, in simulated epoch seconds.
//! Installing one translates it into [`FaultPlane::schedule_down`]
//! windows, which queries stamped with their sim-time
//! ([`crate::Network::query_udp`] with `now_s`) consult. Because window membership
//! is a pure function of the query's sim clock, a scenario plays back
//! identically run-to-run: there is no
//! RNG, no wall clock, and no shared mutable schedule state on the query
//! path.
//!
//! Constructors cover the shapes the robustness experiments exercise:
//! a sustained single-operator outage ([`OutageScenario::operator_outage`]),
//! an arbitrary correlated window over any server set
//! ([`OutageScenario::window`] — a TLD-wide outage is just the registry
//! fleet), and correlated flapping ([`OutageScenario::flapping`]).

use dsec_wire::Name;

use crate::faults::FaultPlane;

/// One correlated down-window: every listed server is unreachable for
/// `[from_s, until_s)` of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageWindow {
    /// Nameserver hostnames down during the window.
    pub servers: Vec<Name>,
    /// Window start, simulated epoch seconds (inclusive).
    pub from_s: u32,
    /// Window end, simulated epoch seconds (exclusive).
    pub until_s: u32,
}

impl OutageWindow {
    /// The window's duration in seconds (0 for an empty interval).
    pub fn duration_s(&self) -> u32 {
        self.until_s.saturating_sub(self.from_s)
    }

    /// Whether simulated time `t` falls inside the half-open window.
    pub fn contains(&self, t: u32) -> bool {
        t >= self.from_s && t < self.until_s
    }
}

/// A named, declarative outage: a list of windows installed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageScenario {
    /// Scenario label, used in experiment artifacts.
    pub name: String,
    /// The scheduled windows.
    pub windows: Vec<OutageWindow>,
}

impl OutageScenario {
    /// A sustained outage of one operator's whole fleet: every server in
    /// `fleet` is down for `[from_s, until_s)`.
    pub fn operator_outage(
        name: impl Into<String>,
        fleet: Vec<Name>,
        from_s: u32,
        until_s: u32,
    ) -> Self {
        Self::window(name, fleet, from_s, until_s)
    }

    /// A single correlated window over an arbitrary server set (e.g. a
    /// TLD registry fleet for a TLD-wide outage).
    pub fn window(name: impl Into<String>, servers: Vec<Name>, from_s: u32, until_s: u32) -> Self {
        OutageScenario {
            name: name.into(),
            windows: vec![OutageWindow {
                servers,
                from_s,
                until_s,
            }],
        }
    }

    /// Correlated flapping: starting at `from_s`, the whole server set
    /// cycles `down_s` seconds down then `up_s` seconds up, `cycles`
    /// times — the degenerate sustained case with recovery gaps.
    pub fn flapping(
        name: impl Into<String>,
        servers: Vec<Name>,
        from_s: u32,
        down_s: u32,
        up_s: u32,
        cycles: u32,
    ) -> Self {
        let mut windows = Vec::with_capacity(cycles as usize);
        let period = down_s.saturating_add(up_s);
        for cycle in 0..cycles {
            let start = from_s.saturating_add(period.saturating_mul(cycle));
            windows.push(OutageWindow {
                servers: servers.clone(),
                from_s: start,
                until_s: start.saturating_add(down_s),
            });
        }
        OutageScenario {
            name: name.into(),
            windows,
        }
    }

    /// Translates the scenario into scheduled down-windows on `plane`.
    /// Idempotent only if the scenario was not installed before — callers
    /// re-running scenarios should [`FaultPlane::clear_schedules`] first.
    pub fn install(&self, plane: &FaultPlane) {
        for window in &self.windows {
            for ns in &window.servers {
                plane.schedule_down(ns, window.from_s, window.until_s);
            }
        }
    }

    /// Earliest window start (0 when the scenario has no windows).
    pub fn starts_at(&self) -> u32 {
        self.windows.iter().map(|w| w.from_s).min().unwrap_or(0)
    }

    /// Latest window end (0 when the scenario has no windows).
    pub fn ends_at(&self) -> u32 {
        self.windows.iter().map(|w| w.until_s).max().unwrap_or(0)
    }

    /// Whether any window is active at simulated time `t` — lets a
    /// campaign align load phases with the scenario (e.g. "does this
    /// rollover day overlap the outage?") without re-deriving window
    /// arithmetic.
    pub fn active_at(&self, t: u32) -> bool {
        self.windows.iter().any(|w| w.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn operator_outage_installs_one_window_per_server() {
        let plane = FaultPlane::new();
        let fleet = vec![name("ns1.op.net"), name("ns2.op.net")];
        let scenario = OutageScenario::operator_outage("op-down", fleet.clone(), 100, 400);
        scenario.install(&plane);
        for ns in &fleet {
            assert!(plane.scheduled_down(ns, 100));
            assert!(plane.scheduled_down(ns, 399));
            assert!(!plane.scheduled_down(ns, 400));
        }
        assert_eq!(scenario.starts_at(), 100);
        assert_eq!(scenario.ends_at(), 400);
        assert_eq!(scenario.windows[0].duration_s(), 300);
        assert!(scenario.windows[0].contains(100));
        assert!(!scenario.windows[0].contains(400));
        assert!(scenario.active_at(250));
        assert!(!scenario.active_at(99));
    }

    #[test]
    fn active_at_spans_gaps_between_flap_cycles() {
        let scenario = OutageScenario::flapping("flap", vec![name("ns1.op.net")], 1000, 60, 40, 2);
        assert!(scenario.active_at(1030), "first down window");
        assert!(!scenario.active_at(1070), "up gap is not active");
        assert!(scenario.active_at(1130), "second down window");
        assert!(!scenario.active_at(1160), "after the last window");
    }

    #[test]
    fn flapping_generates_cycles() {
        let scenario = OutageScenario::flapping("flap", vec![name("ns1.op.net")], 1000, 60, 40, 3);
        assert_eq!(scenario.windows.len(), 3);
        assert_eq!(scenario.windows[0].from_s, 1000);
        assert_eq!(scenario.windows[0].until_s, 1060);
        assert_eq!(scenario.windows[1].from_s, 1100);
        assert_eq!(scenario.windows[2].from_s, 1200);
        assert_eq!(scenario.ends_at(), 1260);
        let plane = FaultPlane::new();
        scenario.install(&plane);
        let ns = name("ns1.op.net");
        assert!(plane.scheduled_down(&ns, 1030), "down in cycle 0");
        assert!(!plane.scheduled_down(&ns, 1070), "up between cycles");
        assert!(plane.scheduled_down(&ns, 1130), "down in cycle 1");
    }
}
