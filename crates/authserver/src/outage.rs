//! Declarative outage scenarios on top of the [`FaultPlane`].
//!
//! An [`OutageScenario`] is a named set of scheduled down-windows —
//! which servers, from when, until when, in simulated epoch seconds.
//! Installing one translates it into [`FaultPlane::schedule_down`]
//! windows, which every exchange consults against the sim-time it is
//! stamped with ([`crate::Network::query_udp`]'s `now_s`). Because window
//! membership is a pure function of the exchange's sim clock, a scenario
//! plays back identically run-to-run: there is no RNG, no wall clock, and
//! no shared mutable schedule state on the query path.
//!
//! Two constructors cover the shapes the robustness experiments exercise:
//! one sustained correlated window over a server set
//! ([`OutageScenario::operator_outage`] — an operator's fleet, or a
//! registry's for a TLD-wide outage), and correlated flapping
//! ([`OutageScenario::flapping`]).

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

/// A named, declarative outage: a list of windows installed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageScenario {
    /// Scenario label, used in experiment artifacts.
    pub name: String,
    /// The scheduled windows.
    pub windows: Vec<OutageWindow>,
}

impl OutageScenario {
    /// A sustained outage of one fleet: every server in `fleet` (an
    /// operator's, or a TLD registry's) is down for `[from_s, until_s)`.
    pub fn operator_outage(
        name: impl Into<String>,
        fleet: Vec<Name>,
        from_s: u32,
        until_s: u32,
    ) -> Self {
        OutageScenario {
            name: name.into(),
            windows: vec![OutageWindow {
                servers: fleet,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Whether an exchange with `ns` at `now_s` finds it down.
    fn down_at(plane: &FaultPlane, ns: &Name, now_s: u32) -> bool {
        plane.intercept(ns, now_s, None).is_some()
    }

    #[test]
    fn operator_outage_installs_one_window_per_server() {
        let plane = FaultPlane::new();
        plane.enable(1);
        let fleet = vec![name("ns1.op.net"), name("ns2.op.net")];
        OutageScenario::operator_outage("op-down", fleet.clone(), 100, 400).install(&plane);
        for ns in &fleet {
            assert!(!down_at(&plane, ns, 99));
            assert!(down_at(&plane, ns, 100));
            assert!(down_at(&plane, ns, 399));
            assert!(!down_at(&plane, ns, 400));
        }
    }

    #[test]
    fn flapping_generates_cycles() {
        let scenario = OutageScenario::flapping("flap", vec![name("ns1.op.net")], 1000, 60, 40, 3);
        assert_eq!(scenario.windows.len(), 3);
        assert_eq!(scenario.windows[0].from_s, 1000);
        assert_eq!(scenario.windows[0].until_s, 1060);
        assert_eq!(scenario.windows[1].from_s, 1100);
        assert_eq!(scenario.windows[2].from_s, 1200);
        assert_eq!(scenario.windows[2].until_s, 1260);
        let plane = FaultPlane::new();
        plane.enable(1);
        scenario.install(&plane);
        let ns = name("ns1.op.net");
        assert!(down_at(&plane, &ns, 1030), "down in cycle 0");
        assert!(!down_at(&plane, &ns, 1070), "up between cycles");
        assert!(down_at(&plane, &ns, 1130), "down in cycle 1");
        assert!(!down_at(&plane, &ns, 1260), "up after the last cycle");
    }
}
