//! The fault-injection plane: everything that can go wrong between a
//! querier and an authoritative server, modelled deterministically.
//!
//! The paper's measurements ran against the real Internet, where scans
//! routinely hit unreachable nameservers, lame delegations, timeouts, and
//! truncated responses. [`FaultPlane`] sits inside
//! [`crate::Network::query_udp`] and injects those failure modes from a
//! seeded deterministic RNG under one global [`FaultProfile`]:
//!
//! * **Drop** — the query (or its response) is lost; the caller times out.
//! * **Delay** — the response arrives late; past the caller's deadline it
//!   is indistinguishable from a drop.
//! * **Truncate** — the response comes back with TC set and empty
//!   sections; the caller must retry over (simulated) TCP.
//! * **ServFail** / **Refused** — the server answers with an error rcode
//!   (overloaded resolver backend, lame delegation).
//! * **Stale** — the answer is served from a frozen copy of the zones as
//!   they were when the fault first fired (an unsynced secondary).
//!
//! Downtime is per nameserver and judged by one clock: every exchange
//! carries its sender's simulated epoch seconds (`now_s`), and a server
//! is down when its kill switch ([`FaultPlane::set_down`]) is set or a
//! scheduled window ([`FaultPlane::schedule_down`]) covers `now_s`. A
//! window hides a server only from exchanges actually sent inside it, so
//! a reader that answers from a cache instead of sending one asks
//! [`FaultPlane::down_at`] which servers an exchange would find down.
//!
//! Determinism: every decision is a pure function of the plane's seed,
//! the (server, qname, qtype) tuple, and a per-tuple attempt counter, so
//! two runs with the same seed produce identical fault sequences.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use dsec_wire::{draw, FnvHashMap, Name};

use crate::authority::Authority;

/// One injected fault for a single simulated UDP exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Query or response lost in transit; the caller times out.
    Drop,
    /// Response delayed by this many milliseconds; if it exceeds the
    /// caller's deadline it becomes a timeout.
    Delay(u32),
    /// Response truncated: TC bit set, sections emptied (RFC 2181 §9).
    Truncate,
    /// The server answers SERVFAIL.
    ServFail,
    /// The server answers REFUSED (lame delegation).
    Refused,
    /// The answer is served from a stale zone copy (unsynced secondary).
    Stale,
}

/// Fault probabilities, drawn from by every server's exchanges.
///
/// Probabilities are evaluated in declaration order against a single
/// uniform draw, so they are mutually exclusive and should sum to ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability a query is dropped (timeout).
    pub drop_prob: f64,
    /// Probability the response is delayed by [`FaultProfile::delay_ms`].
    pub delay_prob: f64,
    /// Injected delay in milliseconds when a delay fires.
    pub delay_ms: u32,
    /// Probability the response is truncated (TC bit).
    pub truncate_prob: f64,
    /// Probability of a SERVFAIL response.
    pub servfail_prob: f64,
    /// Probability of a REFUSED response.
    pub refused_prob: f64,
    /// Probability the answer comes from a stale zone copy.
    pub stale_prob: f64,
}

impl FaultProfile {
    /// The ISSUE's canonical chaos mix: `p` split between drops and
    /// SERVFAILs (e.g. `mixed(0.05)` ≈ 2.5% drops + 2.5% SERVFAIL).
    pub fn mixed(p: f64) -> Self {
        FaultProfile {
            drop_prob: p / 2.0,
            servfail_prob: p / 2.0,
            ..Self::default()
        }
    }

    fn is_zero(&self) -> bool {
        self.drop_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.truncate_prob <= 0.0
            && self.servfail_prob <= 0.0
            && self.refused_prob <= 0.0
            && self.stale_prob <= 0.0
    }

    /// Maps one uniform draw in `[0, 1)` to a fault (or none).
    fn pick(&self, draw: f64) -> Option<Fault> {
        let mut threshold = self.drop_prob;
        if draw < threshold {
            return Some(Fault::Drop);
        }
        threshold += self.delay_prob;
        if draw < threshold {
            return Some(Fault::Delay(self.delay_ms));
        }
        threshold += self.truncate_prob;
        if draw < threshold {
            return Some(Fault::Truncate);
        }
        threshold += self.servfail_prob;
        if draw < threshold {
            return Some(Fault::ServFail);
        }
        threshold += self.refused_prob;
        if draw < threshold {
            return Some(Fault::Refused);
        }
        threshold += self.stale_prob;
        if draw < threshold {
            return Some(Fault::Stale);
        }
        None
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Queries dropped by the drop probability.
    pub drops: u64,
    /// Responses delayed (whether or not they beat the deadline).
    pub delays: u64,
    /// Responses truncated.
    pub truncations: u64,
    /// SERVFAIL responses injected.
    pub servfails: u64,
    /// REFUSED responses injected.
    pub refusals: u64,
    /// Answers served from a stale zone copy.
    pub stale_serves: u64,
    /// Queries dropped because the server was down (kill switch or
    /// scheduled window).
    pub downtime_drops: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.drops
            + self.delays
            + self.truncations
            + self.servfails
            + self.refusals
            + self.stale_serves
            + self.downtime_drops
    }
}

/// Attempt-counter key: the 64-bit draw hash plus the full
/// (server, qname, qtype) triple it was folded from. `Hash` writes only
/// the precomputed fold (cheap), while `Eq` compares the whole triple —
/// so distinct triples that collide in the 64-bit fold get their own
/// counters instead of silently sharing one and skewing draws.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AttemptKey {
    hash: u64,
    server: Name,
    qname: Name,
    qtype: u16,
}

impl std::hash::Hash for AttemptKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Everything the plane holds against one server hostname.
#[derive(Debug, Default)]
struct ServerFaults {
    /// Administratively forced down, whatever the clock says.
    down: bool,
    /// Scheduled down-windows: half-open `[from_s, until_s)` intervals in
    /// simulated epoch seconds, judged against the clock every exchange
    /// carries. Purely declarative — membership is a function of the
    /// exchange's sim clock, so outage behavior is deterministic and
    /// query-order independent.
    windows: Vec<(u32, u32)>,
    /// Scripted outcomes consumed FIFO (deterministic tests).
    script: VecDeque<Fault>,
    /// Stale zone copy, frozen lazily when a Stale fault first fires.
    stale: Option<Rc<Authority>>,
}

impl ServerFaults {
    fn in_window(&self, now_s: u32) -> bool {
        self.windows
            .iter()
            .any(|&(from, until)| now_s >= from && now_s < until)
    }
}

/// The plane's configuration: the profile every server draws from, and
/// one record per server the plane was told something about.
#[derive(Debug, Default)]
struct Servers {
    global: FaultProfile,
    by_name: FnvHashMap<Name, ServerFaults>,
}

/// The fault-injection plane a [`crate::Network`] consults on every
/// simulated packet. Disabled (the default) it adds one flag test to
/// the hot path and changes nothing.
#[derive(Debug, Default)]
pub struct FaultPlane {
    /// Fast-path gate: false ⇒ no record read, no draw made.
    enabled: Cell<bool>,
    seed: Cell<u64>,
    servers: RefCell<Servers>,
    /// Per-(server, qname, qtype) attempt counters: keep each draw
    /// independent of which other queries ran first. Pruned at each
    /// campaign epoch ([`FaultPlane::begin_epoch`]) so multi-day
    /// campaigns don't grow it without bound.
    attempts: RefCell<HashMap<AttemptKey, u32>>,
    stats: Cell<FaultStats>,
}

impl FaultPlane {
    /// A disabled fault plane (the default state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the plane and enables injection. Clears attempt counters and
    /// stale copies so a re-seeded run starts from a clean slate.
    pub fn enable(&self, seed: u64) {
        self.seed.set(seed);
        self.attempts.borrow_mut().clear();
        for server in self.servers.borrow_mut().by_name.values_mut() {
            server.stale = None;
        }
        self.enabled.set(true);
    }

    /// Disables all injection (scripts, profiles and downtime are
    /// retained but dormant).
    pub fn disable(&self) {
        self.enabled.set(false);
    }

    /// Starts a new campaign epoch: prunes the per-(server, qname, qtype)
    /// attempt counters so multi-day campaigns don't accumulate one
    /// counter per triple forever, and so every snapshot re-draws from
    /// attempt 0 (per-snapshot determinism independent of campaign
    /// length). Stale zone copies are retained — a frozen secondary stays
    /// frozen until its fault clears.
    pub fn begin_epoch(&self) {
        self.attempts.borrow_mut().clear();
    }

    /// Whether the plane is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Sets the fault profile every server draws from.
    pub fn set_global_profile(&self, profile: FaultProfile) {
        self.servers.borrow_mut().global = profile;
    }

    /// Edits `ns`'s record (created on first touch; names differing only
    /// in ASCII case are one server).
    fn edit<R>(&self, ns: &Name, f: impl FnOnce(&mut ServerFaults) -> R) -> R {
        let mut servers = self.servers.borrow_mut();
        f(servers.by_name.entry(ns.clone()).or_default())
    }

    /// Forces a server down (or back up) regardless of probabilities.
    pub fn set_down(&self, ns: &Name, down: bool) {
        self.edit(ns, |server| server.down = down);
    }

    /// Schedules a down-window for `ns`: the server times out for every
    /// exchange stamped with `from_s <= now_s < until_s`. Windows
    /// accumulate (a server may go down repeatedly — flapping scenarios
    /// install many windows).
    pub fn schedule_down(&self, ns: &Name, from_s: u32, until_s: u32) {
        if from_s < until_s {
            self.edit(ns, |server| server.windows.push((from_s, until_s)));
        }
    }

    /// Removes all scheduled down-windows.
    pub fn clear_schedules(&self) {
        for server in self.servers.borrow_mut().by_name.values_mut() {
            server.windows.clear();
        }
    }

    /// Queues forced fault outcomes for the next UDP queries to `ns`,
    /// consumed FIFO before any probabilistic draw (deterministic tests:
    /// "drop twice, then answer"). TCP queries do not consume entries.
    pub fn script(&self, ns: &Name, faults: impl IntoIterator<Item = Fault>) {
        self.edit(ns, |server| server.script.extend(faults));
    }

    /// The servers an exchange stamped `now_s` finds down, by kill switch
    /// or by a window covering `now_s`, sorted. Empty while the plane is
    /// disabled.
    pub fn down_at(&self, now_s: u32) -> Vec<Name> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let mut down: Vec<Name> = self
            .servers
            .borrow()
            .by_name
            .iter()
            .filter(|(_, server)| server.down || server.in_window(now_s))
            .map(|(ns, _)| ns.clone())
            .collect();
        down.sort_unstable();
        down
    }

    /// A copy of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.stats.get()
    }

    /// What the plane does to one exchange with `ns` at sim-time `now_s`;
    /// `None` means the exchange is clean. One lookup of `ns`'s record
    /// answers, in order: is the server down (kill switch, or a scheduled
    /// window covering `now_s`)? That is counted as a downtime drop and
    /// reported as [`Fault::Drop`]. Else, for a UDP exchange (`question`
    /// given), is a scripted outcome queued? Else the global profile
    /// decides by a seeded draw. A TCP exchange (`question` absent) sees
    /// downtime only.
    pub(crate) fn intercept(
        &self,
        ns: &Name,
        now_s: u32,
        question: Option<(&Name, u16)>,
    ) -> Option<Fault> {
        if !self.is_enabled() {
            return None;
        }
        let (profile, scripted) = {
            let servers = self.servers.borrow();
            let server = servers.by_name.get(ns);
            if server.is_some_and(|s| s.down || s.in_window(now_s)) {
                self.stats.update(|mut stats| {
                    stats.downtime_drops += 1;
                    stats
                });
                return Some(Fault::Drop);
            }
            (servers.global, server.is_some_and(|s| !s.script.is_empty()))
        };
        let (qname, qtype) = question?;
        if scripted {
            // Rare (tests only), so the pop looks the record up again.
            if let Some(fault) = self.edit(ns, |server| server.script.pop_front()) {
                self.count(fault);
                return Some(fault);
            }
        }
        if profile.is_zero() {
            return None;
        }
        // Key the draw on (server, qname, qtype, attempt#): identical
        // across runs whatever other queries ran in between.
        let mut hash = fnv1a_name(ns, 0xF0_17);
        hash = fnv1a_name(qname, hash);
        hash = fnv1a(&qtype.to_be_bytes(), hash);
        let key = AttemptKey {
            hash,
            server: ns.clone(),
            qname: qname.clone(),
            qtype,
        };
        let attempt = {
            let mut attempts = self.attempts.borrow_mut();
            let counter = attempts.entry(key).or_insert(0);
            let current = *counter;
            *counter += 1;
            current
        };
        let bits = draw(
            self.seed.get(),
            hash ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // The top 53 bits as a uniform draw in [0, 1).
        let fault = profile.pick((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64))?;
        self.count(fault);
        Some(fault)
    }

    /// The stale authority for `ns`, freezing a copy of `live`'s zones on
    /// first use (the secondary stopped syncing when the fault began).
    pub(crate) fn stale_authority(&self, ns: &Name, live: &Authority) -> Rc<Authority> {
        self.edit(ns, |server| {
            server
                .stale
                .get_or_insert_with(|| Rc::new(live.snapshot()))
                .clone()
        })
    }

    fn count(&self, fault: Fault) {
        self.stats.update(|mut stats| {
            *match fault {
                Fault::Drop => &mut stats.drops,
                Fault::Delay(_) => &mut stats.delays,
                Fault::Truncate => &mut stats.truncations,
                Fault::ServFail => &mut stats.servfails,
                Fault::Refused => &mut stats.refusals,
                Fault::Stale => &mut stats.stale_serves,
            } += 1;
            stats
        });
    }
}

/// [`fnv1a_fold`] over a slice.
fn fnv1a(bytes: &[u8], state: u64) -> u64 {
    fnv1a_fold(bytes.iter().copied(), state)
}

/// [`fnv1a`] over `name`'s canonical wire form — lowercased labels with
/// their length octets, then the terminating zero — folded straight
/// from the labels, so the per-exchange draw allocates nothing.
fn fnv1a_name(name: &Name, state: u64) -> u64 {
    let flat = name.labels().flat_map(|label| {
        std::iter::once(label.len() as u8).chain(label.iter().map(u8::to_ascii_lowercase))
    });
    fnv1a_fold(flat.chain(std::iter::once(0)), state)
}

/// FNV-1a over a byte stream, chained from `state`.
fn fnv1a_fold(bytes: impl Iterator<Item = u8>, state: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ state.wrapping_mul(0x100_0000_01b3);
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// The parts of the one question the query path asks, by name.
    impl FaultPlane {
        /// Whether an exchange with `ns` at `now_s` finds it down; the
        /// plane's list of downed servers must agree.
        fn is_down(&self, ns: &Name, now_s: u32) -> bool {
            let down = self.intercept(ns, now_s, None).is_some();
            assert_eq!(self.down_at(now_s).contains(ns), down, "{ns} at {now_s}");
            down
        }

        fn decide(&self, ns: &Name, qname: &Name, qtype: u16) -> Option<Fault> {
            self.intercept(ns, 0, Some((qname, qtype)))
        }
    }

    #[test]
    fn name_fold_hashes_the_canonical_wire_form() {
        for spelled in ["NS1.Op.NET", "ns1.op.net", "x.Example.com", "."] {
            let spelled = name(spelled);
            for seed in [0, 0xF0_17, 0x1F1A9, u64::MAX] {
                assert_eq!(
                    fnv1a_name(&spelled, seed),
                    fnv1a(&spelled.to_canonical_wire(), seed),
                    "{spelled} from {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn disabled_plane_injects_nothing() {
        let plane = FaultPlane::new();
        plane.set_global_profile(FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::default()
        });
        // Not enabled → profile dormant.
        assert_eq!(plane.decide(&name("ns1.op.net"), &name("x.com"), 1), None);
        assert!(!plane.is_down(&name("ns1.op.net"), 0));
        assert_eq!(plane.stats().total(), 0);
    }

    #[test]
    fn certain_drop_fires_every_time() {
        let plane = FaultPlane::new();
        plane.enable(42);
        plane.set_global_profile(FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::default()
        });
        for _ in 0..5 {
            assert_eq!(
                plane.decide(&name("ns1.op.net"), &name("x.com"), 1),
                Some(Fault::Drop)
            );
        }
        assert_eq!(plane.stats().drops, 5);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<Option<Fault>> {
            let plane = FaultPlane::new();
            plane.enable(seed);
            plane.set_global_profile(FaultProfile::mixed(0.5));
            (0..64)
                .map(|i| plane.decide(&name("ns1.op.net"), &name(&format!("d{i}.com")), 1))
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds give different faults");
    }

    #[test]
    fn per_key_attempts_are_interleaving_independent() {
        // Two planes, same seed: querying A,B,A vs B,A,A must give each
        // (key, attempt) pair the same outcome.
        let plane1 = FaultPlane::new();
        let plane2 = FaultPlane::new();
        for plane in [&plane1, &plane2] {
            plane.enable(99);
            plane.set_global_profile(FaultProfile::mixed(0.6));
        }
        let ns = name("ns1.op.net");
        let a = name("a.com");
        let b = name("b.com");
        let mut out1 = vec![
            ("a0", plane1.decide(&ns, &a, 1)),
            ("b0", plane1.decide(&ns, &b, 1)),
            ("a1", plane1.decide(&ns, &a, 1)),
        ];
        let mut out2 = vec![
            ("b0", plane2.decide(&ns, &b, 1)),
            ("a0", plane2.decide(&ns, &a, 1)),
            ("a1", plane2.decide(&ns, &a, 1)),
        ];
        out1.sort_by_key(|(k, _)| *k);
        out2.sort_by_key(|(k, _)| *k);
        assert_eq!(out1, out2);
    }

    #[test]
    fn begin_epoch_prunes_counters_and_replays_draws() {
        let plane = FaultPlane::new();
        plane.enable(42);
        plane.set_global_profile(FaultProfile::mixed(0.5));
        let ns = name("ns1.op.net");
        let ask = |p: &FaultPlane| -> Vec<Option<Fault>> {
            (0..16)
                .map(|i| p.decide(&ns, &name(&format!("d{}.com", i % 4)), 48))
                .collect()
        };
        let first = ask(&plane);
        assert_eq!(plane.attempts.borrow().len(), 4, "one counter per triple");
        plane.begin_epoch();
        assert!(plane.attempts.borrow().is_empty(), "epoch prunes counters");
        // A fresh epoch re-draws from attempt 0: the sequence replays.
        assert_eq!(ask(&plane), first);
    }

    #[test]
    fn colliding_attempt_hashes_keep_separate_counters() {
        // Two distinct triples forced onto the same 64-bit hash must not
        // share a HashMap slot: Eq compares the full triple.
        let a = AttemptKey {
            hash: 0xDEAD_BEEF,
            server: name("ns1.op.net"),
            qname: name("a.com"),
            qtype: 48,
        };
        let b = AttemptKey {
            hash: 0xDEAD_BEEF,
            server: name("ns2.op.net"),
            qname: name("b.com"),
            qtype: 1,
        };
        assert_ne!(a, b);
        let mut counters: HashMap<AttemptKey, u32> = HashMap::new();
        *counters.entry(a).or_insert(0) += 1;
        *counters.entry(b).or_insert(0) += 1;
        assert_eq!(counters.len(), 2);
    }

    #[test]
    fn scripts_run_before_probabilities() {
        let plane = FaultPlane::new();
        plane.enable(1);
        let ns = name("ns1.op.net");
        plane.script(&ns, [Fault::Drop, Fault::Truncate]);
        assert_eq!(plane.decide(&ns, &name("x.com"), 1), Some(Fault::Drop));
        assert_eq!(plane.decide(&ns, &name("x.com"), 1), Some(Fault::Truncate));
        // Queue drained, zero profile → clean.
        assert_eq!(plane.decide(&ns, &name("x.com"), 1), None);
    }

    #[test]
    fn kill_switch_marks_server_down_at_any_clock() {
        let plane = FaultPlane::new();
        plane.enable(5);
        let ns = name("ns1.op.net");
        assert!(!plane.is_down(&ns, 0));
        plane.set_down(&ns, true);
        assert!(plane.is_down(&ns, 0));
        assert!(plane.is_down(&ns, u32::MAX));
        plane.set_down(&ns, false);
        assert!(!plane.is_down(&ns, 0));
    }

    #[test]
    fn scheduled_windows_are_half_open_and_accumulate() {
        let plane = FaultPlane::new();
        plane.enable(9);
        let ns = name("ns1.op.net");
        plane.schedule_down(&ns, 100, 200);
        plane.schedule_down(&ns, 300, 400);
        plane.schedule_down(&ns, 500, 400); // empty interval ignored
        assert!(!plane.is_down(&ns, 99));
        assert!(plane.is_down(&ns, 100), "start inclusive");
        assert!(plane.is_down(&ns, 199));
        assert!(!plane.is_down(&ns, 200), "end exclusive");
        assert!(plane.is_down(&ns, 350), "second window");
        assert!(!plane.is_down(&ns, 450));
        assert_eq!(plane.stats().downtime_drops, 3);
        plane.clear_schedules();
        assert!(!plane.is_down(&ns, 150));
    }

    #[test]
    fn disabled_plane_ignores_windows() {
        let plane = FaultPlane::new();
        let ns = name("ns1.op.net");
        plane.schedule_down(&ns, 0, 1000);
        assert!(!plane.is_down(&ns, 500), "dormant plane injects nothing");
        assert_eq!(plane.stats().downtime_drops, 0);
    }

    #[test]
    fn every_setter_reaches_the_record_the_query_path_reads_in_any_spelling() {
        let spellings = [name("ns1.op.net"), name("NS1.Op.NET")];
        type Setter<'a> = &'a dyn Fn(&FaultPlane, &Name);
        let rows: [(&str, Setter); 3] = [
            ("set_down", &|p, ns| p.set_down(ns, true)),
            ("schedule_down", &|p, ns| p.schedule_down(ns, 0, 100)),
            ("script", &|p, ns| p.script(ns, [Fault::Drop])),
        ];
        for (setter, configure) in rows {
            for (set_as, asked_as) in [(0, 1), (1, 0)] {
                let plane = FaultPlane::new();
                plane.enable(3);
                configure(&plane, &spellings[set_as]);
                let hit = plane.intercept(&spellings[asked_as], 50, Some((&name("x.com"), 1)));
                assert_eq!(hit, Some(Fault::Drop), "{setter} as {}", spellings[set_as]);
                assert_eq!(
                    plane.servers.borrow().by_name.len(),
                    1,
                    "{setter}: one record"
                );
            }
        }
    }

    #[test]
    fn profile_pick_respects_ordering() {
        let profile = FaultProfile {
            drop_prob: 0.1,
            delay_prob: 0.1,
            delay_ms: 700,
            truncate_prob: 0.1,
            servfail_prob: 0.1,
            refused_prob: 0.1,
            stale_prob: 0.1,
        };
        assert_eq!(profile.pick(0.05), Some(Fault::Drop));
        assert_eq!(profile.pick(0.15), Some(Fault::Delay(700)));
        assert_eq!(profile.pick(0.25), Some(Fault::Truncate));
        assert_eq!(profile.pick(0.35), Some(Fault::ServFail));
        assert_eq!(profile.pick(0.45), Some(Fault::Refused));
        assert_eq!(profile.pick(0.55), Some(Fault::Stale));
        assert_eq!(profile.pick(0.65), None);
    }
}
