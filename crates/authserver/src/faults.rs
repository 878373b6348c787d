//! The fault-injection plane: everything that can go wrong between a
//! querier and an authoritative server, modelled deterministically.
//!
//! The paper's measurements ran against the real Internet, where scans
//! routinely hit unreachable nameservers, lame delegations, timeouts, and
//! truncated responses. [`FaultPlane`] sits inside
//! [`crate::Network::query_udp`] and injects those failure modes —
//! per-nameserver or globally — from a seeded deterministic RNG:
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
//! Determinism: every decision is a pure function of the plane's seed,
//! the (server, qname, qtype) tuple, and a per-tuple attempt counter, so
//! two runs with the same seed produce identical fault sequences.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dsec_wire::{FnvHashMap, Name};

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

/// Fault probabilities for one scope (global or per-server).
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
    /// A profile that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

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

/// A periodic up/down schedule over simulation days: the server is down
/// for `down_days` out of every `up_days + down_days`, offset by `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// Consecutive days the server is up in each period.
    pub up_days: u32,
    /// Consecutive days the server is down in each period.
    pub down_days: u32,
    /// Offset into the period on day 0 (derived from the hostname when
    /// installed via [`FaultPlane::flap_server`], so a fleet of flapping
    /// servers does not blink in unison).
    pub phase: u32,
}

impl FlapSchedule {
    /// Whether the schedule has the server down on `day`.
    pub fn is_down(&self, day: u32) -> bool {
        let period = self.up_days + self.down_days;
        if period == 0 {
            return false;
        }
        (day.wrapping_add(self.phase)) % period >= self.up_days
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Default)]
struct FaultCounters {
    drops: AtomicU64,
    delays: AtomicU64,
    truncations: AtomicU64,
    servfails: AtomicU64,
    refusals: AtomicU64,
    stale_serves: AtomicU64,
    downtime_drops: AtomicU64,
}

/// A point-in-time copy of the fault counters.
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
    /// Queries dropped because the server was down (flap or kill switch).
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
    /// Override of the global profile.
    profile: Option<FaultProfile>,
    flap: Option<FlapSchedule>,
    /// Administratively forced down.
    down: bool,
    /// Scheduled down-windows: half-open `[from_s, until_s)` intervals in
    /// simulated epoch seconds, seen only by queries that carry their sim
    /// clock ([`crate::Network::query_udp`] with `now_s`). Purely
    /// declarative — membership is a function of the query's sim clock,
    /// so outage behavior is deterministic and thread-order independent.
    windows: Vec<(u32, u32)>,
    /// Scripted outcomes consumed FIFO (deterministic tests).
    script: VecDeque<Fault>,
    /// Stale zone copy, frozen lazily when a Stale fault first fires.
    stale: Option<Arc<Authority>>,
}

impl ServerFaults {
    fn in_window(&self, now_s: u32) -> bool {
        self.windows
            .iter()
            .any(|&(from, until)| now_s >= from && now_s < until)
    }
}

/// The plane's configuration: one record per server, next to the
/// profile of every server that has no override.
#[derive(Debug, Default)]
struct Servers {
    global: FaultProfile,
    by_name: FnvHashMap<Name, ServerFaults>,
}

/// The fault-injection plane a [`crate::Network`] consults on every
/// simulated packet. Disabled (the default) it adds one atomic load to
/// the hot path and changes nothing.
#[derive(Debug, Default)]
pub struct FaultPlane {
    /// Fast-path gate: false ⇒ no locks taken, no RNG consumed.
    enabled: AtomicBool,
    seed: AtomicU64,
    /// Current simulation day, advanced by the world tick (flapping).
    day: AtomicU32,
    servers: RwLock<Servers>,
    /// Per-(server, qname, qtype) attempt counters: make draws
    /// independent of cross-thread query interleaving. Pruned at each
    /// campaign epoch ([`FaultPlane::begin_epoch`]) so multi-day
    /// campaigns don't grow it without bound.
    attempts: Mutex<HashMap<AttemptKey, u32>>,
    counters: FaultCounters,
}

impl FaultPlane {
    /// A disabled fault plane (the default state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the plane and enables injection. Clears attempt counters and
    /// stale copies so a re-seeded run starts from a clean slate.
    pub fn enable(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        self.attempts.lock().clear();
        for server in self.servers.write().by_name.values_mut() {
            server.stale = None;
        }
        self.enabled.store(true, Ordering::Release);
    }

    /// Disables all injection (scripts, profiles, and flaps are retained
    /// but dormant).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Starts a new campaign epoch: prunes the per-(server, qname, qtype)
    /// attempt counters so multi-day campaigns don't accumulate one
    /// counter per triple forever, and so every snapshot re-draws from
    /// attempt 0 (per-snapshot determinism independent of campaign
    /// length). Stale zone copies are retained — a frozen secondary stays
    /// frozen until its fault clears.
    pub fn begin_epoch(&self) {
        self.attempts.lock().clear();
    }

    /// Whether the plane is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Sets the fault profile applied to every server without a
    /// per-server override.
    pub fn set_global_profile(&self, profile: FaultProfile) {
        self.servers.write().global = profile;
    }

    /// Edits `ns`'s record (created on first touch; names differing only
    /// in ASCII case are one server).
    fn edit<R>(&self, ns: &Name, f: impl FnOnce(&mut ServerFaults) -> R) -> R {
        f(self.servers.write().by_name.entry(ns.clone()).or_default())
    }

    /// Sets a per-server override profile.
    pub fn set_server_profile(&self, ns: &Name, profile: FaultProfile) {
        self.edit(ns, |server| server.profile = Some(profile));
    }

    /// Removes a per-server override.
    pub fn clear_server_profile(&self, ns: &Name) {
        self.edit(ns, |server| server.profile = None);
    }

    /// Installs an up/down flap schedule for a server; the phase is
    /// derived from the hostname so flapping fleets desynchronize.
    pub fn flap_server(&self, ns: &Name, up_days: u32, down_days: u32) {
        let phase =
            (fnv1a(&ns.to_canonical_wire(), 0x1F1A9) % (up_days + down_days).max(1) as u64) as u32;
        let flap = FlapSchedule {
            up_days,
            down_days,
            phase,
        };
        self.edit(ns, |server| server.flap = Some(flap));
    }

    /// Forces a server down (or back up) regardless of probabilities.
    pub fn set_down(&self, ns: &Name, down: bool) {
        self.edit(ns, |server| server.down = down);
    }

    /// Schedules a down-window for `ns`: the server times out for every
    /// sim-time-aware query with `from_s <= now < until_s`. Windows
    /// accumulate (a server may go down repeatedly — flapping scenarios
    /// install many short windows).
    pub fn schedule_down(&self, ns: &Name, from_s: u32, until_s: u32) {
        if from_s < until_s {
            self.edit(ns, |server| server.windows.push((from_s, until_s)));
        }
    }

    /// Removes every scheduled down-window for `ns`.
    pub fn clear_schedule(&self, ns: &Name) {
        self.edit(ns, |server| server.windows.clear());
    }

    /// Removes all scheduled down-windows.
    pub fn clear_schedules(&self) {
        for server in self.servers.write().by_name.values_mut() {
            server.windows.clear();
        }
    }

    /// Whether a scheduled window has `ns` down at sim-time `now_s`.
    /// Pure configuration lookup: no counters, no enable gate — used by
    /// scenario harnesses to print outage timelines.
    pub fn scheduled_down(&self, ns: &Name, now_s: u32) -> bool {
        self.servers
            .read()
            .by_name
            .get(ns)
            .is_some_and(|server| server.in_window(now_s))
    }

    /// Queues forced fault outcomes for the next UDP queries to `ns`,
    /// consumed FIFO before any probabilistic draw (deterministic tests:
    /// "drop twice, then answer"). TCP queries do not consume entries.
    pub fn script(&self, ns: &Name, faults: impl IntoIterator<Item = Fault>) {
        self.edit(ns, |server| server.script.extend(faults));
    }

    /// Advances the plane's notion of the current simulation day (drives
    /// flap schedules). Called from the world tick.
    pub fn set_day(&self, day: u32) {
        self.day.store(day, Ordering::Relaxed);
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.counters.drops.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
            truncations: self.counters.truncations.load(Ordering::Relaxed),
            servfails: self.counters.servfails.load(Ordering::Relaxed),
            refusals: self.counters.refusals.load(Ordering::Relaxed),
            stale_serves: self.counters.stale_serves.load(Ordering::Relaxed),
            downtime_drops: self.counters.downtime_drops.load(Ordering::Relaxed),
        }
    }

    /// What the plane does to one exchange with `ns`; `None` means the
    /// exchange is clean. One lookup of `ns`'s record answers, in order:
    /// is the server down (kill switch, flap schedule, or — for a query
    /// stamped with its sim-time `now_s` — a scheduled window)? That is
    /// counted as a downtime drop and reported as [`Fault::Drop`]. Else,
    /// for a UDP exchange (`question` given), is a scripted outcome
    /// queued? Else the server's profile decides by a seeded draw. A TCP
    /// exchange (`question` absent) sees downtime only.
    pub(crate) fn intercept(
        &self,
        ns: &Name,
        now_s: Option<u32>,
        question: Option<(&Name, u16)>,
    ) -> Option<Fault> {
        if !self.is_enabled() {
            return None;
        }
        let (profile, scripted) = {
            let servers = self.servers.read();
            let server = servers.by_name.get(ns);
            let down = server.is_some_and(|s| {
                s.down
                    || s.flap
                        .is_some_and(|f| f.is_down(self.day.load(Ordering::Relaxed)))
                    || now_s.is_some_and(|t| s.in_window(t))
            });
            if down {
                self.counters.downtime_drops.fetch_add(1, Ordering::Relaxed);
                return Some(Fault::Drop);
            }
            (
                server.and_then(|s| s.profile).unwrap_or(servers.global),
                server.is_some_and(|s| !s.script.is_empty()),
            )
        };
        let (qname, qtype) = question?;
        if scripted {
            // Rare (tests only), so the pop retakes the lock for writing.
            if let Some(fault) = self.edit(ns, |server| server.script.pop_front()) {
                self.count(fault);
                return Some(fault);
            }
        }
        if profile.is_zero() {
            return None;
        }
        // Key the draw on (server, qname, qtype, attempt#): identical
        // across runs regardless of thread interleaving.
        let mut hash = fnv1a(&ns.to_canonical_wire(), 0xF0_17);
        hash = fnv1a(&qname.to_canonical_wire(), hash);
        hash = fnv1a(&qtype.to_be_bytes(), hash);
        let key = AttemptKey {
            hash,
            server: ns.clone(),
            qname: qname.clone(),
            qtype,
        };
        let attempt = {
            let mut attempts = self.attempts.lock();
            let counter = attempts.entry(key).or_insert(0);
            let current = *counter;
            *counter += 1;
            current
        };
        let draw = uniform_draw(
            self.seed.load(Ordering::Relaxed),
            hash ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let fault = profile.pick(draw)?;
        self.count(fault);
        Some(fault)
    }

    /// The stale authority for `ns`, freezing a copy of `live`'s zones on
    /// first use (the secondary stopped syncing when the fault began).
    pub(crate) fn stale_authority(&self, ns: &Name, live: &Authority) -> Arc<Authority> {
        self.edit(ns, |server| {
            server
                .stale
                .get_or_insert_with(|| Arc::new(live.snapshot()))
                .clone()
        })
    }

    fn count(&self, fault: Fault) {
        let counter = match fault {
            Fault::Drop => &self.counters.drops,
            Fault::Delay(_) => &self.counters.delays,
            Fault::Truncate => &self.counters.truncations,
            Fault::ServFail => &self.counters.servfails,
            Fault::Refused => &self.counters.refusals,
            Fault::Stale => &self.counters.stale_serves,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// FNV-1a over `bytes`, chained from `state`.
fn fnv1a(bytes: &[u8], state: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ state.wrapping_mul(0x100_0000_01b3);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A uniform draw in `[0, 1)` from (seed, key) via SplitMix64 finalling.
fn uniform_draw(seed: u64, key: u64) -> f64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// The parts of the one question the query path asks, by name.
    impl FaultPlane {
        fn server_down(&self, ns: &Name) -> bool {
            self.intercept(ns, None, None).is_some()
        }

        fn window_down(&self, ns: &Name, now_s: u32) -> bool {
            self.intercept(ns, Some(now_s), None).is_some()
        }

        fn decide(&self, ns: &Name, qname: &Name, qtype: u16) -> Option<Fault> {
            self.intercept(ns, None, Some((qname, qtype)))
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
        assert!(!plane.server_down(&name("ns1.op.net")));
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
        assert_eq!(plane.attempts.lock().len(), 4, "one counter per triple");
        plane.begin_epoch();
        assert!(plane.attempts.lock().is_empty(), "epoch prunes counters");
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
    fn flap_schedule_cycles_with_days() {
        let schedule = FlapSchedule {
            up_days: 3,
            down_days: 2,
            phase: 0,
        };
        let pattern: Vec<bool> = (0..10).map(|d| schedule.is_down(d)).collect();
        assert_eq!(
            pattern,
            vec![false, false, false, true, true, false, false, false, true, true]
        );
    }

    #[test]
    fn kill_switch_and_flaps_mark_server_down() {
        let plane = FaultPlane::new();
        plane.enable(5);
        let ns = name("ns1.op.net");
        assert!(!plane.server_down(&ns));
        plane.set_down(&ns, true);
        assert!(plane.server_down(&ns));
        plane.set_down(&ns, false);
        assert!(!plane.server_down(&ns));
        plane.flap_server(&ns, 1, 1);
        let down_days: Vec<bool> = (0..4)
            .map(|d| {
                plane.set_day(d);
                plane.server_down(&ns)
            })
            .collect();
        assert_eq!(down_days.iter().filter(|&&d| d).count(), 2, "{down_days:?}");
    }

    #[test]
    fn scheduled_windows_are_half_open_and_accumulate() {
        let plane = FaultPlane::new();
        plane.enable(9);
        let ns = name("ns1.op.net");
        plane.schedule_down(&ns, 100, 200);
        plane.schedule_down(&ns, 300, 400);
        plane.schedule_down(&ns, 500, 400); // empty interval ignored
        assert!(!plane.window_down(&ns, 99));
        assert!(plane.window_down(&ns, 100), "start inclusive");
        assert!(plane.window_down(&ns, 199));
        assert!(!plane.window_down(&ns, 200), "end exclusive");
        assert!(plane.window_down(&ns, 350), "second window");
        assert!(!plane.window_down(&ns, 450));
        assert_eq!(plane.stats().downtime_drops, 3);
        plane.clear_schedule(&ns);
        assert!(!plane.window_down(&ns, 150));
    }

    #[test]
    fn disabled_plane_ignores_windows_but_scheduled_down_reads_config() {
        let plane = FaultPlane::new();
        let ns = name("ns1.op.net");
        plane.schedule_down(&ns, 0, 1000);
        assert!(
            !plane.window_down(&ns, 500),
            "dormant plane injects nothing"
        );
        assert!(plane.scheduled_down(&ns, 500), "pure config lookup");
        assert_eq!(plane.stats().downtime_drops, 0);
        plane.clear_schedules();
        assert!(!plane.scheduled_down(&ns, 500));
    }

    #[test]
    fn every_setter_reaches_the_record_the_query_path_reads_in_any_spelling() {
        let spellings = [name("ns1.op.net"), name("NS1.Op.NET")];
        let drop_all = FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::default()
        };
        type Setter<'a> = &'a dyn Fn(&FaultPlane, &Name);
        let rows: [(&str, Setter); 5] = [
            ("set_down", &|p, ns| p.set_down(ns, true)),
            ("schedule_down", &|p, ns| p.schedule_down(ns, 0, 100)),
            ("script", &|p, ns| p.script(ns, [Fault::Drop])),
            ("flap_server", &|p, ns| p.flap_server(ns, 0, 1)),
            ("set_server_profile", &|p, ns| {
                p.set_server_profile(ns, drop_all)
            }),
        ];
        for (setter, configure) in rows {
            for (set_as, asked_as) in [(0, 1), (1, 0)] {
                let plane = FaultPlane::new();
                plane.enable(3);
                configure(&plane, &spellings[set_as]);
                let hit =
                    plane.intercept(&spellings[asked_as], Some(50), Some((&name("x.com"), 1)));
                assert_eq!(hit, Some(Fault::Drop), "{setter} as {}", spellings[set_as]);
                assert_eq!(
                    plane.servers.read().by_name.len(),
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
