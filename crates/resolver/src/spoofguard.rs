//! On-path spoofing defenses and the deterministic Kaminsky race.
//!
//! A blind off-path attacker who wants to poison a resolver's cache must
//! guess every unpredictable field of the outstanding query before the
//! legitimate authority answers: the 16-bit transaction id, the source
//! port (RFC 5452), and — when the resolver randomizes qname case — the
//! 0x20 encoding of every ASCII letter in the name (draft-vixie-dnsext-
//! dns0x20). [`SpoofGuard`] is the per-resolver defense profile; the
//! entropy it yields feeds the standard race bound
//!
//! ```text
//! P(win) = 1 − (1 − 2^−bits)^spoofs
//! ```
//!
//! for an attacker sending `spoofs` forged packets per race window.
//!
//! The race itself is simulated *analytically and deterministically*: an
//! [`OnPathThreat`] carries a seed, and the outcome for a given
//! `(qname, qtype)` is a pure splitmix draw over
//! `(seed, name_hash64(qname), qtype)` compared against the bound — no
//! wall-clock, no shared RNG state, so repeat resolutions and any thread
//! interleaving agree byte-for-byte.
//!
//! Bailiwick filtering is the orthogonal defense (RFC 5452 §5.2 / the
//! classic "scrub out-of-zone records" rule): even a *won* race cannot
//! plant records for names outside the zone being queried when
//! [`SpoofGuard::strict_bailiwick`] is on.

use std::net::{Ipv4Addr, Ipv6Addr};

use dsec_wire::{name_hash64, Message, Name, RData, Record, RrType};

/// The forged A record every won race plants (the attacker's sinkhole,
/// same address the registrar-channel takeover plane serves).
pub const POISON_A: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 66);

/// The forged AAAA counterpart of [`POISON_A`].
pub const POISON_AAAA: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x66);

/// TTL of forged records: long, so a single won race sticks in caches.
pub const POISON_TTL: u32 = 86_400;

/// Per-resolver anti-spoofing defense profile.
///
/// The entropy knobs are *effective* bits: a resolver with a weak RNG or
/// a sequential transaction id has fewer effective `txid_bits` than the
/// field width, which is exactly how the pre-2008 resolvers Kaminsky
/// broke are modeled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofGuard {
    /// Effective entropy of the transaction id (0..=16).
    pub txid_bits: u32,
    /// Effective entropy of the UDP source port (0 = fixed port, ..=16).
    pub port_bits: u32,
    /// 0x20 qname-case randomization: ~1 extra bit per ASCII letter of
    /// the qname.
    pub use_0x20: bool,
    /// Strict bailiwick filtering: scrub every record whose owner falls
    /// outside the zone being queried before accepting a response.
    pub strict_bailiwick: bool,
}

impl Default for SpoofGuard {
    fn default() -> Self {
        SpoofGuard::hardened()
    }
}

impl SpoofGuard {
    /// A post-Kaminsky resolver: full txid and source-port entropy,
    /// 0x20 encoding, strict bailiwick. This is the default profile, so
    /// resolvers built without explicit hardening knobs behave like a
    /// patched modern resolver.
    pub fn hardened() -> Self {
        SpoofGuard {
            txid_bits: 16,
            port_bits: 16,
            use_0x20: true,
            strict_bailiwick: true,
        }
    }

    /// A pre-2008 resolver: weak transaction-id RNG (~10 effective
    /// bits), fixed source port, no 0x20, no bailiwick scrubbing.
    pub fn naive() -> Self {
        SpoofGuard {
            txid_bits: 10,
            port_bits: 0,
            use_0x20: false,
            strict_bailiwick: false,
        }
    }

    /// Total entropy an off-path spoofer must guess for a query on
    /// `qname`: txid + source port + (with 0x20) one bit per ASCII
    /// letter in the name.
    pub fn entropy_bits(&self, qname: &Name) -> u32 {
        let case_bits = if self.use_0x20 {
            qname
                .labels()
                .flatten()
                .filter(|b| b.is_ascii_alphabetic())
                .count() as u32
        } else {
            0
        };
        self.txid_bits + self.port_bits + case_bits
    }

    /// The analytic probability that at least one of `spoofs` forged
    /// packets matches all guessable fields before the legitimate answer
    /// lands: `1 − (1 − 2^−bits)^spoofs`.
    pub fn race_success_probability(&self, qname: &Name, spoofs: u32) -> f64 {
        let bits = self.entropy_bits(qname);
        if bits >= 1024 {
            return 0.0;
        }
        let per_packet = (0.5f64).powi(bits as i32);
        1.0 - (1.0 - per_packet).powi(spoofs as i32)
    }

    /// Drops every record whose owner name is not at/under `bailiwick`,
    /// returning how many were scrubbed. No-op unless
    /// [`SpoofGuard::strict_bailiwick`] is set.
    pub fn scrub_records(&self, records: &mut Vec<Record>, bailiwick: &Name) -> usize {
        if !self.strict_bailiwick {
            return 0;
        }
        let before = records.len();
        records.retain(|r| r.name.is_subdomain_of(bailiwick));
        before - records.len()
    }

    /// Applies [`SpoofGuard::scrub_records`] to every section of a
    /// response message.
    pub fn scrub_response(&self, resp: &mut Message, bailiwick: &Name) -> usize {
        self.scrub_records(&mut resp.answers, bailiwick)
            + self.scrub_records(&mut resp.authorities, bailiwick)
            + self.scrub_records(&mut resp.additionals, bailiwick)
    }
}

/// An on-path/off-path spoofing threat aimed at one zone: every query
/// for a name at/under `zone` is raced by `spoofs_per_race` forged
/// packets. Produced by the attack plane's `OnPathVector::KaminskyRace`
/// campaign arm and attached to resolvers by the traffic driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnPathThreat {
    /// Zone whose queries are raced.
    pub zone: Name,
    /// Forged packets the attacker lands inside one race window.
    pub spoofs_per_race: u32,
    /// Seed of the deterministic race draw.
    pub seed: u64,
}

impl OnPathThreat {
    /// A threat against `zone` with the given packet budget and seed.
    pub fn new(zone: Name, spoofs_per_race: u32, seed: u64) -> Self {
        OnPathThreat {
            zone,
            spoofs_per_race,
            seed,
        }
    }

    /// Whether a query for `(qname, qtype)` is in this threat's blast
    /// radius. DNSKEY/DS fetches are chain maintenance, not data the
    /// Kaminsky payload targets, so they are not raced.
    pub fn covers(&self, qname: &Name, qtype: RrType) -> bool {
        !matches!(qtype, RrType::Dnskey | RrType::Ds) && qname.is_subdomain_of(&self.zone)
    }

    /// The deterministic race outcome for `(qname, qtype)` under defense
    /// profile `guard`: a pure splitmix draw over
    /// `(seed, name_hash64(qname), qtype)` compared against the analytic
    /// bound. Every retransmission and every worker computes the same
    /// answer, which keeps multi-threaded tallies byte-identical.
    pub fn race_won(&self, guard: &SpoofGuard, qname: &Name, qtype: RrType) -> bool {
        let p = guard.race_success_probability(qname, self.spoofs_per_race);
        if p <= 0.0 {
            return false;
        }
        let mix = splitmix64(
            self.seed
                ^ name_hash64(qname)
                ^ (qtype.number() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // 53 uniform mantissa bits → a draw in [0, 1).
        let draw = (mix >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }

    /// The forged response a won race substitutes for the legitimate
    /// one: an authoritative answer pointing `qname` at the attacker's
    /// sinkhole, plus the classic Kaminsky payload — out-of-bailiwick
    /// records trying to plant the attacker's nameserver over the target
    /// zone's *parent* neighborhood. Strict bailiwick scrubbing removes
    /// exactly those extras.
    pub fn forged_response(&self, query: &Message) -> Message {
        let mut resp = query.response_to();
        resp.flags.authoritative = true;
        let Some(q) = query.questions.first() else {
            return resp;
        };
        let rdata = match q.qtype {
            RrType::Aaaa => RData::Aaaa(POISON_AAAA),
            _ => RData::A(POISON_A),
        };
        resp.answers
            .push(Record::new(q.name.clone(), POISON_TTL, rdata));
        // Out-of-bailiwick payload: an A record for a name *outside* the
        // attacked zone, smuggled into the answer section. Only a
        // resolver without strict bailiwick filtering admits it.
        if let Some(outside) = out_of_bailiwick_target(&self.zone) {
            resp.answers
                .push(Record::new(outside, POISON_TTL, RData::A(POISON_A)));
        }
        resp
    }
}

/// A name guaranteed to be outside `zone`'s bailiwick: a sibling label
/// under the zone's parent (`victim.nl` → `pwned-sibling.nl`). `None`
/// only for a threat against the root, whose bailiwick is everything.
fn out_of_bailiwick_target(zone: &Name) -> Option<Name> {
    let parent = zone.parent()?;
    parent.child("pwned-sibling").ok()
}

/// The splitmix64 finalizer: one deterministic well-mixed draw per key.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn hardened_entropy_dwarfs_naive() {
        let qname = name("www.victim.nl");
        let hardened = SpoofGuard::hardened().entropy_bits(&qname);
        let naive = SpoofGuard::naive().entropy_bits(&qname);
        // 16 txid + 16 port + 11 letters of "wwwvictimnl".
        assert_eq!(hardened, 43);
        assert_eq!(naive, 10);
    }

    #[test]
    fn race_probability_matches_closed_form() {
        let guard = SpoofGuard::naive();
        let qname = name("w1.victim.nl");
        let p = guard.race_success_probability(&qname, 300);
        let expected = 1.0 - (1.0 - (0.5f64).powi(10)).powi(300);
        assert!((p - expected).abs() < 1e-12);
        // Hardened probability is astronomically small.
        let hp = SpoofGuard::hardened().race_success_probability(&qname, 300);
        assert!(hp < 1e-9);
    }

    #[test]
    fn race_draw_is_deterministic_and_seeded() {
        let guard = SpoofGuard::naive();
        let threat = OnPathThreat::new(name("victim.nl"), 300, 7);
        let qname = name("w1.victim.nl");
        let first = threat.race_won(&guard, &qname, RrType::A);
        for _ in 0..8 {
            assert_eq!(threat.race_won(&guard, &qname, RrType::A), first);
        }
        // Some seed flips the outcome for some name — the draw is not
        // constant.
        let flipped = (0..64u64).any(|s| {
            OnPathThreat::new(name("victim.nl"), 300, s).race_won(&guard, &qname, RrType::A)
                != first
        });
        assert!(flipped);
    }

    #[test]
    fn hardened_guard_never_loses_the_race() {
        let guard = SpoofGuard::hardened();
        let threat = OnPathThreat::new(name("victim.nl"), 4_096, 0xDEAD);
        for i in 0..512 {
            let qname = name(&format!("w{i}.victim.nl"));
            assert!(!threat.race_won(&guard, &qname, RrType::A));
        }
    }

    #[test]
    fn chain_maintenance_queries_are_not_raced() {
        let threat = OnPathThreat::new(name("victim.nl"), 300, 7);
        assert!(threat.covers(&name("www.victim.nl"), RrType::A));
        assert!(threat.covers(&name("victim.nl"), RrType::Aaaa));
        assert!(!threat.covers(&name("victim.nl"), RrType::Dnskey));
        assert!(!threat.covers(&name("victim.nl"), RrType::Ds));
        assert!(!threat.covers(&name("other.nl"), RrType::A));
    }

    #[test]
    fn forged_response_carries_out_of_bailiwick_payload() {
        let threat = OnPathThreat::new(name("victim.nl"), 300, 7);
        let query = Message::query(9, name("w1.victim.nl"), RrType::A, true);
        let forged = threat.forged_response(&query);
        assert!(forged.flags.authoritative);
        assert_eq!(forged.id, 9);
        assert_eq!(forged.answers.len(), 2);
        assert!(forged
            .answers
            .iter()
            .any(|r| !r.name.is_subdomain_of(&name("victim.nl"))));
    }

    #[test]
    fn strict_bailiwick_scrubs_only_out_of_zone() {
        let guard = SpoofGuard::hardened();
        let zone = name("victim.nl");
        let mut records = vec![
            Record::new(name("w1.victim.nl"), 300, RData::A(POISON_A)),
            Record::new(name("pwned-sibling.nl"), 300, RData::A(POISON_A)),
            Record::new(name("victim.nl"), 300, RData::A(POISON_A)),
            Record::new(name("bank.example"), 300, RData::A(POISON_A)),
        ];
        let scrubbed = guard.scrub_records(&mut records, &zone);
        assert_eq!(scrubbed, 2);
        assert!(records.iter().all(|r| r.name.is_subdomain_of(&zone)));
        // A lax guard keeps everything.
        let mut lax = vec![Record::new(name("bank.example"), 300, RData::A(POISON_A))];
        assert_eq!(SpoofGuard::naive().scrub_records(&mut lax, &zone), 0);
        assert_eq!(lax.len(), 1);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use dsec_wire::{Name, RData, Record};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

        /// Strict bailiwick filtering never admits a record owned
        /// outside the zone cut, for any mix of in- and out-of-zone
        /// records an attacker stuffs into a response — and never
        /// drops an in-zone record while doing it.
        #[test]
        fn strict_bailiwick_admits_no_out_of_zone_record(
            picks in proptest::collection::vec(0usize..6, 0..16),
        ) {
            let bailiwick = Name::parse("victim.example").unwrap();
            let owners = [
                "victim.example",
                "www.victim.example",
                "deep.a.victim.example",
                "evil.example",
                "other.test",
                "example",
            ];
            let mut records: Vec<Record> = picks
                .iter()
                .map(|&p| Record::new(
                    Name::parse(owners[p]).unwrap(),
                    300,
                    RData::A(POISON_A),
                ))
                .collect();
            let in_zone = records
                .iter()
                .filter(|r| r.name.is_subdomain_of(&bailiwick))
                .count();
            let dropped = SpoofGuard::hardened().scrub_records(&mut records, &bailiwick);
            prop_assert_eq!(records.len(), in_zone, "an in-zone record was dropped");
            prop_assert_eq!(dropped + in_zone, picks.len(), "a record went missing");
            prop_assert!(
                records.iter().all(|r| r.name.is_subdomain_of(&bailiwick)),
                "an out-of-zone record survived the scrub"
            );
        }
    }
}
