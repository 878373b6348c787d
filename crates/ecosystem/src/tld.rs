//! The five TLDs the paper studies and their registry-level properties.

use dsec_wire::Name;

/// A studied top-level domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tld {
    /// `.com` (gTLD, Verisign).
    Com,
    /// `.net` (gTLD, Verisign).
    Net,
    /// `.org` (gTLD, PIR).
    Org,
    /// `.nl` (ccTLD, SIDN) — DNSSEC discount programme.
    Nl,
    /// `.se` (ccTLD, IIS) — the original DNSSEC discount programme.
    Se,
}

/// All studied TLDs, in the paper's table order.
pub const ALL_TLDS: [Tld; 5] = [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Se];

/// All studied TLDs in label order: the order canonical (RFC 4034) name
/// order puts their domains in, since it compares the TLD label first.
pub(crate) const BY_LABEL: [Tld; 5] = [Tld::Com, Tld::Net, Tld::Nl, Tld::Org, Tld::Se];

/// A registry's financial incentive for correctly signed domains
/// (§6.3: .nl pays ≈ €0.28/yr, .se paid ≈ 10 SEK/yr, with daily audits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incentive {
    /// Yearly discount per correctly signed domain, US cents.
    pub discount_cents: u32,
    /// Registrars failing validation too often lose the discount
    /// (.nl: at most 14 failures per six months).
    pub max_failures_per_halfyear: u32,
}

impl Tld {
    /// The TLD label as a string.
    pub fn label(self) -> &'static str {
        match self {
            Tld::Com => "com",
            Tld::Net => "net",
            Tld::Org => "org",
            Tld::Nl => "nl",
            Tld::Se => "se",
        }
    }

    /// The TLD zone origin.
    pub fn zone(self) -> Name {
        Name::parse(self.label()).expect("static TLD label parses")
    }

    /// True for country-code TLDs.
    pub fn is_cctld(self) -> bool {
        matches!(self, Tld::Nl | Tld::Se)
    }

    /// The registry's DNSSEC incentive programme, if any.
    pub fn incentive(self) -> Option<Incentive> {
        match self {
            Tld::Nl => Some(Incentive {
                discount_cents: 30, // ≈ €0.28
                max_failures_per_halfyear: 14,
            }),
            Tld::Se => Some(Incentive {
                discount_cents: 110, // ≈ 10 SEK
                max_failures_per_halfyear: 14,
            }),
            _ => None,
        }
    }

    /// The registry's conventional nameserver hostname in the simulation.
    pub fn registry_ns(self) -> Name {
        Name::parse(&format!("a.{}-servers.sim", self.label())).expect("static name parses")
    }

    /// Finds the TLD of a second-level domain name, if it is one we study.
    ///
    /// This is a generation-read hot path (called once per domain per
    /// scan), so it matches the final label in place instead of
    /// materialising `domain.parent()` and five TLD zone names per call.
    pub fn of_domain(domain: &Name) -> Option<Tld> {
        let mut labels = domain.labels();
        match (labels.next(), labels.next(), labels.next()) {
            (Some(_), Some(tld), None) => ALL_TLDS
                .into_iter()
                .find(|t| tld.eq_ignore_ascii_case(t.label().as_bytes())),
            _ => None,
        }
    }
}

impl std::fmt::Display for Tld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, ".{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_zones() {
        assert_eq!(Tld::Com.label(), "com");
        assert_eq!(Tld::Nl.zone(), Name::parse("nl").unwrap());
        assert_eq!(Tld::Se.to_string(), ".se");
    }

    #[test]
    fn incentives_match_paper() {
        assert!(Tld::Com.incentive().is_none());
        assert!(Tld::Org.incentive().is_none());
        let nl = Tld::Nl.incentive().unwrap();
        assert_eq!(nl.discount_cents, 30);
        assert_eq!(nl.max_failures_per_halfyear, 14);
        assert!(Tld::Se.incentive().unwrap().discount_cents > nl.discount_cents);
    }

    #[test]
    fn cctld_flag() {
        assert!(!Tld::Com.is_cctld());
        assert!(Tld::Nl.is_cctld());
        assert!(Tld::Se.is_cctld());
    }

    #[test]
    fn of_domain_resolves_sld() {
        let d = Name::parse("example.com").unwrap();
        assert_eq!(Tld::of_domain(&d), Some(Tld::Com));
        let nl = Name::parse("voorbeeld.nl").unwrap();
        assert_eq!(Tld::of_domain(&nl), Some(Tld::Nl));
        let other = Name::parse("example.io").unwrap();
        assert_eq!(Tld::of_domain(&other), None);
        assert_eq!(Tld::of_domain(&Name::root()), None);
        // Only the *second* level maps: deeper names have non-TLD parents.
        let deep = Name::parse("a.b.com").unwrap();
        assert_eq!(Tld::of_domain(&deep), None);
    }

    #[test]
    fn by_label_is_all_tlds_in_canonical_order() {
        let mut zones: Vec<Name> = ALL_TLDS.iter().map(|t| t.zone()).collect();
        zones.sort_by(|a, b| a.canonical_cmp(b));
        let by_label: Vec<Name> = BY_LABEL.iter().map(|t| t.zone()).collect();
        assert_eq!(by_label, zones);
    }

    #[test]
    fn registry_ns_are_distinct() {
        let mut hosts: Vec<Name> = ALL_TLDS.iter().map(|t| t.registry_ns()).collect();
        hosts.dedup();
        assert_eq!(hosts.len(), 5);
    }
}
