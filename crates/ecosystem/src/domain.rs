//! Registered domains and their hosting/DNSSEC state.

use dsec_dnssec::ZoneKeys;
use dsec_wire::Name;

use crate::clock::SimDate;
use crate::operator::OperatorId;
use crate::policy::Plan;
use crate::tld::Tld;
use crate::RegistrarId;

/// Who runs the authoritative nameservers for a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hosting {
    /// The registrar's own hosting (the common default).
    Registrar {
        /// The customer's plan tier (gates NameCheap-style signing).
        plan: Plan,
    },
    /// The owner runs their own nameserver (`ns1.<domain>` by convention).
    Owner,
    /// A third-party DNS operator (Cloudflare / DNSPod model).
    ThirdParty {
        /// Which operator.
        operator: OperatorId,
    },
}

/// One registered second-level domain: one 56-byte row of the world's
/// payload column (DESIGN.md §16, *Bytes per domain*). What most rows
/// leave empty is not stored inline: the keys are boxed, and the
/// registrant's address is derived ([`World::registrant_email`]).
///
/// [`World::registrant_email`]: crate::World::registrant_email
#[derive(Debug, Clone)]
pub struct Domain {
    /// The domain name.
    pub name: Name,
    /// Its TLD.
    pub tld: Tld,
    /// The registrar the customer bought it from (a reseller keeps the
    /// customer relationship; `sponsor` below is who talks to the registry).
    pub registrar: RegistrarId,
    /// The accredited registrar of record at the registry (differs from
    /// `registrar` when that one is a reseller).
    pub sponsor: RegistrarId,
    /// Hosting arrangement.
    pub hosting: Hosting,
    /// Zone keys, present iff the zone is signed (DNSKEY+RRSIG published).
    /// Boxed: the unsigned majority pay 8 bytes for the `None`.
    pub keys: Option<Box<ZoneKeys>>,
    /// First renewal date: the domain renews on it and on every 365-day
    /// anniversary of it. Written at purchase and by
    /// [`World::set_expiry`]; renewing does not rewrite it.
    ///
    /// [`World::set_expiry`]: crate::World::set_expiry
    pub expires: SimDate,
    /// Reseller switched partners; the registry transfer (and any new
    /// DNSSEC defaults) applies at the next renewal (the Antagonist /
    /// TransIP pattern from §6.3).
    pub pending_partner_migration: bool,
}

impl Domain {
    /// The owner-hosting nameserver hostname for this domain.
    pub fn owner_ns_host(&self) -> Name {
        self.name.child("ns1").expect("ns1 label fits")
    }

    /// True when the zone publishes DNSKEYs (signed by whoever hosts it).
    pub fn is_signed(&self) -> bool {
        self.keys.is_some()
    }

    /// True when `day` is a renewal day: `expires` or one of its 365-day
    /// anniversaries.
    pub(crate) fn renews_on(&self, day: SimDate) -> bool {
        day >= self.expires && day.days_since(self.expires).is_multiple_of(365)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_ns_host_is_under_domain() {
        let d = Domain {
            name: Name::parse("example.com").unwrap(),
            tld: Tld::Com,
            registrar: RegistrarId(0),
            sponsor: RegistrarId(0),
            hosting: Hosting::Owner,
            keys: None,
            expires: SimDate(365),
            pending_partner_migration: false,
        };
        assert_eq!(d.owner_ns_host(), Name::parse("ns1.example.com").unwrap());
        assert!(!d.is_signed());
        assert!(!d.renews_on(SimDate(364)));
        assert!(d.renews_on(SimDate(365)));
        assert!(!d.renews_on(SimDate(366)));
        assert!(d.renews_on(SimDate(730)));
    }

    #[test]
    fn a_domain_row_fits_in_56_bytes() {
        // Name handle 24, boxed keys 8, three u32 columns, hosting 8, TLD
        // and flag.
        assert!(
            std::mem::size_of::<Domain>() <= 56,
            "{} bytes",
            std::mem::size_of::<Domain>()
        );
        assert_eq!(
            std::mem::size_of::<Option<Domain>>(),
            std::mem::size_of::<Domain>(),
            "the payload column's empty rows cost nothing extra"
        );
    }
}
