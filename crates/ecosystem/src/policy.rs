//! Registrar policy knobs — the configuration space Tables 2 and 3 of the
//! paper explore. A registrar profile is a point in this space; the probe
//! harness must *rediscover* the configured point by acting as a customer.

use crate::tld::Tld;
use std::collections::BTreeMap;

/// A registrar DNS-hosting plan tier (NameCheap's FreeDNS vs paid plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Plan {
    /// The free tier.
    Free,
    /// A paid tier.
    Premium,
}

/// DNSSEC behavior when the registrar is the DNS operator (§5.2).
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorDnssec {
    /// The registrar cannot sign hosted domains at all (17 of the top 20).
    Unsupported,
    /// Signed automatically for every hosted domain.
    Default,
    /// Signed automatically, but only on certain plans (NameCheap).
    DefaultOnPlans(Vec<Plan>),
    /// Free but the customer must opt in (OVH); `adoption_rate` is the
    /// long-run fraction of customers who do.
    OptIn {
        /// Fraction of customers who eventually opt in.
        adoption_rate: f64,
    },
    /// DNSSEC is a paid add-on (GoDaddy, $35/yr); near-zero adoption.
    Paid {
        /// Price in US cents per year.
        cents_per_year: u32,
        /// Fraction of customers who pay for it.
        adoption_rate: f64,
    },
}

impl OperatorDnssec {
    /// Whether a *new* domain on `plan` gets signed automatically.
    pub fn signs_by_default(&self, plan: Plan) -> bool {
        match self {
            OperatorDnssec::Default => true,
            OperatorDnssec::DefaultOnPlans(plans) => plans.contains(&plan),
            _ => false,
        }
    }

    /// Whether the registrar can sign hosted domains at all.
    pub fn supported(&self) -> bool {
        !matches!(self, OperatorDnssec::Unsupported)
    }
}

/// How owners convey DS records for externally hosted domains (§5.3, §6.1).
#[derive(Debug, Clone, PartialEq)]
pub enum ExternalDs {
    /// No channel at all: externally hosted domains can never be secured.
    Unsupported,
    /// A web form. `validates` = checks the DS against the served DNSKEY
    /// before accepting (only OVH and DreamHost did).
    Web {
        /// Whether the form validates the uploaded DS.
        validates: bool,
    },
    /// Email. The paper found most registrars never authenticate the mail.
    Email {
        /// Requires a verification code bound to the account.
        verifies_sender: bool,
        /// Accepts mail from an address other than the registrant's
        /// (the worst case the paper observed).
        accepts_foreign_sender: bool,
        /// Checks the emailed DS against the served DNSKEY before
        /// accepting (DreamHost did, uniquely among email channels).
        validates: bool,
    },
    /// Live web chat with an agent; `mistake_rate` is the chance the agent
    /// installs the DS on the wrong domain (observed once in the study).
    Chat {
        /// Probability of a copy/paste mishap per upload.
        mistake_rate: f64,
    },
    /// Support ticket with the DS attached (123-reg); no validation.
    Ticket,
    /// The PCExtreme model: the customer asks the registrar to *fetch* the
    /// DNSKEY from the authoritative server and derive the DS itself.
    FetchDnskey,
}

impl ExternalDs {
    /// Whether any upload channel exists.
    pub fn supported(&self) -> bool {
        !matches!(self, ExternalDs::Unsupported)
    }

    /// Whether the channel checks the DS against the served DNSKEY.
    pub fn validates(&self) -> bool {
        matches!(
            self,
            ExternalDs::Web { validates: true }
                | ExternalDs::Email {
                    validates: true,
                    ..
                }
                | ExternalDs::FetchDnskey
        )
    }

    /// Sender authentication of one emailed request for a domain whose
    /// registrant is `registrant` (§5.3, §6.1): `None` = refused,
    /// `Some(forged)` = let through, and whether it came from a mailbox
    /// other than the registrant's. Only `verifies_sender` looks at the
    /// mailbox that really sent it; the From: header is forgeable. A
    /// channel that is not email admits no mail.
    pub fn admits_sender(
        &self,
        registrant: &str,
        claimed_from: &str,
        actual_from: &str,
    ) -> Option<bool> {
        let authentic = actual_from == registrant;
        let admitted = match self {
            ExternalDs::Email {
                verifies_sender: true,
                ..
            } => authentic,
            ExternalDs::Email {
                accepts_foreign_sender: true,
                ..
            } => true,
            ExternalDs::Email { .. } => claimed_from == registrant,
            _ => false,
        };
        admitted.then_some(!authentic)
    }
}

/// A registrar's role for one TLD (Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TldRole {
    /// Accredited registrar with direct registry access.
    Registrar,
    /// Reseller through the named partner registrar.
    ResellerVia(String),
    /// Does not sell this TLD.
    NoSupport,
}

/// Per-TLD behavior of one registrar.
#[derive(Debug, Clone, PartialEq)]
pub struct TldPolicy {
    /// Registrar / reseller / unsupported.
    pub role: TldRole,
    /// Whether the registrar actually uploads DS records for this TLD when
    /// it signs hosted domains (Loopia: `.se` only; KPN: `.nl` only;
    /// NameCheap: `.com`/`.net` only; MeshDigital: almost never).
    pub publishes_ds: bool,
}

impl TldPolicy {
    /// Full support: sells the TLD and uploads DS records.
    pub fn full(role: TldRole) -> Self {
        TldPolicy {
            role,
            publishes_ds: true,
        }
    }

    /// Sells the TLD but never uploads DS (→ partial deployments).
    pub fn without_ds(role: TldRole) -> Self {
        TldPolicy {
            role,
            publishes_ds: false,
        }
    }

    /// Not sold.
    pub fn unsupported() -> Self {
        TldPolicy {
            role: TldRole::NoSupport,
            publishes_ds: false,
        }
    }
}

/// The complete policy of one registrar.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrarPolicy {
    /// Behavior when the registrar is the DNS operator.
    pub operator_dnssec: OperatorDnssec,
    /// DS upload channel for owner-operated domains.
    pub external_ds: ExternalDs,
    /// Per-TLD roles and DS publication.
    pub tlds: BTreeMap<Tld, TldPolicy>,
}

impl RegistrarPolicy {
    /// A policy that sells the given TLDs as an accredited registrar with
    /// no DNSSEC support anywhere — the paper's modal top-20 registrar.
    pub fn no_dnssec(tlds: &[Tld]) -> Self {
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: ExternalDs::Unsupported,
            tlds: tlds
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        }
    }

    /// The TLD policy, defaulting to unsupported.
    pub fn tld(&self, tld: Tld) -> TldPolicy {
        self.tlds
            .get(&tld)
            .cloned()
            .unwrap_or_else(TldPolicy::unsupported)
    }

    /// Whether the registrar sells domains in `tld` (as registrar or
    /// reseller).
    pub fn sells(&self, tld: Tld) -> bool {
        !matches!(self.tld(tld).role, TldRole::NoSupport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_on_plans_gates_by_plan() {
        let p = OperatorDnssec::DefaultOnPlans(vec![Plan::Premium]);
        assert!(p.signs_by_default(Plan::Premium));
        assert!(!p.signs_by_default(Plan::Free));
        assert!(p.supported());
    }

    #[test]
    fn opt_in_and_paid_do_not_sign_by_default() {
        assert!(!OperatorDnssec::OptIn { adoption_rate: 0.3 }.signs_by_default(Plan::Free));
        assert!(!OperatorDnssec::Paid {
            cents_per_year: 3500,
            adoption_rate: 0.0002
        }
        .signs_by_default(Plan::Premium));
        assert!(!OperatorDnssec::Unsupported.supported());
    }

    #[test]
    fn external_ds_validation_classification() {
        assert!(ExternalDs::Web { validates: true }.validates());
        assert!(!ExternalDs::Web { validates: false }.validates());
        assert!(ExternalDs::FetchDnskey.validates());
        assert!(!ExternalDs::Ticket.validates());
        assert!(!ExternalDs::Unsupported.supported());
        assert!(ExternalDs::Chat { mistake_rate: 0.1 }.supported());
    }

    #[test]
    fn policy_tld_lookup_defaults_to_unsupported() {
        let policy = RegistrarPolicy::no_dnssec(&[Tld::Com, Tld::Net]);
        assert!(policy.sells(Tld::Com));
        assert!(!policy.sells(Tld::Se));
        assert_eq!(policy.tld(Tld::Se), TldPolicy::unsupported());
    }

    #[test]
    fn tld_policy_constructors() {
        let full = TldPolicy::full(TldRole::Registrar);
        assert!(full.publishes_ds);
        let partial = TldPolicy::without_ds(TldRole::ResellerVia("Ascio".into()));
        assert!(!partial.publishes_ds);
        assert_eq!(partial.role, TldRole::ResellerVia("Ascio".into()));
    }
}
