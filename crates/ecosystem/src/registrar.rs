//! Registrars and resellers: profile data plus dated policy milestones.

use crate::clock::SimDate;
use crate::operator::OperatorId;
use crate::policy::{ExternalDs, OperatorDnssec, RegistrarPolicy};
use crate::tld::Tld;
use crate::RegistrarId;

/// One registrar (or reseller) profile.
pub struct Registrar {
    /// Registrar id.
    pub id: RegistrarId,
    /// Display name ("GoDaddy").
    pub name: String,
    /// Current policy (changes via milestones).
    pub policy: RegistrarPolicy,
    /// The operator running this registrar's hosting nameservers.
    pub operator: OperatorId,
    /// Dated policy changes not yet applied: the first tick on or after
    /// a milestone's day applies it and drops it from here.
    pub milestones: Vec<Milestone>,
    /// For opt-in/paid policies: the per-day probability that an unsigned
    /// registrar-hosted domain's owner enables DNSSEC. Calibrated by the
    /// workloads crate to reproduce the paper's adoption curves.
    pub daily_optin_hazard: f64,
}

/// A dated policy change.
#[derive(Debug, Clone)]
pub struct Milestone {
    /// The day it takes effect.
    pub on: SimDate,
    /// What changes.
    pub change: PolicyChange,
}

/// The kinds of policy change the longitudinal study observed.
#[derive(Debug, Clone)]
pub enum PolicyChange {
    /// Change the registrar-as-operator DNSSEC policy.
    SetOperatorDnssec(OperatorDnssec),
    /// Change the external DS channel.
    SetExternalDs(ExternalDs),
    /// Start (or stop) uploading DS records for one TLD.
    SetPublishesDs(Tld, bool),
    /// Switch the reseller partner for one TLD; existing domains migrate
    /// at their next renewal (§6.3, Antagonist).
    SwitchPartner {
        /// Which TLD.
        tld: Tld,
        /// New partner registrar, by name.
        new_partner: String,
        /// Whether existing registrations move only at renewal.
        migrate_at_renewal: bool,
    },
    /// Sign every hosted domain in the given TLDs, spread over `over_days`
    /// (§6.3, PCExtreme's 10-day jump from 0.44% to 98.3%).
    MassSignHosted {
        /// Which TLDs.
        tlds: Vec<Tld>,
        /// Days to spread the signing over (≥ 1).
        over_days: u32,
    },
    /// Change the opt-in hazard (adoption speeds up or stalls).
    SetOptInHazard(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RegistrarPolicy;

    #[test]
    fn registrar_carries_profile() {
        let r = Registrar {
            id: RegistrarId(3),
            name: "GoDaddy".into(),
            policy: RegistrarPolicy::no_dnssec(&[Tld::Com]),
            operator: OperatorId(1),
            milestones: vec![Milestone {
                on: SimDate(100),
                change: PolicyChange::SetOptInHazard(0.001),
            }],
            daily_optin_hazard: 0.0,
        };
        assert_eq!(r.name, "GoDaddy");
        assert_eq!(r.milestones.len(), 1);
    }
}
