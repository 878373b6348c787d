//! The structured result of probing one registrar — the data behind one
//! row of Table 2 or Table 3.

use std::collections::BTreeMap;

use dsec_ecosystem::Tld;

/// Three-valued probe findings (the paper's ● / ▲ / ✗).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// Supported / verified (●).
    Yes,
    /// Partially / conditionally (▲).
    Partial,
    /// Unsupported / not done (✗).
    No,
    /// Not applicable / not probed (–).
    NotApplicable,
}

impl Finding {
    /// The paper's table glyph.
    pub fn glyph(self) -> &'static str {
        match self {
            Finding::Yes => "●",
            Finding::Partial => "▲",
            Finding::No => "✗",
            Finding::NotApplicable => "-",
        }
    }

    /// Plain-ASCII variant for terminals without the glyphs.
    #[cfg(test)]
    fn ascii(self) -> &'static str {
        match self {
            Finding::Yes => "Y",
            Finding::Partial => "~",
            Finding::No => "x",
            Finding::NotApplicable => "-",
        }
    }
}

/// Which DS conveyance channel the registrar offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsChannel {
    /// Web form.
    Web,
    /// Email.
    Email,
    /// Live chat with an agent.
    Chat,
    /// Support ticket.
    Ticket,
    /// Registrar fetches the DNSKEY itself (PCExtreme).
    FetchDnskey,
}

/// One registrar's probe outcome.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Registrar display name.
    pub registrar: String,
    /// Nameserver domain (the operator key).
    pub ns_domain: String,

    // --- registrar as DNS operator (§5.2) ---
    /// Signed automatically on a stock purchase.
    pub dnssec_default: Finding,
    /// Signed after a free opt-in.
    pub dnssec_optin: Finding,
    /// Signed only after paying; the price in cents if so.
    pub dnssec_paid_cents: Option<u32>,
    /// Any way at all to get a hosted domain signed.
    pub operator_support: Finding,
    /// Once signed, was the deployment complete (DS uploaded and chain
    /// validating)?
    pub hosted_fully_deployed: Finding,

    // --- owner as DNS operator (§5.3) ---
    /// Any DS conveyance channel at all.
    pub external_support: Finding,
    /// The channel that worked, if any.
    pub ds_channel: Option<DsChannel>,
    /// The registrar validated the DS against the served DNSKEY.
    pub validates_ds: Finding,
    /// The email channel authenticated the sender.
    pub verifies_email: Finding,
    /// The email channel accepted a completely foreign address (the worst
    /// observation of §6.4).
    pub accepts_foreign_email: Finding,
    /// A correct end-to-end owner-operated deployment was achieved.
    pub external_fully_deployed: Finding,

    // --- per-TLD DS publication (Table 3's ▲ column) ---
    /// For each TLD the registrar sells with hosted signing: does the DS
    /// actually reach the registry?
    pub publishes_ds: BTreeMap<Tld, bool>,

    /// Free-form anecdotes collected along the way (wrong-domain installs,
    /// forged email acceptance, …).
    pub notes: Vec<String>,
}

impl ProbeReport {
    /// A blank report for `registrar`.
    pub fn new(registrar: impl Into<String>, ns_domain: impl Into<String>) -> Self {
        ProbeReport {
            registrar: registrar.into(),
            ns_domain: ns_domain.into(),
            dnssec_default: Finding::No,
            dnssec_optin: Finding::No,
            dnssec_paid_cents: None,
            operator_support: Finding::No,
            hosted_fully_deployed: Finding::NotApplicable,
            external_support: Finding::No,
            ds_channel: None,
            validates_ds: Finding::NotApplicable,
            verifies_email: Finding::NotApplicable,
            accepts_foreign_email: Finding::NotApplicable,
            external_fully_deployed: Finding::NotApplicable,
            publishes_ds: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Whether this registrar supports DNSSEC in *some* arrangement — the
    /// paper's headline counting.
    pub fn any_dnssec_support(&self) -> bool {
        self.operator_support == Finding::Yes || self.external_support == Finding::Yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs() {
        assert_eq!(Finding::Yes.glyph(), "●");
        assert_eq!(Finding::Partial.glyph(), "▲");
        assert_eq!(Finding::No.glyph(), "✗");
        assert_eq!(Finding::NotApplicable.ascii(), "-");
    }

    #[test]
    fn blank_report_supports_nothing() {
        let r = ProbeReport::new("X", "x.net");
        assert!(!r.any_dnssec_support());
        assert_eq!(r.dnssec_default, Finding::No);
    }
}
