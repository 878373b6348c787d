//! The 8-step probe workflow (§5.1), executed as a paying customer
//! against the simulated registrars.
//!
//! The harness may only use customer-visible actions — `purchase`,
//! `enable_dnssec`, `switch_to_owner_hosting`, `upload_ds` — and DNS
//! queries; the registrar's *policy* is never read directly. Everything
//! in the resulting [`ProbeReport`] is therefore *discovered*, exactly as
//! the paper's authors discovered it.

use dsec_dnssec::{classify, DeploymentStatus};
use dsec_ecosystem::{
    ActionError, DsSubmission, Hosting, Plan, RegistrarId, Tld, UploadOutcome, World,
};
use dsec_wire::DsRdata;

use crate::report::{DsChannel, Finding, ProbeReport};

/// Runs the full probe against one registrar.
pub fn probe_registrar(world: &mut World, registrar: RegistrarId) -> ProbeReport {
    let info = world.registrar(registrar);
    let mut report = ProbeReport::new(info.name.clone(), info.operator_ns_domain(world));
    // Re-probing the same registrar (OVH and NameCheap appear in both of
    // the paper's lists) buys fresh domains.
    let nonce = world.domain_count();
    let email = "probe@securepki.org".to_string();

    // Pick a TLD this registrar actually sells, preferring .com.
    let tld = [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Se]
        .into_iter()
        .find(|&t| world.resolve_sponsor(registrar, t).is_ok());
    let Some(tld) = tld else {
        report
            .notes
            .push("registrar sells none of the studied TLDs".into());
        return report;
    };

    // ---- Steps 1–3: registrar-hosted purchase, default / opt-in / paid.
    probe_hosted(world, registrar, tld, &email, nonce, &mut report);

    // ---- Per-TLD DS publication (Table 3's ▲): repeat the hosted
    // experiment in every TLD the registrar sells.
    if report.operator_support == Finding::Yes {
        for t in dsec_ecosystem::ALL_TLDS {
            if world.resolve_sponsor(registrar, t).is_err() {
                continue;
            }
            if let Some(published) = probe_ds_publication(world, registrar, t, &email, nonce) {
                report.publishes_ds.insert(t, published);
            }
        }
    }

    // ---- Steps 4–8: owner-operated domain, DS conveyance channels.
    probe_external(world, registrar, tld, &email, nonce, &mut report);

    report
}

/// Steps 1–3: buy a hosted domain on each plan and see whether / how it
/// gets signed.
fn probe_hosted(
    world: &mut World,
    registrar: RegistrarId,
    tld: Tld,
    email: &str,
    nonce: usize,
    report: &mut ProbeReport,
) {
    let mut default_free = false;
    let mut default_premium = false;
    let mut enabled_domain = None;

    for (plan, flag) in [(Plan::Free, false), (Plan::Premium, true)] {
        let label = format!(
            "probe-{}-{nonce}-{}",
            slug(&report.registrar),
            if flag { "p" } else { "f" }
        );
        let Ok(domain) = world.purchase(
            registrar,
            &label,
            tld,
            Hosting::Registrar { plan },
            email.to_string(),
        ) else {
            continue;
        };
        let signed = world.observation_of(&domain).has_dnskey();
        if flag {
            default_premium = signed;
        } else {
            default_free = signed;
        }
        if signed && enabled_domain.is_none() {
            enabled_domain = Some(domain);
        } else if !signed && enabled_domain.is_none() {
            // Try opting in for free.
            match world.enable_dnssec(&domain) {
                Ok(()) => {
                    report.dnssec_optin = Finding::Yes;
                    enabled_domain = Some(domain);
                }
                Err(ActionError::RequiresPayment { cents_per_year }) => {
                    report.dnssec_paid_cents = Some(cents_per_year);
                    if world.enable_dnssec_paid(&domain).is_ok() {
                        enabled_domain = Some(domain);
                    }
                }
                Err(_) => {}
            }
        }
    }

    report.dnssec_default = match (default_free, default_premium) {
        (true, true) => Finding::Yes,
        (false, true) | (true, false) => Finding::Partial, // plan-gated
        (false, false) => Finding::No,
    };
    if report.dnssec_default == Finding::Partial {
        report
            .notes
            .push("DNSSEC by default only on some plans".into());
    }

    match &enabled_domain {
        Some(domain) => {
            report.operator_support = Finding::Yes;
            // Step 3: verify complete deployment.
            let obs = world.observation_of(domain);
            let status = classify(domain, &obs, world.today.epoch_seconds());
            report.hosted_fully_deployed = match status {
                DeploymentStatus::FullyDeployed => Finding::Yes,
                DeploymentStatus::PartiallyDeployed => Finding::Partial,
                _ => Finding::No,
            };
        }
        None => {
            report.operator_support = Finding::No;
        }
    }
}

/// Buys one hosted, signed domain in `tld` and reports whether a DS
/// actually appeared in the registry.
fn probe_ds_publication(
    world: &mut World,
    registrar: RegistrarId,
    tld: Tld,
    email: &str,
    nonce: usize,
) -> Option<bool> {
    let label = format!(
        "probe-{}-{nonce}-dspub",
        slug(&world.registrar(registrar).name)
    );
    let domain = world
        .purchase(
            registrar,
            &label,
            tld,
            Hosting::Registrar {
                plan: Plan::Premium,
            },
            email.to_string(),
        )
        .ok()?;
    if !world.observation_of(&domain).has_dnskey() {
        // Not signed by default on this TLD either; try opting in.
        if world.enable_dnssec(&domain).is_err() && world.enable_dnssec_paid(&domain).is_err() {
            return None;
        }
    }
    if !world.observation_of(&domain).has_dnskey() {
        return None;
    }
    Some(world.observation_of(&domain).has_ds())
}

/// Steps 4–8: switch to an owner-run nameserver, sign it ourselves, and
/// try every DS conveyance channel, including the security tests.
fn probe_external(
    world: &mut World,
    registrar: RegistrarId,
    tld: Tld,
    email: &str,
    nonce: usize,
    report: &mut ProbeReport,
) {
    let label = format!("probe-{}-{nonce}-ext", slug(&report.registrar));
    let Ok(domain) = world.purchase(
        registrar,
        &label,
        tld,
        Hosting::Registrar { plan: Plan::Free },
        email.to_string(),
    ) else {
        return;
    };
    // Step 4: disable registrar hosting, run our own nameserver.
    if world.switch_to_owner_hosting(&domain).is_err() {
        report
            .notes
            .push("registrar does not allow external nameservers".into());
        return;
    }
    let Ok(real_ds) = world.owner_sign_zone(&domain) else {
        return;
    };

    // Step 5: find a working channel.
    let channels = [
        (DsChannel::Web, DsSubmission::Web),
        (
            DsChannel::Email,
            DsSubmission::Email {
                claimed_from: email.to_string(),
                actual_from: email.to_string(),
            },
        ),
        (DsChannel::Chat, DsSubmission::Chat),
        (DsChannel::Ticket, DsSubmission::Ticket),
        (DsChannel::FetchDnskey, DsSubmission::FetchDnskey),
    ];
    for (channel, submission) in channels {
        match world.upload_ds(&domain, real_ds.clone(), submission) {
            Ok(UploadOutcome::ChannelUnsupported) => continue,
            Ok(UploadOutcome::DnssecUnsupported) => {
                report
                    .notes
                    .push(format!("channel exists but DS never published for {tld}"));
                report.ds_channel = Some(channel);
                break;
            }
            Ok(UploadOutcome::Accepted) => {
                report.external_support = Finding::Yes;
                report.ds_channel = Some(channel);
                break;
            }
            Ok(UploadOutcome::AcceptedOnWrongDomain(victim)) => {
                report.external_support = Finding::Yes;
                report.ds_channel = Some(channel);
                report.notes.push(format!(
                    "SECURITY: agent installed our DS on {victim} (chat mishap)"
                ));
                // Retry; with the mishap logged, continue probing.
                let _ = world.upload_ds(&domain, real_ds.clone(), DsSubmission::Chat);
                break;
            }
            Ok(UploadOutcome::RejectedInvalid) | Ok(UploadOutcome::EmailNotVerified) => {
                // Channel exists (we got a substantive response).
                report.external_support = Finding::Yes;
                report.ds_channel = Some(channel);
                break;
            }
            Err(_) => continue,
        }
    }

    let Some(channel) = report.ds_channel else {
        report.external_support = Finding::No;
        return;
    };

    // Step 6: verify the DS deployment completed.
    let obs = world.observation_of(&domain);
    report.external_fully_deployed = match classify(&domain, &obs, world.today.epoch_seconds()) {
        DeploymentStatus::FullyDeployed => Finding::Yes,
        DeploymentStatus::PartiallyDeployed => Finding::Partial,
        _ => Finding::No,
    };

    // Step 7: upload a DS that does NOT match the served DNSKEY. The
    // FetchDnskey channel takes no customer data at all, so there is
    // nothing to corrupt — inherently validated.
    if channel == DsChannel::FetchDnskey {
        report.validates_ds = Finding::Yes;
        return;
    }
    let wrong_ds = DsRdata {
        key_tag: real_ds.key_tag.wrapping_add(1),
        algorithm: real_ds.algorithm,
        digest_type: real_ds.digest_type,
        digest: real_ds.digest.iter().map(|b| b ^ 0x5A).collect(),
    };
    let submission = submission_for(channel, email, email);
    match world.upload_ds(&domain, wrong_ds, submission) {
        Ok(UploadOutcome::RejectedInvalid) => report.validates_ds = Finding::Yes,
        Ok(UploadOutcome::Accepted) | Ok(UploadOutcome::AcceptedOnWrongDomain(_)) => {
            report.validates_ds = Finding::No;
            report
                .notes
                .push("accepted arbitrary bytes as a DS record".into());
            // Restore the correct DS for subsequent checks.
            let _ = world.upload_ds(
                &domain,
                real_ds.clone(),
                submission_for(channel, email, email),
            );
        }
        Ok(UploadOutcome::DnssecUnsupported) => report.validates_ds = Finding::NotApplicable,
        _ => {}
    }

    // Step 8: email authentication tests (only for email channels).
    if channel == DsChannel::Email {
        // Forged From: header from an attacker-controlled mailbox.
        let forged = DsSubmission::Email {
            claimed_from: email.to_string(),
            actual_from: "attacker@evil.example".to_string(),
        };
        match world.upload_ds(&domain, real_ds.clone(), forged) {
            Ok(UploadOutcome::Accepted) => {
                report.verifies_email = Finding::No;
                report
                    .notes
                    .push("SECURITY: accepted DS from forged email sender".into());
            }
            Ok(UploadOutcome::EmailNotVerified) => report.verifies_email = Finding::Yes,
            _ => {}
        }
        // Mail from a completely different address, no forgery at all.
        let foreign = DsSubmission::Email {
            claimed_from: "stranger@elsewhere.example".to_string(),
            actual_from: "stranger@elsewhere.example".to_string(),
        };
        match world.upload_ds(&domain, real_ds, foreign) {
            Ok(UploadOutcome::Accepted) => {
                report.accepts_foreign_email = Finding::Yes;
                report.notes.push(
                    "SECURITY: accepted DS from an address other than the registrant's".into(),
                );
            }
            Ok(UploadOutcome::EmailNotVerified) => {
                report.accepts_foreign_email = Finding::No;
            }
            _ => {}
        }
    }
}

fn submission_for(channel: DsChannel, claimed: &str, actual: &str) -> DsSubmission {
    match channel {
        DsChannel::Web => DsSubmission::Web,
        DsChannel::Email => DsSubmission::Email {
            claimed_from: claimed.to_string(),
            actual_from: actual.to_string(),
        },
        DsChannel::Chat => DsSubmission::Chat,
        DsChannel::Ticket => DsSubmission::Ticket,
        DsChannel::FetchDnskey => DsSubmission::FetchDnskey,
    }
}

fn slug(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Extension helpers on ecosystem types used by the harness.
trait RegistrarExt {
    /// The nameserver domain of the registrar's hosting operator.
    fn operator_ns_domain(&self, world: &World) -> String;
}

impl RegistrarExt for dsec_ecosystem::Registrar {
    fn operator_ns_domain(&self, world: &World) -> String {
        world.operator(self.operator).ns_domain.to_string()
    }
}
