//! Longitudinal integration: the dated behaviour milestones produce the
//! curve shapes the paper's Figures 4–8 show, measured through the real
//! scanner over focused worlds.

use dsec::ecosystem::{
    ExternalDs, Hosting, OperatorDnssec, Plan, PolicyChange, RegistrarPolicy, SimDate, Tld,
    TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::scanner::{scan_campaign, CampaignConfig};
use dsec::wire::Name;

fn world(start: SimDate, end: SimDate) -> World {
    World::new(WorldConfig {
        start,
        end,
        key_pool: 2,
        ..WorldConfig::default()
    })
}

fn full_policy() -> RegistrarPolicy {
    RegistrarPolicy {
        operator_dnssec: OperatorDnssec::Default,
        external_ds: ExternalDs::Web { validates: false },
        tlds: ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
            .collect(),
    }
}

#[test]
fn mass_signing_milestone_produces_the_pcextreme_step() {
    // Figure 7's signature shape: near-zero, then >90% within ~10 days.
    let start = SimDate::from_ymd(2015, 3, 1);
    let end = SimDate::from_ymd(2015, 5, 1);
    let mut w = world(start, end);
    let mut policy = full_policy();
    policy.operator_dnssec = OperatorDnssec::OptIn { adoption_rate: 0.0 };
    let r = w.add_registrar("StepReg", Name::parse("stepreg.nl").unwrap(), policy);
    for i in 0..40 {
        w.purchase(
            r,
            &format!("c{i}"),
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    }
    w.add_milestone(
        r,
        SimDate::from_ymd(2015, 3, 15),
        PolicyChange::MassSignHosted {
            tlds: vec![Tld::Com],
            over_days: 10,
        },
    );
    let store = scan_campaign(&mut w, &CampaignConfig::new(end, 5));
    let series = store.series("stepreg.nl.", &[Tld::Com]);
    let before: Vec<f64> = series
        .iter()
        .filter(|p| p.date < SimDate::from_ymd(2015, 3, 15))
        .map(|p| p.full_fraction())
        .collect();
    let after: Vec<f64> = series
        .iter()
        .filter(|p| p.date >= SimDate::from_ymd(2015, 4, 1))
        .map(|p| p.full_fraction())
        .collect();
    assert!(before.iter().all(|&f| f == 0.0), "flat before the step");
    assert!(
        after.iter().all(|&f| f > 0.9),
        "above 90% after the step: {after:?}"
    );
}

#[test]
fn cloudflare_launch_starts_the_dnskey_ramp_with_relay_gap() {
    // Figure 8's shape: zero before launch; afterwards DNSKEY grows while
    // only ≈60% of those domains get a DS.
    let start = SimDate::from_ymd(2015, 10, 1);
    let end = SimDate::from_ymd(2016, 6, 1);
    let mut w = world(start, end);
    let r = w.add_registrar("Retail", Name::parse("retail.net").unwrap(), full_policy());
    let launch = SimDate::from_ymd(2015, 11, 11);
    let cf = w.add_third_party(
        "Cloudflare",
        Name::parse("cfdns.sim").unwrap(),
        Some(launch),
        0.02, // fast ramp so the focused world shows the shape quickly
        0.6,
    );
    for i in 0..120 {
        let d = w
            .purchase(
                r,
                &format!("site{i}"),
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .unwrap();
        w.enroll_third_party(&d, cf).unwrap();
    }
    let store = scan_campaign(&mut w, &CampaignConfig::new(end, 10));
    let series = store.series("cfdns.sim.", &[Tld::Com]);
    let before = series
        .iter()
        .filter(|p| p.date < launch)
        .map(|p| p.dnskey_fraction())
        .fold(0.0f64, f64::max);
    let last = series.last().unwrap();
    assert_eq!(before, 0.0, "nothing signed before universal DNSSEC");
    assert!(
        last.dnskey_fraction() > 0.5,
        "substantial signing after launch: {:.2}",
        last.dnskey_fraction()
    );
    let relay = last.ds_given_dnskey();
    assert!(
        (0.40..0.80).contains(&relay),
        "≈60% of signing owners complete the DS relay, got {relay:.2}"
    );
    // The DNSKEY fraction never decreases (owners don't unsign).
    let fractions: Vec<f64> = series.iter().map(|p| p.dnskey_fraction()).collect();
    assert!(fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9));
}

#[test]
fn partner_switch_migrates_gradually_at_renewals() {
    // Figure 6a's shape: a reseller switches partners; deployments follow
    // domain renewals, spreading over the following year.
    let start = SimDate::from_ymd(2015, 3, 1);
    let end = SimDate::from_ymd(2016, 6, 1);
    let mut w = world(start, end);
    let _old = w.add_registrar(
        "OldPartner",
        Name::parse("oldpartner.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    let _new = w.add_registrar(
        "NewPartner",
        Name::parse("newpartner.net").unwrap(),
        full_policy(),
    );
    let reseller = w.add_registrar(
        "ResellerCo",
        Name::parse("resellerco.nl").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Unsupported,
            tlds: [(
                Tld::Com,
                TldPolicy::without_ds(TldRole::ResellerVia("OldPartner".into())),
            )]
            .into(),
        },
    );
    // Domains with renewals spread across the year.
    let mut domains = Vec::new();
    for i in 0..24u32 {
        let d = w
            .purchase(
                reseller,
                &format!("shop{i}"),
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .unwrap();
        w.set_expiry(&d, start.plus_days(30 + i * 15));
        domains.push(d);
    }
    // The switch: one month in, migrate at renewal and start publishing.
    w.add_milestone(
        reseller,
        start.plus_days(30),
        PolicyChange::SwitchPartner {
            tld: Tld::Com,
            new_partner: "NewPartner".into(),
            migrate_at_renewal: true,
        },
    );
    let store = scan_campaign(&mut w, &CampaignConfig::new(end, 30));
    let series = store.series("resellerco.nl.", &[Tld::Com]);
    let fractions: Vec<f64> = series.iter().map(|p| p.full_fraction()).collect();
    // Starts at zero (old partner can't publish DS), rises monotonically,
    // ends near complete once every staggered renewal has passed.
    assert_eq!(fractions[0], 0.0);
    assert!(fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    let final_fraction = *fractions.last().unwrap();
    assert!(
        final_fraction > 0.9,
        "all renewals passed by the end: {final_fraction:.2}"
    );
    // Gradual, not a step: some intermediate snapshot sits strictly
    // between 20% and 80%.
    assert!(
        fractions.iter().any(|&f| f > 0.2 && f < 0.8),
        "migration is renewal-paced: {fractions:?}"
    );
}

#[test]
fn a_domain_renewing_today_migrates_on_its_anniversary() {
    // `set_expiry(d, today)` dates the first renewal to a day whose tick
    // has already run; the domain still renews on every anniversary, so
    // a partner switch lands a year later, once.
    let start = SimDate::from_ymd(2015, 3, 1);
    let mut w = world(start, start.plus_days(400));
    w.add_registrar(
        "OldPartner",
        Name::parse("oldpartner.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    let new_partner = w.add_registrar(
        "NewPartner",
        Name::parse("newpartner.net").unwrap(),
        full_policy(),
    );
    let reseller = w.add_registrar(
        "ResellerCo",
        Name::parse("resellerco.nl").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Unsupported,
            tlds: [(
                Tld::Com,
                TldPolicy::without_ds(TldRole::ResellerVia("OldPartner".into())),
            )]
            .into(),
        },
    );
    let d = w
        .purchase(
            reseller,
            "shop",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    w.set_expiry(&d, w.today);
    w.change_policy(
        reseller,
        PolicyChange::SwitchPartner {
            tld: Tld::Com,
            new_partner: "NewPartner".into(),
            migrate_at_renewal: true,
        },
    );
    let (eve, anniversary) = (w.today.plus_days(364), w.today.plus_days(365));
    w.advance_to(eve);
    assert_eq!(w.events.count("partner_migrated"), 0, "not before the day");
    w.advance_to(anniversary);
    assert_eq!(w.events.count("partner_migrated"), 1, "on the anniversary");
    assert_eq!(w.domain(&d).unwrap().sponsor, new_partner);
    w.advance_to(anniversary.plus_days(1));
    assert_eq!(w.events.count("partner_migrated"), 1, "exactly once");
}

#[test]
fn milestones_dated_today_or_earlier_apply_on_the_next_tick() {
    let start = SimDate::from_ymd(2015, 3, 1);
    let mut w = world(start, start.plus_days(30));
    let r = w.add_registrar(
        "Late",
        Name::parse("late.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    w.tick();
    let today = w.today;
    w.add_milestone(
        r,
        today,
        PolicyChange::SetOperatorDnssec(OperatorDnssec::Default),
    );
    w.add_milestone(r, start, PolicyChange::SetOptInHazard(0.5));
    w.add_milestone(
        r,
        today.plus_days(2),
        PolicyChange::SetExternalDs(ExternalDs::FetchDnskey),
    );
    w.tick();
    let registrar = w.registrar(r);
    assert_eq!(registrar.policy.operator_dnssec, OperatorDnssec::Default);
    assert_eq!(registrar.daily_optin_hazard, 0.5);
    assert_eq!(
        registrar.milestones.len(),
        1,
        "applied milestones are dropped"
    );
    assert_ne!(registrar.policy.external_ds, ExternalDs::FetchDnskey);
    w.advance_to(today.plus_days(2));
    let registrar = w.registrar(r);
    assert_eq!(registrar.policy.external_ds, ExternalDs::FetchDnskey);
    assert!(registrar.milestones.is_empty());
}
