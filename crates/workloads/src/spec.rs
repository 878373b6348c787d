//! The paper-calibrated registrar/operator profiles.
//!
//! Every named profile corresponds to a row of Table 2 (top-20 registrars
//! by market share), Table 3 (top-10 registrars by DNSSEC footprint),
//! Table 4 (registrar-vs-reseller roles per TLD), footnote 11 (parking
//! services), or §7 (third-party operators). Counts are the paper's
//! absolute numbers; the builder divides them by the configured scale.
//!
//! Where the paper gives only aggregates (ccTLD market shares), values are
//! chosen to reproduce the published aggregates (Table 1 percentages and
//! the per-registrar adoption ratios quoted in §5–6) and are marked
//! `// calibrated`.

use dsec_ecosystem::{
    ExternalDs, OperatorDnssec, Plan, PolicyChange, SimDate, Tld, TldPolicy, TldRole,
};

/// Per-TLD population parameters for one registrar.
#[derive(Debug, Clone, Copy, Default)]
pub struct TldLoad {
    /// Domains at full (1:1) scale.
    pub domains: u64,
    /// Fraction already signed (DNSKEY published) at the window start
    /// (2015-03-01).
    pub signed_at_start: f64,
    /// Fraction signed by the window end (2016-12-31); the builder derives
    /// the daily opt-in hazard from start → end.
    pub signed_at_end: f64,
}

impl TldLoad {
    /// A population with a constant signed fraction.
    pub fn steady(domains: u64, signed: f64) -> Self {
        TldLoad {
            domains,
            signed_at_start: signed,
            signed_at_end: signed,
        }
    }

    /// A population whose signed fraction grows over the window.
    pub fn growing(domains: u64, start: f64, end: f64) -> Self {
        TldLoad {
            domains,
            signed_at_start: start,
            signed_at_end: end,
        }
    }
}

/// One registrar profile.
#[derive(Debug, Clone)]
pub struct RegistrarSpec {
    /// Display name (matches the paper's Tables).
    pub name: &'static str,
    /// Nameserver domain (the operator grouping key from §4.2).
    pub ns_domain: &'static str,
    /// DNSSEC-when-registrar-is-operator policy.
    pub operator_dnssec: OperatorDnssec,
    /// External DS channel.
    pub external_ds: ExternalDs,
    /// Per-TLD (role, publishes DS, load).
    pub tlds: Vec<(Tld, TldRole, bool, TldLoad)>,
    /// Dated milestones (relative to the simulation calendar).
    pub milestones: Vec<(SimDate, PolicyChange)>,
    /// Plan mix: fraction of hosted customers on a premium plan.
    pub premium_share: f64,
}

impl RegistrarSpec {
    fn plain(
        name: &'static str,
        ns_domain: &'static str,
        operator_dnssec: OperatorDnssec,
        external_ds: ExternalDs,
    ) -> Self {
        RegistrarSpec {
            name,
            ns_domain,
            operator_dnssec,
            external_ds,
            tlds: Vec::new(),
            milestones: Vec::new(),
            premium_share: 0.2,
        }
    }

    fn tld(mut self, tld: Tld, role: TldRole, publishes_ds: bool, load: TldLoad) -> Self {
        self.tlds.push((tld, role, publishes_ds, load));
        self
    }

    fn milestone(mut self, on: SimDate, change: PolicyChange) -> Self {
        self.milestones.push((on, change));
        self
    }

    /// The policy object for this spec.
    pub fn policy(&self) -> dsec_ecosystem::RegistrarPolicy {
        dsec_ecosystem::RegistrarPolicy {
            operator_dnssec: self.operator_dnssec.clone(),
            external_ds: self.external_ds.clone(),
            tlds: self
                .tlds
                .iter()
                .map(|(tld, role, publishes_ds, _)| {
                    (
                        *tld,
                        TldPolicy {
                            role: role.clone(),
                            publishes_ds: *publishes_ds,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Splits a combined .com/.net/.org count by the TLDs' DNSSEC-weighted
/// sizes (com 77%, net 13%, org 10% of signed domains).
pub(crate) fn split_gtld(total: u64) -> [u64; 3] {
    [
        total * 77 / 100,
        total * 13 / 100,
        total - total * 77 / 100 - total * 13 / 100,
    ]
}

fn d(y: u16, m: u8, day: u8) -> SimDate {
    SimDate::from_ymd(y, m, day)
}

/// Registrar role shorthand.
fn r() -> TldRole {
    TldRole::Registrar
}

fn via(partner: &str) -> TldRole {
    TldRole::ResellerVia(partner.to_string())
}

/// The top-20 registrars of Table 2 (market-share ordering), with their
/// probed DNSSEC policies.
pub fn table2_registrars() -> Vec<RegistrarSpec> {
    let web = |validates| ExternalDs::Web { validates };
    let email = |verifies_sender, accepts_foreign_sender, validates| ExternalDs::Email {
        verifies_sender,
        accepts_foreign_sender,
        validates,
    };
    let mut specs = Vec::new();

    // GoDaddy: paid DNSSEC ($35/yr) → 0.02% adoption; web DS upload, no
    // validation.
    let mut godaddy = RegistrarSpec::plain(
        "GoDaddy",
        "domaincontrol.com",
        OperatorDnssec::Paid {
            cents_per_year: 3500,
            adoption_rate: 0.0002,
        },
        web(false),
    );
    for (tld, count) in [
        (Tld::Com, split_gtld(37_652_477)[0]),
        (Tld::Net, split_gtld(37_652_477)[1]),
        (Tld::Org, split_gtld(37_652_477)[2]),
    ] {
        godaddy = godaddy.tld(tld, r(), true, TldLoad::growing(count, 0.0001, 0.0002));
    }
    godaddy = godaddy
        .tld(Tld::Nl, r(), true, TldLoad::steady(120_000, 0.0002)) // calibrated
        .tld(Tld::Se, r(), true, TldLoad::steady(30_000, 0.0002)); // calibrated
    specs.push(godaddy);

    // No-DNSSEC gTLD registrars (policy row: all ✗).
    let no_dnssec: [(&'static str, &'static str, u64); 8] = [
        ("Alibaba", "hichina.com", 4_292_138),
        ("1AND1", "1and1.sim", 3_802_824),
        ("NetworkSolutions", "worldnic.com", 2_534_673),
        ("Bluehost", "bluehost.com", 2_066_503),
        ("WIX", "wixdns.net", 1_887_139),
        ("register.com", "register.com", 1_311_969),
        ("WordPress", "wordpress.com", 888_174),
        ("Xinnet", "xincache.com", 836_293),
    ];
    for (name, ns, total) in no_dnssec {
        let mut s = RegistrarSpec::plain(
            name,
            ns,
            OperatorDnssec::Unsupported,
            ExternalDs::Unsupported,
        );
        let [c, n, o] = split_gtld(total);
        s = s
            .tld(Tld::Com, r(), false, TldLoad::steady(c, 0.0))
            .tld(Tld::Net, r(), false, TldLoad::steady(n, 0.0))
            .tld(Tld::Org, r(), false, TldLoad::steady(o, 0.0));
        specs.push(s);
    }

    // Yahoo: no DNSSEC (kept separate for ordering fidelity).
    let mut yahoo = RegistrarSpec::plain(
        "Yahoo",
        "yahoo.com",
        OperatorDnssec::Unsupported,
        ExternalDs::Unsupported,
    );
    let [c, n, o] = split_gtld(690_823);
    yahoo = yahoo
        .tld(Tld::Com, r(), false, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), false, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), false, TldLoad::steady(o, 0.0));
    specs.push(yahoo);

    // eNom: owner-operator only, via verified email.
    let mut enom = RegistrarSpec::plain(
        "eNom",
        "name-services.com",
        OperatorDnssec::Unsupported,
        email(true, false, false),
    );
    let [c, n, o] = split_gtld(2_525_828);
    enom = enom
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(enom);

    // NameCheap: DNSSEC by default on paid DNS plans only; DS published
    // for .com/.net but not .org (Table 3 footnote).
    let mut namecheap = RegistrarSpec::plain(
        "NameCheap",
        "registrar-servers.com",
        OperatorDnssec::DefaultOnPlans(vec![Plan::Premium]),
        web(false),
    );
    let [c, n, o] = split_gtld(1_963_717);
    namecheap = namecheap
        .tld(Tld::Com, r(), true, TldLoad::growing(c, 0.002, 0.0059))
        .tld(Tld::Net, r(), true, TldLoad::growing(n, 0.002, 0.0059))
        .tld(
            Tld::Org,
            via("eNom"),
            false,
            TldLoad::growing(o, 0.002, 0.0059),
        );
    specs.push(namecheap);

    // HostGator: owner-operator DNSSEC via live chat (error-prone).
    let mut hostgator = RegistrarSpec::plain(
        "HostGator",
        "hostgator.com",
        OperatorDnssec::Unsupported,
        ExternalDs::Chat { mistake_rate: 0.02 },
    );
    let [c, n, o] = split_gtld(1_849_735);
    hostgator = hostgator
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(hostgator);

    // NameBright: email channel, does NOT verify the email.
    let mut namebright = RegistrarSpec::plain(
        "NameBright",
        "namebrightdns.com",
        OperatorDnssec::Unsupported,
        email(false, false, false),
    );
    let [c, n, o] = split_gtld(1_823_823);
    namebright = namebright
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(namebright);

    // OVH: free opt-in DNSSEC; validating web form. 25.9% signed by the
    // window end, ≈8% at the start (Figure 4).
    let mut ovh = RegistrarSpec::plain(
        "OVH",
        "ovh.net",
        OperatorDnssec::OptIn {
            adoption_rate: 0.26,
        },
        web(true),
    );
    let [c, n, o] = split_gtld(1_228_578);
    ovh = ovh
        .tld(Tld::Com, r(), true, TldLoad::growing(c, 0.08, 0.259))
        .tld(Tld::Net, r(), true, TldLoad::growing(n, 0.08, 0.259))
        .tld(Tld::Org, r(), true, TldLoad::growing(o, 0.08, 0.259))
        .tld(Tld::Nl, r(), true, TldLoad::growing(60_000, 0.08, 0.259)) // calibrated
        .tld(Tld::Se, r(), true, TldLoad::growing(15_000, 0.08, 0.259)); // calibrated
    specs.push(ovh);

    // DreamHost: email channel (unverified email!) but validates the DS.
    let mut dreamhost = RegistrarSpec::plain(
        "DreamHost",
        "dreamhost.com",
        OperatorDnssec::Unsupported,
        email(false, false, true),
    );
    let [c, n, o] = split_gtld(1_117_902);
    dreamhost = dreamhost
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(dreamhost);

    // Amazon Route 53: web upload (of a DNSKEY, from which it derives the
    // DS — modeled as FetchDnskey-adjacent web validation ▲).
    let mut amazon = RegistrarSpec::plain(
        "Amazon",
        "awsdns.sim",
        OperatorDnssec::Unsupported,
        web(false),
    );
    let [c, n, o] = split_gtld(865_065);
    amazon = amazon
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(amazon);

    // Google Domains: web upload, no validation.
    let mut google = RegistrarSpec::plain(
        "Google",
        "googledomains.com",
        OperatorDnssec::Unsupported,
        web(false),
    );
    let [c, n, o] = split_gtld(813_945);
    google = google
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0024))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0024))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0024));
    specs.push(google);

    // 123-reg: support-ticket channel, no validation.
    let mut reg123 = RegistrarSpec::plain(
        "123-reg",
        "123-reg.co.uk",
        OperatorDnssec::Unsupported,
        ExternalDs::Ticket,
    );
    let [c, n, o] = split_gtld(720_435);
    reg123 = reg123
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(reg123);

    // Rightside (name.com): web upload, no validation.
    let mut rightside = RegistrarSpec::plain(
        "Rightside",
        "name.com",
        OperatorDnssec::Unsupported,
        web(false),
    );
    let [c, n, o] = split_gtld(663_616);
    rightside = rightside
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.0))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.0))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.0));
    specs.push(rightside);

    specs
}

/// The Table-3 DNSSEC-heavy registrars not already in Table 2
/// (OVH and NameCheap appear in both).
pub fn table3_registrars() -> Vec<RegistrarSpec> {
    let web = |validates| ExternalDs::Web { validates };
    let email = |verifies_sender, accepts_foreign_sender, validates| ExternalDs::Email {
        verifies_sender,
        accepts_foreign_sender,
        validates,
    };
    let mut specs = Vec::new();

    // Loopia (SE): signs everything by default, but uploads DS for .se
    // only → its gTLD domains are all partially deployed.
    let mut loopia = RegistrarSpec::plain(
        "Loopia",
        "loopia.se",
        OperatorDnssec::Default,
        email(true, false, false),
    );
    let [c, n, o] = split_gtld(131_726);
    loopia = loopia
        .tld(Tld::Com, via("Ascio"), false, TldLoad::steady(c, 1.0))
        .tld(Tld::Net, via("Ascio"), false, TldLoad::steady(n, 1.0))
        .tld(Tld::Org, via("Ascio"), false, TldLoad::steady(o, 1.0))
        .tld(Tld::Nl, via("Ascio"), false, TldLoad::steady(8_000, 1.0)) // calibrated
        .tld(Tld::Se, r(), true, TldLoad::steady(380_000, 0.92)); // calibrated
    specs.push(loopia);

    // DomainNameShop (NO): full support everywhere it sells.
    let mut dns_shop = RegistrarSpec::plain(
        "DomainNameShop",
        "hyp.net",
        OperatorDnssec::Default,
        web(false),
    );
    let [c, n, o] = split_gtld(94_084);
    dns_shop = dns_shop
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.97))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.97))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.97));
    specs.push(dns_shop);

    // TransIP (NL): registrar for com/net/org/nl (99.2% signed), reseller
    // via KeySystems for .se where DNSSEC lagged (48.4%).
    let mut transip = RegistrarSpec::plain(
        "TransIP",
        "transip.net",
        OperatorDnssec::Default,
        web(false),
    );
    let [c, n, o] = split_gtld(138_110); // transip.net + transip.nl combined
    transip = transip
        .tld(Tld::Com, r(), true, TldLoad::steady(c, 0.992))
        .tld(Tld::Net, r(), true, TldLoad::steady(n, 0.992))
        .tld(Tld::Org, r(), true, TldLoad::steady(o, 0.992))
        .tld(Tld::Nl, r(), true, TldLoad::steady(700_000, 0.992)) // calibrated
        .tld(
            Tld::Se,
            via("KeySystems"),
            true,
            TldLoad::growing(40_000, 0.10, 0.484), // calibrated; renewal-paced
        );
    specs.push(transip);

    // MeshDigital / domainmonster: signs everything, uploads DS for
    // almost nothing (4 of 60,425).
    let mut mesh = RegistrarSpec::plain(
        "MeshDigital",
        "domainmonster.com",
        OperatorDnssec::Default,
        email(false, true, false), // accepted mail from a different address (§6.4)
    );
    let [c, n, o] = split_gtld(60_425);
    mesh = mesh
        .tld(Tld::Com, r(), false, TldLoad::steady(c, 1.0))
        .tld(Tld::Net, r(), false, TldLoad::steady(n, 1.0))
        .tld(Tld::Org, r(), false, TldLoad::steady(o, 1.0))
        .tld(Tld::Nl, r(), false, TldLoad::steady(6_000, 1.0)); // calibrated
    specs.push(mesh);

    // Binero (SE): full support for com/net/org/se; 37.8% gTLD adoption,
    // 92.9% at home.
    let mut binero = RegistrarSpec::plain(
        "Binero",
        "binero.se",
        OperatorDnssec::Default,
        email(false, false, false),
    );
    let [c, n, o] = split_gtld(118_000); // 44,650 signed / 0.378
    binero = binero
        .tld(Tld::Com, r(), true, TldLoad::growing(c, 0.25, 0.378))
        .tld(Tld::Net, r(), true, TldLoad::growing(n, 0.25, 0.378))
        .tld(Tld::Org, r(), true, TldLoad::growing(o, 0.25, 0.378))
        .tld(Tld::Se, r(), true, TldLoad::steady(300_000, 0.929)); // calibrated
    specs.push(binero);

    // KPN (NL): signs everywhere, DS only for .nl (mirror of Loopia).
    let mut kpn = RegistrarSpec::plain(
        "KPN",
        "is.nl",
        OperatorDnssec::Default,
        ExternalDs::Unsupported, // Table 3: no owner-operator support
    );
    let [c, n, o] = split_gtld(15_738);
    kpn = kpn
        .tld(Tld::Com, via("Ascio"), false, TldLoad::steady(c, 1.0))
        .tld(Tld::Net, via("Ascio"), false, TldLoad::steady(n, 1.0))
        .tld(Tld::Org, via("Ascio"), false, TldLoad::steady(o, 1.0))
        .tld(Tld::Nl, r(), true, TldLoad::steady(300_000, 0.95)) // calibrated
        .tld(
            Tld::Se,
            via("OpenProvider"),
            false,
            TldLoad::steady(3_000, 1.0),
        ); // calibrated
    specs.push(kpn);

    // PCExtreme (NL): the March-2015 mass signing (0.44% → 98.3% in 10
    // days), FetchDnskey DS channel.
    let [c, n, o] = split_gtld(15_226); // 14,967 signed / 0.983
    let pcextreme = RegistrarSpec::plain(
        "PCExtreme",
        "pcextreme.nl",
        OperatorDnssec::Default,
        ExternalDs::FetchDnskey,
    )
    .tld(
        Tld::Com,
        via("OpenProvider"),
        true,
        TldLoad::steady(c, 0.0044),
    )
    .tld(
        Tld::Net,
        via("OpenProvider"),
        true,
        TldLoad::steady(n, 0.0044),
    )
    .tld(
        Tld::Org,
        via("OpenProvider"),
        true,
        TldLoad::steady(o, 0.0044),
    )
    .tld(Tld::Nl, r(), true, TldLoad::steady(120_000, 0.0044)) // calibrated
    .milestone(
        d(2015, 3, 15),
        PolicyChange::MassSignHosted {
            tlds: vec![Tld::Com, Tld::Net, Tld::Org, Tld::Nl],
            over_days: 10,
        },
    );
    specs.push(pcextreme);

    // Antagonist (NL): switched gTLD partner to OpenProvider in Dec 2014,
    // and its existing domains moved (and got signed) at renewal — the
    // gradual curve of Figure 6a. Its .nl is already at 95.4%.
    let [c, n, o] = split_gtld(28_100); // 14,806 signed / 0.527 at window end
    let antagonist = RegistrarSpec::plain(
        "Antagonist",
        "webhostingserver.nl",
        OperatorDnssec::Default,
        ExternalDs::Unsupported, // Table 3: no owner-operator support
    )
    // The switch is not modelled: the gTLD domains start under
    // OpenProvider, 5% signed, and `TldLoad::growing`'s opt-in hazard
    // draws the curve up to 52.7%. Migration at renewal
    // (`PolicyChange::SwitchPartner`) is a capability only tests use.
    .tld(
        Tld::Com,
        via("OpenProvider"),
        true,
        TldLoad::growing(c, 0.05, 0.527),
    )
    .tld(
        Tld::Net,
        via("OpenProvider"),
        true,
        TldLoad::growing(n, 0.05, 0.527),
    )
    .tld(
        Tld::Org,
        via("OpenProvider"),
        true,
        TldLoad::growing(o, 0.05, 0.527),
    )
    .tld(Tld::Nl, r(), true, TldLoad::steady(110_000, 0.954)); // calibrated
    specs.push(antagonist);

    specs
}

/// Partner registrars referenced by Table 4 (Ascio, OpenProvider,
/// KeySystems, plus the pre-switch partner "Direct"). They sell little
/// retail themselves but must exist to sponsor reseller registrations.
pub fn partner_registrars() -> Vec<RegistrarSpec> {
    ["Ascio", "OpenProvider", "KeySystems", "Direct"]
        .into_iter()
        .map(|name| {
            let ns: &'static str = match name {
                "Ascio" => "ascio.sim",
                "OpenProvider" => "openprovider.sim",
                "KeySystems" => "keysystems.sim",
                _ => "direct.sim",
            };
            let mut s = RegistrarSpec::plain(
                name,
                ns,
                OperatorDnssec::Unsupported,
                ExternalDs::Web { validates: false },
            );
            for tld in dsec_ecosystem::ALL_TLDS {
                s = s.tld(tld, TldRole::Registrar, true, TldLoad::steady(0, 0.0));
            }
            s
        })
        .collect()
}

/// Footnote-11 parking services: huge operators, zero DNSSEC.
pub fn parking_operators() -> Vec<(&'static str, &'static str, u64)> {
    vec![
        ("Ename", "ename.sim", 1_604_676),
        ("BuyDomains", "buydomains.sim", 1_190_973),
        ("SedoParking", "sedoparking.com", 1_186_838),
        ("DomainNameSales", "domainnamesales.com", 1_081_944),
        ("CashParking", "cashparking.com", 1_012_114),
        ("HugeDomains", "hugedomains.com", 807_607),
        ("ParkingCrew", "parkingcrew.net", 660_081),
        ("RookMedia", "rookmedia.net", 619_254),
        ("ztomy", "ztomy.com", 631_381),
    ]
}

/// §7 third-party DNS operators.
pub struct ThirdPartySpec {
    /// Display name.
    pub name: &'static str,
    /// Nameserver domain.
    pub ns_domain: &'static str,
    /// Hosted .com/.net/.org domains at full scale.
    pub domains: u64,
    /// DNSSEC launch date, if any.
    pub launch: Option<SimDate>,
    /// Fraction of hosted domains with DNSKEY by the window end.
    pub signed_at_end: f64,
    /// Fraction of signing owners who complete the DS relay (§7: ≈60%).
    pub relay_success: f64,
}

/// Cloudflare and DNSPod.
pub fn third_parties() -> Vec<ThirdPartySpec> {
    vec![
        ThirdPartySpec {
            name: "DNSPod",
            ns_domain: "dnspod.net",
            domains: 2_309_215,
            launch: None,
            signed_at_end: 0.0,
            relay_success: 0.0,
        },
        ThirdPartySpec {
            name: "Cloudflare",
            ns_domain: "cloudflare-dns.sim",
            domains: 1_561_687,
            launch: Some(d(2015, 11, 11)),
            signed_at_end: 0.019,
            relay_success: 0.607,
        },
    ]
}

/// Mid-tail European registrars that account for the remaining ≈18% of
/// DNSSEC-signed gTLD domains (calibrated; the paper only names the top
/// 10). Half publish DS correctly, half leave partial deployments, so the
/// partial-deployment CDF (Figure 3) is not over-concentrated.
pub fn midtail_dnssec_registrars() -> Vec<RegistrarSpec> {
    let mut specs = Vec::new();
    for i in 0..10 {
        let publishes = i % 2 == 0;
        let name: &'static str = Box::leak(format!("EuroReg{i:02}").into_boxed_str());
        let ns: &'static str = Box::leak(format!("euroreg{i:02}.sim").into_boxed_str());
        let mut s = RegistrarSpec::plain(
            name,
            ns,
            OperatorDnssec::Default,
            ExternalDs::Web { validates: false },
        );
        let [c, n, o] = split_gtld(19_000);
        s = s
            .tld(Tld::Com, r(), publishes, TldLoad::steady(c, 0.95))
            .tld(Tld::Net, r(), publishes, TldLoad::steady(n, 0.95))
            .tld(Tld::Org, r(), publishes, TldLoad::steady(o, 0.95))
            // calibrated ccTLD long-tail mass so Table 1's .nl/.se
            // percentages land: these registrars carry the remainder.
            .tld(Tld::Nl, r(), true, TldLoad::steady(200_000, 0.85))
            .tld(Tld::Se, r(), true, TldLoad::steady(12_000, 0.0));
        specs.push(s);
    }
    specs
}

/// Remaining unsigned ccTLD mass (hosting-only registrars with no DNSSEC),
/// so the .nl/.se totals reach Table 1's population sizes.
pub fn cctld_fill_registrars() -> Vec<RegistrarSpec> {
    let mut specs = Vec::new();
    for (name, ns, nl, se) in [
        ("NlHostA", "nlhosta.sim", 1_300_000u64, 0u64),
        ("NlHostB", "nlhostb.sim", 950_000, 0),
        ("SeHostA", "sehosta.sim", 0, 350_000),
        ("SeHostB", "sehostb.sim", 0, 150_000),
    ] {
        let mut s = RegistrarSpec::plain(
            name,
            ns,
            OperatorDnssec::Unsupported,
            ExternalDs::Unsupported,
        );
        if nl > 0 {
            s = s.tld(Tld::Nl, r(), false, TldLoad::steady(nl, 0.0));
        }
        if se > 0 {
            s = s.tld(Tld::Se, r(), false, TldLoad::steady(se, 0.0));
        }
        specs.push(s);
    }
    specs
}

/// Full-scale totals per TLD (Table 1), used to size the anonymous long
/// tail after the named profiles are placed.
pub fn table1_totals() -> [(Tld, u64); 5] {
    [
        (Tld::Com, 118_147_199),
        (Tld::Net, 13_773_903),
        (Tld::Org, 9_682_750),
        (Tld::Nl, 5_674_208),
        (Tld::Se, 1_388_372),
    ]
}

/// The user-traffic workload model consumed by the traffic plane
/// (`dsec-traffic`): which TLD a query lands in, how popularity is
/// distributed inside the TLD, which qtype is asked, and whether the
/// query names the apex or the `www` host.
///
/// The paper measures *domains*; this spec re-expresses the same
/// population in *query* space. Values are `// calibrated`: TLD shares
/// follow registration volume skewed further toward .com (resolver-trace
/// studies consistently report gTLD-dominated traffic), and the Zipf
/// exponent sits in the 0.9–1.0 band reported for DNS query popularity.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// Zipf exponent `s` for intra-TLD domain popularity (rank-`k`
    /// probability ∝ `1 / k^s`).
    pub zipf_exponent: f64,
    /// Query share per TLD; weights are normalized by the sampler, so
    /// they need not sum to exactly 1.
    pub tld_share: Vec<(Tld, f64)>,
    /// Query share per qtype (normalized like `tld_share`).
    pub qtype_share: Vec<(QtypeMix, f64)>,
    /// Fraction of queries naming `www.<domain>` rather than the apex.
    pub www_share: f64,
}

/// Query types the workload issues. A dedicated enum (rather than a raw
/// rrtype number) keeps the spec independent of the wire crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QtypeMix {
    /// IPv4 address lookups — the bulk of stub traffic.
    A,
    /// IPv6 address lookups.
    Aaaa,
    /// Mail-routing lookups (always at the apex).
    Mx,
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix {
            zipf_exponent: 0.95, // calibrated
            tld_share: vec![
                (Tld::Com, 0.72), // calibrated
                (Tld::Net, 0.10),
                (Tld::Org, 0.08),
                (Tld::Nl, 0.07),
                (Tld::Se, 0.03),
            ],
            qtype_share: vec![
                (QtypeMix::A, 0.70), // calibrated
                (QtypeMix::Aaaa, 0.22),
                (QtypeMix::Mx, 0.08),
            ],
            www_share: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_twenty_registrars() {
        assert_eq!(table2_registrars().len(), 20);
    }

    #[test]
    fn table3_plus_overlap_covers_the_paper_list() {
        // OVH and NameCheap live in the Table-2 list; the other eight are
        // here (TransIP merges its two nameserver domains).
        assert_eq!(table3_registrars().len(), 8);
    }

    #[test]
    fn only_three_table2_registrars_sign_hosted_domains() {
        // The paper's headline: GoDaddy (paid), NameCheap (plan-gated),
        // OVH (opt-in).
        let supporting: Vec<&str> = table2_registrars()
            .iter()
            .filter(|s| s.operator_dnssec.supported())
            .map(|s| s.name)
            .collect();
        assert_eq!(supporting, vec!["GoDaddy", "NameCheap", "OVH"]);
    }

    #[test]
    fn eleven_table2_registrars_support_external_ds() {
        let count = table2_registrars()
            .iter()
            .filter(|s| s.external_ds.supported())
            .count();
        assert_eq!(count, 11);
    }

    #[test]
    fn loopia_and_kpn_only_publish_ds_at_home() {
        for spec in table3_registrars() {
            match spec.name {
                "Loopia" => {
                    for (tld, _, publishes, _) in &spec.tlds {
                        assert_eq!(*publishes, *tld == Tld::Se, "Loopia {tld}");
                    }
                }
                "KPN" => {
                    for (tld, _, publishes, _) in &spec.tlds {
                        assert_eq!(*publishes, *tld == Tld::Nl, "KPN {tld}");
                    }
                }
                "MeshDigital" => {
                    assert!(
                        spec.tlds.iter().all(|(_, _, p, _)| !p),
                        "Mesh never uploads"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn market_shares_cover_table2_claim() {
        // Table 2's registrars cover 54.3% of .com/.net/.org; the named
        // specs (incl. parking and third parties as operators) should sum
        // close to that against Table 1 totals.
        let named: u64 = table2_registrars()
            .iter()
            .chain(table3_registrars().iter())
            .flat_map(|s| s.tlds.iter())
            .filter(|(t, ..)| !t.is_cctld())
            .map(|(.., load)| load.domains)
            .sum::<u64>()
            + parking_operators().iter().map(|(_, _, c)| c).sum::<u64>()
            + third_parties().iter().map(|t| t.domains).sum::<u64>();
        let total: u64 = table1_totals()
            .iter()
            .filter(|(t, _)| !t.is_cctld())
            .map(|(_, c)| c)
            .sum();
        let share = named as f64 / total as f64;
        assert!(
            (0.50..0.60).contains(&share),
            "named gTLD share {share:.3} should be ≈0.543"
        );
    }

    #[test]
    fn cctld_signed_fractions_match_table1() {
        // .nl 51.6%, .se 46.7% with DNSKEY. Sum signed/total across specs.
        let mut totals: std::collections::BTreeMap<Tld, (f64, f64)> = Default::default();
        for spec in table2_registrars()
            .into_iter()
            .chain(table3_registrars())
            .chain(midtail_dnssec_registrars())
            .chain(cctld_fill_registrars())
        {
            for (tld, _, _, load) in &spec.tlds {
                let e = totals.entry(*tld).or_default();
                e.0 += load.domains as f64;
                e.1 += load.domains as f64 * load.signed_at_end;
            }
        }
        let nl = totals[&Tld::Nl];
        let se = totals[&Tld::Se];
        let nl_frac = nl.1 / nl.0;
        let se_frac = se.1 / se.0;
        assert!((0.45..0.60).contains(&nl_frac), ".nl signed {nl_frac:.3}");
        assert!((0.40..0.55).contains(&se_frac), ".se signed {se_frac:.3}");
    }

    #[test]
    fn policies_build() {
        for spec in table2_registrars()
            .into_iter()
            .chain(table3_registrars())
            .chain(partner_registrars())
            .chain(midtail_dnssec_registrars())
            .chain(cctld_fill_registrars())
        {
            let policy = spec.policy();
            assert_eq!(policy.tlds.len(), spec.tlds.len(), "{}", spec.name);
        }
    }

    #[test]
    fn traffic_mix_defaults_are_normalized() {
        let mix = TrafficMix::default();
        let tld_total: f64 = mix.tld_share.iter().map(|(_, w)| w).sum();
        let qtype_total: f64 = mix.qtype_share.iter().map(|(_, w)| w).sum();
        assert!(
            (tld_total - 1.0).abs() < 1e-9,
            "TLD shares sum to {tld_total}"
        );
        assert!(
            (qtype_total - 1.0).abs() < 1e-9,
            "qtype shares sum to {qtype_total}"
        );
        assert!(mix.zipf_exponent > 0.0);
        assert!((0.0..=1.0).contains(&mix.www_share));
        // Every scanned TLD appears in the mix, .com heaviest.
        assert_eq!(mix.tld_share.len(), 5);
        assert_eq!(mix.tld_share[0].0, Tld::Com);
        for window in mix.tld_share.windows(2) {
            assert!(window[0].1 >= window[1].1, "shares sorted heaviest-first");
        }
    }
}
