//! The world: all registries, registrars, operators, and domains, plus the
//! customer-visible actions (purchase, enable DNSSEC, switch hosting,
//! convey a DS record over each channel) and the daily simulation tick.
//!
//! Every action that changes what a customer domain serves or delegates
//! is built from four private steps, taken in this order:
//!
//! 1. *admit* — a request over a registrar channel (`upload_ds`,
//!    `submit_ns_change`) needs a channel the registrar offers for it,
//!    and an emailed one must pass the channel's sender check;
//! 2. *sign* — pool keys salted by the hosting arrangement, served,
//!    installed on the domain (`set_keys`), then `Signed` logged;
//! 3. *serve* — the zone built where the hosting puts it (the
//!    registrar's operator, a third party, or the owner authority),
//!    optionally signed with a `SigningSet`, upserted, and noted in the
//!    domain's change generation;
//! 4. *commit* — one DS or NS write at the registry under the domain's
//!    sponsor; its events are logged only once the write succeeded.
//!
//! A hosting move drops the old zone, serves an unsigned owner zone when
//! moving to the owner, commits the new NS set and an empty DS set, then
//! rehosts. Serve and commit (with the CDS writer) are the only writers
//! of a customer zone and delegation, so the generation contract of
//! DESIGN.md §9 is kept in two places rather than at every action.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsec_authserver::{Authority, FaultPlane, Network};
use dsec_crypto::{Algorithm, DigestType};
use dsec_dnssec::{
    classify, ds_matches, sign_zone, sign_zone_set, DeploymentStatus, Observation, SignerConfig,
    SigningSet, ZoneKeys,
};
use dsec_resolver::{Exchange, ExchangeOutcome, RetryPolicy};
use dsec_wire::{DsRdata, FnvHashMap, Message, Name, RData, Record, RrSet, RrType, SoaRdata, Zone};

use crate::anchor::AnchorRollPlan;
use crate::clock::SimDate;
use crate::domain::{Domain, Hosting};
use crate::events::{Event, EventLog};
use crate::operator::{publish_cds, Operator, OperatorId};
use crate::policy::{ExternalDs, OperatorDnssec, TldRole};
use crate::registrar::{Milestone, PolicyChange, Registrar};
use crate::registry::Registry;
use crate::rollover::{DsTiming, RolloverPhase, RolloverPlan, RolloverStyle};
use crate::table::DomainId;
use crate::tld::{Tld, ALL_TLDS, BY_LABEL};
use crate::RegistrarId;

// The daily tick and its passes (`src/tick.rs`): a child module so the
// passes and their worklists share `World`'s private state.
#[path = "tick.rs"]
mod tick;

/// What the commit step writes into a delegation.
enum Delegation<'a> {
    /// The DS set; empty removes it.
    Ds(&'a [DsRdata]),
    /// The NS set.
    Ns(&'a [Name]),
}

/// The world's domains: one [`Domain`] payload column per TLD, indexed by
/// the registry's row, so a domain has no index of its own (DESIGN.md
/// §7.2). A row without a payload is a delegation the world did not sell
/// (one added through [`World::registry_mut`]).
#[derive(Default)]
struct Domains {
    /// Per TLD (`Tld as usize`): registry row → payload.
    columns: [Vec<Option<Domain>>; ALL_TLDS.len()],
    /// How many payloads the columns hold.
    count: usize,
    /// Registrant addresses that differ from the derived default
    /// ([`default_registrant_email`]); every other domain stores none.
    emails: FnvHashMap<DomainId, String>,
}

/// The registrant address a domain is given unless its buyer names
/// another: `owner@<label>.example`, the label spelled as it was bought
/// (`Domain.name` keeps the purchase spelling).
fn default_registrant_email(domain: &Domain) -> String {
    let label = domain.name.labels().next().expect("an SLD has labels");
    format!("owner@{}.example", String::from_utf8_lossy(label))
}

impl Domains {
    fn get(&self, id: DomainId) -> Option<&Domain> {
        self.columns[id.tld() as usize]
            .get(id.row() as usize)?
            .as_ref()
    }

    fn at(&self, id: DomainId) -> &Domain {
        self.get(id).expect("a stored domain")
    }

    fn at_mut(&mut self, id: DomainId) -> &mut Domain {
        self.columns[id.tld() as usize][id.row() as usize]
            .as_mut()
            .expect("a stored domain")
    }

    /// Stores a new domain at `id`, bought by `registrant`.
    fn insert(&mut self, id: DomainId, domain: Domain, registrant: String) {
        if registrant != default_registrant_email(&domain) {
            self.emails.insert(id, registrant);
        }
        let column = &mut self.columns[id.tld() as usize];
        let row = id.row() as usize;
        if column.len() <= row {
            column.resize_with(row + 1, || None);
        }
        debug_assert!(column[row].is_none(), "a row holds one domain");
        column[row] = Some(domain);
        self.count += 1;
    }

    /// The registrant address of the stored domain `id`: the one the
    /// buyer named, or the default derived from its first label.
    fn registrant_email(&self, id: DomainId) -> Cow<'_, str> {
        match self.emails.get(&id) {
            Some(email) => Cow::Borrowed(email),
            None => Cow::Owned(default_registrant_email(self.at(id))),
        }
    }

    /// Every payload with its id, in row order: for order-insensitive
    /// uses only.
    fn iter(&self) -> impl Iterator<Item = (DomainId, &Domain)> {
        ALL_TLDS
            .into_iter()
            .zip(&self.columns)
            .flat_map(|(tld, column)| {
                column
                    .iter()
                    .enumerate()
                    .filter_map(move |(row, d)| Some((DomainId::new(tld, row as u32), d.as_ref()?)))
            })
    }

    /// The payloads of one TLD with their ids, mutably, in row order.
    fn tld_mut(&mut self, tld: Tld) -> impl Iterator<Item = (DomainId, &mut Domain)> {
        self.columns[tld as usize]
            .iter_mut()
            .enumerate()
            .filter_map(move |(row, d)| Some((DomainId::new(tld, row as u32), d.as_mut()?)))
    }
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// First simulated day.
    pub start: SimDate,
    /// Last simulated day (signature validity extends past it).
    pub end: SimDate,
    /// RNG seed (the whole simulation is deterministic).
    pub seed: u64,
    /// Size of the shared key pool (operators draw customer keys from a
    /// pool instead of generating RSA keys per domain; see DESIGN.md).
    pub key_pool: usize,
    /// How often registries with incentives audit signed domains, days.
    pub audit_interval_days: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            start: SimDate::from_ymd(2015, 3, 1),
            end: SimDate::from_ymd(2016, 12, 31),
            seed: 0xD5EC,
            key_pool: 4,
            audit_interval_days: 7,
        }
    }
}

/// A third-party DNS operator profile (§7).
pub struct ThirdParty {
    /// The underlying operator.
    pub operator: OperatorId,
    /// When (if ever) it launches DNSSEC support (Cloudflare: 2015-11-11;
    /// DNSPod: never in the window).
    pub dnssec_launch: Option<SimDate>,
    /// Per-day probability that an unsigned hosted domain opts in after
    /// launch.
    pub daily_optin_hazard: f64,
    /// Probability the owner successfully relays the DS to the registrar
    /// (the paper measures ≈ 60%).
    pub relay_success: f64,
}

/// How a customer conveys a DS record to the registrar.
#[derive(Debug, Clone)]
pub enum DsSubmission {
    /// The registrar's web form.
    Web,
    /// Email. `claimed_from` is the From: header (forgeable); `actual_from`
    /// is who really controls the sending mailbox.
    Email {
        /// The (forgeable) From: header.
        claimed_from: String,
        /// The mailbox the sender actually controls.
        actual_from: String,
    },
    /// Live web chat with a support agent.
    Chat,
    /// A support ticket.
    Ticket,
    /// Ask the registrar to fetch the DNSKEY and derive the DS itself.
    FetchDnskey,
}

/// Outcome of a DS conveyance attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadOutcome {
    /// Installed at the registry for the intended domain.
    Accepted,
    /// SECURITY: the agent installed it on someone else's domain.
    AcceptedOnWrongDomain(Name),
    /// Rejected: the registrar validated the DS and it did not match the
    /// served DNSKEY.
    RejectedInvalid,
    /// Rejected: this channel does not exist at this registrar.
    ChannelUnsupported,
    /// Rejected: the email could not be authenticated.
    EmailNotVerified,
    /// Rejected: DNSSEC is not supported for this TLD / this registrar.
    DnssecUnsupported,
}

/// Errors from customer actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionError {
    /// The registrar does not sell this TLD.
    TldNotSold,
    /// The domain name is already registered.
    NameTaken,
    /// No such domain.
    NoSuchDomain,
    /// The registrar cannot do DNSSEC in this hosting arrangement.
    DnssecUnsupported,
    /// DNSSEC is available but costs money (GoDaddy's $35/yr premium).
    RequiresPayment {
        /// Yearly price in US cents.
        cents_per_year: u32,
    },
    /// The action does not apply to the domain's hosting arrangement.
    WrongHosting,
    /// `stall_rollover` / `resume_rollover` found no scheduled rollover
    /// for the domain.
    NoPendingRollover,
    /// A rollover is already scheduled for this domain; it must finish
    /// before another starts.
    RolloverInProgress,
    /// A registry-level failure.
    Registry(String),
}

/// A scheduled rollover in flight for one domain (see
/// [`crate::rollover::RolloverPlan`] for the schedule arithmetic).
#[derive(Debug, Clone)]
pub struct RolloverState {
    /// The day-pinned schedule being executed.
    pub plan: RolloverPlan,
    /// Where the operator side currently stands.
    pub phase: RolloverPhase,
    /// Whether the DS leg has fired: the registrar's write taken, or the
    /// child's CDS published for the registry's scan.
    pub ds_swapped: bool,
    /// Operator frozen mid-rollover (outage): phase work, CDS publication
    /// and signature refresh stop until [`World::resume_rollover`]; a
    /// registrar's DS leg keeps its own schedule — the registrar is a
    /// different organisation.
    pub stalled: bool,
    old_keys: ZoneKeys,
    new_keys: ZoneKeys,
    /// Expiration (epoch seconds) of the RRSIGs currently served, when
    /// the plan bounds signature validity.
    signed_until: Option<u32>,
    expiry_noted: bool,
}

impl RolloverState {
    /// When the currently served RRSIGs lapse (epoch seconds), if the
    /// plan bounds validity and the transitional set is being served.
    pub fn signed_until(&self) -> Option<u32> {
        self.signed_until
    }
}

/// A scheduled root trust-anchor roll in progress (RFC 5011 on the
/// producer side; followers are modelled by [`World::trust_anchor`]).
struct AnchorRollState {
    /// The calendar.
    plan: AnchorRollPlan,
    /// The successor root keys (generated at scheduling time).
    new_keys: ZoneKeys,
    /// Publish day has passed: root is double-signed.
    published: bool,
    /// Promotion day has passed: followers trust the successor.
    promoted: bool,
    /// Revoke day has passed: root signed by the successor only.
    revoked: bool,
}

/// The simulated world.
pub struct World {
    /// Today's date.
    pub today: SimDate,
    /// Construction parameters.
    pub config: WorldConfig,
    /// The network all queries flow over.
    pub network: Rc<Network>,
    root_keys: ZoneKeys,
    /// The root authority (kept so a trust-anchor roll can re-sign and
    /// republish the root zone after construction).
    root_auth: Rc<Authority>,
    /// The root server's hostname.
    root_ns: Name,
    /// A scheduled root trust-anchor roll, if any.
    anchor_roll: Option<AnchorRollState>,
    registries: BTreeMap<Tld, Registry>,
    registrars: Vec<Registrar>,
    operators: Vec<Operator>,
    third_parties: Vec<ThirdParty>,
    domains: Domains,
    /// Shared authority for all owner-hosted zones.
    owner_authority: Rc<Authority>,
    key_pool: Vec<ZoneKeys>,
    /// Worklists, pending migrations, mass-sign queue and audit memo of the
    /// daily tick (see [`tick::TickState`] for the invalidation contract).
    tick: tick::TickState,
    /// RFC 8078 bootstrap observation: first day a DS-less domain was seen
    /// publishing a self-consistent CDS.
    cds_first_seen: BTreeMap<Name, SimDate>,
    /// Scheduled rollover lifecycles driven by the daily tick.
    rollovers: BTreeMap<Name, RolloverState>,
    /// Event log.
    pub events: EventLog,
    /// Whether a purchase from a default-signing registrar is signed
    /// immediately. Population builders turn this off so the initial
    /// signed fraction is controlled by the calibration data instead of
    /// the (later-arriving) policy.
    pub auto_sign_on_purchase: bool,
    rng: StdRng,
}

impl World {
    /// Builds the world: root + five TLD registries, all signed, with the
    /// chain root → TLD established (TLD DS in the root zone).
    pub fn new(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let valid_from = config.start.epoch_seconds().saturating_sub(86_400);
        let valid_until = config.end.plus_days(400).epoch_seconds();

        let network = Rc::new(Network::new());

        let mut registries = BTreeMap::new();
        for tld in ALL_TLDS {
            let registry = Registry::new(tld, &mut rng, valid_from, valid_until);
            network.register(tld.registry_ns(), registry.authority());
            registries.insert(tld, registry);
        }

        // Root zone with TLD delegations + DS.
        let root_keys = ZoneKeys::generate_default(&mut rng, Name::root(), Algorithm::RsaSha256)
            .expect("RSA-SHA256 supported");
        let root_ns = Name::parse("a.root-servers.sim").unwrap();
        let mut root_zone = root_zone(&root_ns, &registries, 1);
        let signer = SignerConfig {
            inception: valid_from,
            expiration: valid_until,
            nsec: true,
            nsec3: None,
            dnskey_ttl: 3600,
        };
        sign_zone(&mut root_zone, &root_keys, &signer).expect("root zone signs");
        let root_auth = Rc::new(Authority::new());
        root_auth.upsert_zone(root_zone);
        network.register(root_ns.clone(), root_auth.clone());
        network.set_root_hints(vec![root_ns.clone()]);

        // Shared key pool for customer zones.
        let pool_template = Name::parse("pool.invalid").unwrap();
        let key_pool: Vec<ZoneKeys> = (0..config.key_pool.max(1))
            .map(|_| {
                ZoneKeys::generate_default(&mut rng, pool_template.clone(), Algorithm::RsaSha256)
                    .expect("RSA-SHA256 supported")
            })
            .collect();

        World {
            today: config.start,
            config,
            network,
            root_keys,
            root_auth,
            root_ns,
            anchor_roll: None,
            registries,
            registrars: Vec::new(),
            operators: Vec::new(),
            third_parties: Vec::new(),
            domains: Domains::default(),
            owner_authority: Rc::new(Authority::new()),
            key_pool,
            tick: tick::TickState::default(),
            cds_first_seen: BTreeMap::new(),
            rollovers: BTreeMap::new(),
            events: EventLog::new(),
            auto_sign_on_purchase: true,
            rng,
        }
    }

    // ------------------------------------------------------------ setup --

    /// The trust anchors an RFC 5011 follower holds *today*.
    ///
    /// Without a scheduled anchor roll this is the construction-time
    /// root DS, unchanged. During a roll the follower keeps trusting
    /// the old anchor and adds the successor only once its add
    /// hold-down has elapsed ([`AnchorRollPlan::promotion`]); before
    /// that day the successor sits in AddPend and contributes nothing.
    /// A mistimed roll that revokes the old key inside the hold-down
    /// therefore leaves this set pointing at a key the root zone is no
    /// longer signed with — the stranded-validator window.
    pub fn trust_anchor(&self) -> Vec<DsRdata> {
        let mut anchors = vec![self.root_keys.ds(DigestType::Sha256)];
        if let Some(roll) = &self.anchor_roll {
            if roll.published && self.today >= roll.plan.promotion() {
                anchors.push(roll.new_keys.ds(DigestType::Sha256));
            }
        }
        anchors
    }

    /// Schedules a root trust-anchor roll (one at a time): successor
    /// keys are generated now, published next to the old ones on the
    /// plan's publish day, and the old anchor revoked — root re-signed
    /// by the successor only — on its revoke day. Driven by
    /// [`World::tick`] like the rollover plane.
    pub fn schedule_anchor_roll(&mut self, plan: AnchorRollPlan) {
        let new_keys =
            ZoneKeys::generate_default(&mut self.rng, Name::root(), Algorithm::RsaSha256)
                .expect("RSA-SHA256 supported");
        self.anchor_roll = Some(AnchorRollState {
            plan,
            new_keys,
            published: false,
            promoted: false,
            revoked: false,
        });
    }

    /// Rebuilds the root zone (the construction recipe, serial bumped
    /// to today) and signs it with `set`.
    fn resign_root(&mut self, set: &SigningSet) {
        let mut zone = root_zone(&self.root_ns, &self.registries, 1 + self.today.0);
        let signer = self.signer_config();
        sign_zone_set(&mut zone, set, &signer).expect("root zone re-signs");
        self.root_auth.upsert_zone(zone);
    }

    /// Adds a standalone DNS operator with `host_count` nameservers under
    /// `ns_domain` and wires its hostnames into the network.
    pub fn add_operator(
        &mut self,
        name: impl Into<String>,
        ns_domain: Name,
        host_count: usize,
    ) -> OperatorId {
        let id = OperatorId(self.operators.len() as u32);
        let operator = Operator::new(id, name, ns_domain, host_count);
        for host in &operator.ns_hosts {
            self.network.register(host.clone(), operator.authority());
        }
        self.operators.push(operator);
        id
    }

    /// Adds a registrar (creating its hosting operator) and accredits it
    /// at every registry where its policy says `TldRole::Registrar`.
    pub fn add_registrar(
        &mut self,
        name: impl Into<String>,
        ns_domain: Name,
        policy: crate::policy::RegistrarPolicy,
    ) -> RegistrarId {
        let name = name.into();
        let operator = self.add_operator(name.clone(), ns_domain, 2);
        let id = RegistrarId(self.registrars.len() as u32);
        for (tld, tld_policy) in &policy.tlds {
            if tld_policy.role == TldRole::Registrar {
                self.registries
                    .get_mut(tld)
                    .expect("all TLDs present")
                    .accredit(id);
            }
        }
        self.registrars.push(Registrar {
            id,
            name,
            policy,
            operator,
            milestones: Vec::new(),
            daily_optin_hazard: 0.0,
        });
        id
    }

    /// Adds a third-party DNS operator (Cloudflare / DNSPod model).
    pub fn add_third_party(
        &mut self,
        name: impl Into<String>,
        ns_domain: Name,
        dnssec_launch: Option<SimDate>,
        daily_optin_hazard: f64,
        relay_success: f64,
    ) -> OperatorId {
        let operator = self.add_operator(name, ns_domain, 2);
        self.third_parties.push(ThirdParty {
            operator,
            dnssec_launch,
            daily_optin_hazard,
            relay_success,
        });
        self.tick.invalidate_worklists();
        operator
    }

    /// Schedules a policy milestone for a registrar: the first tick on or
    /// after `on` applies it.
    pub fn add_milestone(&mut self, registrar: RegistrarId, on: SimDate, change: PolicyChange) {
        self.registrars[registrar.0 as usize]
            .milestones
            .push(Milestone { on, change });
    }

    /// Overrides a domain's first renewal date; it renews on every
    /// 365-day anniversary of `expires` (population builders stagger
    /// renewals so pre-existing registrations don't all renew at once).
    pub fn set_expiry(&mut self, domain: &Name, expires: SimDate) {
        if let Some(id) = self.id_of(domain) {
            self.domains.at_mut(id).expires = expires;
        }
    }

    // --------------------------------------------------------- accessors --

    /// Looks up a registrar by display name.
    pub fn registrar_by_name(&self, name: &str) -> Option<RegistrarId> {
        self.registrars
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.id)
    }

    /// Registrar profile access.
    pub fn registrar(&self, id: RegistrarId) -> &Registrar {
        &self.registrars[id.0 as usize]
    }

    /// Number of registrars.
    pub fn registrar_count(&self) -> usize {
        self.registrars.len()
    }

    /// Operator access.
    pub fn operator(&self, id: OperatorId) -> &Operator {
        &self.operators[id.0 as usize]
    }

    /// Registry access.
    pub fn registry(&self, tld: Tld) -> &Registry {
        &self.registries[&tld]
    }

    /// Domain access, under any spelling of the name.
    pub fn domain(&self, name: &Name) -> Option<&Domain> {
        self.entry(name).map(|(_, d)| d)
    }

    /// [`World::domain`] with the domain's id, for a caller that reads
    /// the registry's columns by row next.
    pub fn entry(&self, name: &Name) -> Option<(DomainId, &Domain)> {
        self.id_of(name).map(|id| (id, self.domains.at(id)))
    }

    /// The registrant's contact address for `domain`, the credential an
    /// emailed request is checked against: exactly the address given to
    /// [`World::purchase`]. Only an address other than the default
    /// `owner@<label>.example` is stored; the default is derived from the
    /// label as it was bought.
    pub fn registrant_email(&self, domain: &Name) -> Option<String> {
        let id = self.id_of(domain)?;
        Some(self.domains.registrant_email(id).into_owned())
    }

    /// The id of the domain `name` names: one probe of its registry's
    /// index, then the payload column. `None` unless the world sold it.
    fn id_of(&self, name: &Name) -> Option<DomainId> {
        let tld = Tld::of_domain(name)?;
        let id = DomainId::new(tld, self.registries[&tld].row_of(name)?);
        self.domains.get(id).is_some().then_some(id)
    }

    /// Iterates all domains in canonical name order (simulation draws
    /// depend on it). A delegation added behind the world's back, through
    /// [`World::registry_mut`], is not one of the world's domains and is
    /// left out.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.entries().map(|(_, d)| d)
    }

    /// [`World::domains`] with each domain's id: every registry's
    /// rows in its canonical order, the registries in TLD label order,
    /// skipping rows without a payload. The id reads the registry's
    /// columns by row, with no name probed.
    pub fn entries(&self) -> impl Iterator<Item = (DomainId, &Domain)> {
        BY_LABEL.into_iter().flat_map(move |tld| {
            self.registries[&tld]
                .delegations_columnar()
                .filter_map(move |(row, _)| {
                    let id = DomainId::new(tld, row);
                    Some((id, self.domains.get(id)?))
                })
        })
    }

    /// Number of registered domains.
    pub fn domain_count(&self) -> usize {
        self.domains.count
    }

    /// The combined change generation of `domain`: registry-side edits
    /// (delegation/NS/DS) plus served-zone edits (signing, rollovers,
    /// CDS publication, hosting moves). Two scans of an unchanged world
    /// see the same generation; any mutation a scan could observe makes
    /// it strictly larger. The incremental `ScanCache` in the scanner
    /// crate keys its entries on this value — see DESIGN.md §9 for the
    /// invalidation contract every new mutation path must honour.
    pub fn domain_generation(&self, domain: &Name) -> u64 {
        // `Name` hashes case-insensitively (RFC 4034); no canonical copy.
        // Served-zone edits are folded into the registry's columnar counter
        // by `note_zone_edit`, so the scan path pays one probe.
        Tld::of_domain(domain)
            .map(|tld| self.registries[&tld].generation_of(domain))
            .unwrap_or(0)
    }

    /// Records a served-zone edit for `domain` (cache invalidation).
    /// Every registered domain sits under a studied TLD (purchase is the
    /// only entry into the world), so the registry fold is total.
    fn note_zone_edit(&mut self, domain: &Name) {
        if let Some(registry) = Tld::of_domain(domain).and_then(|tld| self.registries.get_mut(&tld))
        {
            registry.note_external_change(domain);
        }
    }

    // ----------------------------------------------------------- actions --

    /// Buys `label`.`tld` from `registrar` with the given hosting.
    pub fn purchase(
        &mut self,
        registrar: RegistrarId,
        label: &str,
        tld: Tld,
        hosting: Hosting,
        registrant_email: impl Into<String>,
    ) -> Result<Name, ActionError> {
        let name = tld
            .zone()
            .child(label)
            .map_err(|_| ActionError::NameTaken)?;
        if self.id_of(&name).is_some() {
            return Err(ActionError::NameTaken);
        }
        let sponsor = self.resolve_sponsor(registrar, tld)?;
        let ns_hosts = self.ns_hosts_for(&name, registrar, &hosting);
        let registry = self.registries.get_mut(&tld).expect("all TLDs present");
        registry
            .add_delegation(sponsor, &name, &ns_hosts)
            .map_err(|e| ActionError::Registry(e.to_string()))?;
        let id = DomainId::new(tld, registry.row_of(&name).expect("just delegated"));

        // Owner hosting: serve a plain zone from the shared owner authority.
        if hosting == Hosting::Owner {
            self.serve(&name, registrar, &hosting, None);
        }

        let domain = Domain {
            name: name.clone(),
            tld,
            registrar,
            sponsor,
            hosting: hosting.clone(),
            keys: None,
            expires: self.today.plus_days(365),
            pending_partner_migration: false,
        };
        self.domains.insert(id, domain, registrant_email.into());
        self.tick.invalidate_worklists();
        self.events.record(
            self.today,
            Event::Purchased {
                domain: name.clone(),
                registrar,
            },
        );

        // Default signing when the registrar hosts and signs by default.
        if let Hosting::Registrar { plan } = hosting {
            let signs = self.auto_sign_on_purchase
                && self.registrars[registrar.0 as usize]
                    .policy
                    .operator_dnssec
                    .signs_by_default(plan);
            if signs {
                self.sign_hosted(&name)?;
            }
        }
        Ok(name)
    }

    /// Customer opts in to registrar-operated DNSSEC (OVH model), or
    /// enables it where it is supported but not default.
    pub fn enable_dnssec(&mut self, domain: &Name) -> Result<(), ActionError> {
        let d = self.domain(domain).ok_or(ActionError::NoSuchDomain)?;
        let Hosting::Registrar { .. } = d.hosting else {
            return Err(ActionError::WrongHosting);
        };
        match &self.registrars[d.registrar.0 as usize]
            .policy
            .operator_dnssec
        {
            OperatorDnssec::Unsupported => Err(ActionError::DnssecUnsupported),
            OperatorDnssec::Paid { cents_per_year, .. } => Err(ActionError::RequiresPayment {
                cents_per_year: *cents_per_year,
            }),
            _ => self.sign_hosted(domain),
        }
    }

    /// Pays for and enables DNSSEC on a paid plan (GoDaddy model).
    pub fn enable_dnssec_paid(&mut self, domain: &Name) -> Result<(), ActionError> {
        let d = self.domain(domain).ok_or(ActionError::NoSuchDomain)?;
        let Hosting::Registrar { .. } = d.hosting else {
            return Err(ActionError::WrongHosting);
        };
        match &self.registrars[d.registrar.0 as usize]
            .policy
            .operator_dnssec
        {
            OperatorDnssec::Unsupported => Err(ActionError::DnssecUnsupported),
            _ => self.sign_hosted(domain),
        }
    }

    /// Switches a domain to owner-run nameservers (`ns1.<domain>`); the
    /// previous hosting zone is dropped and the registry NS set updated.
    pub fn switch_to_owner_hosting(&mut self, domain: &Name) -> Result<Name, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        let mut ns_hosts = self.move_hosting(id, domain, Hosting::Owner)?;
        Ok(ns_hosts.pop().expect("an owner zone has one nameserver"))
    }

    /// The owner signs their self-hosted zone; returns the DS record that
    /// must now be conveyed to the registrar.
    pub fn owner_sign_zone(&mut self, domain: &Name) -> Result<DsRdata, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        if self.domains.at(id).hosting != Hosting::Owner {
            return Err(ActionError::WrongHosting);
        }
        Ok(self.sign_at(id, domain))
    }

    /// Conveys a DS record to the registrar over `via`. This is the crux
    /// of §5.3/§6.1: which channels exist, whether they validate, and
    /// whether they authenticate the sender.
    pub fn upload_ds(
        &mut self,
        domain: &Name,
        ds: DsRdata,
        via: DsSubmission,
    ) -> Result<UploadOutcome, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        let registrar = self.domains.at(id).registrar;
        // Note: the per-TLD `publishes_ds` flag gates only the *automatic*
        // upload for registrar-hosted signing. The paper found that even
        // home-TLD-only registrars (Loopia, KPN) would upload a DS for an
        // externally hosted domain when explicitly asked (§6.3), so the
        // customer channel works for every TLD the registrar sells.
        let (validates, forged_from) = match self.admit(id, &via, false) {
            Ok(admitted) => admitted,
            Err(rejected) => return Ok(rejected),
        };

        // FetchDnskey derives the DS itself from the served DNSKEY.
        let effective_ds = if matches!(via, DsSubmission::FetchDnskey) {
            let served = self.served_dnskeys(domain);
            let Some(ksk) = served.iter().find(|k| k.is_ksk()).or(served.first()) else {
                return Ok(UploadOutcome::RejectedInvalid);
            };
            dsec_dnssec::make_ds(domain, ksk, DigestType::Sha256).expect("sha256 supported")
        } else {
            ds
        };

        // Validation (only OVH/DreamHost-style channels do this).
        if validates {
            let served = self.served_dnskeys(domain);
            let matches_any = served
                .iter()
                .any(|k| ds_matches(domain, k, &effective_ds) == Some(true));
            if !matches_any {
                self.events.record(
                    self.today,
                    Event::DsRejected {
                        domain: domain.clone(),
                        reason: "DS does not match served DNSKEY".into(),
                    },
                );
                return Ok(UploadOutcome::RejectedInvalid);
            }
        }

        // Chat channel: agent may paste onto the wrong domain.
        if let ExternalDs::Chat { mistake_rate } =
            self.registrars[registrar.0 as usize].policy.external_ds
        {
            if self.rng.random::<f64>() < mistake_rate {
                if let Some(victim) = self.random_other_domain(registrar, domain) {
                    let pasted = Event::DsOnWrongDomain {
                        intended: domain.clone(),
                        victim: victim.clone(),
                    };
                    self.commit(&victim, Delegation::Ds(&[effective_ds]), [pasted])?;
                    return Ok(UploadOutcome::AcceptedOnWrongDomain(victim));
                }
            }
        }

        // A forgery that got through admission is logged only with the DS
        // it installed: validation above may still have turned it away.
        let forged = forged_from.map(|claimed_from| Event::ForgedEmailAccepted {
            domain: domain.clone(),
            claimed_from,
        });
        let published = Event::DsPublished {
            domain: domain.clone(),
        };
        self.commit(
            domain,
            Delegation::Ds(&[effective_ds]),
            forged.into_iter().chain([published]),
        )?;
        Ok(UploadOutcome::Accepted)
    }

    /// Conveys an NS change to the registrar over `via` — the second half
    /// of the registrar-channel attack surface. The same channel and
    /// sender-authentication policy as [`World::upload_ds`] applies (a
    /// registrar that accepts a forged-From DS email accepts a forged-From
    /// redelegation too); DNSKEY validation does not, because an NS set
    /// has nothing to check against the served keys.
    pub fn submit_ns_change(
        &mut self,
        domain: &Name,
        ns_hosts: &[Name],
        via: DsSubmission,
    ) -> Result<UploadOutcome, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        let forged_from = match self.admit(id, &via, true) {
            Ok((_, forged_from)) => forged_from,
            Err(rejected) => return Ok(rejected),
        };
        let forged = forged_from.map(|claimed_from| Event::ForgedNsAccepted {
            domain: domain.clone(),
            claimed_from,
        });
        let changed = Event::NsChanged {
            domain: domain.clone(),
        };
        self.commit(
            domain,
            Delegation::Ns(ns_hosts),
            forged.into_iter().chain([changed]),
        )?;
        Ok(UploadOutcome::Accepted)
    }

    /// The admission step shared by [`World::upload_ds`] and
    /// [`World::submit_ns_change`]: the registrar must offer the channel
    /// `via` names, and an emailed request must pass the channel's sender
    /// check. An NS change also needs a channel that carries what it
    /// submits, which fetching the DNSKEY does not. Yields whether the
    /// channel validates a DS against the served DNSKEY and the forged
    /// `From:` that got through, if any; `Err` is the rejection.
    fn admit(
        &self,
        id: DomainId,
        via: &DsSubmission,
        ns_change: bool,
    ) -> Result<(bool, Option<String>), UploadOutcome> {
        let registrar = self.domains.at(id).registrar;
        let channel = &self.registrars[registrar.0 as usize].policy.external_ds;
        let offered = match (channel, via) {
            (ExternalDs::Web { .. }, DsSubmission::Web)
            | (ExternalDs::Email { .. }, DsSubmission::Email { .. })
            | (ExternalDs::Chat { .. }, DsSubmission::Chat)
            | (ExternalDs::Ticket, DsSubmission::Ticket) => true,
            (ExternalDs::FetchDnskey, DsSubmission::FetchDnskey) => !ns_change,
            _ => false,
        };
        if !offered {
            return Err(UploadOutcome::ChannelUnsupported);
        }
        let mut forged_from = None;
        if let DsSubmission::Email {
            claimed_from,
            actual_from,
        } = via
        {
            let forged = channel
                .admits_sender(
                    &self.domains.registrant_email(id),
                    claimed_from,
                    actual_from,
                )
                .ok_or(UploadOutcome::EmailNotVerified)?;
            forged_from = forged.then(|| claimed_from.clone());
        }
        Ok((channel.validates(), forged_from))
    }

    /// The NS hosts a domain's hosting arrangement *should* delegate to.
    /// The takeover census compares this against what the registry serves:
    /// any drift means someone redelegated behind the customer's back.
    pub fn expected_ns_hosts(&self, domain: &Name) -> Option<Vec<Name>> {
        let d = self.domain(domain)?;
        Some(self.ns_hosts_for(domain, d.registrar, &d.hosting))
    }

    /// Moves a domain onto a third-party DNS operator. Like any hosting
    /// change, the previous host's zone (and any DS the previous
    /// arrangement chained to) is torn down.
    pub fn enroll_third_party(
        &mut self,
        domain: &Name,
        operator: OperatorId,
    ) -> Result<(), ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        self.move_hosting(id, domain, Hosting::ThirdParty { operator })?;
        Ok(())
    }

    /// The hosting move shared by [`World::switch_to_owner_hosting`] and
    /// [`World::enroll_third_party`]: drops the old zone, serves an
    /// unsigned zone when the owner takes over, delegates to the new
    /// nameservers, withdraws any DS (the old arrangement's keys go with
    /// it), and rehosts. Returns the new NS set.
    fn move_hosting(
        &mut self,
        id: DomainId,
        domain: &Name,
        hosting: Hosting,
    ) -> Result<Vec<Name>, ActionError> {
        let d = self.domains.at(id);
        let registrar = d.registrar;
        if let Some(old) = self.server_of(registrar, &d.hosting) {
            old.drop_zone(domain);
        }
        if hosting == Hosting::Owner {
            self.serve(domain, registrar, &hosting, None);
        }
        let ns_hosts = self.ns_hosts_for(domain, registrar, &hosting);
        self.commit(domain, Delegation::Ns(&ns_hosts), [])?;
        self.commit(domain, Delegation::Ds(&[]), [])?;
        self.rehost(id, hosting);
        Ok(ns_hosts)
    }

    /// The third-party operator enables DNSSEC for a hosted domain and
    /// hands the DS back to the owner (it cannot upload it itself).
    pub fn third_party_enable_dnssec(&mut self, domain: &Name) -> Result<DsRdata, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        self.third_party_enable_dnssec_at(id, domain)
    }

    /// [`World::third_party_enable_dnssec`] for a known domain id.
    fn third_party_enable_dnssec_at(
        &mut self,
        id: DomainId,
        domain: &Name,
    ) -> Result<DsRdata, ActionError> {
        let Hosting::ThirdParty { operator } = self.domains.at(id).hosting else {
            return Err(ActionError::WrongHosting);
        };
        let tp = self
            .third_parties
            .iter()
            .find(|t| t.operator == operator)
            .ok_or(ActionError::DnssecUnsupported)?;
        match tp.dnssec_launch {
            Some(launch) if launch <= self.today => Ok(self.sign_at(id, domain)),
            _ => Err(ActionError::DnssecUnsupported),
        }
    }

    // ----------------------------------------------------- observations --

    /// Builds the paper-style observation of one domain: served DNSKEY
    /// RRset + RRSIGs (via a real DO-bit query to the domain's
    /// nameservers) and the DS set in the registry.
    pub fn observation_of(&self, domain: &Name) -> Observation {
        self.observe(domain, 1).0
    }

    /// [`World::observation_of`] with `rounds` rotations over the NS set,
    /// plus the exchange it was read from. An exchange that ended
    /// unreachable, or answered only SERVFAIL, saw no zone data: the
    /// observation then holds the registry's DS set alone, and a scan
    /// records the domain as unobserved instead of classifying it. A
    /// lame (REFUSED) server is skipped; if all are lame, the domain
    /// serves no DNSKEY.
    pub fn observe(&self, domain: &Name, rounds: u32) -> (Observation, ExchangeOutcome) {
        let row = Tld::of_domain(domain)
            .and_then(|tld| Some(DomainId::new(tld, self.registries[&tld].row_of(domain)?)));
        match row {
            Some(id) => self.observe_at(id, domain, rounds),
            None => (Observation::default(), ExchangeOutcome::NoServers),
        }
    }

    /// [`World::observe`] of the delegation `id`, whose name is `domain`:
    /// its DS and NS sets are read by row, with no name probed.
    pub fn observe_at(
        &self,
        id: DomainId,
        domain: &Name,
        rounds: u32,
    ) -> (Observation, ExchangeOutcome) {
        let registry = &self.registries[&id.tld()];
        let mut obs = Observation {
            ds_set: registry.ds_at(id.row()),
            ..Observation::default()
        };
        let servers = registry.ns_at(id.row());
        let outcome = self.ask(&servers, domain, RrType::Dnskey, rounds);
        if let ExchangeOutcome::Answered { response, .. } = &outcome {
            let keys: Vec<Record> = response
                .answers
                .iter()
                .filter(|r| r.rtype() == RrType::Dnskey)
                .cloned()
                .collect();
            if !keys.is_empty() {
                obs.dnskey_rrset = RrSet::new(keys).ok();
                obs.dnskey_rrsigs = response
                    .answers
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Rrsig(s) if s.type_covered == RrType::Dnskey => Some(s.clone()),
                        _ => None,
                    })
                    .collect();
            }
        }
        (obs, outcome)
    }

    /// Asks `domain`'s delegated nameservers for `rtype` through one
    /// [`Exchange`] (DESIGN.md §18.1) at the start of today
    /// (`today.epoch_seconds()`): `rounds` rotations over the NS set and
    /// no latency budget beyond them. A scheduled outage window covering
    /// that instant hides its servers from the scan, the audits and the
    /// CDS polls alike, as it does from a resolver.
    fn exchange(&self, domain: &Name, rtype: RrType, rounds: u32) -> ExchangeOutcome {
        let servers = Tld::of_domain(domain)
            .map(|tld| self.registries[&tld].ns_of(domain))
            .unwrap_or_default();
        self.ask(&servers, domain, rtype, rounds)
    }

    /// [`World::exchange`] over the delegated nameservers `servers`.
    fn ask(&self, servers: &[Name], domain: &Name, rtype: RrType, rounds: u32) -> ExchangeOutcome {
        let policy = RetryPolicy {
            max_attempts: rounds.max(1).saturating_mul(servers.len() as u32),
            budget_ms: u32::MAX,
            ..RetryPolicy::default()
        };
        let query = Message::query(0, domain.clone(), rtype, true);
        Exchange::new(&self.network, policy, self.today.epoch_seconds()).ask(servers, &query)
    }

    /// The network's fault-injection plane (chaos-campaign control).
    pub fn fault_plane(&self) -> &FaultPlane {
        self.network.faults()
    }

    /// Marks the start of a scan epoch (one snapshot of a campaign):
    /// prunes the fault plane's per-triple attempt counters so multi-day
    /// campaigns don't grow them without bound. Called by the scanner
    /// before each snapshot.
    pub fn begin_scan_epoch(&self) {
        self.network.faults().begin_epoch();
    }

    /// Publishes CDS records for every signed, registrar-hosted domain of
    /// `registrar` — what RFC 7344 asks operators to do so the parent can
    /// pick the DS up in-band, turning its partial deployments into
    /// bootstrap candidates once a registry enables RFC 8078 scanning.
    /// Each CDS names the zone's current KSK.
    pub fn enable_cds_publication(&mut self, registrar: RegistrarId) -> usize {
        let targets: Vec<(Name, ZoneKeys)> = self
            .domains()
            .filter(|d| d.registrar == registrar)
            .filter_map(|d| Some((d.name.clone(), d.keys.as_deref()?.clone())))
            .collect();
        for (domain, keys) in &targets {
            self.publish_cds_record(domain, keys, keys.ds(DigestType::Sha256));
        }
        targets.len()
    }

    /// An abrupt (incorrect) rollover: replace the zone keys outright
    /// without updating the parent DS. Validating resolvers SERVFAIL
    /// until someone fixes the DS.
    pub fn roll_keys_abrupt(&mut self, domain: &Name) -> Result<DsRdata, ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        let Some(current) = &self.domains.at(id).keys else {
            return Err(ActionError::DnssecUnsupported);
        };
        let new_keys = self.keys_differing_from(domain, current.ksk_tag());
        let new_ds = new_keys.ds(DigestType::Sha256);
        self.rekey(id, domain, new_keys);
        self.events.record(
            self.today,
            Event::RolloverAbrupt {
                domain: domain.clone(),
            },
        );
        Ok(new_ds)
    }

    // --------------------------------------------- scheduled rollovers --

    /// Schedules a full rollover lifecycle for `domain`, to be driven by
    /// the daily tick. The incoming key generation is fixed now (so its
    /// DS is known in advance); phase transitions happen as the campaign
    /// clock crosses the plan's dates. Dates already in the past are
    /// caught up on the next tick, in phase order.
    pub fn schedule_rollover(
        &mut self,
        domain: &Name,
        plan: RolloverPlan,
    ) -> Result<(), ActionError> {
        let d = self.domain(domain).ok_or(ActionError::NoSuchDomain)?;
        // The purchase spelling of the name: what the tick later logs.
        let key = d.name.clone();
        let old_keys = d
            .keys
            .as_deref()
            .cloned()
            .ok_or(ActionError::DnssecUnsupported)?;
        if self.rollovers.contains_key(&key) {
            return Err(ActionError::RolloverInProgress);
        }
        let new_keys = match plan.style {
            RolloverStyle::DoubleSignatureKsk => {
                self.keys_differing_from(domain, old_keys.ksk_tag())
            }
            RolloverStyle::Algorithm => {
                // A genuinely different signing algorithm; the pool is
                // single-algorithm, so generate a fresh pair (rollover
                // populations are small).
                let next = if old_keys.ksk.algorithm == Algorithm::RsaSha512 {
                    Algorithm::RsaSha256
                } else {
                    Algorithm::RsaSha512
                };
                ZoneKeys::generate_default(&mut self.rng, domain.clone(), next)
                    .map_err(|e| ActionError::Registry(e.to_string()))?
            }
            RolloverStyle::PrePublishZsk => {
                // Same KSK (the DS never moves); only the ZSK changes.
                let alt = self.keys_differing_from(domain, old_keys.ksk_tag());
                ZoneKeys {
                    zone: domain.clone(),
                    ksk: old_keys.ksk.clone(),
                    zsk: alt.zsk,
                }
            }
        };
        self.rollovers.insert(
            key,
            RolloverState {
                plan,
                phase: RolloverPhase::Scheduled,
                ds_swapped: false,
                stalled: false,
                old_keys,
                new_keys,
                signed_until: None,
                expiry_noted: false,
            },
        );
        Ok(())
    }

    /// Freezes the operator side of a scheduled rollover (the operator is
    /// down, distracted, or out of business): no further phase work and
    /// no signature refresh until [`World::resume_rollover`]. With
    /// bounded signature validity, the served RRSIGs then expire for
    /// real. A registrar's DS leg is *not* frozen — it is a different
    /// organisation working its own queue; a CDS is the operator's own.
    pub fn stall_rollover(&mut self, domain: &Name) -> Result<(), ActionError> {
        let state = self
            .rollovers
            .get_mut(domain)
            .ok_or(ActionError::NoPendingRollover)?;
        state.stalled = true;
        Ok(())
    }

    /// Unfreezes a stalled rollover; the driver catches up on the next
    /// tick.
    pub fn resume_rollover(&mut self, domain: &Name) -> Result<(), ActionError> {
        let state = self
            .rollovers
            .get_mut(domain)
            .ok_or(ActionError::NoPendingRollover)?;
        state.stalled = false;
        Ok(())
    }

    /// The in-flight rollover state of `domain`, if any. Completed
    /// rollovers are removed from the map (their history lives in the
    /// event log).
    pub fn rollover_state(&self, domain: &Name) -> Option<&RolloverState> {
        self.rollovers.get(domain)
    }

    /// The transitional signing set a plan serves between `start` and
    /// completion.
    fn transitional_set(plan: &RolloverPlan, old: &ZoneKeys, new: &ZoneKeys) -> SigningSet {
        match plan.style {
            RolloverStyle::DoubleSignatureKsk | RolloverStyle::Algorithm => {
                SigningSet::double(old, new).expect("same zone")
            }
            RolloverStyle::PrePublishZsk => SigningSet::prepublish(old, new).expect("same zone"),
        }
    }

    /// Signer parameters for a rollover phase: bounded validity when the
    /// plan asks for it (so a stalled operator's signatures genuinely
    /// lapse), the world default otherwise.
    fn rollover_signer(&self, plan: &RolloverPlan) -> SignerConfig {
        match plan.signature_validity_days {
            // Valid from yesterday, for `v` days from today.
            Some(v) => SignerConfig::valid_from(
                self.today.epoch_seconds().saturating_sub(86_400),
                v.saturating_add(1).saturating_mul(86_400),
            ),
            None => self.signer_config(),
        }
    }

    // ------------------------------------------------------------ steps --

    /// The operator whose nameservers serve a domain of `registrar`
    /// hosted as `hosting`: the registrar's own, or the third party;
    /// `None` is the owner authority.
    fn server_of(&self, registrar: RegistrarId, hosting: &Hosting) -> Option<&Operator> {
        let operator = match *hosting {
            Hosting::Registrar { .. } => self.registrars[registrar.0 as usize].operator,
            Hosting::ThirdParty { operator } => operator,
            Hosting::Owner => return None,
        };
        Some(&self.operators[operator.0 as usize])
    }

    /// The serve step, the only writer of a customer zone besides the CDS
    /// writer: builds `domain`'s zone on the server `hosting` puts it on,
    /// signs it with `signing` when given, upserts it (registering the
    /// owner's nameserver for an owner zone), and notes the edit in the
    /// domain's generation. `hosting` is passed rather than read because
    /// a purchase serves before the domain is stored and a hosting move
    /// before it is rehosted.
    fn serve(
        &mut self,
        domain: &Name,
        registrar: RegistrarId,
        hosting: &Hosting,
        signing: Option<(&SigningSet, &SignerConfig)>,
    ) {
        let (mut zone, authority) = match self.server_of(registrar, hosting) {
            Some(operator) => (operator.base_zone(domain), operator.authority()),
            None => {
                let (zone, ns_host) = self.owner_zone_skeleton(domain);
                self.network.register(ns_host, self.owner_authority.clone());
                (zone, self.owner_authority.clone())
            }
        };
        if let Some((set, signer)) = signing {
            sign_zone_set(&mut zone, set, signer).expect("the domain's keys sign its zone");
        }
        authority.upsert_zone(zone);
        self.note_zone_edit(domain);
    }

    /// Serves the domain `id` signed with `keys` wherever it is
    /// hosted now, with the world's signer window, and installs the keys.
    fn rekey(&mut self, id: DomainId, domain: &Name, keys: ZoneKeys) {
        let d = self.domains.at(id);
        let (registrar, hosting) = (d.registrar, d.hosting.clone());
        let signing = (&SigningSet::single(&keys), &self.signer_config());
        self.serve(domain, registrar, &hosting, Some(signing));
        self.set_keys(id, keys);
    }

    /// The sign step: pool keys salted by the hosting arrangement (so a
    /// domain that changes operators gets different key material, as it
    /// would in reality), served and installed, then `Signed` logged.
    /// Returns the DS the keys chain from.
    fn sign_at(&mut self, id: DomainId, domain: &Name) -> DsRdata {
        let salt = match self.domains.at(id).hosting {
            Hosting::Registrar { .. } => 0,
            Hosting::Owner => 1,
            Hosting::ThirdParty { .. } => 2,
        };
        let keys = self.pool_keys_salted(domain, salt);
        let ds = keys.ds(DigestType::Sha256);
        self.rekey(id, domain, keys);
        self.events.record(
            self.today,
            Event::Signed {
                domain: domain.clone(),
            },
        );
        ds
    }

    /// The commit step, the only writer of a customer delegation: writes
    /// `write` at `domain`'s registry under the sponsor the domain records,
    /// then logs `events` — only once the registry took the write.
    fn commit(
        &mut self,
        domain: &Name,
        write: Delegation<'_>,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<(), ActionError> {
        let d = self.domain(domain).ok_or(ActionError::NoSuchDomain)?;
        let (sponsor, tld) = (d.sponsor, d.tld);
        let registry = self.registries.get_mut(&tld).expect("all TLDs present");
        match write {
            Delegation::Ds(ds_set) => registry.set_ds(sponsor, domain, ds_set),
            Delegation::Ns(ns_hosts) => registry.set_ns(sponsor, domain, ns_hosts),
        }
        .map_err(|e| ActionError::Registry(e.to_string()))?;
        for event in events {
            self.events.record(self.today, event);
        }
        Ok(())
    }

    /// Adds a CDS record for `ds`, signed with `signing_keys`, to the
    /// stored domain's served zone.
    fn publish_cds_record(&mut self, domain: &Name, signing_keys: &ZoneKeys, ds: DsRdata) {
        let d = self.domain(domain).expect("a stored domain");
        let authority = self
            .server_of(d.registrar, &d.hosting)
            .map_or_else(|| self.owner_authority.clone(), Operator::authority);
        publish_cds(&authority, domain, signing_keys, ds, &self.signer_config());
        self.note_zone_edit(domain);
    }

    // ------------------------------------------------------------ helpers --

    /// The effective sponsor for `registrar` selling `tld`.
    pub fn resolve_sponsor(
        &self,
        registrar: RegistrarId,
        tld: Tld,
    ) -> Result<RegistrarId, ActionError> {
        match &self.registrars[registrar.0 as usize].policy.tld(tld).role {
            TldRole::Registrar => Ok(registrar),
            TldRole::ResellerVia(partner) => self
                .registrar_by_name(partner)
                .ok_or(ActionError::TldNotSold),
            TldRole::NoSupport => Err(ActionError::TldNotSold),
        }
    }

    fn ns_hosts_for(&self, domain: &Name, registrar: RegistrarId, hosting: &Hosting) -> Vec<Name> {
        match self.server_of(registrar, hosting) {
            Some(operator) => operator.ns_hosts.clone(),
            None => vec![domain.child("ns1").expect("ns1 fits")],
        }
    }

    /// Deterministically picks pool keys for a domain and rebinds them to
    /// the domain's name; `salt` picks another draw.
    fn pool_keys_salted(&self, domain: &Name, salt: u64) -> ZoneKeys {
        let mut h: u64 = 0xcbf29ce484222325 ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
        for b in domain.to_canonical_wire() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let idx = (h % self.key_pool.len() as u64) as usize;
        let mut keys = self.key_pool[idx].clone();
        keys.zone = domain.clone();
        keys
    }

    /// A pool key pair, bound to `domain`, whose KSK tag differs from
    /// `current_tag` (rollovers). A key tag hashes the DNSKEY RDATA, not
    /// the owner name, so the candidates are compared unbound.
    pub(crate) fn keys_differing_from(&self, domain: &Name, current_tag: u16) -> ZoneKeys {
        let mut keys = self
            .key_pool
            .iter()
            .find(|k| k.ksk_tag() != current_tag)
            .unwrap_or(&self.key_pool[0])
            .clone();
        keys.zone = domain.clone();
        keys
    }

    /// Signer parameters: valid from yesterday until past the sim end.
    pub fn signer_config(&self) -> SignerConfig {
        SignerConfig {
            inception: self.today.epoch_seconds().saturating_sub(86_400),
            expiration: self.config.end.plus_days(400).epoch_seconds(),
            nsec: true,
            nsec3: None,
            dnskey_ttl: 3600,
        }
    }

    /// Signs a registrar-hosted domain and uploads its DS when the
    /// registrar's per-TLD policy says so.
    pub fn sign_hosted(&mut self, domain: &Name) -> Result<(), ActionError> {
        let id = self.id_of(domain).ok_or(ActionError::NoSuchDomain)?;
        self.sign_hosted_at(id, domain)
    }

    /// [`World::sign_hosted`] for a known domain id.
    fn sign_hosted_at(&mut self, id: DomainId, domain: &Name) -> Result<(), ActionError> {
        let d = self.domains.at(id);
        let Hosting::Registrar { .. } = d.hosting else {
            return Err(ActionError::WrongHosting);
        };
        let (registrar, tld) = (d.registrar, d.tld);
        let ds = self.sign_at(id, domain);
        if self.registrars[registrar.0 as usize]
            .policy
            .tld(tld)
            .publishes_ds
        {
            let published = Event::DsPublished {
                domain: domain.clone(),
            };
            self.commit(domain, Delegation::Ds(&[ds]), [published])?;
        }
        Ok(())
    }

    /// The unsigned skeleton of an owner-hosted zone (SOA, NS, www A) and
    /// its nameserver hostname.
    fn owner_zone_skeleton(&self, domain: &Name) -> (Zone, Name) {
        let ns_host = domain.child("ns1").expect("ns1 fits");
        let mut zone = Zone::new(domain.clone());
        zone.add(Record::new(
            domain.clone(),
            3600,
            RData::Soa(SoaRdata {
                mname: ns_host.clone(),
                rname: Name::parse("hostmaster.invalid").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        ))
        .expect("SOA fits");
        zone.add(Record::new(
            domain.clone(),
            3600,
            RData::Ns(ns_host.clone()),
        ))
        .expect("NS fits");
        zone.add(Record::new(
            domain.child("www").expect("www fits"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .expect("A fits");
        (zone, ns_host)
    }

    /// The DNSKEYs currently served for `domain` by whoever hosts it.
    pub fn served_dnskeys(&self, domain: &Name) -> Vec<dsec_wire::DnskeyRdata> {
        self.exchange(domain, RrType::Dnskey, 1)
            .into_response()
            .map(|resp| {
                resp.answers
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Dnskey(k) => Some(k.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn random_other_domain(&mut self, registrar: RegistrarId, not: &Name) -> Option<Name> {
        let candidates: Vec<Name> = self
            .domains()
            .filter(|d| d.registrar == registrar && &d.name != not)
            .map(|d| d.name.clone())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let idx = self.rng.random_range(0..candidates.len());
        Some(candidates[idx].clone())
    }

    /// A mutable handle to the registry (extension experiments flip CDS
    /// support on).
    pub fn registry_mut(&mut self, tld: Tld) -> &mut Registry {
        self.registries.get_mut(&tld).expect("all TLDs present")
    }
}

/// The unsigned root zone at `serial`: SOA and NS at the apex, served by
/// `root_ns`, and each registry's TLD delegation with its DS.
fn root_zone(root_ns: &Name, registries: &BTreeMap<Tld, Registry>, serial: u32) -> Zone {
    let mut zone = Zone::new(Name::root());
    zone.add(Record::new(
        Name::root(),
        3600,
        RData::Soa(SoaRdata {
            mname: root_ns.clone(),
            rname: Name::parse("hostmaster.root-servers.sim").unwrap(),
            serial,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    ))
    .expect("SOA fits");
    zone.add(Record::new(Name::root(), 3600, RData::Ns(root_ns.clone())))
        .expect("NS fits");
    for (tld, registry) in registries {
        zone.add(Record::new(
            tld.zone(),
            172_800,
            RData::Ns(tld.registry_ns()),
        ))
        .expect("TLD NS fits");
        zone.add(Record::new(
            tld.zone(),
            86_400,
            RData::Ds(registry.keys().ds(DigestType::Sha256)),
        ))
        .expect("TLD DS fits");
    }
    zone
}
