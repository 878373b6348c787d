//! TLD registries: the organizations that own the TLD zone file.
//!
//! A registry serves its (signed) TLD zone, accepts delegation and DS
//! updates **only from accredited registrars** (the paper's key structural
//! constraint), runs the daily DNSSEC compliance audits behind the .nl/.se
//! discount programmes, and — when configured like `.cz` — scans child
//! zones for CDS/CDNSKEY records.
//!
//! For scalability the TLD zone is signed *incrementally*: the apex RRsets
//! once, and each delegation's DS RRset individually whenever a registrar
//! updates it. (A full NSEC chain over a hundred-thousand-delegation zone
//! would be re-signed wholesale otherwise; see DESIGN.md.)
//!
//! The TLD zone is a registry [`Zone`]: each delegation is a row of it,
//! and its names column and row index are the TLD's one name-to-row map.
//! The registry's own per-delegation columns ([`DomainTable`]: sponsor,
//! generation, operator, order and journal) sit at the same rows, added
//! together in [`Registry::add_delegation`]. A name is probed once, in
//! the zone the authority serves; everything after that reads by row.

use std::cell::Ref;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::RngCore;

use dsec_authserver::Authority;
use dsec_crypto::Algorithm;
use dsec_dnssec::{sign_rrset, SignerConfig, ZoneKeys};
use dsec_wire::{DsRdata, FnvHashMap, Name, Owner, RData, Record, RrSet, RrType, SoaRdata, Zone};

use crate::operator::operator_of;
use crate::table::{DomainTable, JournalCursor, OrderedRows, Ranks};
use crate::tld::Tld;
use crate::RegistrarId;

/// TTLs used in registry zones.
const DELEGATION_TTL: u32 = 172_800;
const DS_TTL: u32 = 86_400;
const APEX_TTL: u32 = 3_600;

/// One TLD registry.
pub struct Registry {
    /// Which TLD this registry operates.
    pub tld: Tld,
    /// The registry's zone-signing keys.
    keys: ZoneKeys,
    /// The authority serving the TLD zone.
    authority: Rc<Authority>,
    /// Registrars allowed to touch the registry.
    accredited: Vec<RegistrarId>,
    /// Whether the registry scans children for CDS/CDNSKEY (RFC 7344/8078);
    /// in the paper's time frame only `.cz` had announced this.
    pub supports_cds: bool,
    /// RFC 8078 §3 "accept after delay" bootstrapping: when set, a child
    /// with **no** current DS whose CDS has been stably published (and
    /// self-consistently signed) for this many days gets its DS installed
    /// — the mechanism that heals partial deployments without any
    /// registrar interaction.
    pub cds_bootstrap_delay_days: Option<u32>,
    /// Signer parameters for DS RRset signatures.
    signer: SignerConfig,
    /// Incentive bookkeeping: cents awarded per registrar.
    pub discounts_cents: BTreeMap<RegistrarId, u64>,
    /// Incentive bookkeeping: validation failures per registrar.
    pub audit_failures: BTreeMap<RegistrarId, u64>,
    /// Columnar per-delegation state: sponsor, change generation and DNS
    /// operator in dense columns at the TLD zone's rows (see
    /// [`DomainTable`]). The operator column is written only with the NS
    /// records it is derived from.
    /// The generation column is bumped on every registry-side edit a
    /// scanner could observe (delegation added, NS set replaced, DS set
    /// replaced); the incremental scan cache keys its entries on it so an
    /// unchanged domain is never re-queried.
    table: DomainTable,
}

impl Registry {
    /// Creates the registry: generates keys, builds and signs the apex of
    /// the TLD zone, and registers its nameserver on `authority`.
    ///
    /// `valid_until` is the epoch-seconds expiration used for every
    /// signature the registry makes (set it past the simulation end).
    pub fn new(tld: Tld, rng: &mut dyn RngCore, valid_from: u32, valid_until: u32) -> Self {
        let origin = tld.zone();
        let keys = ZoneKeys::generate_default(rng, origin.clone(), Algorithm::RsaSha256)
            .expect("RSA-SHA256 is supported");
        let signer = SignerConfig {
            inception: valid_from,
            expiration: valid_until,
            nsec: false,
            nsec3: None,
            dnskey_ttl: APEX_TTL,
        };

        let mut zone = Zone::registry(origin.clone());
        zone.add(Record::new(
            origin.clone(),
            APEX_TTL,
            RData::Soa(SoaRdata {
                mname: tld.registry_ns(),
                rname: Name::parse(&format!("hostmaster.{}", tld.label())).unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        ))
        .expect("apex SOA in zone");
        zone.add(Record::new(
            origin.clone(),
            APEX_TTL,
            RData::Ns(tld.registry_ns()),
        ))
        .expect("apex NS in zone");
        for record in keys.dnskey_records(APEX_TTL) {
            zone.add(record).expect("DNSKEYs in zone");
        }
        // Sign the three apex RRsets.
        for rtype in [RrType::Soa, RrType::Ns, RrType::Dnskey] {
            let rrset = zone.rrset(&origin, rtype).expect("apex RRset exists");
            let sig = if rtype == RrType::Dnskey {
                sign_rrset(&rrset, &keys.ksk, keys.ksk_tag(), &origin, &signer)
            } else {
                sign_rrset(&rrset, &keys.zsk, keys.zsk_tag(), &origin, &signer)
            };
            zone.add(sig).expect("apex RRSIG in zone");
        }

        let authority = Rc::new(Authority::new());
        authority.upsert_zone(zone);

        Registry {
            tld,
            keys,
            authority,
            accredited: Vec::new(),
            supports_cds: false,
            cds_bootstrap_delay_days: None,
            signer,
            discounts_cents: BTreeMap::new(),
            audit_failures: BTreeMap::new(),
            table: DomainTable::new(),
        }
    }

    /// The change generation of `domain` (0 = not delegated). Any edit that
    /// changes what a scan of the TLD zone would observe bumps this;
    /// sponsorship transfers do not (they are invisible on the wire).
    pub fn generation_of(&self, domain: &Name) -> u64 {
        self.row_of(domain)
            .map_or(0, |row| self.table.generation(row))
    }

    /// The TLD zone, borrowed from the authority serving it. No edit of
    /// the registry may run while it is held.
    fn zone(&self) -> Ref<'_, Zone> {
        (self.authority.zone(&self.keys.zone)).expect("the registry serves its zone")
    }

    /// Edits the TLD zone (copy-on-write under a snapshot).
    fn edit_zone<R>(&self, f: impl FnOnce(&mut Zone) -> R) -> R {
        (self.authority.with_zone_mut(&self.keys.zone, f)).expect("the registry serves its zone")
    }

    /// Folds a zone-side edit (signing, hosting change — anything the
    /// [`World`](crate::World) observes outside the registry) of a
    /// delegated `domain` into the same per-delegation counter, so
    /// [`Registry::generation_of`] is the single map probe on the scan hot
    /// path.
    pub(crate) fn note_external_change(&mut self, domain: &Name) {
        let row = self
            .row_of(domain)
            .expect("the world edits its delegations");
        self.table.bump(row);
    }

    /// The authority serving this TLD zone (register it on the network
    /// under [`Tld::registry_ns`]).
    pub fn authority(&self) -> Rc<Authority> {
        self.authority.clone()
    }

    /// The registry's own keys (the parent hands its DS up to the root).
    pub fn keys(&self) -> &ZoneKeys {
        &self.keys
    }

    /// Accredits a registrar (ICANN accreditation + registry certification).
    pub fn accredit(&mut self, registrar: RegistrarId) {
        if !self.accredited.contains(&registrar) {
            self.accredited.push(registrar);
        }
    }

    /// Whether `registrar` may update this registry.
    pub fn is_accredited(&self, registrar: RegistrarId) -> bool {
        self.accredited.contains(&registrar)
    }

    /// Registers a new delegation. Only accredited registrars may do
    /// this, only for a child of the TLD apex, and only with at least one
    /// nameserver. The one place a row is made: the zone's delegation row
    /// and the table's row together, at the same number.
    pub fn add_delegation(
        &mut self,
        registrar: RegistrarId,
        domain: &Name,
        ns_hosts: &[Name],
    ) -> Result<(), RegistryError> {
        self.check(registrar, domain)?;
        if self.row_of(domain).is_some() {
            return Err(RegistryError::AlreadyRegistered(domain.to_string()));
        }
        let operator = first_operator(domain, ns_hosts)?;
        let row = self
            .edit_zone(|zone| zone.add_delegation(domain, DELEGATION_TTL, ns_hosts))
            .expect("a new child of the apex with a nameserver");
        let table_row = self.table.add_row(registrar, operator);
        assert_eq!(row, table_row, "the zone and the table add rows together");
        self.table.bump(row);
        Ok(())
    }

    /// Replaces the NS set of an existing delegation (hosting change).
    /// The new set must not be empty.
    pub fn set_ns(
        &mut self,
        registrar: RegistrarId,
        domain: &Name,
        ns_hosts: &[Name],
    ) -> Result<(), RegistryError> {
        let row = self.check_sponsor(registrar, domain)?;
        let operator = first_operator(domain, ns_hosts)?;
        // The zone shares the host list with every delegation to the same
        // fleet, and the operator column follows it in the same call.
        self.edit_zone(|zone| zone.set_ns_at(row, DELEGATION_TTL, ns_hosts));
        self.table.set_operator(row, operator);
        self.table.bump(row);
        Ok(())
    }

    /// Installs (replacing) the DS RRset for a delegation and signs it.
    /// **The registry performs no validation of the DS contents** — exactly
    /// like real registries, it publishes whatever the registrar sends.
    pub fn set_ds(
        &mut self,
        registrar: RegistrarId,
        domain: &Name,
        ds_set: &[DsRdata],
    ) -> Result<(), RegistryError> {
        let row = self.check_sponsor(registrar, domain)?;
        // A DS RRset is a set: each record once, in the order sent.
        let owner = domain.to_canonical();
        let mut records: Vec<Record> = Vec::with_capacity(ds_set.len() + 1);
        for ds in ds_set {
            let record = Record::new(owner.clone(), DS_TTL, RData::Ds(ds.clone()));
            if !records.contains(&record) {
                records.push(record);
            }
        }
        if !records.is_empty() {
            let keys = &self.keys;
            let rrset = RrSet::new(records.clone()).expect("one DS RRset");
            records.push(sign_rrset(
                &rrset,
                &keys.zsk,
                keys.zsk_tag(),
                &keys.zone,
                &self.signer,
            ));
        }
        self.edit_zone(|zone| zone.set_ds_at(row, records));
        self.table.bump(row);
        Ok(())
    }

    /// Removes the DS RRset (and its signature).
    pub fn remove_ds(
        &mut self,
        registrar: RegistrarId,
        domain: &Name,
    ) -> Result<(), RegistryError> {
        self.set_ds(registrar, domain, &[])
    }

    /// Transfers sponsorship of a delegation to another accredited
    /// registrar (reseller partner migration at renewal).
    pub fn transfer(
        &mut self,
        from: RegistrarId,
        to: RegistrarId,
        domain: &Name,
    ) -> Result<(), RegistryError> {
        let row = self.check_sponsor(from, domain)?;
        if !self.is_accredited(to) {
            return Err(RegistryError::NotAccredited(to));
        }
        self.table.set_sponsor(row, to);
        Ok(())
    }

    /// The DS records currently published for `domain`.
    pub fn ds_of(&self, domain: &Name) -> Vec<DsRdata> {
        ds_records(self.zone().owner(domain))
    }

    /// [`Registry::ds_of`] by row.
    pub fn ds_at(&self, row: u32) -> Vec<DsRdata> {
        ds_records(Some(self.zone().delegation(row)))
    }

    /// Whether any DS record is published for `domain` — the
    /// emptiness test of [`Registry::ds_of`] without cloning the set.
    pub fn has_ds(&self, domain: &Name) -> bool {
        (self.zone().owner(domain)).is_some_and(|owner| owner.rrset(RrType::Ds).is_some())
    }

    /// [`Registry::has_ds`] by row.
    pub fn has_ds_at(&self, row: u32) -> bool {
        (self.zone().delegation(row).rrset(RrType::Ds)).is_some()
    }

    /// The NS hostnames currently delegated for `domain`, read off the
    /// zone's cut without building its records.
    pub fn ns_of(&self, domain: &Name) -> Vec<Name> {
        self.zone().ns_hosts(domain).cloned().collect()
    }

    /// [`Registry::ns_of`] by row.
    pub fn ns_at(&self, row: u32) -> Vec<Name> {
        self.zone().delegation(row).ns_hosts().cloned().collect()
    }

    /// Every delegated second-level domain (the "zone file" the scanner
    /// enumerates, as OpenINTEL does), in canonical (RFC 4034) order:
    /// the TLD zone's rows, which every delegation is made as — it goes
    /// through the registry (the paper's structural constraint).
    pub fn delegations(&self) -> Vec<Name> {
        let zone = self.zone();
        let names = zone.delegation_names();
        (self.table.ordered(names))
            .map(|(row, _)| names[row as usize].clone())
            .collect()
    }

    /// The row `domain` has in this registry's zone and columns, under
    /// any spelling: the world's one `Name` probe per domain.
    pub fn row_of(&self, domain: &Name) -> Option<u32> {
        self.zone().row_of(domain)
    }

    /// The columnar scan edge: delegations in canonical order as
    /// `(row, generation)`. The row is a stable per-registry handle, so
    /// incremental consumers can key caches on a
    /// [`DomainId`](crate::DomainId) instead of the name, and the
    /// generation comes out of the same column sweep instead of a
    /// per-domain map probe. A consumer that needs a row's name reads it
    /// by row ([`Registry::delegation_at`]).
    pub fn delegations_columnar(&self) -> OrderedRows<'_> {
        self.table.ordered(self.zone().delegation_names())
    }

    /// Canonical positions of the delegations' columnar rows: rows
    /// sorted by [`Ranks::of`] come out in [`Registry::delegations_columnar`]
    /// order.
    pub fn delegation_ranks(&self) -> Ranks<'_> {
        self.table.ranks(self.zone().delegation_names())
    }

    /// Number of delegations, without enumerating them: every columnar
    /// row is below it.
    pub fn delegation_count(&self) -> usize {
        self.table.row_count()
    }

    /// The delegation at columnar `row` as `(name, generation)`: the name
    /// by value (a shared buffer; no allocation).
    pub fn delegation_at(&self, row: u32) -> (Name, u64) {
        let name = self.zone().delegation(row).name().clone();
        (name, self.table.generation(row))
    }

    /// The change generation at columnar `row`: a column read, no zone
    /// borrowed.
    pub fn generation_at(&self, row: u32) -> u64 {
        self.table.generation(row)
    }

    /// The end of this registry's change journal (see
    /// [`DomainTable::bump`]): what an incremental consumer remembers
    /// after a sweep so that its next look reads only what changed.
    pub fn journal_cursor(&self) -> JournalCursor {
        self.table.journal_cursor()
    }

    /// The rows whose generation was bumped since `cursor`, one per bump
    /// (delegations added or edited), or `None` when `cursor` belongs to
    /// another registry or reaches back further than the journal
    /// remembers — sweep [`Registry::delegations_columnar`] instead.
    pub fn changes_since(&self, cursor: JournalCursor) -> Option<&[u32]> {
        self.table.changes_since(cursor)
    }

    /// The sponsoring registrar of `domain`.
    pub fn sponsor_of(&self, domain: &Name) -> Option<RegistrarId> {
        self.row_of(domain).map(|row| self.table.sponsor(row))
    }

    /// The DNS operator of `domain`: the
    /// [`operator_key`](crate::operator_key) of its first NS
    /// host, stored by the write that set the NS records. `None` when
    /// `domain` is not delegated.
    pub fn operator_of(&self, domain: &Name) -> Option<&Name> {
        let id = self.operator_id_of(domain)?;
        Some(&self.table.operators()[id as usize])
    }

    /// [`Registry::operator_of`] as an id into [`Registry::operators`].
    pub fn operator_id_of(&self, domain: &Name) -> Option<u32> {
        self.row_of(domain).map(|row| self.table.operator(row))
    }

    /// The operator id at columnar `row`. Every delegation has one
    /// ([`RegistryError::EmptyNsSet`]).
    pub fn operator_at(&self, row: u32) -> u32 {
        self.table.operator(row)
    }

    /// Operator keys by id. Ids are dense and this registry's own: the
    /// same key has unrelated ids in two registries.
    pub fn operators(&self) -> &[Name] {
        self.table.operators()
    }

    /// Records an audit outcome for incentive bookkeeping: a correctly
    /// signed domain earns its sponsor the per-domain discount, a broken
    /// one counts as a failure.
    pub fn record_audit(&mut self, domain: &Name, passed: bool) {
        if let Some(row) = self.row_of(domain) {
            self.record_audit_row(row, passed);
        }
    }

    /// [`Registry::record_audit`] by table row (the daily audit pass
    /// enumerates rows, not names).
    pub(crate) fn record_audit_row(&mut self, row: u32, passed: bool) {
        let sponsor = self.table.sponsor(row);
        if passed {
            if let Some(incentive) = self.tld.incentive() {
                // Daily accrual of the yearly discount.
                *self.discounts_cents.entry(sponsor).or_default() +=
                    (incentive.discount_cents as u64).max(1) / 365 + 1;
            }
        } else {
            *self.audit_failures.entry(sponsor).or_default() += 1;
        }
    }

    /// Whether `registrar` may write `domain`'s delegation at all: it must
    /// be accredited, and the domain a child of this TLD's apex.
    fn check(&self, registrar: RegistrarId, domain: &Name) -> Result<(), RegistryError> {
        if !self.is_accredited(registrar) {
            return Err(RegistryError::NotAccredited(registrar));
        }
        if domain.parent().as_ref() != Some(&self.keys.zone) {
            return Err(RegistryError::NotAChild(domain.to_string()));
        }
        Ok(())
    }

    /// [`Registry::check`], and that `registrar` sponsors `domain`: its
    /// row.
    fn check_sponsor(&self, registrar: RegistrarId, domain: &Name) -> Result<u32, RegistryError> {
        self.check(registrar, domain)?;
        let row = self
            .row_of(domain)
            .ok_or_else(|| RegistryError::NotRegistered(domain.to_string()))?;
        if self.table.sponsor(row) != registrar {
            return Err(RegistryError::NotSponsor {
                registrar,
                domain: domain.to_string(),
            });
        }
        Ok(row)
    }
}

/// The operator a delegation to `ns_hosts` is keyed on, or
/// [`RegistryError::EmptyNsSet`]: a delegation needs a nameserver.
fn first_operator(domain: &Name, ns_hosts: &[Name]) -> Result<Name, RegistryError> {
    operator_of(ns_hosts).ok_or_else(|| RegistryError::EmptyNsSet(domain.to_string()))
}

/// The DS records `owner` (a delegation, or nothing) holds.
fn ds_records(owner: Option<Owner<'_>>) -> Vec<DsRdata> {
    let ds = owner.and_then(|owner| owner.rrset(RrType::Ds));
    (ds.iter().flat_map(|records| records.iter()))
        .filter_map(|r| match &r.rdata {
            RData::Ds(ds) => Some(ds.clone()),
            _ => None,
        })
        .collect()
}

/// How long a verdict computed from one observation of a delegation
/// stays true: while the delegation is still at the generation observed
/// and the clock is strictly inside the RRSIG validity window around the
/// observation time (signatures lapsing moves no generation). The
/// tick's audit memo and the scanner's cache reuse verdicts under it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Freshness {
    /// Delegation generation observed (delegations start at 1, so
    /// the default never holds).
    pub generation: u64,
    /// [`dsec_dnssec::Observation::validity_window`] at the observation
    /// time.
    pub window: (i64, i64),
}

impl Freshness {
    /// The window of an observation with no RRSIG (an unsigned
    /// delegation's): no clock ever leaves it.
    pub const UNBOUNDED: (i64, i64) = (i64::MIN, i64::MAX);

    /// Whether the verdict still holds for the delegation at
    /// `generation` and the clock at `now`.
    pub fn holds(&self, generation: u64, now: u32) -> bool {
        let now = i64::from(now);
        self.generation == generation && self.window.0 < now && now < self.window.1
    }
}

/// One verdict per registry row, each with the [`Freshness`] it holds
/// under, and a payload `T` beside it: the tick's audit memo and the
/// scanner's cache. A row costs a byte, a `u32` generation and a `T`.
/// The byte's low six bits ([`FreshnessColumn::VERDICT`]) are the
/// caller's verdict, bit 6 marks a bounded window and bit 7 an empty
/// row. Only bounded windows are kept, in a map by row: an unsigned
/// delegation's window is [`Freshness::UNBOUNDED`], so its row is read
/// without probing the map. A generation that does not fit in `u32` is
/// kept as 0, which never holds: the row keeps its verdict and payload,
/// and misses every lookup instead of serving a wrong hit.
#[derive(Debug, Clone, Default)]
pub struct FreshnessColumn<T> {
    tags: Vec<u8>,
    generations: Vec<u32>,
    payloads: Vec<T>,
    windows: FnvHashMap<u32, (i64, i64)>,
}

impl<T: Copy + Default> FreshnessColumn<T> {
    /// The bits of a row's byte that are the caller's verdict.
    pub const VERDICT: u8 = (1 << 6) - 1;
    const BOUNDED: u8 = 1 << 6;
    const EMPTY: u8 = 1 << 7;

    /// Makes room for `rows` rows: the exact size plus 1/64 for the rows
    /// added later, instead of doubling.
    pub fn fit(&mut self, rows: usize) {
        let len = self.tags.len();
        if rows > len {
            let more = rows - len + rows / 64;
            self.tags.reserve_exact(more);
            self.generations.reserve_exact(more);
            self.payloads.reserve_exact(more);
            self.tags.resize(rows, Self::EMPTY);
            self.generations.resize(rows, 0);
            self.payloads.resize(rows, T::default());
        }
    }

    /// Stores `verdict` (within [`FreshnessColumn::VERDICT`]) and
    /// `payload` at `row`, good while `fresh` holds.
    pub fn store(&mut self, row: u32, fresh: Freshness, verdict: u8, payload: T) {
        debug_assert_eq!(verdict & !Self::VERDICT, 0, "not a verdict");
        self.fit(row as usize + 1);
        let at = row as usize;
        let mut tag = verdict;
        if fresh.window != Freshness::UNBOUNDED {
            tag |= Self::BOUNDED;
            self.windows.insert(row, fresh.window);
        } else if self.tags[at] & Self::BOUNDED != 0 {
            self.windows.remove(&row);
        }
        self.tags[at] = tag;
        self.generations[at] = u32::try_from(fresh.generation).unwrap_or(0);
        self.payloads[at] = payload;
    }

    /// How many rows the column has room for.
    pub fn rows(&self) -> usize {
        self.tags.len()
    }

    /// The verdict and payload stored at `row`, however stale.
    pub fn get(&self, row: u32) -> Option<(u8, T)> {
        let at = row as usize;
        let tag = *self.tags.get(at)?;
        (tag & Self::EMPTY == 0).then(|| (tag & Self::VERDICT, self.payloads[at]))
    }

    /// The freshness of the verdict stored at `row`.
    pub fn freshness(&self, row: u32) -> Option<Freshness> {
        let at = row as usize;
        let tag = *self.tags.get(at)?;
        if tag & Self::EMPTY != 0 {
            return None;
        }
        let window = if tag & Self::BOUNDED != 0 {
            self.windows[&row]
        } else {
            Freshness::UNBOUNDED
        };
        Some(Freshness {
            generation: u64::from(self.generations[at]),
            window,
        })
    }

    /// The verdict and payload at `row` if they hold for the delegation
    /// at `generation` and the clock at `now` ([`Freshness::holds`]).
    pub fn holding(&self, row: u32, generation: u64, now: u32) -> Option<(u8, T)> {
        let fresh = self.freshness(row)?;
        (fresh.generation != 0 && fresh.holds(generation, now))
            .then(|| self.get(row).expect("a fresh row is filled"))
    }

    /// Every bounded window, by row, in no particular order.
    pub fn windows(&self) -> impl Iterator<Item = (u32, (i64, i64))> + '_ {
        self.windows.iter().map(|(&row, &window)| (row, window))
    }

    /// Checks that the window map holds exactly the rows whose bounded
    /// bit is set (test support).
    #[doc(hidden)]
    pub fn check_windows(&self) -> Result<(), String> {
        let bounded =
            |&row: &u32| (self.tags.get(row as usize)).is_some_and(|&tag| tag & Self::BOUNDED != 0);
        if let Some(row) = self.windows.keys().find(|row| !bounded(row)) {
            return Err(format!("row {row} has a window but no bounded verdict"));
        }
        let rows = (0..self.tags.len() as u32).filter(bounded).count();
        if rows != self.windows.len() {
            return Err(format!(
                "{rows} bounded verdicts, {} windows",
                self.windows.len()
            ));
        }
        Ok(())
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The caller is not accredited at this registry.
    NotAccredited(RegistrarId),
    /// The caller does not sponsor this delegation.
    NotSponsor {
        /// Who tried.
        registrar: RegistrarId,
        /// Which domain.
        domain: String,
    },
    /// The domain is not delegated here.
    NotRegistered(String),
    /// The domain is already delegated.
    AlreadyRegistered(String),
    /// A delegation was written with no nameservers.
    EmptyNsSet(String),
    /// The domain is not a child of the TLD apex: the apex itself, a
    /// deeper name, or a name under another TLD.
    NotAChild(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotAccredited(r) => write!(f, "registrar #{} is not accredited", r.0),
            RegistryError::NotSponsor { registrar, domain } => {
                write!(f, "registrar #{} does not sponsor {domain}", registrar.0)
            }
            RegistryError::NotRegistered(d) => write!(f, "{d} is not registered"),
            RegistryError::AlreadyRegistered(d) => write!(f, "{d} is already registered"),
            RegistryError::EmptyNsSet(d) => write!(f, "{d} needs at least one nameserver"),
            RegistryError::NotAChild(d) => write!(f, "{d} is not a child of this TLD"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FROM: u32 = 1_420_070_400;
    const UNTIL: u32 = FROM + 1000 * 86_400;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn registry() -> Registry {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = Registry::new(Tld::Com, &mut rng, FROM, UNTIL);
        r.accredit(RegistrarId(1));
        r
    }

    #[test]
    fn apex_is_signed() {
        let r = registry();
        let auth = r.authority();
        let q = dsec_wire::Message::query(1, name("com"), RrType::Dnskey, true);
        let resp = auth.handle_query(&q);
        assert_eq!(
            resp.answers
                .iter()
                .filter(|rec| rec.rtype() == RrType::Dnskey)
                .count(),
            2
        );
        assert!(resp.answers.iter().any(|rec| rec.rtype() == RrType::Rrsig));
    }

    #[test]
    fn only_accredited_registrars_may_register() {
        let mut r = registry();
        let err = r.add_delegation(RegistrarId(9), &name("x.com"), &[name("ns1.op.net")]);
        assert_eq!(err, Err(RegistryError::NotAccredited(RegistrarId(9))));
        assert!(r
            .add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .is_ok());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = registry();
        r.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        assert!(matches!(
            r.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")]),
            Err(RegistryError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn ds_lifecycle_with_signature() {
        let mut r = registry();
        let reg = RegistrarId(1);
        r.add_delegation(reg, &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        assert!(r.ds_of(&name("x.com")).is_empty());
        assert!(!r.has_ds(&name("x.com")));
        let ds = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![7; 32],
        };
        r.set_ds(reg, &name("x.com"), std::slice::from_ref(&ds))
            .unwrap();
        assert_eq!(r.ds_of(&name("x.com")), vec![ds]);
        assert!(r.has_ds(&name("X.com")));
        // The DS RRset is signed by the registry.
        let has_ds_sig = r
            .authority()
            .with_zone(&name("com"), |z| {
                z.rrset(&name("x.com"), RrType::Rrsig)
                    .map(|s| {
                        s.records().iter().any(|rec| {
                            matches!(&rec.rdata, RData::Rrsig(sig) if sig.type_covered == RrType::Ds)
                        })
                    })
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(has_ds_sig);
        r.remove_ds(reg, &name("x.com")).unwrap();
        assert!(r.ds_of(&name("x.com")).is_empty());
        assert!(!r.has_ds(&name("x.com")));
    }

    #[test]
    fn registry_publishes_garbage_ds_verbatim() {
        // Real registries do not validate DS contents; neither does ours.
        let mut r = registry();
        let reg = RegistrarId(1);
        r.add_delegation(reg, &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        let garbage = DsRdata {
            key_tag: 0,
            algorithm: 99,
            digest_type: 99,
            digest: b"not a digest".to_vec(),
        };
        r.set_ds(reg, &name("x.com"), std::slice::from_ref(&garbage))
            .unwrap();
        assert_eq!(r.ds_of(&name("x.com")), vec![garbage]);
    }

    #[test]
    fn sponsorship_is_enforced() {
        let mut r = registry();
        r.accredit(RegistrarId(2));
        r.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        let ds = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![1; 32],
        };
        assert!(matches!(
            r.set_ds(RegistrarId(2), &name("x.com"), &[ds]),
            Err(RegistryError::NotSponsor { .. })
        ));
        assert!(matches!(
            r.set_ns(RegistrarId(2), &name("x.com"), &[name("ns2.op.net")]),
            Err(RegistryError::NotSponsor { .. })
        ));
    }

    #[test]
    fn transfer_changes_sponsor() {
        let mut r = registry();
        r.accredit(RegistrarId(2));
        r.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        r.transfer(RegistrarId(1), RegistrarId(2), &name("x.com"))
            .unwrap();
        assert_eq!(r.sponsor_of(&name("x.com")), Some(RegistrarId(2)));
        // New sponsor can now update.
        assert!(r
            .set_ns(RegistrarId(2), &name("x.com"), &[name("ns9.op.net")])
            .is_ok());
        assert_eq!(r.ns_of(&name("x.com")), vec![name("ns9.op.net")]);
    }

    #[test]
    fn transfer_requires_accredited_recipient() {
        let mut r = registry();
        r.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        assert_eq!(
            r.transfer(RegistrarId(1), RegistrarId(5), &name("x.com")),
            Err(RegistryError::NotAccredited(RegistrarId(5)))
        );
    }

    #[test]
    fn delegations_enumerates_slds_only() {
        let mut r = registry();
        r.add_delegation(RegistrarId(1), &name("a.com"), &[name("ns1.op.net")])
            .unwrap();
        r.add_delegation(RegistrarId(1), &name("b.com"), &[name("ns1.op.net")])
            .unwrap();
        let mut d = r.delegations();
        d.sort();
        assert_eq!(d, vec![name("a.com"), name("b.com")]);
    }

    #[test]
    fn generation_bumps_on_observable_edits_only() {
        let mut r = registry();
        r.accredit(RegistrarId(2));
        let d = name("x.com");
        assert_eq!(r.generation_of(&d), 0, "unknown names are generation 0");
        r.add_delegation(RegistrarId(1), &d, &[name("ns1.op.net")])
            .unwrap();
        assert_eq!(r.generation_of(&d), 1);
        r.set_ns(RegistrarId(1), &d, &[name("ns2.op.net")]).unwrap();
        assert_eq!(r.generation_of(&d), 2);
        let ds = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![7; 32],
        };
        r.set_ds(RegistrarId(1), &d, std::slice::from_ref(&ds))
            .unwrap();
        assert_eq!(r.generation_of(&d), 3);
        r.remove_ds(RegistrarId(1), &d).unwrap();
        assert_eq!(r.generation_of(&d), 4);
        // Transfers are invisible on the wire: no bump.
        r.transfer(RegistrarId(1), RegistrarId(2), &d).unwrap();
        assert_eq!(r.generation_of(&d), 4);
        // Failed edits leave the generation untouched.
        assert!(r
            .set_ds(RegistrarId(1), &d, std::slice::from_ref(&ds))
            .is_err());
        assert!(r
            .set_ds(RegistrarId(9), &d, std::slice::from_ref(&ds))
            .is_err());
        assert_eq!(r.generation_of(&d), 4);
    }

    #[test]
    fn an_empty_ns_set_cannot_open_a_live_delegation_to_takeover() {
        let mut r = registry();
        r.accredit(RegistrarId(2));
        let d = name("x.com");
        r.add_delegation(RegistrarId(1), &d, &[name("ns1.op.net")])
            .unwrap();
        // Emptying the NS set is refused and changes nothing.
        assert_eq!(
            r.set_ns(RegistrarId(1), &d, &[]),
            Err(RegistryError::EmptyNsSet("x.com.".into()))
        );
        assert_eq!(r.generation_of(&d), 1);
        assert_eq!(r.ns_of(&d), vec![name("ns1.op.net")]);
        // The delegation is live, so no other registrar can register it.
        assert_eq!(
            r.add_delegation(RegistrarId(2), &d, &[name("ns1.evil.net")]),
            Err(RegistryError::AlreadyRegistered("x.com.".into()))
        );
        assert_eq!(r.sponsor_of(&d), Some(RegistrarId(1)));
        // Nor can a new delegation start empty.
        assert_eq!(
            r.add_delegation(RegistrarId(1), &name("y.com"), &[]),
            Err(RegistryError::EmptyNsSet("y.com.".into()))
        );
        assert_eq!(r.generation_of(&name("y.com")), 0);
        assert_eq!(r.sponsor_of(&name("y.com")), None);
    }

    #[test]
    fn only_children_of_the_apex_can_be_delegated() {
        let mut r = registry();
        let reg = RegistrarId(1);
        let evil = [name("ns1.evil.net")];
        let ds = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![7; 32],
        };
        for domain in ["com", "COM", "a.b.com", "x.org", "."] {
            let d = name(domain);
            let refused = Err(RegistryError::NotAChild(d.to_string()));
            assert_eq!(r.add_delegation(reg, &d, &evil), refused, "{domain}");
            assert_eq!(r.set_ns(reg, &d, &evil), refused, "{domain}");
            assert_eq!(
                r.set_ds(reg, &d, std::slice::from_ref(&ds)),
                refused,
                "{domain}"
            );
            assert_eq!(r.generation_of(&d), 0, "{domain}");
        }
        // The apex NS set, which the registry signed, is its own still.
        assert_eq!(r.ns_of(&name("com")), vec![Tld::Com.registry_ns()]);
        assert!(r.delegations().is_empty());
        assert!(r.add_delegation(reg, &name("x.com"), &evil).is_ok());
    }

    #[test]
    fn the_operator_column_follows_the_ns_writes() {
        let mut r = registry();
        let d = name("x.com");
        let reg = RegistrarId(1);
        assert_eq!(r.operator_of(&d), None, "never delegated");
        r.add_delegation(reg, &d, &[name("NS1.Op.NET"), name("ns2.other.net")])
            .unwrap();
        assert_eq!(r.operator_of(&name("X.COM")), Some(&name("op.net")));
        r.set_ns(reg, &d, &[name("ns-7.awsdns-13.org")]).unwrap();
        assert_eq!(r.operator_of(&d), Some(&name("awsdns.group")));
        // A failed edit leaves the column as it was.
        assert!(r.set_ns(RegistrarId(9), &d, &[name("ns.x.net")]).is_err());
        assert!(r.set_ns(reg, &d, &[]).is_err());
        assert_eq!(r.operator_of(&d), Some(&name("awsdns.group")));
        r.set_ns(reg, &d, &[name("ns.1and1.de")]).unwrap();
        assert_eq!(r.operator_of(&d), Some(&name("1and1.group")));
        // Ids are this registry's, one per key, in first-write order.
        r.add_delegation(reg, &name("y.com"), &[name("ns2.awsdns-01.net")])
            .unwrap();
        let keys: Vec<String> = r.operators().iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, ["op.net.", "awsdns.group.", "1and1.group."]);
        assert_eq!(r.operator_id_of(&name("y.com")), Some(1));
        let (row, _) = r.delegations_columnar().last().unwrap();
        assert_eq!(r.operator_at(row), 1, "y.com sorts last");
    }

    /// Delegations store no NS records: the TLD zone keeps one interned
    /// host list per fleet, and the referral, `ns_of` and the zone's
    /// records all read the same hosts back.
    #[test]
    fn delegations_share_their_fleets_host_lists() {
        let mut r = registry();
        let fleets = [
            vec![name("ns1.op.net"), name("ns2.op.net")],
            vec![name("ns-7.awsdns-13.org"), name("ns-9.awsdns-01.net")],
            vec![name("ns.1and1.de")],
        ];
        for i in 0..300 {
            let d = name(&format!("d{i}.com"));
            r.add_delegation(RegistrarId(1), &d, &fleets[i % 3])
                .unwrap();
        }
        r.set_ds(
            RegistrarId(1),
            &name("d0.com"),
            &[DsRdata {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![7; 32],
            }],
        )
        .unwrap();
        let zone = r.authority().with_zone(&name("com"), Zone::clone).unwrap();
        assert_eq!(zone.cut_stats(), (300, 3));
        assert_eq!(r.ns_of(&name("D4.com")), fleets[1]);
        let ns = zone.rrset(&name("d4.com"), RrType::Ns).unwrap();
        assert_eq!(ns.ttl(), DELEGATION_TTL);
        let hosts: Vec<&Name> = ns
            .records()
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(host) => Some(host),
                _ => None,
            })
            .collect();
        assert!(hosts.into_iter().eq(&fleets[1]));
        let q = dsec_wire::Message::query(1, name("www.d0.com"), RrType::A, true);
        let referral = r.authority().handle_query(&q);
        let types: Vec<RrType> = referral.authorities.iter().map(Record::rtype).collect();
        assert_eq!(types, [RrType::Ns, RrType::Ns, RrType::Ds, RrType::Rrsig]);
    }

    /// A stale secondary (`Authority::snapshot`) keeps serving the TLD
    /// zone's rows as they were: no row added, NS set or DS written since
    /// shows through it.
    #[test]
    fn a_snapshot_freezes_the_tld_zone_rows() {
        let mut r = registry();
        let reg = RegistrarId(1);
        r.add_delegation(reg, &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        let frozen = r.authority().snapshot();
        r.add_delegation(reg, &name("y.com"), &[name("ns1.op.net")])
            .unwrap();
        r.set_ns(reg, &name("x.com"), &[name("ns9.op.net")])
            .unwrap();
        let ds = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![7; 32],
        };
        r.set_ds(reg, &name("x.com"), &[ds]).unwrap();
        let referral = |auth: &Authority, qname: &str| {
            let q = dsec_wire::Message::query(1, name(qname), RrType::A, true);
            let resp = auth.handle_query(&q);
            let types: Vec<RrType> = resp.authorities.iter().map(Record::rtype).collect();
            (resp.rcode, types, resp.authorities[0].to_string())
        };
        let live = r.authority();
        assert_eq!(
            referral(&live, "www.x.com"),
            (
                dsec_wire::Rcode::NoError,
                vec![RrType::Ns, RrType::Ds, RrType::Rrsig],
                "x.com. 172800 IN NS ns9.op.net.".to_string()
            )
        );
        assert_eq!(
            referral(&frozen, "www.x.com"),
            (
                dsec_wire::Rcode::NoError,
                vec![RrType::Ns],
                "x.com. 172800 IN NS ns1.op.net.".to_string()
            )
        );
        assert_eq!(referral(&live, "www.y.com").1, [RrType::Ns]);
        assert_eq!(referral(&frozen, "www.y.com").0, dsec_wire::Rcode::NxDomain);
    }

    #[test]
    fn audit_bookkeeping() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = Registry::new(Tld::Nl, &mut rng, FROM, UNTIL);
        r.accredit(RegistrarId(1));
        r.add_delegation(RegistrarId(1), &name("x.nl"), &[name("ns1.op.net")])
            .unwrap();
        r.record_audit(&name("x.nl"), true);
        r.record_audit(&name("x.nl"), false);
        assert!(r.discounts_cents[&RegistrarId(1)] > 0);
        assert_eq!(r.audit_failures[&RegistrarId(1)], 1);
        // gTLDs award nothing.
        let mut com = Registry::new(Tld::Com, &mut rng, FROM, UNTIL);
        com.accredit(RegistrarId(1));
        com.add_delegation(RegistrarId(1), &name("x.com"), &[name("ns1.op.net")])
            .unwrap();
        com.record_audit(&name("x.com"), true);
        assert!(!com.discounts_cents.contains_key(&RegistrarId(1)));
    }
}
