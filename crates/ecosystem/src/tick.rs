//! The daily simulation tick and its passes.
//!
//! A child module of [`world`](super) so the passes share `World`'s
//! private state. A simulated day costs what *changed* that day: the
//! opt-in passes draw over cached candidate worklists, renewals visit
//! only the domains with a partner switch pending, and audits reuse
//! memoized verdicts — see DESIGN.md §9 for the invalidation contract
//! every new `Domain` mutation path must honour.

use super::*;
use crate::registry::{Freshness, FreshnessColumn};
use crate::table::Ranks;
use dsec_dnssec::{CdsAction, CdsScan};

/// Worklist slot of the registrar-hosted opt-in candidates; slot `1 + i`
/// holds the candidates hosted at `World::third_parties[i]`.
const HOSTED: usize = 0;

/// One opt-in candidate and its daily hazard: the hosting registrar's in
/// the [`HOSTED`] slot, the third party's in its own.
type Candidate = (DomainId, f64);

/// Incrementally maintained inputs of the daily passes.
///
/// **Invalidation contract** (DESIGN.md §9): the worklists are exactly
/// the domains [`World::adoption_slot`] accepts, in canonical name order,
/// each with the hazard it returns, whenever `worklists_fresh` is set.
/// Every path that could *add* a candidate or change eligibility or a
/// hazard — a new domain, a hosting change, a hazard or policy change —
/// calls [`TickState::invalidate_worklists`];
/// signing removes the one domain in place ([`World::set_keys`]).
/// The pending migrations are exact at all times: `SwitchPartner` adds
/// each domain it flags, and a landed migration takes it out.
#[derive(Default)]
pub(super) struct TickState {
    worklists: Vec<Vec<Candidate>>,
    worklists_fresh: bool,
    /// The domains with `Domain::pending_partner_migration` set.
    pending_migrations: BTreeSet<DomainId>,
    mass_sign_queue: Vec<MassSignTask>,
    /// Per incentive TLD, registry row → last audit outcome
    /// ([`audit_byte`]).
    audit_memo: BTreeMap<Tld, FreshnessColumn<()>>,
}

impl TickState {
    /// Marks the opt-in worklists stale; the next adoption pass rebuilds
    /// them with one sweep.
    pub(super) fn invalidate_worklists(&mut self) {
        self.worklists_fresh = false;
    }
}

/// Internal queue entry for a mass-signing milestone in progress.
struct MassSignTask {
    registrar: RegistrarId,
    /// Domains to sign, in canonical order; `next` is the cursor.
    targets: Vec<DomainId>,
    next: usize,
    per_day: usize,
}

/// Canonical positions of the world's domains, borrowed from the five
/// registries' order caches: ids sorted by [`DomainRanks::of`] come out
/// in [`World::domains`] order without comparing a name.
struct DomainRanks<'a>([Ranks<'a>; ALL_TLDS.len()]);

impl<'a> DomainRanks<'a> {
    fn new(registries: &'a BTreeMap<Tld, Registry>) -> Self {
        DomainRanks(ALL_TLDS.map(|tld| registries[&tld].delegation_ranks()))
    }

    /// The TLD's place in label order, then the registry's rank.
    fn of(&self, id: DomainId) -> (usize, u32) {
        let tld = id.tld();
        let label = BY_LABEL
            .iter()
            .position(|&t| t == tld)
            .expect("a studied TLD");
        (label, self.0[tld as usize].of(id.row()))
    }
}

/// A memoized audit outcome for one registry row, as the verdict byte of
/// its audit-memo row: `None` (no DS published, nothing to audit) is 0, a
/// failed audit 1 and a passed one 2. The outcome is a pure function of
/// the delegation's generation (DESIGN.md §9) and of where `now` falls
/// between the RRSIG validity edges of the observation it came from, so
/// it is reused only while both stand still.
fn audit_byte(passed: Option<bool>) -> u8 {
    passed.map_or(0, |passed| 1 + u8::from(passed))
}

/// The audit outcome an [`audit_byte`] stands for.
fn audit_passed(byte: u8) -> Option<bool> {
    (byte != 0).then_some(byte == 2)
}

impl World {
    /// Advances one day: apply milestones, drain mass-sign queues, run
    /// population adoption, renewals, audits, and CDS scans.
    pub fn tick(&mut self) {
        self.today = self.today.plus_days(1);
        self.apply_milestones();
        self.drain_mass_sign();
        self.population_adoption();
        self.third_party_adoption();
        self.process_renewals();
        self.drive_rollovers();
        self.drive_anchor_roll();
        if self
            .today
            .days_since(self.config.start)
            .is_multiple_of(self.config.audit_interval_days.max(1))
        {
            self.run_audits();
        }
        self.run_cds_scans();
    }

    /// Advances until `date` (inclusive of its tick).
    pub fn advance_to(&mut self, date: SimDate) {
        while self.today < date {
            self.tick();
        }
    }

    // -------------------------------------------------------- worklists --

    /// The opt-in worklist `d` belongs on and its daily hazard there, if
    /// it is a candidate: unsigned, and hosted where opting in is
    /// possible at all. Time-dependent conditions (a third party's launch
    /// day) stay with the daily pass.
    fn adoption_slot(&self, d: &Domain) -> Option<(usize, f64)> {
        if d.keys.is_some() {
            return None;
        }
        match d.hosting {
            Hosting::Registrar { .. } => {
                let registrar = &self.registrars[d.registrar.0 as usize];
                let hazard = registrar.daily_optin_hazard;
                (hazard > 0.0 && registrar.policy.operator_dnssec.supported())
                    .then_some((HOSTED, hazard))
            }
            Hosting::ThirdParty { operator } => self
                .third_parties
                .iter()
                .position(|tp| {
                    tp.operator == operator
                        && tp.dnssec_launch.is_some()
                        && tp.daily_optin_hazard > 0.0
                })
                .map(|i| (1 + i, self.third_parties[i].daily_optin_hazard)),
            Hosting::Owner => None,
        }
    }

    /// All opt-in worklists by one clone-free sweep in canonical order.
    fn sweep_worklists(&self) -> Vec<Vec<Candidate>> {
        let mut lists = vec![Vec::new(); 1 + self.third_parties.len()];
        for (id, d) in self.entries() {
            if let Some((slot, hazard)) = self.adoption_slot(d) {
                lists[slot].push((id, hazard));
            }
        }
        // A list only shrinks from here (signing takes its entries off):
        // the capacity its pushes doubled up to would never be used.
        for list in &mut lists {
            list.shrink_to_fit();
        }
        lists
    }

    fn ensure_worklists(&mut self) {
        if !self.tick.worklists_fresh {
            // The stale lists go before the sweep, not after it: kept
            // alongside, they would double what the lists hold.
            self.tick.worklists = Vec::new();
            self.tick.worklists = self.sweep_worklists();
            self.tick.worklists_fresh = true;
        }
    }

    /// Installs `keys` on the domain `id` — the only writer of
    /// `Domain::keys` besides [`World::rehost`]. A first signing takes
    /// the domain off its opt-in worklist in place.
    pub(super) fn set_keys(&mut self, id: DomainId, keys: ZoneKeys) {
        if self.tick.worklists_fresh {
            if let Some((slot, _)) = self.adoption_slot(self.domains.at(id)) {
                let ranks = DomainRanks::new(&self.registries);
                let list = &mut self.tick.worklists[slot];
                // Absent only while a pass has the list checked out; the
                // pass drops signed domains itself before returning it.
                if let Ok(pos) = list.binary_search_by_key(&ranks.of(id), |&(r, _)| ranks.of(r)) {
                    list.remove(pos);
                }
            }
        }
        self.domains.at_mut(id).keys = Some(Box::new(keys));
    }

    /// Moves the domain `id` to `hosting`; the previous arrangement's
    /// keys go with it.
    pub(super) fn rehost(&mut self, id: DomainId, hosting: Hosting) {
        let d = self.domains.at_mut(id);
        d.hosting = hosting;
        d.keys = None;
        self.tick.invalidate_worklists();
    }

    /// Recomputes the opt-in worklists (ids and hazards) and the pending
    /// migrations by full sweep, re-audits every memoized verdict that would
    /// be reused today, and compares all of it with the cached state
    /// (test support).
    #[doc(hidden)]
    pub fn check_tick_indices(&self) -> Result<(), String> {
        if self.tick.worklists_fresh {
            let (cached, swept) = (&self.tick.worklists, self.sweep_worklists());
            if cached.len() != swept.len() {
                return Err(format!(
                    "{} opt-in worklists cached, {} swept",
                    cached.len(),
                    swept.len()
                ));
            }
            // Entries compare id and hazard alike: a hazard change that
            // keeps every candidate still stales the list.
            if let Some(slot) = (0..swept.len()).find(|&slot| cached[slot] != swept[slot]) {
                let (cached, swept) = (&cached[slot], &swept[slot]);
                let at = (0..)
                    .find(|&i| cached.get(i) != swept.get(i))
                    .expect("lists differ");
                return Err(format!(
                    "opt-in worklist {slot} diverged at entry {at}: cached {:?}, swept {:?}",
                    cached.get(at),
                    swept.get(at)
                ));
            }
        }
        let flagged: BTreeSet<DomainId> = self
            .domains
            .iter()
            .filter(|(_, d)| d.pending_partner_migration)
            .map(|(id, _)| id)
            .collect();
        if flagged != self.tick.pending_migrations {
            return Err(format!(
                "pending migrations diverged: cached {:?}, swept {flagged:?}",
                self.tick.pending_migrations
            ));
        }
        if self.network.faults().is_enabled() {
            return Ok(());
        }
        let now = self.today.epoch_seconds();
        for (tld, verdicts) in &self.tick.audit_memo {
            verdicts
                .check_windows()
                .map_err(|e| format!("{tld:?} audit memo: {e}"))?;
            let registry = &self.registries[tld];
            for (row, generation) in registry.delegations_columnar() {
                let Some((byte, ())) = verdicts.holding(row, generation, now) else {
                    continue;
                };
                let passed = audit_passed(byte);
                if passed != self.audit(DomainId::new(*tld, row), now).0 {
                    let (domain, _) = registry.delegation_at(row);
                    return Err(format!(
                        "audit memo for {domain} is stale at generation {generation}: {passed:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- passes --

    /// Applies every milestone dated today or earlier, in the order it
    /// was added, and drops it from its registrar.
    fn apply_milestones(&mut self) {
        let today = self.today;
        for idx in 0..self.registrars.len() {
            let due: Vec<Milestone> = self.registrars[idx]
                .milestones
                .extract_if(.., |m| m.on <= today)
                .collect();
            for m in due {
                self.change_policy(RegistrarId(idx as u32), m.change);
            }
        }
    }

    /// Applies a policy change to registrar `id` now — what a milestone
    /// ([`World::add_milestone`]) does on its day.
    pub fn change_policy(&mut self, id: RegistrarId, change: PolicyChange) {
        // Policy and hazard decide opt-in eligibility.
        self.tick.invalidate_worklists();
        match change {
            PolicyChange::SetOperatorDnssec(p) => {
                self.registrars[id.0 as usize].policy.operator_dnssec = p;
            }
            PolicyChange::SetExternalDs(p) => {
                self.registrars[id.0 as usize].policy.external_ds = p;
            }
            PolicyChange::SetPublishesDs(tld, v) => {
                if let Some(tp) = self.registrars[id.0 as usize].policy.tlds.get_mut(&tld) {
                    tp.publishes_ds = v;
                }
            }
            PolicyChange::SetOptInHazard(h) => {
                self.registrars[id.0 as usize].daily_optin_hazard = h;
            }
            PolicyChange::SwitchPartner {
                tld,
                new_partner,
                migrate_at_renewal,
            } => {
                if let Some(partner) = self.registrar_by_name(&new_partner) {
                    if let Some(tp) = self.registrars[id.0 as usize].policy.tlds.get_mut(&tld) {
                        tp.role = TldRole::ResellerVia(new_partner);
                        tp.publishes_ds = true;
                    }
                    if migrate_at_renewal {
                        for (domain, d) in self.domains.tld_mut(tld) {
                            if d.registrar == id && d.sponsor != partner {
                                d.pending_partner_migration = true;
                                self.tick.pending_migrations.insert(domain);
                            }
                        }
                    }
                }
            }
            PolicyChange::MassSignHosted { tlds, over_days } => {
                let targets: Vec<DomainId> = self
                    .entries()
                    .filter(|(_, d)| {
                        d.registrar == id
                            && tlds.contains(&d.tld)
                            && matches!(d.hosting, Hosting::Registrar { .. })
                            && d.keys.is_none()
                    })
                    .map(|(id, _)| id)
                    .collect();
                let per_day = targets.len().div_ceil(over_days.max(1) as usize).max(1);
                self.tick.mass_sign_queue.push(MassSignTask {
                    registrar: id,
                    targets,
                    next: 0,
                    per_day,
                });
            }
        }
    }

    fn drain_mass_sign(&mut self) {
        let mut queue = std::mem::take(&mut self.tick.mass_sign_queue);
        for task in &mut queue {
            let end = (task.next + task.per_day).min(task.targets.len());
            for &id in &task.targets[task.next..end] {
                // Domain may have changed hosting since the milestone.
                let d = self.domains.at(id);
                if d.registrar == task.registrar && d.keys.is_none() {
                    let name = d.name.clone();
                    let _ = self.sign_hosted_at(id, &name);
                }
            }
            task.next = end;
        }
        queue.retain(|t| t.next < t.targets.len());
        self.tick.mass_sign_queue = queue;
    }

    /// Checks the worklist at `slot` out for a pass. The day's candidates
    /// are fixed before its draws, so the pass iterates the checked-out
    /// list and hands it back through [`World::return_worklist`].
    fn take_worklist(&mut self, slot: usize) -> Vec<Candidate> {
        self.ensure_worklists();
        std::mem::take(&mut self.tick.worklists[slot])
    }

    /// Hands a checked-out worklist back, minus the entries at the
    /// ascending positions `signed`: the domains the pass signed.
    fn return_worklist(&mut self, slot: usize, mut list: Vec<Candidate>, signed: &[usize]) {
        for &pos in signed.iter().rev() {
            list.remove(pos);
        }
        self.tick.worklists[slot] = list;
    }

    fn population_adoption(&mut self) {
        // Exactly one draw per candidate, in canonical order.
        let candidates = self.take_worklist(HOSTED);
        let mut signed = Vec::new();
        for (pos, &(id, hazard)) in candidates.iter().enumerate() {
            if self.rng.random::<f64>() < hazard {
                let name = self.domains.at(id).name.clone();
                let _ = self.sign_hosted_at(id, &name);
                // The keys go in before the DS commit, which may fail.
                if self.domains.at(id).keys.is_some() {
                    signed.push(pos);
                }
            }
        }
        self.return_worklist(HOSTED, candidates, &signed);
    }

    fn third_party_adoption(&mut self) {
        for idx in 0..self.third_parties.len() {
            let tp = &self.third_parties[idx];
            let relay = tp.relay_success;
            match tp.dnssec_launch {
                Some(launch) if self.today >= launch && tp.daily_optin_hazard > 0.0 => {}
                _ => continue,
            }
            let candidates = self.take_worklist(1 + idx);
            let mut signed = Vec::new();
            for (pos, &(id, hazard)) in candidates.iter().enumerate() {
                if self.rng.random::<f64>() >= hazard {
                    continue;
                }
                let domain = self.domains.at(id).name.clone();
                let Ok(ds) = self.third_party_enable_dnssec_at(id, &domain) else {
                    continue;
                };
                signed.push(pos);
                // The owner must relay the DS to the registrar; 40% never do.
                if self.rng.random::<f64>() < relay {
                    let published = Event::DsPublished {
                        domain: domain.clone(),
                    };
                    let _ = self.commit(&domain, Delegation::Ds(&[ds]), [published]);
                } else {
                    self.events
                        .record(self.today, Event::RelayDropped { domain });
                }
            }
            self.return_worklist(1 + idx, candidates, &signed);
        }
    }

    /// Lands the pending partner switches of the domains renewing today,
    /// in canonical order: the registry transfer, then signing where the
    /// new partner lets the reseller publish a DS.
    fn process_renewals(&mut self) {
        let today = self.today;
        let mut due: Vec<DomainId> = self
            .tick
            .pending_migrations
            .iter()
            .copied()
            .filter(|&id| self.domains.at(id).renews_on(today))
            .collect();
        if due.is_empty() {
            return;
        }
        let ranks = DomainRanks::new(&self.registries);
        due.sort_unstable_by_key(|&id| ranks.of(id));
        drop(ranks);
        for id in due {
            let d = self.domains.at(id);
            let (registrar, tld, old_sponsor) = (d.registrar, d.tld, d.sponsor);
            // Resolve the (new) sponsor and transfer at the registry.
            let Ok(new_sponsor) = self.resolve_sponsor(registrar, tld) else {
                continue;
            };
            if new_sponsor != old_sponsor {
                let name = self.domains.at(id).name.clone();
                let transferred = self
                    .registries
                    .get_mut(&tld)
                    .expect("all TLDs present")
                    .transfer(old_sponsor, new_sponsor, &name)
                    .is_ok();
                if !transferred {
                    continue;
                }
                let d = self.domains.at_mut(id);
                d.sponsor = new_sponsor;
                d.pending_partner_migration = false;
                self.tick.pending_migrations.remove(&id);
                self.events.record(
                    today,
                    Event::PartnerMigrated {
                        domain: name.clone(),
                        new_sponsor,
                    },
                );
                // With a DNSSEC-capable partner, the reseller can now sign
                // hosted domains and publish DS (including for domains it
                // had already signed but could not complete).
                if matches!(self.domains.at(id).hosting, Hosting::Registrar { .. }) {
                    let policy = &self.registrars[registrar.0 as usize].policy;
                    if policy.operator_dnssec.supported() && policy.tld(tld).publishes_ds {
                        let _ = self.sign_hosted_at(id, &name);
                    }
                }
            }
        }
    }

    /// Audits one delegation the way the incentive programmes do: `None`
    /// without a DS (nothing to audit), otherwise whether the chain
    /// validates right now — plus the window that verdict holds for.
    fn audit(&self, id: DomainId, now: u32) -> (Option<bool>, (i64, i64)) {
        let registry = &self.registries[&id.tld()];
        if !registry.has_ds_at(id.row()) {
            return (None, Freshness::UNBOUNDED);
        }
        let (domain, _) = registry.delegation_at(id.row());
        let obs = self.observe_at(id, &domain, 1).0;
        let passed = classify(&domain, &obs, now) == DeploymentStatus::FullyDeployed;
        (Some(passed), obs.validity_window(now))
    }

    fn run_audits(&mut self) {
        let now = self.today.epoch_seconds();
        // With the fault plane live every audit really queries, so fault
        // draws and attempt counters are what they would be without a
        // memo.
        let use_memo = !self.network.faults().is_enabled();
        let mut memo = std::mem::take(&mut self.tick.audit_memo);
        for tld in ALL_TLDS {
            if tld.incentive().is_none() {
                continue;
            }
            let verdicts = memo.entry(tld).or_default();
            let registry = &self.registries[&tld];
            if use_memo {
                verdicts.fit(registry.delegation_count());
            }
            let mut audited: Vec<(u32, bool)> = Vec::new();
            for (row, generation) in registry.delegations_columnar() {
                let passed = match verdicts.holding(row, generation, now) {
                    Some((byte, ())) if use_memo => audit_passed(byte),
                    _ => {
                        let (passed, window) = self.audit(DomainId::new(tld, row), now);
                        if use_memo {
                            let fresh = Freshness { generation, window };
                            verdicts.store(row, fresh, audit_byte(passed), ());
                        }
                        passed
                    }
                };
                if let Some(passed) = passed {
                    audited.push((row, passed));
                }
            }
            let registry = self.registries.get_mut(&tld).expect("all TLDs present");
            for (row, passed) in audited {
                registry.record_audit_row(row, passed);
            }
        }
        self.tick.audit_memo = memo;
    }

    fn run_cds_scans(&mut self) {
        // Only registries with CDS support scan (an extension experiment;
        // none of the five paper TLDs had it in-window).
        let now = self.today.epoch_seconds();
        let mut scans: Vec<(Name, Vec<DsRdata>)> = Vec::new();
        for registry in self.registries.values() {
            if !registry.supports_cds {
                continue;
            }
            for domain in registry.delegations() {
                if let Some(action) = self.scan_child_cds(&domain, registry, now) {
                    scans.push((domain, action));
                }
            }
        }
        for (domain, ds_set) in scans {
            let applied = Event::CdsApplied {
                domain: domain.clone(),
            };
            let _ = self.commit(&domain, Delegation::Ds(&ds_set), [applied]);
        }
        self.run_cds_bootstrap(now);
    }

    /// RFC 8078 §3 "accept after delay": a DS-less child that has stably
    /// published a self-consistent CDS for the configured delay gets its
    /// DS installed without any registrar involvement — healing exactly
    /// the partial deployments the paper laments.
    fn run_cds_bootstrap(&mut self, now: u32) {
        let mut first_seen = std::mem::take(&mut self.cds_first_seen);
        let mut to_install: Vec<(Name, Vec<DsRdata>)> = Vec::new();
        for registry in self.registries.values() {
            let Some(delay) = registry.cds_bootstrap_delay_days else {
                continue;
            };
            // Zone row names are canonical already.
            for domain in registry.delegations() {
                if registry.has_ds(&domain) {
                    continue;
                }
                match self.consistent_cds_of(&domain, now) {
                    Some(ds_set) => {
                        let first = *first_seen.entry(domain.clone()).or_insert(self.today);
                        if self.today.days_since(first) >= delay {
                            to_install.push((domain, ds_set));
                        }
                    }
                    None => {
                        first_seen.remove(&domain);
                    }
                }
            }
        }
        self.cds_first_seen = first_seen;
        for (domain, ds_set) in to_install {
            let applied = Event::CdsApplied {
                domain: domain.clone(),
            };
            if self
                .commit(&domain, Delegation::Ds(&ds_set), [applied])
                .is_ok()
            {
                self.cds_first_seen.remove(&domain);
            }
        }
    }

    /// What `domain` serves for CDS, with the RRSIGs beside it, ready to
    /// judge once the caller names the keys it trusts; `None` when no CDS
    /// is published.
    fn served_cds(&self, domain: &Name) -> Option<CdsScan> {
        let resp = self.exchange(domain, RrType::Cds, 1).into_response()?;
        let cds_records: Vec<Record> = resp
            .answers
            .iter()
            .filter(|r| r.rtype() == RrType::Cds)
            .cloned()
            .collect();
        let rrsigs = resp
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        Some(CdsScan {
            cds: Some(RrSet::new(cds_records).ok()?),
            cdnskey: None,
            rrsigs,
            trusted_keys: Vec::new(),
        })
    }

    /// The CDS set of `domain` if it is published and correctly signed by
    /// the zone's own served DNSKEYs (the RFC 8078 self-consistency bar).
    fn consistent_cds_of(&self, domain: &Name, now: u32) -> Option<Vec<DsRdata>> {
        let mut scan = self.served_cds(domain)?;
        scan.trusted_keys = self.served_dnskeys(domain);
        match dsec_dnssec::process_scan(domain, &scan, now) {
            Ok(CdsAction::ReplaceDs(ds)) => Some(ds),
            _ => None,
        }
    }

    /// Scans one child for an authenticated CDS change; returns the new DS
    /// set if one should be applied. A CDS naming the DS set the parent
    /// already holds is no change: nothing is re-signed, bumped or logged.
    fn scan_child_cds(&self, domain: &Name, registry: &Registry, now: u32) -> Option<Vec<DsRdata>> {
        if !registry.has_ds(domain) {
            return None; // RFC 7344 trust bootstrap from current chain only
        }
        let mut scan = self.served_cds(domain)?;
        // Trusted keys: DNSKEYs chained from the current DS.
        let obs = self.observation_of(domain);
        let dnskey_rrset = obs.dnskey_rrset?;
        scan.trusted_keys = dsec_dnssec::authenticate_dnskeys(
            domain,
            &dnskey_rrset,
            &obs.dnskey_rrsigs,
            &obs.ds_set,
            now,
        )
        .ok()?;
        match dsec_dnssec::process_scan(domain, &scan, now) {
            Ok(CdsAction::ReplaceDs(ds)) => {
                let within = |a: &[DsRdata], b: &[DsRdata]| a.iter().all(|d| b.contains(d));
                let same = within(&ds, &obs.ds_set) && within(&obs.ds_set, &ds);
                (!same).then_some(ds)
            }
            Ok(CdsAction::DeleteDs) => Some(Vec::new()),
            _ => None,
        }
    }

    /// Advances every scheduled rollover whose dates the clock has
    /// crossed. Called from [`World::tick`].
    fn drive_rollovers(&mut self) {
        if self.rollovers.is_empty() {
            return;
        }
        let due: Vec<Name> = self.rollovers.keys().cloned().collect();
        for domain in due {
            self.drive_one_rollover(&domain);
        }
    }

    fn drive_one_rollover(&mut self, domain: &Name) {
        let today = self.today;
        let Some(state) = self.rollovers.get(domain) else {
            return;
        };
        let plan = state.plan.clone();
        let stalled = state.stalled;
        let old = state.old_keys.clone();
        let new = state.new_keys.clone();
        let id = self.id_of(domain).expect("rolling domain exists");
        let d = self.domains.at(id);
        let (registrar, tld, hosting) = (d.registrar, d.tld, d.hosting.clone());
        let new_ds = new.ds(DigestType::Sha256);

        // Operator leg 1: start serving the transitional set.
        if !stalled && state.phase == RolloverPhase::Scheduled && today >= plan.start {
            let set = Self::transitional_set(&plan, &old, &new);
            let signer = self.rollover_signer(&plan);
            self.serve(domain, registrar, &hosting, Some((&set, &signer)));
            let st = self.rollovers.get_mut(domain).expect("still present");
            st.phase = if st.ds_swapped {
                RolloverPhase::DsSwapped
            } else {
                RolloverPhase::Prepared
            };
            st.signed_until = plan.signature_validity_days.map(|_| signer.expiration);
            self.events.record(
                today,
                Event::RolloverPrepared {
                    domain: domain.clone(),
                    style: plan.style,
                },
            );
        }

        // Operator leg 1b (pre-publish ZSK only): on the scheduled swap
        // day the *signer* switches to the incoming ZSK while the old one
        // stays published for its retirement interval. No DS involved.
        if !stalled
            && plan.style == RolloverStyle::PrePublishZsk
            && self.rollovers.get(domain).map(|s| s.phase) == Some(RolloverPhase::Prepared)
            && today >= plan.scheduled_swap()
        {
            let set = SigningSet::prepublish(&new, &old).expect("same zone");
            let signer = self.rollover_signer(&plan);
            self.serve(domain, registrar, &hosting, Some((&set, &signer)));
            let st = self.rollovers.get_mut(domain).expect("still present");
            st.phase = RolloverPhase::DsSwapped;
            st.signed_until = plan.signature_validity_days.map(|_| signer.expiration);
        }

        // DS leg. Through the registrar the DS moves on *its* schedule —
        // early, late, never — independent of the operator (even one that
        // is stalled mid-outage). Through CDS the live operator publishes
        // the child's CDS, signed by the old keys the parent's DS still
        // chains, and the registry's scan later in this tick moves the DS.
        let ds_due = plan.style.changes_ds()
            && plan.actual_swap().is_some_and(|day| today >= day)
            && self.rollovers.get(domain).is_some_and(|s| !s.ds_swapped);
        let fired = ds_due
            && match plan.ds_timing {
                DsTiming::Cds if stalled => false,
                DsTiming::Cds => {
                    self.publish_cds_record(domain, &old, new_ds.clone());
                    true
                }
                _ => {
                    let swapped = Event::RolloverDsSwapped {
                        domain: domain.clone(),
                        on_schedule: plan.ds_timing == DsTiming::OnSchedule,
                    };
                    let write = self.commit(
                        domain,
                        Delegation::Ds(std::slice::from_ref(&new_ds)),
                        [swapped],
                    );
                    if let Err(e) = &write {
                        let reason = match e {
                            ActionError::Registry(reason) => reason.clone(),
                            e => format!("{e:?}"),
                        };
                        let domain = domain.clone();
                        self.events
                            .record(today, Event::DsRejected { domain, reason });
                    }
                    write.is_ok()
                }
            };
        if fired {
            let st = self.rollovers.get_mut(domain).expect("still present");
            st.ds_swapped = true;
            if st.phase == RolloverPhase::Prepared {
                st.phase = RolloverPhase::DsSwapped;
            }
            if st.phase == RolloverPhase::Completed {
                // The operator finished long ago; this late DS landing was
                // the last outstanding leg.
                self.rollovers.remove(domain);
            }
        }

        // Operator leg 2: withdraw old material, finish. Runs on schedule
        // whether or not the registrar ever moved the DS — that is exactly
        // how the "DS too late / never" bogus windows open. A CDS roll
        // first checks that the parent holds the new DS.
        let phase = self.rollovers.get(domain).map(|s| s.phase);
        if !stalled
            && matches!(
                phase,
                Some(RolloverPhase::Prepared) | Some(RolloverPhase::DsSwapped)
            )
            && today >= plan.completion()
            && (plan.ds_timing != DsTiming::Cds
                || !plan.style.changes_ds()
                || self.registries[&tld].ds_of(domain).contains(&new_ds))
        {
            self.rekey(id, domain, new);
            let st = self.rollovers.get_mut(domain).expect("still present");
            let ds_pending =
                plan.style.changes_ds() && !st.ds_swapped && plan.actual_swap().is_some();
            if ds_pending {
                // The operator is done but the registrar still owes a
                // (late) DS swap: keep the state so the registrar leg
                // drives it — that landing is what closes the bogus
                // window.
                st.phase = RolloverPhase::Completed;
                st.signed_until = None;
            } else {
                self.rollovers.remove(domain);
            }
            self.events.record(
                today,
                Event::RolloverCompleted {
                    domain: domain.clone(),
                    style: plan.style,
                },
            );
            return;
        }

        // Signature upkeep under bounded validity: a live operator
        // refreshes a day before expiry; a stalled one lets the RRSIGs
        // lapse — and the lapse is logged once, when it happens.
        let Some(state) = self.rollovers.get(domain) else {
            return;
        };
        if let Some(until) = state.signed_until {
            let now = today.epoch_seconds();
            if !state.stalled
                && matches!(
                    state.phase,
                    RolloverPhase::Prepared | RolloverPhase::DsSwapped
                )
                && now.saturating_add(86_400) >= until
            {
                let set = if state.phase == RolloverPhase::DsSwapped
                    && plan.style == RolloverStyle::PrePublishZsk
                {
                    SigningSet::prepublish(&new, &old).expect("same zone")
                } else {
                    Self::transitional_set(&plan, &old, &new)
                };
                // The fresh zone keeps the child's CDS until completion.
                let cds_published = plan.ds_timing == DsTiming::Cds && state.ds_swapped;
                let signer = self.rollover_signer(&plan);
                self.serve(domain, registrar, &hosting, Some((&set, &signer)));
                if cds_published {
                    self.publish_cds_record(domain, &old, new_ds);
                }
                let st = self.rollovers.get_mut(domain).expect("still present");
                st.signed_until = Some(signer.expiration);
                st.expiry_noted = false;
            } else if now >= until && !state.expiry_noted {
                self.rollovers
                    .get_mut(domain)
                    .expect("still present")
                    .expiry_noted = true;
                self.events.record(
                    today,
                    Event::SignatureExpired {
                        domain: domain.clone(),
                    },
                );
            }
        }
    }

    /// Crosses any anchor-roll phase boundaries today's date has
    /// reached, re-signing and republishing the root zone at each.
    fn drive_anchor_roll(&mut self) {
        let today = self.today;
        let Some(mut roll) = self.anchor_roll.take() else {
            return;
        };
        if !roll.published && today >= roll.plan.publish {
            roll.published = true;
            let set = SigningSet::double(&self.root_keys, &roll.new_keys)
                .expect("both key sets belong to the root");
            self.resign_root(&set);
            self.events.record(
                today,
                Event::TrustAnchorPublished {
                    trusted_on: roll.plan.promotion(),
                },
            );
        }
        if roll.published && !roll.promoted && today >= roll.plan.promotion() {
            roll.promoted = true;
            self.events.record(today, Event::TrustAnchorPromoted);
        }
        if roll.published && !roll.revoked && today >= roll.plan.revoke {
            roll.revoked = true;
            let set = SigningSet::single(&roll.new_keys);
            self.resign_root(&set);
            self.events.record(
                today,
                Event::TrustAnchorRevoked {
                    followers_ready: roll.promoted,
                },
            );
        }
        self.anchor_roll = Some(roll);
    }
}
