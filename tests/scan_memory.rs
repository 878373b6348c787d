//! Memory pins for the built world and the scan cache (DESIGN.md §9,
//! *Layout*; §16). The world indexes each domain once, through its
//! registry's row, and the cache is a 9-byte slot per registry row (a
//! class byte, a `u32` generation and a `u32` operator id) with a window
//! kept aside only for the few signed rows, so what the built world
//! holds, what the cache retains after a cold scan and after a short
//! warm campaign, and what the scan needs on top of the built world while
//! it runs, are bounded per domain. A per-domain side structure — a second
//! index or order over the same names, a work list collected before
//! scanning, a live-key set for pruning — shows here as bytes per domain
//! long before a benchmark's peak RSS moves. The last test pins one part
//! of the built world on its own: a registry zone's delegation row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsec::ecosystem::{World, ALL_TLDS};
use dsec::scanner::{ScanCache, ScanOptions, Snapshot};
use dsec::wire::{Name, Zone};
use dsec::workloads::{build, PopulationConfig};

thread_local! {
    /// Bytes this thread holds on the heap. The test harness runs every
    /// test on its own thread, so tests do not see each other's bytes.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`mark`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let live = LIVE.with(|live| {
        live.set(live.get() + by);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

struct LiveBytes;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract carries over. The counters are
// const-initialised thread-local `Cell`s without destructors: touching
// them neither allocates nor runs code at thread exit.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// This thread's live heap bytes, and restarts the peak from them.
fn mark() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn peak() -> isize {
    PEAK.with(Cell::get)
}

/// What a cold cached scan costs in heap: its peak above the built
/// world, and what the cache keeps once the snapshot is gone.
struct ColdScan {
    domains: isize,
    peak: isize,
    retained: isize,
}

fn cold_scan(population: &PopulationConfig) -> ColdScan {
    let pw = build(population);
    let world = &pw.world;
    let domains = world.domain_count() as isize;
    let built = mark();
    let mut cache = ScanCache::new();
    let snapshot = Snapshot::take_cached(world, &ALL_TLDS, &ScanOptions::default(), &mut cache);
    let peak = peak() - built;
    assert_eq!(cache.len() as isize, domains, "every domain cached");
    drop(snapshot);
    let with_cache = live();
    drop(cache);
    ColdScan {
        domains,
        peak,
        retained: with_cache - live(),
    }
}

/// Per-domain budgets: one 9-byte slot and its 1/64 headroom retained,
/// and a cold scan that collects nothing per domain before it scans. On
/// the population below, with a 32-byte slot, the cache retained 41.1
/// B/domain after a cold scan and 42.2 B per DS-less row after the warm
/// campaign, and the cold scan peaked 62.9 B/domain above the built
/// world. With 9-byte slots these read 19.1, 19.6 and 39.5; the
/// allowance below takes about 10 B of each retained figure.
const RETAINED_PER_DOMAIN: isize = 12;
const PEAK_PER_DOMAIN: isize = 150;
/// What the cache keeps whatever the population: rendered operator keys,
/// the per-(operator, TLD) sums, and the windows and lapse heap of the
/// few signed rows.
const RETAINED_ALLOWANCE: isize = 96 * 1024;

fn population() -> PopulationConfig {
    PopulationConfig {
        scale: 20_000,
        tail_operators: 100,
        ..PopulationConfig::default()
    }
}

/// The built world's heap per domain. Every domain holds its 56-byte
/// `Domain` payload and its registry row — one row of the TLD zone and
/// of the registry's columns, under one name-to-row map — but no second
/// `Name`-keyed index, no per-delegation zone node, no inline keys, no
/// stored default email and no renewal-day index: 639.4 B/domain when the
/// world kept its own index, 611.4 B/domain with 136-byte rows, a per-row
/// email and a `Name`-keyed row map, 430.4 B/domain with a 4-byte-a-slot
/// row index, 334.3 B/domain once the TLD zone's delegations were its
/// rows, 310.9 B/domain once the tick stopped filing every domain under
/// its expiry day and the row lost its creation date.
const WORLD_PER_DOMAIN: isize = 335;

#[test]
fn the_built_world_indexes_each_domain_once() {
    let before = live();
    let pw = build(&population());
    let domains = pw.world.domain_count() as isize;
    let held = live() - before;
    eprintln!(
        "{domains} domains: built world holds {:.1} B/domain",
        held as f64 / domains as f64
    );
    assert!(
        held <= WORLD_PER_DOMAIN * domains,
        "the built world holds {held} B for {domains} domains ({:.1} B/domain)",
        held as f64 / domains as f64
    );
}

#[test]
fn a_cold_scan_costs_a_slot_per_domain() {
    let scan = cold_scan(&population());
    let per_domain = |bytes: isize| bytes as f64 / scan.domains as f64;
    eprintln!(
        "{} domains: cold-scan peak {:.1} B/domain, cache retained {:.1} B/domain",
        scan.domains,
        per_domain(scan.peak),
        per_domain(scan.retained)
    );
    assert!(
        scan.retained <= RETAINED_PER_DOMAIN * scan.domains + RETAINED_ALLOWANCE,
        "the cache retains {} B for {} domains ({:.1} B/domain)",
        scan.retained,
        scan.domains,
        per_domain(scan.retained)
    );
    assert!(
        scan.peak <= PEAK_PER_DOMAIN * scan.domains,
        "the cold scan peaked {} B above the built world for {} domains ({:.1} B/domain)",
        scan.peak,
        scan.domains,
        per_domain(scan.peak)
    );
}

/// The delegations of `world` that hold no DS.
fn ds_less_rows(world: &World) -> isize {
    ALL_TLDS
        .iter()
        .map(|&tld| {
            let registry = world.registry(tld);
            (0..registry.delegation_count() as u32)
                .filter(|&row| !registry.has_ds_at(row))
                .count() as isize
        })
        .sum()
}

/// A cache carried through a short weekly campaign — a cold scan, then
/// warm scans that read the registries' journals — keeps what a cold scan
/// keeps: a slot per row, and the signed rows' windows and lapse items
/// inside the allowance.
#[test]
fn a_warm_cache_keeps_at_most_12_bytes_a_ds_less_row() {
    let mut pw = build(&population());
    let world = &mut pw.world;
    let mut cache = ScanCache::new();
    let options = ScanOptions::default();
    for week in 0..5 {
        if week > 0 {
            world.advance_to(world.today.plus_days(7));
        }
        drop(Snapshot::take_cached(
            world, &ALL_TLDS, &options, &mut cache,
        ));
    }
    let stats = cache.stats();
    assert!(
        stats.hits > stats.misses,
        "the campaign ran warm: {stats:?}"
    );
    let rows = ds_less_rows(world);
    let with_cache = live();
    drop(cache);
    let retained = with_cache - live();
    eprintln!(
        "{rows} DS-less rows: warm cache retained {:.1} B/row",
        retained as f64 / rows as f64
    );
    assert!(
        retained <= RETAINED_PER_DOMAIN * rows + RETAINED_ALLOWANCE,
        "the warm cache retains {retained} B for {rows} DS-less rows ({:.1} B/row)",
        retained as f64 / rows as f64
    );
}

/// A DS-less delegation costs a registry zone its name's slot in the
/// names column, its cut id and its row-index slots: at most 40 bytes
/// over the name's own buffer, with every column's unused capacity
/// counted.
#[test]
fn a_ds_less_delegation_row_costs_at_most_40_bytes() {
    const ROWS: usize = 10_000;
    let names: Vec<Name> = (0..ROWS)
        .map(|i| Name::parse(&format!("domain-{i}.com")).unwrap())
        .collect();
    let fleet = ["ns1.op.net", "ns2.op.net"].map(|host| Name::parse(host).unwrap());
    let before = live();
    let mut zone = Zone::registry(Name::parse("com").unwrap());
    for child in &names {
        zone.add_delegation(child, 172_800, &fleet).unwrap();
    }
    let per_row = (live() - before) as f64 / ROWS as f64;
    eprintln!("{ROWS} DS-less delegation rows: {per_row:.1} B/row");
    assert!(per_row <= 40.0, "{per_row:.1} B a row");
    assert_eq!(zone.cut_stats(), (ROWS, 1));
}
