//! The point of the flat `Name` (DESIGN.md §7.2): the operations every
//! layer performs per query — clone, walk to an ancestor, canonicalise,
//! compare, hash, write uncompressed — never call the allocator. A
//! per-clone allocation regression shows up here first, as a count, long
//! before it is visible in a benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;

use dsec_wire::{name_hash64, FnvHasher, Name, WireWriter};

thread_local! {
    /// Allocator calls made by this thread. The test harness runs every
    /// test on its own thread, so tests do not see each other's calls.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract carries over. The counter is a
// const-initialised thread-local `Cell` without a destructor: touching it
// neither allocates nor runs code at thread exit.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    black_box(f());
    ALLOCS.with(Cell::get) - before
}

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

#[test]
fn the_counter_counts() {
    assert_eq!(allocs(|| Vec::<u8>::with_capacity(32)), 1);
    // Building a name is one buffer; a mixed-case name's canonical form
    // is a second one.
    assert_eq!(allocs(|| name("www.example.com")), 1);
    let mixed = name("WWW.Example.com");
    assert_eq!(allocs(|| mixed.to_canonical()), 1);
}

#[test]
fn clones_and_ancestors_share_the_buffer() {
    let n = name("ns1.dns.example.com");
    assert_eq!(allocs(|| n.clone()), 0);
    assert_eq!(allocs(|| n.parent()), 0);
    assert_eq!(allocs(|| n.second_level()), 0);
    assert_eq!(allocs(|| n.trim_to(1)), 0);
    assert_eq!(allocs(|| n.to_canonical()), 0);
    // The root's (empty) buffer is allocated once per process.
    Name::root();
    assert_eq!(allocs(Name::root), 0);
    // All the way up to the root and back out of scope.
    let walk = || {
        let mut cut = n.clone();
        while let Some(parent) = cut.parent() {
            cut = parent;
        }
        cut
    };
    assert_eq!(allocs(walk), 0);
}

#[test]
fn comparing_and_hashing_stay_on_the_stack() {
    let a = name("WWW.Example.com");
    let b = name("www.example.COM");
    let zone = name("example.com");
    assert_eq!(allocs(|| a == b), 0);
    assert_eq!(allocs(|| a.cmp(&zone)), 0);
    assert_eq!(allocs(|| a.canonical_cmp(&b)), 0);
    assert_eq!(allocs(|| a.is_subdomain_of(&zone)), 0);
    assert_eq!(allocs(|| a.is_strict_subdomain_of(&zone)), 0);
    assert_eq!(allocs(|| a.label_count()), 0);
    assert_eq!(allocs(|| name_hash64(&a)), 0);
    let hashes = || {
        // Mixed case takes the folding path; lowercase the direct one.
        for n in [&a, &zone] {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            black_box(h.finish());
            let mut h = FnvHasher::default();
            n.hash(&mut h);
            black_box(h.finish());
        }
    };
    assert_eq!(allocs(hashes), 0);
}

#[test]
fn sorting_names_allocates_nothing_per_comparison() {
    let mut names: Vec<Name> = (0..64)
        .map(|i| name(&format!("d{}.Example{}.com", 63 - i, i % 3)))
        .collect();
    // `sort_unstable` is in place, so every call would be the comparator's.
    assert_eq!(allocs(|| names.sort_unstable()), 0);
    assert!(names.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn uncompressed_put_name_is_a_copy_into_reserved_capacity() {
    // `WireWriter` reserves 512 octets up front.
    let mut w = WireWriter::uncompressed();
    let (owner, signer) = (name("www.example.com"), name("example.com"));
    let write = || {
        w.put_name(&owner);
        w.put_name(&signer);
        w.put_name(&owner);
    };
    assert_eq!(allocs(write), 0);
    assert_eq!(w.len(), 17 + 13 + 17);
}
