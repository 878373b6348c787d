//! Per-layer unit costs, measured after a traced workload on a freshly
//! built world of the same seed: each is the median wall time of direct
//! calls into one layer's public functions, on inputs drawn with the
//! seed from that world. Fresh, because a "cold" scan is cold only once
//! per world — the world-lifetime scan memo answers every later one.
//!
//! From those unit costs and the counts the workload recorded,
//! [`estimate_shares`] derives each layer's *estimated* share of the
//! workload's wall time.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsec_authserver::Authority;
use dsec_crypto::rsa::{RsaHash, RsaPrivateKey};
use dsec_crypto::sha::sha256;
use dsec_crypto::DigestType;
use dsec_dnssec::validate::covering_rrsigs;
use dsec_dnssec::{authenticate_dnskeys, sign_zone};
use dsec_ecosystem::{Hosting, Plan, Tld, World, ALL_TLDS};
use dsec_resolver::Resolver;
use dsec_scanner::{ScanCache, ScanOptions, Snapshot, SnapshotWriter, StreamedStore};
use dsec_traffic::workload::generate_stream;
use dsec_traffic::TrafficPopulation;
use dsec_wire::{Message, Name, RrType};
use dsec_workloads::TrafficMix;

use crate::inputs::SplitMix;
use crate::report::{LayerValues, Report};
use crate::stats::{median, percentile};
use crate::workloads::Ctx;

/// Frames written to time the snapshot spill and its CSV replay: one
/// campaign's worth.
const SPILL_FRAMES: usize = 97;
/// Names resolved through one resolver for the wall-latency percentiles.
const RESOLVE_STREAM: u64 = 2_000;
/// Days ticked for `ecosystem.tick_ms` outside the campaign workload.
const TICK_DAYS: usize = 28;

/// `f`'s result and its wall time in ns.
fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = black_box(f());
    (result, started.elapsed().as_nanos() as f64)
}

/// Wall ns of each call of `f`, one sample per input.
fn each_ns<I, R>(inputs: impl IntoIterator<Item = I>, mut f: impl FnMut(I) -> R) -> Vec<f64> {
    inputs
        .into_iter()
        .map(|input| timed_ns(|| f(input)).1)
        .collect()
}

/// Wall ns per call of `f` over `samples` batches of `batch` calls — for
/// calls too short to time one at a time.
fn batched_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect()
}

/// Measures every unit cost on a fresh world and stores the medians in
/// `report`.
pub fn measure(ctx: &mut Ctx, report: &mut Report) {
    // The stream is planned at the size the workload's own loads use.
    let queries = match report.workload {
        "degraded" => ctx.inputs.degraded_phase_queries,
        _ => ctx.inputs.traffic_queries,
    };
    let layers = &mut report.layers;
    let mut pw = ctx.build_world();
    let generic = pw.generic_registrar;
    let world = &mut pw.world;
    let n = ctx.inputs.unit_samples;
    let mut rng = SplitMix::new(ctx.inputs.sample_seed);
    let spill = ctx
        .out_dir
        .join(format!("layers-{}.snap", std::process::id()));

    ctx.tracer.span("layers", |_| {
        scanner(world, layers, &spill);
        let signed: Vec<Name> = world
            .domains()
            .filter(|d| d.is_signed() && matches!(d.hosting, Hosting::Registrar { .. }))
            .map(|d| d.name.clone())
            .collect();
        let unsigned: Vec<Name> = world
            .domains()
            .filter(|d| !d.is_signed())
            .map(|d| d.name.clone())
            .collect();
        let signed = rng.pick(&signed, n);
        let unsigned = rng.pick(&unsigned, n);
        assert!(
            !signed.is_empty() && !unsigned.is_empty(),
            "the population has signed and unsigned domains"
        );
        dnssec(world, layers, &signed);
        wire_and_authserver(world, layers, &signed, &unsigned);
        resolver_and_traffic(world, layers, ctx.inputs.load_seed, queries);
        crypto(layers, ctx.inputs.sample_seed, n);

        // The mutating measurements go last.
        let purchases = each_ns(0..n, |i| {
            world
                .purchase(
                    generic,
                    &format!("dsec-benchmark-{i}"),
                    Tld::Com,
                    Hosting::Registrar { plan: Plan::Free },
                    "owner@dsec-benchmark.example",
                )
                .expect("a fresh label is free");
        });
        layers.set("ecosystem.purchase_us", median(&purchases) / 1e3);
        // The campaign workload reports the median over its own 671 ticks.
        if layers.get("ecosystem.tick_ms") == 0.0 {
            let ticks = each_ns(0..TICK_DAYS, |_| world.tick());
            layers.set("ecosystem.tick_ms", median(&ticks) / 1e6);
        }
    });
    std::fs::remove_file(&spill).ok();
}

/// Cold, warm and forced-full scans, then the snapshot spill and replay.
fn scanner(world: &World, layers: &mut LayerValues, spill: &std::path::Path) {
    let domains = world.domain_count().max(1) as f64;
    let options = ScanOptions::default();
    let mut cache = ScanCache::new();
    let mut scan_ns = |options: &ScanOptions| {
        let started = Instant::now();
        let snapshot = Snapshot::take_cached(world, &ALL_TLDS, options, &mut cache);
        (started.elapsed().as_nanos() as f64 / domains, snapshot)
    };
    // First scan of a fresh world: nothing is cached anywhere.
    let (cold, snapshot) = scan_ns(&options);
    // Same cache, unchanged world: the pure cache pass.
    let (warm, _) = scan_ns(&options);
    // Every domain re-queried, authorities' response caches warm.
    let (full, _) = scan_ns(&ScanOptions {
        force_full: true,
        ..options
    });
    layers.set("scanner.cold_scan_ns_per_domain", cold);
    layers.set("scanner.warm_scan_ns_per_domain", warm);
    layers.set("scanner.full_scan_ns_per_domain", full);

    let mut writer = SnapshotWriter::create(spill).expect("the output directory is writable");
    let mut dated = snapshot.clone();
    let records = each_ns(0..SPILL_FRAMES, |week| {
        dated.date = snapshot.date.plus_days(7 * week as u32);
        writer.record(&dated).expect("spill frame written");
    });
    writer.finish().expect("spill file flushed");
    layers.set("scanner.spill_record_ms", median(&records) / 1e6);
    let bytes = std::fs::metadata(spill).map_or(0, |m| m.len());
    layers.set(
        "scanner.spill_bytes_per_snapshot",
        bytes as f64 / SPILL_FRAMES as f64,
    );

    let operator = snapshot
        .cells
        .iter()
        .max_by_key(|(_, stats)| stats.domains)
        .map(|((op, _), _)| op.clone())
        .expect("a scan of a built world has cells");
    let replays = each_ns(0..5, |_| {
        let store = StreamedStore::open(spill).expect("spill file opens");
        black_box(store.to_csv(&operator).expect("CSV replays"));
        black_box(store.to_csv_extended(&operator).expect("CSV replays"));
    });
    layers.set("scanner.csv_replay_ms", median(&replays) / 1e6);
}

/// Signing a customer zone as the world builds it (base zone + RRSIGs,
/// what `Operator::host_signed` pays), and authenticating its DNSKEY
/// RRset against the DS.
fn dnssec(world: &World, layers: &mut LayerValues, signed: &[&Name]) {
    let signer = world.signer_config();
    let now = world.today.epoch_seconds();
    let (mut sign, mut authenticate, mut rrsigs) = (Vec::new(), Vec::new(), Vec::new());
    for &name in signed {
        let domain = world.domain(name).expect("sampled from the world");
        let keys = domain.keys.as_ref().expect("sampled as signed");
        let operator = world.operator(world.registrar(domain.registrar).operator);
        let (zone, ns) = timed_ns(|| {
            let mut zone = operator.base_zone(name);
            sign_zone(&mut zone, keys, &signer).expect("the domain's keys sign its zone");
            zone
        });
        sign.push(ns);
        rrsigs.push(zone.iter().filter(|r| r.rtype() == RrType::Rrsig).count() as f64);

        let dnskeys = zone
            .rrset(name, RrType::Dnskey)
            .expect("signed zone has DNSKEYs");
        let sigs = covering_rrsigs(zone.rrset(name, RrType::Rrsig).as_ref(), RrType::Dnskey);
        let ds = [keys.ds(DigestType::Sha256)];
        let (_, ns) = timed_ns(|| {
            authenticate_dnskeys(name, &dnskeys, &sigs, &ds, now).expect("chain link validates")
        });
        authenticate.push(ns);
    }
    layers.set("dnssec.sign_zone_us", median(&sign) / 1e3);
    layers.set(
        "dnssec.authenticate_dnskeys_us",
        median(&authenticate) / 1e3,
    );
    layers.set("dnssec.rrsigs_per_zone", median(&rrsigs));
    layers.set(
        "dnssec.signed_zones",
        world.domains().filter(|d| d.is_signed()).count() as f64,
    );
}

/// Codec costs of two real responses, and the authority's datagram path
/// with and without its response cache. Authorities are queried through
/// `Authority::snapshot()`, which shares the zones but not the cache.
fn wire_and_authserver(
    world: &World,
    layers: &mut LayerValues,
    signed: &[&Name],
    unsigned: &[&Name],
) {
    let codec = |layers: &mut LayerValues, kind: &str, responses: &[Message]| {
        let encode = each_ns(responses, |m| {
            black_box(m.to_wire());
        });
        let wires: Vec<Vec<u8>> = responses.iter().map(Message::to_wire).collect();
        let decode = each_ns(&wires, |w| {
            black_box(Message::from_wire(w).expect("our own encoding decodes"));
        });
        let bytes: Vec<f64> = wires.iter().map(|w| w.len() as f64).collect();
        layers.set(&format!("wire.encode_{kind}_ns"), median(&encode));
        layers.set(&format!("wire.decode_{kind}_ns"), median(&decode));
        layers.set(&format!("wire.{kind}_response_bytes"), median(&bytes));
    };

    let operator_of = |name: &Name| -> Authority {
        let domain = world.domain(name).expect("sampled from the world");
        world
            .operator(world.registrar(domain.registrar).operator)
            .authority()
            .snapshot()
    };
    let dnskey_query = |name: &Name| Message::query(0x5EC, name.clone(), RrType::Dnskey, true);
    let dnskey_responses: Vec<Message> = signed
        .iter()
        .map(|&name| operator_of(name).handle_query(&dnskey_query(name)))
        .collect();
    codec(layers, "dnskey", &dnskey_responses);

    let referrals: Vec<Message> = unsigned
        .iter()
        .map(|&name| {
            let tld = Tld::of_domain(name).expect("every domain sits under a studied TLD");
            let www = name.child("www").expect("www label fits");
            world
                .registry(tld)
                .authority()
                .snapshot()
                .handle_query(&Message::query(0x5EC, www, RrType::A, true))
        })
        .collect();
    codec(layers, "referral", &referrals);

    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for &name in signed {
        let datagram = dnskey_query(name).to_wire();
        let cached = operator_of(name);
        // The first datagram admits the answer; the second is the hit.
        black_box(cached.handle_datagram(&datagram));
        hit.push(timed_ns(|| cached.handle_datagram(&datagram)).1);
        let uncached = operator_of(name);
        uncached.set_response_cache(false);
        miss.push(timed_ns(|| uncached.handle_datagram(&datagram)).1);
    }
    layers.set("authserver.handle_datagram_hit_ns", median(&hit));
    layers.set("authserver.handle_datagram_miss_ns", median(&miss));
}

/// Planning the stream, and resolution costs through the live network
/// on the stream's own names: its first queries through one resolver,
/// split by whether the resolver's cache answered.
fn resolver_and_traffic(world: &World, layers: &mut LayerValues, load_seed: u64, queries: u64) {
    let now = world.today.epoch_seconds();
    let mix = TrafficMix::default();
    let plans = each_ns(0..5, |_| {
        let population = TrafficPopulation::from_world(world);
        generate_stream(&population, &mix, load_seed, queries, now, 64)
    });
    layers.set("traffic.plan_stream_ms", median(&plans) / 1e6);

    let population = TrafficPopulation::from_world(world);
    let stream = generate_stream(&population, &mix, load_seed, RESOLVE_STREAM, now, 64);
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let (mut walls, mut cold) = (Vec::new(), Vec::new());
    for q in &stream {
        let hits = resolver.stats().cache_hits;
        let (answer, ns) = timed_ns(|| resolver.resolve_cached(&q.qname, q.qtype, q.now));
        answer.expect("fault-free resolution");
        walls.push(ns);
        if resolver.stats().cache_hits == hits {
            cold.push(ns);
        }
    }
    layers.set("resolver.resolve_cold_us", median(&cold) / 1e3);
    layers.set(
        "resolver.resolve_wall_p50_us",
        percentile(&walls, 50.0) / 1e3,
    );
    layers.set(
        "resolver.resolve_wall_p99_us",
        percentile(&walls, 99.0) / 1e3,
    );
    // A hit is too short to time one call at a time.
    let first = &stream[0];
    let cached = batched_ns(walls.len().min(200), 64, || {
        black_box(
            resolver
                .resolve_cached(&first.qname, first.qtype, first.now)
                .expect("cached"),
        );
    });
    layers.set("resolver.resolve_cached_ns", median(&cached));
}

/// RSA-512 (the simulation's key size) and SHA-256, on seeded inputs.
fn crypto(layers: &mut LayerValues, seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keygen = each_ns(0..n.min(50), |_| {
        black_box(RsaPrivateKey::generate(
            &mut rng,
            dsec_dnssec::DEFAULT_KEY_BITS,
        ));
    });
    layers.set("crypto.rsa512_keygen_ms", median(&keygen) / 1e6);

    let key = RsaPrivateKey::generate(&mut rng, dsec_dnssec::DEFAULT_KEY_BITS);
    let message = [0xD5u8; 96];
    let signature = key.sign(RsaHash::Sha256, &message);
    let sign = each_ns(0..n, |_| {
        black_box(key.sign(RsaHash::Sha256, black_box(&message)));
    });
    let verify = each_ns(0..n, |_| {
        assert!(key
            .public
            .verify(RsaHash::Sha256, black_box(&message), &signature));
    });
    layers.set("crypto.rsa512_sign_ns", median(&sign));
    layers.set("crypto.rsa512_verify_ns", median(&verify));

    let kib = [0xECu8; 1024];
    let sha = batched_ns(n, 16, || {
        black_box(sha256(black_box(&kib)));
    });
    layers.set("crypto.sha256_ns_per_kib", median(&sha));
}

/// Estimated share of the workload's wall time spent in each layer:
/// Σ unit cost × count ÷ median repetition wall. Unit costs come from
/// isolated calls, so the shares are estimates, labelled as such in the
/// README; the campaign workload's `ecosystem` and `scanner` shares are
/// measured from spans instead and are left alone here.
pub fn estimate_shares(ctx: &Ctx, report: &mut Report) {
    let wall = median(&report.rep_s);
    if wall <= 0.0 {
        return;
    }
    let ops = report.ops_per_rep as f64;
    let v = |name: &str| report.layers.get(name);
    let shares = match report.workload {
        "build" => {
            let zones = v("dnssec.signed_zones");
            // Root, five registries and the customer key pool: a KSK and
            // a ZSK each.
            let keys =
                2.0 * (1 + ALL_TLDS.len() + ctx.inputs.population.world.key_pool.max(1)) as f64;
            let keygen = v("crypto.rsa512_keygen_ms") * 1e-3 * keys / wall;
            let signing =
                v("crypto.rsa512_sign_ns") * 1e-9 * v("dnssec.rrsigs_per_zone") * zones / wall;
            let dnssec = v("dnssec.sign_zone_us") * 1e-6 * zones / wall;
            let ecosystem = v("ecosystem.purchase_us") * 1e-6 * ops / wall;
            vec![
                // RRSIG generation is nested inside `dnssec`'s share.
                ("crypto.busy_share", keygen + signing),
                ("dnssec.busy_share", dnssec),
                ("ecosystem.busy_share", ecosystem),
                ("unattributed_share", 1.0 - keygen - dnssec - ecosystem),
            ]
        }
        "campaign" => {
            // Nested inside the scanner's measured share.
            let queries = v("authserver.queries_per_op") * ops;
            let authserver = v("authserver.handle_datagram_miss_ns") * 1e-9 * queries / wall;
            vec![("authserver.busy_share", authserver)]
        }
        _ => {
            let misses = (1.0 - v("resolver.cache_hit_rate")) * ops;
            let resolver = (v("resolver.resolve_cold_us") * 1e-6 * misses
                + v("resolver.resolve_cached_ns") * 1e-9 * (ops - misses))
                / wall;
            // One stream is planned per load; `degraded` runs two a repetition.
            let loads = if report.workload == "degraded" {
                2.0
            } else {
                1.0
            };
            let traffic = v("traffic.plan_stream_ms") * 1e-3 * loads / wall;
            let queries = v("authserver.queries_per_op") * ops;
            let authserver = v("authserver.handle_datagram_hit_ns") * 1e-9 * queries / wall;
            vec![
                ("resolver.busy_share", resolver),
                ("traffic.busy_share", traffic),
                // Nested inside the resolver's share.
                ("authserver.busy_share", authserver),
                ("unattributed_share", 1.0 - resolver - traffic),
            ]
        }
    };
    for (name, share) in shares {
        report.layers.set(name, share);
    }
}
