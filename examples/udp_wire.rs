//! Serves a signed zone over a real UDP socket and validates it with a
//! real wire-format exchange — demonstrating that the sans-I/O stack
//! (`dsec-wire` + `dsec-authserver`) binds to actual transports.
//!
//! ```sh
//! cargo run --release --example udp_wire
//! ```

use std::net::UdpSocket;

use dsec::authserver::Authority;
use dsec::crypto::{Algorithm, DigestType};
use dsec::dnssec::{authenticate_dnskeys, sign_zone, SignerConfig, ZoneKeys};
use dsec::wire::{Message, Name, RData, Record, RrSet, RrType, SoaRdata, Zone};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> std::io::Result<()> {
    let now = 1_450_000_000u32;
    let origin = Name::parse("example.com").unwrap();

    // Build and sign a small zone.
    let mut rng = StdRng::seed_from_u64(7);
    let keys =
        ZoneKeys::generate_default(&mut rng, origin.clone(), Algorithm::RsaSha256).expect("keygen");
    let mut zone = Zone::new(origin.clone());
    zone.add(Record::new(
        origin.clone(),
        3600,
        RData::Soa(SoaRdata {
            mname: Name::parse("ns1.example.com").unwrap(),
            rname: Name::parse("hostmaster.example.com").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    ))
    .unwrap();
    zone.add(Record::new(
        origin.clone(),
        3600,
        RData::Ns(Name::parse("ns1.example.com").unwrap()),
    ))
    .unwrap();
    zone.add(Record::new(
        Name::parse("www.example.com").unwrap(),
        300,
        RData::A("192.0.2.80".parse().unwrap()),
    ))
    .unwrap();
    sign_zone(
        &mut zone,
        &keys,
        &SignerConfig::valid_from(now, 30 * 86_400),
    )
    .unwrap();
    let ds = keys.ds(DigestType::Sha256);

    let authority = Authority::new();
    authority.upsert_zone(zone);

    // Server half: one thread answering datagrams on a loopback socket.
    let server = UdpSocket::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    println!("authoritative server listening on {addr}");
    // The server thread owns the authority it answers from.
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        // Serve exactly the queries this example sends, then exit.
        for _ in 0..2 {
            let Ok((len, peer)) = server.recv_from(&mut buf) else {
                return;
            };
            if let Some(reply) = authority.handle_datagram(&buf[..len]) {
                let _ = server.send_to(&reply, peer);
            }
        }
    });

    // Client half: DNSSEC-OK queries over the wire.
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.connect(addr)?;
    let mut buf = [0u8; 4096];

    // Query 1: the A record (+RRSIG).
    let q = Message::query(1, Name::parse("www.example.com").unwrap(), RrType::A, true);
    client.send(&q.to_wire())?;
    let len = client.recv(&mut buf)?;
    let resp = Message::from_wire(&buf[..len]).expect("well-formed response");
    println!(
        "A query answered with {} record(s) over UDP ({} bytes on the wire)",
        resp.answers.len(),
        len
    );
    assert!(resp.answers.iter().any(|r| r.rtype() == RrType::A));
    assert!(resp.answers.iter().any(|r| r.rtype() == RrType::Rrsig));

    // Query 2: DNSKEY, then authenticate it against the DS out-of-band.
    let q = Message::query(2, origin.clone(), RrType::Dnskey, true);
    client.send(&q.to_wire())?;
    let len = client.recv(&mut buf)?;
    let resp = Message::from_wire(&buf[..len]).expect("well-formed response");
    let dnskeys: Vec<Record> = resp
        .answers
        .iter()
        .filter(|r| r.rtype() == RrType::Dnskey)
        .cloned()
        .collect();
    let sigs: Vec<_> = resp
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Rrsig(s) if s.type_covered == RrType::Dnskey => Some(s.clone()),
            _ => None,
        })
        .collect();
    let rrset = RrSet::new(dnskeys).expect("DNSKEY RRset");
    let trusted = authenticate_dnskeys(&origin, &rrset, &sigs, &[ds], now)
        .expect("chain link validates over real UDP");
    println!(
        "DNSKEY RRset authenticated against the DS: {} trusted key(s)",
        trusted.len()
    );

    handle.join().expect("server thread exits cleanly");
    println!("udp_wire OK");
    Ok(())
}
