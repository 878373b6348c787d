//! The sans-I/O stack bound to real sockets: a whole signed world served
//! over loopback UDP, resolved and validated from wire bytes.

use std::net::UdpSocket;
use std::time::Duration;

use dsec::dnssec::authenticate_dnskeys;
use dsec::ecosystem::{
    ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, Tld, TldPolicy, TldRole, World,
    WorldConfig, ALL_TLDS,
};
use dsec::wire::{Message, Name, RData, Rcode, Record, RrSet, RrType};

/// Serves one authority on a UDP socket for `answers` datagrams. The
/// server thread owns what it serves: callers pass a snapshot.
fn serve(
    authority: dsec::authserver::Authority,
    answers: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let addr = socket.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        for _ in 0..answers {
            let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                return;
            };
            if let Some(reply) = authority.handle_datagram(&buf[..len]) {
                let _ = socket.send_to(&reply, peer);
            }
        }
    });
    (addr, handle)
}

fn ask(addr: std::net::SocketAddr, query: &Message) -> Message {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    socket.connect(addr).unwrap();
    socket.send(&query.to_wire()).unwrap();
    let mut buf = [0u8; 4096];
    let len = socket.recv(&mut buf).expect("reply within timeout");
    Message::from_wire(&buf[..len]).expect("well-formed reply")
}

#[test]
fn world_zone_validates_over_real_udp() {
    // Build a world, deploy one domain, then serve the *TLD registry* and
    // the *customer operator* over two real UDP sockets and walk the
    // chain from wire bytes alone.
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let registrar = world.add_registrar(
        "UdpReg",
        Name::parse("udpreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: true },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );
    let domain = world
        .purchase(
            registrar,
            "overudp",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    let now = world.today.epoch_seconds();

    // Socket 1: the .com registry (DS + referral answers).
    let (registry_addr, registry_thread) =
        serve(world.registry(Tld::Com).authority().snapshot(), 2);
    // Socket 2: the customer operator (DNSKEY + A answers).
    let operator = world.registrar(registrar).operator;
    let (op_addr, op_thread) = serve(world.operator(operator).authority().snapshot(), 2);

    // DS from the parent, over the wire.
    let resp = ask(
        registry_addr,
        &Message::query(1, domain.clone(), RrType::Ds, true),
    );
    let ds: Vec<_> = resp
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Ds(ds) => Some(ds.clone()),
            _ => None,
        })
        .collect();
    assert!(!ds.is_empty(), "parent serves the DS over UDP");

    // Referral for a name below the cut carries NS in the authority.
    let www = domain.child("www").unwrap();
    let resp = ask(
        registry_addr,
        &Message::query(2, www.clone(), RrType::A, true),
    );
    assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Ns));

    // DNSKEY from the child, over the wire; authenticate against the DS.
    let resp = ask(
        op_addr,
        &Message::query(3, domain.clone(), RrType::Dnskey, true),
    );
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
    let rrset = RrSet::new(dnskeys).unwrap();
    let trusted = authenticate_dnskeys(&domain, &rrset, &sigs, &ds, now)
        .expect("chain link validates from wire bytes");
    assert_eq!(trusted.len(), 2);

    // And the final answer resolves with its signature attached.
    let resp = ask(op_addr, &Message::query(4, www, RrType::A, true));
    assert_eq!(resp.rcode, Rcode::NoError);
    assert!(resp.answers.iter().any(|r| r.rtype() == RrType::A));
    assert!(resp.answers.iter().any(|r| r.rtype() == RrType::Rrsig));

    registry_thread.join().unwrap();
    op_thread.join().unwrap();
}

#[test]
fn malformed_udp_datagrams_get_formerr_or_silence() {
    let world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let (addr, thread) = serve(world.registry(Tld::Com).authority().snapshot(), 1);
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    socket.connect(addr).unwrap();
    socket.send(&[0xDE, 0xAD, 0x01, 0x02, 0x03]).unwrap();
    let mut buf = [0u8; 512];
    let len = socket.recv(&mut buf).unwrap();
    let resp = Message::from_wire(&buf[..len]).unwrap();
    assert_eq!(resp.id, 0xDEAD);
    assert_eq!(resp.rcode, Rcode::FormErr);
    thread.join().unwrap();
}

#[test]
fn truncated_udp_falls_back_to_tcp() {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    // A zone whose TXT answer exceeds the 512-byte no-EDNS UDP limit.
    let authority = dsec::authserver::Authority::new();
    let mut zone = dsec::wire::Zone::new(Name::parse("big.com").unwrap());
    for i in 0..6u8 {
        zone.add(Record::new(
            Name::parse("big.com").unwrap(),
            60,
            RData::Txt(vec![vec![b'x'; 200], vec![i]]),
        ))
        .unwrap();
    }
    authority.upsert_zone(zone);

    // UDP leg: no EDNS → truncated.
    let (udp_addr, udp_thread) = serve(authority.snapshot(), 1);
    let query = Message::query(1, Name::parse("big.com").unwrap(), RrType::Txt, false);
    let resp = ask(udp_addr, &query);
    assert!(resp.flags.truncated, "server must signal TC over UDP");
    assert!(resp.answers.is_empty());
    udp_thread.join().unwrap();

    // TCP leg: RFC 1035 §4.2.2 framing carries the full answer.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let tcp_addr = listener.local_addr().unwrap();
    let serving = authority.snapshot();
    let tcp_thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        if let Some(reply) = serving.handle_tcp_request(&buf) {
            stream.write_all(&reply).unwrap();
        }
    });
    let mut stream = std::net::TcpStream::connect(tcp_addr).unwrap();
    let wire = query.to_wire();
    stream
        .write_all(&(wire.len() as u16).to_be_bytes())
        .unwrap();
    stream.write_all(&wire).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let declared = u16::from_be_bytes([reply[0], reply[1]]) as usize;
    assert_eq!(declared, reply.len() - 2);
    let resp = Message::from_wire(&reply[2..]).unwrap();
    assert!(!resp.flags.truncated);
    assert_eq!(resp.answers.len(), 6, "full answer over TCP");
    tcp_thread.join().unwrap();
}
