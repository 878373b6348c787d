//! The in-memory "network": a directory of authoritative servers
//! addressable by nameserver hostname.
//!
//! This replaces the Internet in the simulation. Every query the resolver
//! or scanner makes is a real wire-format `Message` dispatched to a real
//! `Authority` — only the transport is a function call instead of UDP.
//! (For real sockets, see [`crate::Authority::handle_datagram`] and the
//! `udp_wire` example.)
//!
//! The network carries a [`FaultPlane`]: when enabled it injects drops,
//! delays, truncation, error rcodes, stale answers, and server downtime
//! into [`Network::query_udp`], so consumers must cope with the same
//! degradations a real scan sees. Disabled (the default), the transport
//! is perfect and behavior is identical to the pre-fault-plane network.
//!
//! Every query carries its sender's simulated clock (`now_s`, epoch
//! seconds), and downtime is judged by one rule: a server is down when
//! its kill switch is set or a scheduled window covers `now_s`. A window
//! hides a server only from the queries actually sent inside it — a
//! scanner that answers an unchanged domain from its cache sends none.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dsec_wire::{FnvHashMap, Message, Name, Rcode};

use crate::authority::Authority;
use crate::faults::{Fault, FaultPlane};

/// Nominal one-way-trip-and-back latency of a clean exchange, in
/// simulated milliseconds.
pub const BASE_LATENCY_MS: u32 = 20;

/// The result of one simulated UDP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A response arrived within the caller's deadline.
    Answered {
        /// The response message (possibly truncated or an error rcode).
        response: Message,
        /// Simulated round-trip latency in milliseconds.
        latency_ms: u32,
    },
    /// The server exists but no response arrived in time (dropped packet,
    /// excessive delay, or the server is down).
    Timeout,
    /// No server is registered at that hostname.
    Unreachable,
}

impl QueryOutcome {
    /// The response, if one arrived.
    pub fn into_response(self) -> Option<Message> {
        match self {
            QueryOutcome::Answered { response, .. } => Some(response),
            _ => None,
        }
    }
}

/// A directory of nameservers.
///
/// Plain single-thread state: the world, its scanner and every resolver
/// share one network through an `Rc` and use it on the caller's thread.
/// Registration edits the hostname → authority map in place; a query
/// clones the `Rc` of the authority it reaches.
#[derive(Debug, Default)]
pub struct Network {
    servers: RefCell<FnvHashMap<Name, Rc<Authority>>>,
    /// Nameserver hostnames of the root servers.
    root_hints: RefCell<Vec<Name>>,
    /// Total UDP queries dispatched (measurement bookkeeping).
    queries: Cell<u64>,
    /// Total TCP queries dispatched (truncation fallback bookkeeping).
    tcp_queries: Cell<u64>,
    /// Fault injection; dormant by default.
    faults: FaultPlane,
}

impl Network {
    /// An empty network with a dormant fault plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `authority` under the nameserver hostname `ns`.
    /// One authority may be registered under many hostnames.
    pub fn register(&self, ns: Name, authority: Rc<Authority>) {
        self.servers.borrow_mut().insert(ns, authority);
    }

    /// Removes a nameserver hostname from the directory.
    pub fn deregister(&self, ns: &Name) -> bool {
        self.servers.borrow_mut().remove(ns).is_some()
    }

    /// Declares the root server hostnames used as resolution starting
    /// points.
    pub fn set_root_hints(&self, hints: Vec<Name>) {
        *self.root_hints.borrow_mut() = hints;
    }

    /// The configured root server hostnames.
    pub fn root_hints(&self) -> Vec<Name> {
        self.root_hints.borrow().clone()
    }

    /// The authority registered at `ns`, if any (`Name`'s `Hash`/`Eq`
    /// fold case, so no canonical copy is allocated).
    pub fn authority(&self, ns: &Name) -> Option<Rc<Authority>> {
        self.servers.borrow().get(ns).cloned()
    }

    /// Always `(0, 0)`: no authority caches responses. Kept only because
    /// the frozen `crates/benchmark/src/workloads/{traffic,campaign}.rs`
    /// read it for `authserver.response_cache_hit_rate` (ROADMAP item 3
    /// retires it).
    #[doc(hidden)]
    pub fn response_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The fault-injection plane (dormant until
    /// [`FaultPlane::enable`]d).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Sends `query` to the server at `ns` over simulated UDP, waiting at
    /// most `deadline_ms` for the response. `now_s` stamps the query with
    /// its simulated epoch seconds, against which scheduled down-windows
    /// ([`FaultPlane::schedule_down`]) are judged.
    pub fn query_udp(
        &self,
        ns: &Name,
        query: &Message,
        deadline_ms: u32,
        now_s: u32,
    ) -> QueryOutcome {
        let Some(authority) = self.authority(ns) else {
            return QueryOutcome::Unreachable;
        };
        self.queries.set(self.queries.get() + 1);
        let root;
        let question = match query.questions.first() {
            Some(q) => (&q.name, q.qtype.number()),
            None => {
                root = Name::root();
                (&root, 0)
            }
        };
        let answered = |authority: &Authority, latency_ms| QueryOutcome::Answered {
            response: authority.handle_query(query),
            latency_ms,
        };
        match self.faults.intercept(ns, now_s, Some(question)) {
            None => answered(&authority, BASE_LATENCY_MS),
            Some(Fault::Drop) => QueryOutcome::Timeout,
            Some(Fault::Delay(ms)) => {
                let latency_ms = BASE_LATENCY_MS.saturating_add(ms);
                if latency_ms > deadline_ms {
                    QueryOutcome::Timeout
                } else {
                    answered(&authority, latency_ms)
                }
            }
            Some(Fault::Truncate) => {
                // RFC 2181 §9: a truncated response's sections cannot be
                // relied upon; the caller must retry over TCP.
                let mut response = query.response_to();
                response.flags.truncated = true;
                QueryOutcome::Answered {
                    response,
                    latency_ms: BASE_LATENCY_MS,
                }
            }
            Some(Fault::ServFail) => QueryOutcome::Answered {
                response: error_response(query, Rcode::ServFail),
                latency_ms: BASE_LATENCY_MS,
            },
            Some(Fault::Refused) => QueryOutcome::Answered {
                response: error_response(query, Rcode::Refused),
                latency_ms: BASE_LATENCY_MS,
            },
            Some(Fault::Stale) => answered(
                &self.faults.stale_authority(ns, &authority),
                BASE_LATENCY_MS,
            ),
        }
    }

    /// Sends `query` to the server at `ns` over simulated TCP — the
    /// truncation-fallback path. TCP responses are never truncated and
    /// the stream either connects or it does not, so only downtime (the
    /// kill switch, or a scheduled window covering `now_s` — a downed
    /// server accepts no TCP either) affects it; the per-packet fault
    /// profile and scripted UDP faults do not apply.
    pub fn query_tcp(&self, ns: &Name, query: &Message, now_s: u32) -> QueryOutcome {
        let Some(authority) = self.authority(ns) else {
            return QueryOutcome::Unreachable;
        };
        self.tcp_queries.set(self.tcp_queries.get() + 1);
        if self.faults.intercept(ns, now_s, None).is_some() {
            return QueryOutcome::Timeout;
        }
        QueryOutcome::Answered {
            response: authority.handle_query(query),
            // Connection establishment costs an extra round trip.
            latency_ms: BASE_LATENCY_MS * 2,
        }
    }

    /// Total UDP queries dispatched since construction.
    pub fn query_count(&self) -> u64 {
        self.queries.get()
    }

    /// Total TCP (truncation-fallback) queries dispatched since
    /// construction.
    pub fn tcp_query_count(&self) -> u64 {
        self.tcp_queries.get()
    }

    /// Number of registered nameserver hostnames.
    #[cfg(test)]
    fn server_count(&self) -> usize {
        self.servers.borrow().len()
    }
}

/// A minimal error response to `query` with the given rcode.
fn error_response(query: &Message, rcode: Rcode) -> Message {
    let mut response = query.response_to();
    response.rcode = rcode;
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultProfile, FaultStats};
    use dsec_wire::{RData, Rcode, Record, RrType, Zone};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn simple_authority() -> Rc<Authority> {
        let auth = Authority::new();
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("www.example.com"),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .unwrap();
        auth.upsert_zone(z);
        Rc::new(auth)
    }

    #[test]
    fn register_and_query() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        let resp = net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(net.query_count(), 1);
    }

    #[test]
    fn unknown_server_is_unreachable() {
        let net = Network::new();
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert!(net
            .query_udp(&name("ns1.ghost.net"), &q, u32::MAX, 0)
            .into_response()
            .is_none());
        assert_eq!(
            net.query_udp(&name("ns1.ghost.net"), &q, 100, 0),
            QueryOutcome::Unreachable
        );
        assert_eq!(net.query_count(), 0);
    }

    #[test]
    fn hostname_lookup_is_case_insensitive() {
        let net = Network::new();
        net.register(name("NS1.Op.NET"), simple_authority());
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .is_some());
    }

    #[test]
    fn shared_authority_under_two_hostnames() {
        let net = Network::new();
        let auth = simple_authority();
        net.register(name("ns1.op.net"), auth.clone());
        net.register(name("ns2.op.net"), auth);
        assert_eq!(net.server_count(), 2);
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert_eq!(
            net.query_udp(&name("ns2.op.net"), &q, u32::MAX, 0)
                .into_response()
                .unwrap()
                .answers
                .len(),
            1
        );
    }

    #[test]
    fn deregister_makes_unreachable() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        assert!(net.deregister(&name("ns1.op.net")));
        assert!(!net.deregister(&name("ns1.op.net")));
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .is_none());
    }

    #[test]
    fn root_hints_round_trip() {
        let net = Network::new();
        assert!(net.root_hints().is_empty());
        net.set_root_hints(vec![name("a.root-servers.net")]);
        assert_eq!(net.root_hints(), vec![name("a.root-servers.net")]);
    }

    #[test]
    fn refused_for_unserved_zone_propagates() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        let q = Message::query(1, name("www.other.org"), RrType::A, false);
        let resp = net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .unwrap();
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn certain_drop_times_out_and_counts_as_dispatched() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(11);
        net.faults().set_global_profile(FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::default()
        });
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, 1000, 0),
            QueryOutcome::Timeout
        );
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .is_none());
        // Dropped packets still count as dispatched queries.
        assert_eq!(net.query_count(), 2);
    }

    #[test]
    fn delay_beyond_deadline_times_out() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(11);
        net.faults().set_global_profile(FaultProfile {
            delay_prob: 1.0,
            delay_ms: 900,
            ..FaultProfile::default()
        });
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, 500, 0),
            QueryOutcome::Timeout
        );
        match net.query_udp(&name("ns1.op.net"), &q, 2000, 0) {
            QueryOutcome::Answered { latency_ms, .. } => {
                assert_eq!(latency_ms, BASE_LATENCY_MS + 900)
            }
            other => panic!("expected late answer, got {other:?}"),
        }
    }

    #[test]
    fn truncated_udp_answer_resolves_over_tcp() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(11);
        net.faults().set_global_profile(FaultProfile {
            truncate_prob: 1.0,
            ..FaultProfile::default()
        });
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        let udp = net
            .query_udp(&name("ns1.op.net"), &q, 1000, 0)
            .into_response()
            .unwrap();
        assert!(udp.flags.truncated);
        assert!(udp.answers.is_empty());
        let tcp = net
            .query_tcp(&name("ns1.op.net"), &q, 0)
            .into_response()
            .unwrap();
        assert!(!tcp.flags.truncated);
        assert_eq!(tcp.answers.len(), 1);
        assert_eq!(net.tcp_query_count(), 1);
    }

    #[test]
    fn error_rcode_faults_return_errors() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(11);
        net.faults().set_global_profile(FaultProfile {
            servfail_prob: 1.0,
            ..FaultProfile::default()
        });
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        let resp = net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .unwrap();
        assert_eq!(resp.rcode, Rcode::ServFail);
    }

    #[test]
    fn stale_fault_freezes_zone_contents() {
        let net = Network::new();
        let auth = simple_authority();
        net.register(name("ns1.op.net"), auth.clone());
        net.faults().enable(11);
        net.faults().set_global_profile(FaultProfile {
            stale_prob: 1.0,
            ..FaultProfile::default()
        });
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        // First stale serve freezes the copy.
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
                .into_response()
                .unwrap()
                .answers
                .len(),
            1
        );
        // The live zone changes…
        auth.with_zone_mut(&name("example.com"), |z| {
            z.add(Record::new(
                name("www.example.com"),
                60,
                RData::A("192.0.2.2".parse().unwrap()),
            ))
            .unwrap();
        });
        // …but the stale secondary still serves the frozen copy.
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
                .into_response()
                .unwrap()
                .answers
                .len(),
            1
        );
        net.faults().set_global_profile(FaultProfile::default());
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
                .into_response()
                .unwrap()
                .answers
                .len(),
            2
        );
    }

    #[test]
    fn scheduled_window_downs_queries_inside_it_only() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(12);
        net.faults().schedule_down(&name("ns1.op.net"), 1000, 2000);
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        // Inside the window a query times out over UDP and TCP.
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, 500, 1500),
            QueryOutcome::Timeout
        );
        assert_eq!(
            net.query_tcp(&name("ns1.op.net"), &q, 1500),
            QueryOutcome::Timeout
        );
        // Before and after the window, service is normal.
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, 500, 999)
            .into_response()
            .is_some());
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, 500, 2000)
            .into_response()
            .is_some());
        assert_eq!(net.faults().stats().downtime_drops, 2);
    }

    #[test]
    fn every_fault_kind_counts_in_its_own_field() {
        // Kind k fires k times: a count landing in another kind's field
        // (two arms swapped) shows as a wrong number, not a wrong name.
        let net = Network::new();
        let ns = name("ns1.op.net");
        net.register(ns.clone(), simple_authority());
        net.faults().enable(13);
        let kinds = [
            Fault::Drop,
            Fault::Delay(100),
            Fault::Truncate,
            Fault::ServFail,
            Fault::Refused,
            Fault::Stale,
        ];
        let script = kinds.iter().zip(1..).flat_map(|(&f, k)| vec![f; k]);
        net.faults().script(&ns, script);
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        for _ in 0..(1..=6).sum() {
            net.query_udp(&ns, &q, u32::MAX, 0);
        }
        net.faults().set_down(&ns, true);
        for _ in 0..7 {
            assert_eq!(net.query_udp(&ns, &q, u32::MAX, 0), QueryOutcome::Timeout);
        }
        assert_eq!(
            net.faults().stats(),
            FaultStats {
                drops: 1,
                delays: 2,
                truncations: 3,
                servfails: 4,
                refusals: 5,
                stale_serves: 6,
                downtime_drops: 7,
            }
        );
    }

    #[test]
    fn downed_server_times_out_on_both_transports() {
        let net = Network::new();
        net.register(name("ns1.op.net"), simple_authority());
        net.faults().enable(11);
        net.faults().set_down(&name("ns1.op.net"), true);
        let q = Message::query(1, name("www.example.com"), RrType::A, false);
        assert_eq!(
            net.query_udp(&name("ns1.op.net"), &q, 1000, 0),
            QueryOutcome::Timeout
        );
        assert_eq!(
            net.query_tcp(&name("ns1.op.net"), &q, 0),
            QueryOutcome::Timeout
        );
        net.faults().set_down(&name("ns1.op.net"), false);
        assert!(net
            .query_udp(&name("ns1.op.net"), &q, u32::MAX, 0)
            .into_response()
            .is_some());
    }
}
