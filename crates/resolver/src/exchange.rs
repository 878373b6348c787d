//! One exchange: the only way a set of nameservers is asked a question.
//!
//! The validating resolver, the scanner's observation, the registries'
//! audits and CDS polls, [`diagnose`](crate::diagnose()) and the poison
//! census all ask through an [`Exchange`], so they all see the same DNS
//! under one rule (DESIGN.md §18.1):
//!
//! - servers are asked in order (healthiest first when the caller keeps a
//!   [`HealthCache`]); a timeout moves on to the next server after a
//!   simulated backoff, and a truncated answer is asked again over TCP;
//! - a REFUSED server is lame for the zone: it is not asked again in this
//!   ladder, and the ladder ends once every server has said it;
//! - SERVFAIL is transient and retried like a timeout;
//! - when only error rcodes came back, the first of them is the answer,
//!   and when every server said REFUSED the outcome says so: the zone is
//!   served nowhere, whatever transient SERVFAIL came first (for a scan,
//!   "serves no DNSKEY").
//!
//! The [`RetryPolicy`] bounds the ladder: `max_attempts` UDP exchanges,
//! each waiting `deadline_ms`, and `budget_ms` of simulated latency across
//! them. Every exchange has a clock, the caller's simulated epoch seconds,
//! and stamps every query with it: a scheduled outage window covering it
//! hides the server from the resolver and the world's scan, audits and
//! polls alike. A window hides a server only from the queries actually
//! sent — a scan that answers an unchanged domain from its cache asks
//! nobody. Health ordering, circuit breakers, the attempt counters and a
//! budget that spans several ladders are the resolver's own state, and
//! only it passes them.

use std::cell::{Cell, RefCell};

use dsec_authserver::{Network, QueryOutcome};
use dsec_wire::{Message, Name, Rcode};

use crate::breaker::BreakerSet;
use crate::retry::{HealthCache, ResolverStatsSnapshot, RetryPolicy};

/// How an [`Exchange`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// A response arrived. Its rcode is SERVFAIL or REFUSED only when
    /// that is all that came back: then it is the ladder's first one.
    Answered {
        /// The response message.
        response: Message,
        /// Whether the first UDP exchange did not settle it: a timeout,
        /// an error rcode or a truncation came first.
        retried: bool,
    },
    /// Every server said REFUSED: none serves the zone. `response` is
    /// still the ladder's first error, which may have been a transient
    /// SERVFAIL from a server that said REFUSED when asked again.
    Lame {
        /// The ladder's first error response.
        response: Message,
    },
    /// Registered servers exist, but none answered within the policy.
    Unreachable,
    /// Nobody to ask: no servers, or none of them registered.
    NoServers,
}

impl ExchangeOutcome {
    /// The response, if one arrived.
    pub fn into_response(self) -> Option<Message> {
        match self {
            ExchangeOutcome::Answered { response, .. } | ExchangeOutcome::Lame { response } => {
                Some(response)
            }
            _ => None,
        }
    }
}

/// A question put to a set of nameservers under a [`RetryPolicy`].
pub struct Exchange<'a> {
    pub(crate) network: &'a Network,
    pub(crate) policy: RetryPolicy,
    pub(crate) now: u32,
    // The resolver's hooks (see the module docs); breakers are driven by
    // the exchange's clock.
    pub(crate) health: Option<&'a HealthCache>,
    pub(crate) breaker: Option<&'a BreakerSet>,
    pub(crate) stats: Option<&'a RefCell<ResolverStatsSnapshot>>,
    /// Simulated ms spent so far in the resolution the ladder is part of.
    pub(crate) spent: Option<&'a Cell<u32>>,
}

impl<'a> Exchange<'a> {
    /// An exchange over `network` bounded by `policy`, stamping its
    /// queries with the caller's clock `now` (epoch seconds).
    pub fn new(network: &'a Network, policy: RetryPolicy, now: u32) -> Self {
        Exchange {
            network,
            policy,
            now,
            health: None,
            breaker: None,
            stats: None,
            spent: None,
        }
    }

    /// Puts `query` to `servers` under the module's rule.
    pub fn ask(&self, servers: &[Name], query: &Message) -> ExchangeOutcome {
        if servers.is_empty() {
            return ExchangeOutcome::NoServers;
        }
        // Counters and a budget of the ladder's own, unless the resolver's.
        let (own_stats, own_spent) = (RefCell::default(), Cell::new(0));
        let stats = self.stats.unwrap_or(&own_stats);
        let spent = self.spent.unwrap_or(&own_spent);
        let spend = |ms: u32| spent.set(spent.get().saturating_add(ms));
        let policy = &self.policy;
        let mut attempts = 0u32;
        let mut retries = 0u32;
        // Whether a registered server answered or timed out.
        let mut reached = false;
        let mut first_error: Option<Message> = None;
        // Servers that answered REFUSED, one bit per position in
        // `servers` (an NS set is far smaller than 64; a server past
        // that has no bit and is simply never marked).
        let mut lame = 0u64;
        let bit = |idx: usize| 1u64.checked_shl(idx as u32).unwrap_or(0);
        'ladder: while attempts < policy.max_attempts && lame.count_ones() as usize != servers.len()
        {
            let attempts_at_round_start = attempts;
            // Healthiest first; without a health cache (and on the
            // resolver's fault-free path) the caller's order.
            let order = self.health.map(|health| health.order_indices(servers));
            for pos in 0..servers.len() {
                let idx = order.as_ref().map_or(pos, |order| order[pos]);
                let ns = &servers[idx];
                if attempts >= policy.max_attempts {
                    break;
                }
                if lame & bit(idx) != 0 {
                    continue;
                }
                if spent.get() >= policy.budget_ms {
                    break 'ladder;
                }
                if let Some(breaker) = self.breaker {
                    if !breaker.allow(ns, self.now) {
                        stats.borrow_mut().breaker_short_circuits += 1;
                        continue;
                    }
                }
                attempts += 1;
                stats.borrow_mut().udp_attempts += 1;
                match self
                    .network
                    .query_udp(ns, query, policy.deadline_ms, self.now)
                {
                    QueryOutcome::Unreachable => {
                        // Not registered: retrying cannot help this server.
                        self.note_failure(ns, stats);
                    }
                    QueryOutcome::Timeout => {
                        reached = true;
                        stats.borrow_mut().timeouts += 1;
                        self.note_failure(ns, stats);
                        let backoff = policy.backoff_ms(retries);
                        stats.borrow_mut().backoff_ms += backoff as u64;
                        spend(policy.deadline_ms.saturating_add(backoff));
                        retries += 1;
                    }
                    QueryOutcome::Answered {
                        response,
                        latency_ms,
                    } => {
                        reached = true;
                        spend(latency_ms);
                        if response.flags.truncated {
                            stats.borrow_mut().tcp_fallbacks += 1;
                            match self.network.query_tcp(ns, query, self.now) {
                                QueryOutcome::Answered {
                                    response,
                                    latency_ms,
                                } => {
                                    spend(latency_ms);
                                    if let Some(health) = self.health {
                                        health.record_success(ns);
                                    }
                                    if let Some(breaker) = self.breaker {
                                        breaker.record_success(ns, self.now);
                                    }
                                    return ExchangeOutcome::Answered {
                                        response,
                                        retried: true,
                                    };
                                }
                                _ => {
                                    stats.borrow_mut().timeouts += 1;
                                    self.note_failure(ns, stats);
                                    spend(policy.deadline_ms);
                                    continue;
                                }
                            }
                        }
                        // Any response — even an error rcode — proves the
                        // server is alive: the breaker only guards against
                        // transport-level outages.
                        if let Some(breaker) = self.breaker {
                            breaker.record_success(ns, self.now);
                        }
                        if matches!(response.rcode, Rcode::ServFail | Rcode::Refused) {
                            stats.borrow_mut().error_rcodes += 1;
                            if let Some(health) = self.health {
                                health.record_failure(ns);
                            }
                            if response.rcode == Rcode::Refused {
                                lame |= bit(idx);
                            }
                            first_error.get_or_insert(response);
                            continue;
                        }
                        if let Some(health) = self.health {
                            health.record_success(ns);
                        }
                        return ExchangeOutcome::Answered {
                            response,
                            retried: attempts > 1,
                        };
                    }
                }
            }
            // Every candidate short-circuited by an open breaker: another
            // round in the same sim-second cannot make progress.
            if attempts == attempts_at_round_start {
                break;
            }
            // A round with zero live candidates cannot improve: stop early.
            // (A server that was reached is registered, so the directory
            // is only searched while none has been.)
            if !reached
                && servers
                    .iter()
                    .all(|ns| self.network.authority(ns).is_none())
            {
                break;
            }
        }
        match first_error {
            Some(response) if lame.count_ones() as usize == servers.len() => {
                ExchangeOutcome::Lame { response }
            }
            Some(response) => ExchangeOutcome::Answered {
                response,
                retried: attempts > 1,
            },
            None if reached => ExchangeOutcome::Unreachable,
            None => ExchangeOutcome::NoServers,
        }
    }

    /// A transport-level failure against `ns`: penalized, and counted
    /// against its breaker (a trip when this failure opened it).
    fn note_failure(&self, ns: &Name, stats: &RefCell<ResolverStatsSnapshot>) {
        if let Some(health) = self.health {
            health.record_failure(ns);
        }
        if let Some(breaker) = self.breaker {
            if breaker.record_failure(ns, self.now) {
                stats.borrow_mut().breaker_trips += 1;
            }
        }
    }
}
