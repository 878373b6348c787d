//! # dsec-traffic — the user-traffic plane
//!
//! The paper measures *domains*; this crate re-expresses the same
//! population in *query* space: a deterministic, multi-threaded load
//! generator that plays a population of stub clients against the
//! validating resolver farm, over the simulated ecosystem's network (and
//! therefore through its fault plane — chaos campaigns compose with
//! load).
//!
//! Four pieces:
//!
//! - [`workload`]: seeded Zipf popularity over the SLD population with
//!   big-operator head bias (Figure 3's concentration, re-lived by
//!   users), the per-TLD query mix and qtype mix from
//!   [`dsec_workloads::spec::TrafficMix`];
//! - [`driver`]: N worker threads sharding the client stream over a pool
//!   of [`dsec_resolver::Resolver`]s behind one shared, capacity-bounded
//!   [`dsec_resolver::Cache`];
//! - [`account`]: per-query RFC 4035 classification
//!   (Secure/Insecure/Bogus/ServFail) attributed to the responsible
//!   registrar and DNS operator — "registrar X's policy left Y% of real
//!   user queries unprotected";
//! - [`telemetry`]: fixed log-bucket latency histograms with
//!   p50/p90/p99/p999 over the simulated per-query latency.
//!
//! Determinism: queries are sharded to workers by a stable hash of
//! their site (the registered domain), so every query under a site is
//! handled by the same worker in stream order. Outcome counts,
//! attribution, cache hit/miss counts, and latency histograms are then
//! identical run-to-run *and* across thread counts (as long as the
//! shared cache's capacity bound is not hit mid-run); only wall-clock
//! throughput varies with the host.

#![warn(missing_docs)]

pub mod account;
pub mod driver;
pub mod telemetry;
pub mod workload;

pub use account::{Outcome, OutcomeCounts, TrafficReport};
pub use driver::{run_load, run_load_mixed, run_load_shared, validating_assignment, LoadConfig};
pub use telemetry::LatencyHistogram;
pub use workload::{PlannedQuery, Site, TrafficPopulation, Zipf};

// Re-exported so report consumers can build/inspect a [`TrafficReport`]
// (or arm the degradation machinery) without depending on the resolver
// crate directly.
pub use dsec_resolver::{BreakerPolicy, Cache, ResolverStatsSnapshot};
