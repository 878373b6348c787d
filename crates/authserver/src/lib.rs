//! # dsec-authserver — authoritative DNS serving
//!
//! [`Authority`] implements the authoritative answer algorithm over signed
//! zones (positive answers with RRSIGs, referrals with DS, NSEC-backed
//! negative answers, DO-bit gating). [`Network`] is the in-memory
//! transport that stands in for the Internet: a directory of authorities
//! addressable by nameserver hostname, dispatching real wire-level
//! [`dsec_wire::Message`]s.
//!
//! `Authority::handle_datagram` is transport-agnostic — the `udp_wire`
//! example binds it to a real `std::net::UdpSocket`.

#![warn(missing_docs)]

pub mod authority;
pub mod faults;
pub mod network;
pub mod outage;

pub use authority::Authority;
pub use faults::{Fault, FaultPlane, FaultProfile, FaultStats};
pub use network::{Network, QueryOutcome, BASE_LATENCY_MS};
pub use outage::{OutageScenario, OutageWindow};
