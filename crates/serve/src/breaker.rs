//! Per-model circuit breaker.
//!
//! The workspace's one breaker ([`fv_runtime::breaker`]), re-hosted per
//! registry entry so one tenant's broken fine-tune cannot take down every
//! model on the server. While open, all requests for the model are
//! demoted to the classical-interpolation fallback with a typed
//! `Degraded` status — the server keeps answering, just at lower
//! fidelity. Every `probe_after`-th denied request lets one probe
//! through; a successful probe closes the breaker again.

pub use fv_runtime::breaker::{Breaker, BreakerState};
