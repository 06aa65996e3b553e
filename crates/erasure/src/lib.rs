//! # dh-erasure — Reed-Solomon erasure coding over GF(2⁸)
//!
//! Section 6.2 of Naor & Wieder observes that in the overlapping DHT
//! all `Θ(log n)` servers holding a data item form a clique, so the
//! item can be stored as **erasure-code shares** instead of full
//! replicas — "the data stored by any small subset of the servers
//! suffices to reconstruct the data item" (citing digital fountains
//! [Byers et al.] and the erasure-vs-replication comparison of
//! Weatherspoon & Kubiatowicz). This crate supplies that substrate,
//! from scratch:
//!
//! * [`gf256`] — arithmetic in `GF(2⁸)` (AES polynomial `0x11B`) with
//!   log/antilog and full product tables computed at compile time,
//! * [`rs`] — a Reed-Solomon (Vandermonde, non-systematic) code:
//!   `encode` produces `m` shares from `k` data shards; [`try_decode`]
//!   reconstructs from **any** `k` of them (Vandermonde matrix
//!   inversion over the field) and reports a typed [`DecodeError`] —
//!   never a panic — when fewer than `k` distinct shares survive,
//! * [`header`] — share versioning: the [`ShareHeader`] sealed in
//!   front of every stored or shipped share, so quorum reads only
//!   combine shares of one item generation and repair re-materializes
//!   with the stored generation's `(k, m)` (used by `dh_replica`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod gf256;
pub mod header;
pub mod rs;

pub use header::{open, open_shared, seal, sealed_len, HeaderError, ShareHeader, HEADER_BYTES};
pub use rs::{decode, encode, try_decode, DecodeError, Share};
