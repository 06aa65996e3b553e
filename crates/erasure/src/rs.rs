//! Reed-Solomon erasure code: `k` data shards are extended to
//! `m ≤ 255` shares such that **any** `k` shares reconstruct the data.
//! Share `i` evaluates the data polynomial at the field point `i + 1`,
//! `share_i = Σ_j shard_j · (i+1)^j` (a Vandermonde code). It is *not*
//! systematic: no share equals a data shard, and share 0 is the XOR of
//! all shards. Decoding inverts the k×k Vandermonde matrix of the
//! chosen shares over `GF(2⁸)` and applies the inverse to the share
//! rows.
//!
//! Both directions reduce to one row kernel, `combine`: a linear
//! combination of equal-length byte rows with field coefficients, read
//! through the compile-time product table `gf256::MUL`. The bytes it
//! produces are frozen — shares are sealed into WAL files and shipped
//! on the wire — and `tests/codeword_stability.rs` pins them.

use crate::gf256::{GF, MUL};
use bytes::Bytes;
use std::fmt;

/// One coded share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Share index in `0..m` (determines the evaluation point).
    pub index: u8,
    /// Payload (all shares of an item have equal length).
    pub data: Bytes,
}

/// Why a reconstruction failed. Decoding with too few shares is an
/// expected runtime condition of the replicated store (more than
/// `m − k` covers gone), so it is a typed error, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than `k` *distinct* shares were supplied.
    NotEnoughShares {
        /// Distinct shares available.
        have: usize,
        /// The reconstruction threshold `k`.
        need: usize,
    },
    /// The supplied shares disagree on the payload length.
    LengthMismatch,
    /// The shares are not a consistent codeword (mixed versions,
    /// corrupted payloads, or a malformed length trailer).
    Inconsistent,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NotEnoughShares { have, need } => {
                write!(f, "only {have} distinct shares, need {need} to reconstruct")
            }
            DecodeError::LengthMismatch => write!(f, "shares have unequal payload lengths"),
            DecodeError::Inconsistent => write!(f, "shares do not form a consistent codeword"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Split `data` into `k` shards (padding with the length trailer) and
/// produce `m` shares, any `k` of which reconstruct. `0 < k ≤ m ≤ 255`.
pub fn encode(data: &[u8], k: usize, m: usize) -> Vec<Share> {
    assert!(0 < k && k <= m && m <= 255, "need 0 < k ≤ m ≤ 255");
    // shard layout: data ‖ 8-byte big-endian length ‖ zeros, k·shard_len
    let shard_len = (data.len() + 8).div_ceil(k);
    let mut padded = vec![0u8; shard_len * k];
    padded[..data.len()].copy_from_slice(data);
    padded[data.len()..data.len() + 8].copy_from_slice(&(data.len() as u64).to_be_bytes());
    // share i = Σ_j shard_j · x_i^j with x_i = i+1 (nonzero points)
    let mut terms = Vec::with_capacity(k);
    (0..m)
        .map(|i| {
            let x = (i + 1) as u8;
            terms.clear();
            let shards = padded.chunks(shard_len).enumerate();
            terms.extend(shards.map(|(j, shard)| (GF.pow(x, j), shard)));
            let mut out = vec![0u8; shard_len];
            combine(&mut out, &terms);
            Share { index: i as u8, data: Bytes::from(out) }
        })
        .collect()
}

/// Reconstruct the original data from any `k` distinct shares.
/// `Option` facade over [`try_decode`], kept for call sites that only
/// care whether reconstruction succeeded.
pub fn decode(shares: &[Share], k: usize) -> Option<Vec<u8>> {
    try_decode(shares, k).ok()
}

/// Reconstruct the original data from any `k` distinct shares,
/// reporting *why* on failure — too few shares left is the expected
/// failure mode of a store that lost more than `m − k` covers, and
/// callers distinguish it from genuine codeword corruption.
pub fn try_decode(shares: &[Share], k: usize) -> Result<Vec<u8>, DecodeError> {
    // pick the first k distinct share indices, in order
    let mut seen = [false; 256];
    let chosen: Vec<&Share> = shares
        .iter()
        .filter(|s| !std::mem::replace(&mut seen[s.index as usize], true))
        .take(k)
        .collect();
    if chosen.len() < k {
        return Err(DecodeError::NotEnoughShares { have: chosen.len(), need: k });
    }
    let shard_len = chosen.first().map_or(0, |s| s.data.len());
    if chosen.iter().any(|s| s.data.len() != shard_len) {
        return Err(DecodeError::LengthMismatch);
    }
    // V · shards = shares with V[r][j] = x_r^j, x_r = index+1, so
    // shard_j = Σ_r V⁻¹[j][r] · share_r. (A Vandermonde matrix over
    // distinct points is never singular; a missing pivot means the
    // share set was not a codeword.)
    let vandermonde = chosen
        .iter()
        .map(|s| (0..k).map(|j| GF.pow(s.index.wrapping_add(1), j)).collect())
        .collect();
    let inv = invert(vandermonde).ok_or(DecodeError::Inconsistent)?;
    if k * shard_len < 8 {
        return Err(DecodeError::Inconsistent);
    }
    let mut padded = vec![0u8; k * shard_len];
    let mut terms = Vec::with_capacity(k);
    for (row, out) in inv.iter().zip(padded.chunks_mut(shard_len)) {
        terms.clear();
        terms.extend(row.iter().zip(&chosen).map(|(&c, s)| (c, &s.data[..])));
        combine(out, &terms);
    }
    // padded = data ‖ len_be (8 bytes) ‖ zeros(< k): the trailer is the
    // last 8-byte window whose value equals its own offset.
    for cand in (0..=padded.len() - 8).rev() {
        let mut be = [0u8; 8];
        be.copy_from_slice(&padded[cand..cand + 8]);
        let l = u64::from_be_bytes(be) as usize;
        if l == cand && padded[cand + 8..].iter().all(|&b| b == 0) {
            padded.truncate(cand);
            return Ok(padded);
        }
    }
    Err(DecodeError::Inconsistent)
}

/// Invert a square matrix over `GF(2⁸)` by Gauss–Jordan elimination;
/// `None` when a column has no pivot (the matrix is singular).
fn invert(mut a: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let k = a.len();
    let mut inv: Vec<Vec<u8>> =
        (0..k).map(|r| (0..k).map(|c| u8::from(r == c)).collect()).collect();
    for col in 0..k {
        let pivot = (col..k).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = GF.inv(a[col][col]);
        for row in [&mut a[col], &mut inv[col]] {
            for v in row.iter_mut() {
                *v = GF.mul(*v, scale);
            }
        }
        // take the pivot rows out to split the borrow against row r
        let (pivot_a, pivot_inv) = (std::mem::take(&mut a[col]), std::mem::take(&mut inv[col]));
        for r in (0..k).filter(|&r| r != col) {
            let factor = a[r][col];
            axpy(&mut a[r], factor, &pivot_a);
            axpy(&mut inv[r], factor, &pivot_inv);
        }
        a[col] = pivot_a;
        inv[col] = pivot_inv;
    }
    Some(inv)
}

/// The row kernel: `out = Σ c·src` over `terms`, every row
/// `out.len()` bytes long. The first term initialises `out` (a copy
/// when its coefficient is 1, as for shard 0 in [`encode`]); the rest
/// are folded three at a time, so each output byte is loaded and
/// stored once per three source rows, with an [`axpy`] tail.
fn combine(out: &mut [u8], terms: &[(u8, &[u8])]) {
    let Some((&(c0, s0), rest)) = terms.split_first() else {
        out.fill(0);
        return;
    };
    if c0 == 1 {
        out.copy_from_slice(s0);
    } else {
        let m0 = &MUL[c0 as usize];
        for (o, &b) in out.iter_mut().zip(s0) {
            *o = m0[b as usize];
        }
    }
    let mut triples = rest.chunks_exact(3);
    for t in &mut triples {
        let [(c1, s1), (c2, s2), (c3, s3)] = [t[0], t[1], t[2]];
        let (m1, m2, m3) = (&MUL[c1 as usize], &MUL[c2 as usize], &MUL[c3 as usize]);
        for (((o, &a), &b), &c) in out.iter_mut().zip(s1).zip(s2).zip(s3) {
            *o ^= m1[a as usize] ^ m2[b as usize] ^ m3[c as usize];
        }
    }
    for &(c, src) in triples.remainder() {
        axpy(out, c, src);
    }
}

/// `out += c·src` over `GF(2⁸)`; coefficient 1 is a plain XOR.
fn axpy(out: &mut [u8], c: u8, src: &[u8]) {
    match c {
        0 => {}
        1 => out.iter_mut().zip(src).for_each(|(o, &b)| *o ^= b),
        _ => {
            let mc = &MUL[c as usize];
            out.iter_mut().zip(src).for_each(|(o, &b)| *o ^= mc[b as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The original per-byte encoder: one `Gf256::mul` per byte per
    /// shard, in a separate read-modify-write pass per shard.
    fn encode_reference(data: &[u8], k: usize, m: usize) -> Vec<Share> {
        let f = Gf256::new();
        let mut padded = data.to_vec();
        padded.extend_from_slice(&(data.len() as u64).to_be_bytes());
        let shard_len = padded.len().div_ceil(k);
        padded.resize(shard_len * k, 0);
        let shards: Vec<&[u8]> = padded.chunks(shard_len).collect();
        (0..m)
            .map(|i| {
                let x = (i + 1) as u8;
                let mut out = vec![0u8; shard_len];
                for (j, shard) in shards.iter().enumerate() {
                    let c = f.pow(x, j);
                    for (o, &b) in out.iter_mut().zip(shard.iter()) {
                        *o = f.add(*o, f.mul(c, b));
                    }
                }
                Share { index: i as u8, data: Bytes::from(out) }
            })
            .collect()
    }

    /// The original decoder: Gaussian elimination with the share rows
    /// themselves as the right-hand side.
    fn decode_reference(shares: &[Share], k: usize) -> Result<Vec<u8>, DecodeError> {
        let f = Gf256::new();
        let mut seen = std::collections::BTreeSet::new();
        let chosen: Vec<&Share> =
            shares.iter().filter(|s| seen.insert(s.index)).take(k).collect();
        if chosen.len() < k {
            return Err(DecodeError::NotEnoughShares { have: chosen.len(), need: k });
        }
        let shard_len = chosen[0].data.len();
        if chosen.iter().any(|s| s.data.len() != shard_len) {
            return Err(DecodeError::LengthMismatch);
        }
        let mut mat: Vec<Vec<u8>> = chosen
            .iter()
            .map(|s| (0..k).map(|j| f.pow(s.index.wrapping_add(1), j)).collect())
            .collect();
        let mut rhs: Vec<Vec<u8>> = chosen.iter().map(|s| s.data.to_vec()).collect();
        for col in 0..k {
            let pivot = (col..k).find(|&r| mat[r][col] != 0).ok_or(DecodeError::Inconsistent)?;
            mat.swap(col, pivot);
            rhs.swap(col, pivot);
            let inv = f.inv(mat[col][col]);
            mat[col].iter_mut().for_each(|v| *v = f.mul(*v, inv));
            rhs[col].iter_mut().for_each(|v| *v = f.mul(*v, inv));
            for r in 0..k {
                if r == col || mat[r][col] == 0 {
                    continue;
                }
                let factor = mat[r][col];
                let (pm, pr) = (mat[col].clone(), rhs[col].clone());
                mat[r].iter_mut().zip(&pm).for_each(|(d, &s)| *d ^= f.mul(factor, s));
                rhs[r].iter_mut().zip(&pr).for_each(|(d, &s)| *d ^= f.mul(factor, s));
            }
        }
        let padded = rhs.concat();
        if padded.len() < 8 {
            return Err(DecodeError::Inconsistent);
        }
        for cand in (0..=padded.len() - 8).rev() {
            let l = u64::from_be_bytes(padded[cand..cand + 8].try_into().unwrap()) as usize;
            if l == cand && padded[cand + 8..].iter().all(|&b| b == 0) {
                return Ok(padded[..cand].to_vec());
            }
        }
        Err(DecodeError::Inconsistent)
    }

    #[test]
    fn share_zero_is_the_xor_of_the_shards() {
        // x₀ = 1, so every coefficient of share 0 is 1: the code is not
        // systematic, share 0 is shard_0 ⊕ shard_1 ⊕ …
        let data: Vec<u8> = (0..40u8).collect();
        let shares = encode(&data, 3, 5);
        let mut padded = data.clone();
        padded.extend_from_slice(&40u64.to_be_bytes());
        let xor: Vec<u8> = (0..16).map(|t| padded[t] ^ padded[16 + t] ^ padded[32 + t]).collect();
        assert_eq!(&shares[0].data[..], &xor[..]);
    }

    #[test]
    fn roundtrip_all_shares() {
        let data = b"the continuous-discrete approach".to_vec();
        let shares = encode(&data, 4, 9);
        assert_eq!(shares.len(), 9);
        let back = decode(&shares, 4).expect("decodes");
        assert_eq!(back, data);
    }

    #[test]
    fn any_k_of_m_suffice() {
        let data: Vec<u8> = (0..100u8).collect();
        let (k, m) = (5usize, 12usize);
        let shares = encode(&data, k, m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let mut subset = shares.clone();
            subset.shuffle(&mut rng);
            subset.truncate(k);
            assert_eq!(decode(&subset, k).expect("any k decode"), data);
        }
    }

    #[test]
    fn fewer_than_k_fail() {
        let data = b"secret".to_vec();
        let shares = encode(&data, 3, 6);
        assert!(decode(&shares[..2], 3).is_none());
    }

    #[test]
    fn k_equals_one_is_replication() {
        let data = b"replica".to_vec();
        let shares = encode(&data, 1, 4);
        for s in &shares {
            assert_eq!(decode(std::slice::from_ref(s), 1).expect("single share"), data);
        }
    }

    #[test]
    fn empty_data_roundtrips() {
        let shares = encode(&[], 3, 5);
        assert_eq!(decode(&shares[1..4], 3).expect("decodes"), Vec::<u8>::new());
    }

    #[test]
    fn duplicate_share_indices_rejected_gracefully() {
        let data = b"dup".to_vec();
        let shares = encode(&data, 2, 4);
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(decode(&dup, 2).is_none());
    }

    #[test]
    fn too_few_shares_is_a_typed_error() {
        let shares = encode(b"typed", 3, 6);
        assert_eq!(
            try_decode(&shares[..2], 3),
            Err(DecodeError::NotEnoughShares { have: 2, need: 3 })
        );
        // duplicates don't count as distinct
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[0].clone()];
        assert_eq!(
            try_decode(&dup, 3),
            Err(DecodeError::NotEnoughShares { have: 1, need: 3 })
        );
        assert_eq!(
            try_decode(&[], 2),
            Err(DecodeError::NotEnoughShares { have: 0, need: 2 })
        );
    }

    #[test]
    fn unequal_share_lengths_are_a_typed_error() {
        let mut shares = encode(b"lengths", 2, 4);
        shares[1].data = Bytes::from_static(b"x");
        assert_eq!(try_decode(&shares[..2], 2), Err(DecodeError::LengthMismatch));
    }

    proptest! {
        #[test]
        fn prop_kernels_match_the_per_byte_reference(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            k in 1usize..=8, extra in 0usize..=8, seed: u64, corrupt: bool) {
            // k − 1 runs over every residue mod 3 and shard_len over odd
            // and even values, so the fused triples and the axpy tail
            // are both covered.
            let m = (k + extra).min(16);
            let shares = encode(&data, k, m);
            prop_assert_eq!(&shares, &encode_reference(&data, k, m));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut subset = shares;
            subset.shuffle(&mut rng);
            if corrupt {
                // not a codeword: both decoders must agree on the error
                // (or on the garbage they return)
                let victim = &mut subset[0];
                let mut bytes = victim.data.to_vec();
                bytes.iter_mut().for_each(|b| *b = b.wrapping_mul(3).wrapping_add(1));
                victim.data = Bytes::from(bytes);
            }
            prop_assert_eq!(try_decode(&subset, k), decode_reference(&subset, k));
            subset.truncate(k);
            prop_assert_eq!(try_decode(&subset, k), decode_reference(&subset, k));
            if !corrupt {
                prop_assert_eq!(try_decode(&subset, k), Ok(data));
            }
        }

        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200),
                          k in 1usize..8, extra in 0usize..8, seed: u64) {
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut subset = shares.clone();
            subset.shuffle(&mut rng);
            subset.truncate(k);
            prop_assert_eq!(decode(&subset, k).expect("decode"), data);
        }

        #[test]
        fn prop_drop_any_m_minus_k_still_roundtrips(
            data in proptest::collection::vec(any::<u8>(), 0..150),
            k in 1usize..7, extra in 0usize..7, seed: u64) {
            // encode → drop any m−k shares → decode round-trips: the
            // §6.2 durability substrate, for random (k, m, payload).
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut survivors = shares;
            survivors.shuffle(&mut rng);          // a *random* set of m−k losses
            survivors.truncate(k);
            prop_assert_eq!(try_decode(&survivors, k), Ok(data));
        }

        #[test]
        fn prop_fewer_than_k_is_typed_not_panic(
            data in proptest::collection::vec(any::<u8>(), 0..150),
            k in 2usize..8, extra in 0usize..6, drop_to in 0usize..7, seed: u64) {
            let m = k + extra;
            let shares = encode(&data, k, m);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut subset = shares;
            subset.shuffle(&mut rng);
            subset.truncate(drop_to.min(k - 1));  // strictly fewer than k
            let have = subset.len();
            prop_assert_eq!(
                try_decode(&subset, k),
                Err(DecodeError::NotEnoughShares { have, need: k })
            );
        }
    }
}
