//! Codeword stability: the bytes `encode` produces are frozen.
//!
//! Shares are sealed into WAL files and shipped on the wire, so a
//! kernel rewrite that changed a single output byte would make logs
//! written by an older build unreadable to a newer one. This test
//! folds the full `encode` output over a fixed grid of payload lengths
//! and `(k, m)` shapes into one FNV-1a fingerprint that was recorded
//! from the original per-byte kernel; any change to it is a format
//! break, not a refactor.

use dh_erasure::{encode, try_decode};

/// Payload lengths: empty, tiny, the 48 B small-item size, a length
/// that is not a multiple of any k here, and the 4 KiB / 16 KiB item
/// sizes with one odd neighbour.
const LENGTHS: [usize; 8] = [0, 1, 7, 48, 100, 4096, 16384, 16385];

/// `(k, m)` shapes: replication, and k − 1 = 2, 3, 4 so the fused
/// row kernel's three-at-a-time loop and its tail are both exercised.
const SHAPES: [(usize, usize); 4] = [(1, 4), (3, 6), (4, 8), (5, 12)];

/// The fingerprint of every share of every `(length, shape)` pair.
const GOLDEN: u64 = 0x8d83_451d_5bfd_0261;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A deterministic payload that does not depend on any RNG stream.
fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn encode_output_matches_the_recorded_fingerprint() {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &len in &LENGTHS {
        let data = payload(len);
        for &(k, m) in &SHAPES {
            let shares = encode(&data, k, m);
            assert_eq!(shares.len(), m);
            fnv1a(&mut h, &(len as u64).to_le_bytes());
            fnv1a(&mut h, &[k as u8, m as u8]);
            for s in &shares {
                fnv1a(&mut h, &[s.index]);
                fnv1a(&mut h, &(s.data.len() as u64).to_le_bytes());
                fnv1a(&mut h, &s.data);
            }
            // the last k shares decode back to the payload
            assert_eq!(try_decode(&shares[m - k..], k), Ok(data.clone()), "len {len} k {k} m {m}");
        }
    }
    assert_eq!(h, GOLDEN, "encode output changed: got {h:#018x} — a share format break");
}
