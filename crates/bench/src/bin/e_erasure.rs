//! **Byte kernels of the large-value path** (§6.2): throughput of the
//! Reed–Solomon `encode`/`try_decode` row kernels at the store's
//! default geometry (k = 4, m = 8) for a small (48 B) and a large
//! (16 KiB) value, and of the WAL's per-record `crc32`.
//!
//! Usage: `e_erasure [MIB]` — each row times `MIB` MiB of payload
//! (default 64) in five rounds and reports the fastest round, so a
//! smoke run can pass a small budget. Encode and decode rows count
//! *value* bytes (not share bytes); decode reconstructs from the last
//! `k` shares, so it always inverts a non-trivial matrix. Rows append
//! to `BENCH_ops.json` (or `$BENCH_JSON`) with `n` = value bytes and
//! `unit` = `"MiB/s"`.

use cd_bench::bench_json::{self, Record};
use cd_bench::{claim, section};
use cd_core::stats::Table;
use dh_erasure::{encode, try_decode};
use dh_store::wal::crc32;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 4;
const M: usize = 8;
const ROUNDS: usize = 5;

/// A deterministic, incompressible-looking payload.
fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// MiB/s of `f` over `len`-byte inputs, fastest of [`ROUNDS`] rounds
/// of `budget / len` calls each.
fn mib_s(len: usize, budget: usize, mut f: impl FnMut()) -> f64 {
    let calls = (budget / len).max(1);
    let best = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (calls * len) as f64 / (1 << 20) as f64 / best.max(1e-9)
}

fn main() {
    let mib: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let budget = mib << 20;
    println!("# e_erasure — RS(k={K}, m={M}) and CRC-32 throughput, {mib} MiB per round");
    section("kernel throughput (fastest of 5 rounds)");
    let mut table = Table::new(["kernel", "value bytes", "MiB/s"]);
    let mut records = Vec::new();
    let mut row = |name: &str, len: usize, rate: f64| {
        table.row([name.to_string(), format!("{len}"), format!("{rate:.1}")]);
        records.push(Record::new(format!("e_erasure/{name}_{len}"), len, rate).with_unit("MiB/s"));
    };

    for len in [48usize, 16 * 1024] {
        let data = payload(len);
        let shares = encode(&data, K, M);
        let survivors = &shares[M - K..];
        assert_eq!(
            try_decode(survivors, K).as_deref(),
            Ok(&data[..]),
            "decode must round-trip"
        );
        row(
            "encode",
            len,
            mib_s(len, budget, || {
                black_box(encode(black_box(&data), K, M));
            }),
        );
        row(
            "decode",
            len,
            mib_s(len, budget, || {
                let _ = black_box(try_decode(black_box(survivors), K));
            }),
        );
    }
    // about the size of one 16 KiB put's park records in the WAL
    let wal = payload(32 * 1024);
    row(
        "crc32",
        wal.len(),
        mib_s(wal.len(), budget, || {
            black_box(crc32(black_box(&wal)));
        }),
    );

    print!("{}", table.to_markdown());
    claim(
        "§6.2: erasure shares cost one encode per put and one decode per get",
        format!("rows above are the per-byte price of each at (k, m) = ({K}, {M})"),
    );

    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_ops.json".to_string());
    match bench_json::append(&path, &records) {
        Ok(()) => println!("\nappended {} records to {path}", records.len()),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
