//! One run of one workload: set-ups, the untraced passes, and (traced
//! runs) the traced replay, with the digest checks between them.

use crate::layers::{Net, Store, TimedShelves, TimedTransport};
use crate::span::process_cpu_ns;
use crate::stats::Summary;
use crate::workload::{timing, Kind, Limit, Params, Pass, Runner, Timing, THREADS};
use cd_core::rng::subseed;
use dh_dht::NodeId;
use dh_proto::transport::Sim;
use dh_proto::ChaosNet;
use dh_store::{FileShelves, MemShelves};
use std::path::Path;

/// Interleaved 1- and 2-thread batches behind `rayon.speedup_2v1`.
pub const SPEEDUP_ROUNDS: u64 = 4;

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// CPU seconds (all threads) of each pass's set-up: network build
    /// plus preload.
    pub setup_s: Vec<f64>,
    /// The untraced passes: [`Params::passes`] runs of one op stream (one in a
    /// traced run), the first for its share of the time, the rest
    /// replaying exactly its ops.
    pub passes: Vec<Pass>,
    /// The untraced passes' latencies.
    pub timing: Timing,
    /// Peak resident set (VmHWM) after the first set-up, MiB: the
    /// built network and preloaded store, before the passes' own
    /// per-op records (whose size follows the host's speed) exist.
    pub peak_rss_mib: f64,
    /// The traced replay of the untraced pass (traced runs only).
    pub traced: Option<Pass>,
    /// Batches run after the replay to time 1 vs 2 threads (checked,
    /// outside the digest).
    pub extra: Option<Pass>,
}

impl Outcome {
    /// The first untraced pass: its counts stand for every pass.
    pub fn plain(&self) -> &Pass {
        &self.passes[0]
    }

    /// Median set-up seconds.
    pub fn setup_median(&self) -> f64 {
        Summary::of(&mut self.setup_s.clone()).p50
    }

    /// Every pass, the traced and extra ones included.
    pub fn all_passes(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().chain(&self.traced).chain(&self.extra)
    }

    /// Every correctness violation of the run: each pass's own, and any
    /// replay (untraced or traced) that folds another digest than the
    /// first pass.
    pub fn violations(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .all_passes()
            .flat_map(|x| x.violations.iter().cloned())
            .collect();
        let first = self.plain();
        let replays = self.passes[1..].iter().map(|x| ("an untraced", x));
        for (what, x) in replays.chain(self.traced.iter().map(|x| ("the traced", x))) {
            if x.digest != first.digest || x.ops != first.ops {
                all.push(format!(
                    "{what} replay diverged: digest {:#018x} over {} ops vs {:#018x} over {} ops",
                    x.digest.0, x.ops, first.digest.0, first.ops
                ));
            }
        }
        all
    }
}

/// The transport every workload's ops travel over.
fn sim(seed: u64) -> Sim {
    Sim::new(seed).with_latency(4, 16, 4)
}

/// Measure workload `p` for `seconds` with inputs from `seed`. An
/// untraced run splits the time over [`Params::passes`] passes; a traced run
/// runs one untraced pass for half of it, then a traced replay of
/// exactly its ops. `tmp` holds WAL files.
pub fn measure(
    p: &Params,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: &Path,
) -> Result<Outcome, String> {
    rayon::set_num_threads(THREADS);
    let net_seed = subseed(seed, 0x7E7);
    match p.kind {
        Kind::KvSmall => go(
            p,
            seed,
            seconds,
            trace,
            || Ok(MemShelves::new()),
            |_| sim(net_seed),
            None,
        ),
        Kind::BatchPar { .. } => go(
            p,
            seed,
            seconds,
            trace,
            || Ok(MemShelves::new()),
            |_| sim(net_seed),
            Some(&sim),
        ),
        Kind::KvLargeWal => {
            std::fs::create_dir_all(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
            // one log at a time: each pass's store is dropped before
            // the next one opens (and truncates) the file
            let path = tmp.join(format!("{}-{}.wal", p.name, std::process::id()));
            let wal = || -> Result<FileShelves, String> {
                let _ = std::fs::remove_file(&path);
                // the repository's default flush policy, stated: no
                // fsync per commit, auto-compaction at 8× live state
                let mut s = FileShelves::open(&path)
                    .map_err(|e| format!("open {}: {e}", path.display()))?;
                s.set_sync_commits(false).set_auto_compact(8);
                Ok(s)
            };
            let out = go(p, seed, seconds, trace, wal, |_| sim(net_seed), None);
            let _ = std::fs::remove_file(&path);
            out
        }
        Kind::ChurnGreyOpen(c) => {
            let chaos = |nodes: &[NodeId]| {
                let mut net = ChaosNet::new(sim(net_seed), subseed(seed, 0xC405));
                net.grey_fraction(nodes, c.grey_permille, c.grey_mult);
                net
            };
            go(
                p,
                seed,
                seconds,
                trace,
                || Ok(MemShelves::new()),
                chaos,
                None,
            )
        }
    }
}

/// The run, generic over backend and transport: plain types for the
/// untraced passes, the timing wrappers around them for the traced one.
fn go<S, T>(
    p: &Params,
    seed: u64,
    seconds: f64,
    trace: bool,
    shelves: impl Fn() -> Result<S, String>,
    net: impl Fn(&[NodeId]) -> T,
    shard: Option<&(dyn Fn(u64) -> T + Sync)>,
) -> Result<Outcome, String>
where
    S: Store + Sync,
    T: Net + Send,
{
    let reps = if trace { 1 } else { p.passes };
    let mut setup_s = Vec::with_capacity(reps);
    let mut passes: Vec<Pass> = Vec::with_capacity(reps);
    let mut peak_rss_mib = 0.0;
    for _ in 0..reps {
        let cpu = process_cpu_ns();
        let mut runner = Runner::setup(p, seed, shelves()?, &net)?;
        setup_s.push((process_cpu_ns() - cpu) as f64 / 1e9);
        if passes.is_empty() {
            peak_rss_mib = crate::report::peak_rss_mib();
        }
        let limit = match passes.first() {
            Some(first) => Limit::Ops(first.ops),
            None if trace => Limit::Seconds(seconds / 2.0),
            None => Limit::Seconds(seconds / p.passes as f64),
        };
        let mut pass = match shard {
            Some(shard) => runner.run_batches(limit, false, shard),
            None => runner.run(limit, false),
        };
        runner.verify(&mut pass);
        passes.push(pass);
    }
    let timing = timing(p, &passes);
    if !trace {
        return Ok(Outcome {
            setup_s,
            passes,
            timing,
            peak_rss_mib,
            traced: None,
            extra: None,
        });
    }

    let mut runner = Runner::setup(p, seed, TimedShelves::new(shelves()?), |nodes| {
        TimedTransport::new(net(nodes))
    })?;
    let replay = Limit::Ops(passes[0].ops);
    let (traced, extra) = match shard {
        Some(shard) => {
            let timed = |s: u64| TimedTransport::new(shard(s));
            let mut pass = runner.run_batches(replay, true, &timed);
            runner.verify(&mut pass);
            // after the replay, so outside its digest: more real
            // batches, alternating 1 and 2 threads
            let mut extra = Pass::default();
            let speedup = runner.speedup_2v1(&mut extra, SPEEDUP_ROUNDS, &timed);
            pass.layers.as_mut().expect("a traced pass").speedup_2v1 = Some(speedup);
            (pass, Some(extra))
        }
        None => {
            let mut pass = runner.run(replay, true);
            runner.verify(&mut pass);
            (pass, None)
        }
    };
    Ok(Outcome {
        setup_s,
        passes,
        timing,
        peak_rss_mib,
        traced: Some(traced),
        extra,
    })
}
