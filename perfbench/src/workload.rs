//! The four workloads, their generator, and the passes that drive
//! them through `dh_replica`'s public API.
//!
//! A *pass* runs one workload's op stream against a freshly set-up
//! store. Everything a pass does — keys, origins, verbs, values,
//! engine seeds, churn victims — is a pure function of the seed, and
//! the clocks only enter the latency arithmetic, so every pass of one
//! seed folds the same [`Digest`], whether or not the timing wrappers
//! are installed. A pass checks every result: a get must
//! return the last committed value (the pre-batch one in a batch), and
//! after the final `flush_repair` a sample of keys must be
//! quorum-readable with no item lost.

use crate::layers::{Net, Store};
use crate::span::{covered, now_ns, process_cpu_ns, self_time, thread_cpu_ns, Span};
use crate::stats::{hash_bytes, Digest};
use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, splitmix64, subseed};
use cd_core::Point;
use dh_dht::{DhNetwork, DistanceHalving, NodeId};
use dh_erasure::{encode, try_decode};
use dh_proto::engine::{OpOutcome, RetryPolicy};
use dh_replica::{batch_over, RepairReport, ReplicaAction, ReplicaOp, ReplicatedDht};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::sync::OnceLock;

/// Shares per item.
pub const M: u8 = 8;
/// Shares that reconstruct an item (read and write quorum).
pub const K: u8 = 4;
/// Open-loop burst shape (the `e_slo` one): every `BURST_EVERY`
/// arrivals, the last `BURST` land on the same instant.
pub const BURST_EVERY: usize = 101;
/// See [`BURST_EVERY`].
pub const BURST: usize = 8;
/// Calls a client makes for one sequential op before giving up: a
/// shed or quorum-less try is re-issued (same value, fresh engine
/// seed), and the op's latency covers every try.
pub const CLIENT_TRIES: u64 = 16;
/// Servers in every workload's network.
pub const SERVERS: usize = 10_000;
/// Worker threads of the workspace pool (the sharded runtime and any
/// parallel set-up work) — the machine's two cores.
pub const THREADS: usize = 2;

/// Which pass loop, backend and transport a workload runs on, with
/// the constants only that loop uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Sequential ops on the in-memory backend over `Sim`.
    KvSmall,
    /// Sequential ops on the WAL backend over `Sim`.
    KvLargeWal,
    /// Open-loop ops with churn and paced repair over a grey `ChaosNet`,
    /// under the hedged retry policy.
    ChurnGreyOpen(Churn),
    /// `batch_over` batches on the sharded runtime.
    BatchPar {
        /// Ops per `batch_over` call.
        batch: usize,
        /// Shard engines per batch.
        shards: usize,
    },
}

/// The constants of `churn-grey-open`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    /// A churn event (alternating leave/join) before every this-many ops.
    pub every: usize,
    /// Repair frames `pump_repair` prices after each op.
    pub pace: u32,
    /// Grey servers, per mille.
    pub grey_permille: u64,
    /// The grey servers' slowdown factor.
    pub grey_mult: u64,
    /// Fixed mean arrival rate of the open loop, ops/s.
    pub rate: f64,
}

/// One workload's parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Pass loop, backend and transport.
    pub kind: Kind,
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Servers.
    pub n: usize,
    /// Items preloaded and addressed (Zipf, s = 1).
    pub items: usize,
    /// Value size in bytes (≥ 16).
    pub value_len: usize,
    /// Percent of ops that are puts.
    pub put_pct: u32,
    /// Latency limit of `slo_miss_ratio`, in µs.
    pub slo_us: f64,
    /// Passes of one op stream per untraced run, each on a freshly
    /// set-up store; every op takes the least of its times over them.
    /// More, shorter passes sample each op at more moments of the
    /// host's slow and quiet phases, at one set-up each.
    pub passes: usize,
}

impl Params {
    /// The churn constants, on the workload that has them.
    pub fn churn(&self) -> Option<Churn> {
        match self.kind {
            Kind::ChurnGreyOpen(c) => Some(c),
            _ => None,
        }
    }

    /// The retry policy the workload's ops run under.
    pub fn retry(&self) -> RetryPolicy {
        match self.kind {
            Kind::ChurnGreyOpen(_) => RetryPolicy::patient().hedged(),
            _ => RetryPolicy::patient(),
        }
    }

    /// Due offset of op `i` from the start of an open-loop pass, in ns:
    /// arrivals at distinct instants `interval` apart, the last
    /// [`BURST`] of every [`BURST_EVERY`] on one instant, and the
    /// interval such that a cycle of [`BURST_EVERY`] arrivals lasts as
    /// long as it does at the workload's mean rate.
    fn due_offset(&self, i: u64) -> Option<u64> {
        let instants = (BURST_EVERY - BURST + 1) as u64;
        let interval = 1e9 * BURST_EVERY as f64 / (instants as f64 * self.churn()?.rate);
        let (cycle, slot) = (i / BURST_EVERY as u64, i % BURST_EVERY as u64);
        Some((interval * (cycle * instants + slot.min(instants - 1)) as f64) as u64)
    }
}

/// The four workloads.
pub fn workloads() -> Vec<Params> {
    let base = Params {
        kind: Kind::KvSmall,
        name: "kv-small",
        n: SERVERS,
        items: 2_000,
        value_len: 48,
        put_pct: 30,
        slo_us: 250.0,
        passes: 16,
    };
    vec![
        base.clone(),
        Params {
            kind: Kind::KvLargeWal,
            name: "kv-large-wal",
            items: 1_000,
            value_len: 16 << 10,
            put_pct: 50,
            slo_us: 2_000.0,
            // each pass must keep ~1,000 gets for an honest p99
            passes: 12,
            ..base.clone()
        },
        Params {
            kind: Kind::ChurnGreyOpen(Churn {
                every: 50,
                pace: 8,
                grey_permille: 100,
                grey_mult: 8,
                rate: OPEN_RATE,
            }),
            name: "churn-grey-open",
            slo_us: 10_000.0,
            // its set-up costs ~1 s, and each pass must still hold
            // enough puts for a p99 with 10 samples beyond it
            passes: 8,
            ..base.clone()
        },
        Params {
            kind: Kind::BatchPar {
                batch: 1_024,
                shards: 8,
            },
            name: "batch-par",
            slo_us: 100_000.0,
            // fewer, longer passes: each needs enough batches for a p90
            passes: 8,
            ..base
        },
    ]
}

/// The fixed offered rate of `churn-grey-open`, in ops/s: about half
/// that workload's closed-loop capacity when the benchmark was
/// defined. Fixed on purpose — a slower program must show up as
/// higher latency (or saturation), not as a lower offered load.
pub const OPEN_RATE: f64 = 700.0;

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Params> {
    workloads().into_iter().find(|p| p.name == name)
}

/// The deterministic value of generation `gen` of `key`: the key and
/// generation in the first 12 bytes, a keyed pseudo-random fill after.
pub fn value_of(key: u64, gen: u32, len: usize) -> Vec<u8> {
    assert!(len >= 16, "values carry a 12-byte header");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&gen.to_le_bytes());
    let mut s = splitmix64(key.rotate_left(32) ^ u64::from(gen));
    while v.len() < len {
        s = splitmix64(s);
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&s.to_le_bytes()[..take]);
    }
    v
}

/// How a read compares with what the client last committed.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadCheck {
    /// The last committed value.
    Current,
    /// The value of a put that failed its quorum but that repair later
    /// promoted — legal for the store, a failure for the client.
    Promoted(u32),
    /// No value (shed, under quorum, route failed).
    Missing,
    /// Anything else: stale, foreign or corrupt.
    Wrong(String),
}

/// The op generator: Zipf(s = 1) keys, the put/get mix, and the
/// client's record of what it issued and what committed.
pub struct Gen {
    rng: StdRng,
    cum: Vec<f64>,
    issued: Vec<u32>,
    committed: Vec<u32>,
    value_len: usize,
}

impl Gen {
    fn new(seed: u64, items: usize, value_len: usize) -> Gen {
        let mut cum = Vec::with_capacity(items);
        let mut total = 0.0;
        for rank in 0..items {
            total += 1.0 / (rank + 1) as f64;
            cum.push(total);
        }
        Gen {
            rng: seeded(seed),
            cum,
            issued: vec![0; items],
            committed: vec![0; items],
            value_len,
        }
    }

    fn key(&mut self) -> u64 {
        let total = *self.cum.last().expect("at least one item");
        let u = self.rng.gen::<f64>() * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1) as u64
    }

    fn is_put(&mut self, put_pct: u32) -> bool {
        self.rng.gen_range(0..100u32) < put_pct
    }

    /// The next generation of `key` and its value.
    fn issue(&mut self, key: u64) -> (u32, Bytes) {
        let slot = &mut self.issued[key as usize];
        *slot += 1;
        (*slot, Bytes::from(value_of(key, *slot, self.value_len)))
    }

    fn commit(&mut self, key: u64, gen: u32) {
        let slot = &mut self.committed[key as usize];
        *slot = (*slot).max(gen);
    }

    /// Classify a read of `key` against the committed generation.
    pub fn check(&self, key: u64, got: Option<&[u8]>) -> ReadCheck {
        let Some(v) = got else {
            return ReadCheck::Missing;
        };
        let committed = self.committed[key as usize];
        if v.len() != self.value_len {
            return ReadCheck::Wrong(format!(
                "key {key}: {} bytes, want {}",
                v.len(),
                self.value_len
            ));
        }
        let k = u64::from_le_bytes(v[..8].try_into().expect("8 bytes"));
        let g = u32::from_le_bytes(v[8..12].try_into().expect("4 bytes"));
        if k != key || v != value_of(k, g, v.len()).as_slice() {
            return ReadCheck::Wrong(format!("key {key}: foreign or corrupt value"));
        }
        match g {
            g if g == committed => ReadCheck::Current,
            g if g > committed && g <= self.issued[key as usize] => ReadCheck::Promoted(g),
            g => ReadCheck::Wrong(format!("key {key}: generation {g}, committed {committed}")),
        }
    }
}

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Wall-clock seconds of the pass (an open loop runs back to back:
    /// its arrivals are modeled, see [`timing`]).
    Seconds(f64),
    /// Exactly this many ops — how a traced pass replays an untraced one.
    Ops(u64),
}

/// Per-layer totals of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Op spans, summed.
    pub op_ns: u64,
    /// Op spans minus what transport and store spans cover.
    pub engine_ns: u64,
    /// Op time covered by transport `plan` spans.
    pub transport_ns: u64,
    /// Op time covered by shelf mutation spans.
    pub store_ns: u64,
    /// `plan` calls inside ops.
    pub plans: u64,
    /// Deliveries those calls planned.
    pub deliveries: u64,
    /// Shelf mutation verbs inside ops.
    pub store_calls: u64,
    /// Durations of `commit` calls, µs.
    pub commit_us: Vec<f64>,
    /// Shadow `DhNetwork::lookup` time, calls and hops.
    pub route_ns: u64,
    /// See [`Self::route_ns`].
    pub routes: u64,
    /// See [`Self::route_ns`].
    pub hops: u64,
    /// Shadow `encode` time, calls and user bytes encoded.
    pub encode_ns: u64,
    /// See [`Self::encode_ns`].
    pub encodes: u64,
    /// See [`Self::encode_ns`].
    pub encode_bytes: u64,
    /// Shadow `try_decode` time and calls.
    pub decode_ns: u64,
    /// See [`Self::decode_ns`].
    pub decodes: u64,
    /// `pump_repair` time.
    pub pump_ns: u64,
    /// Churn (`leave_over`/`join_over`) time.
    pub churn_ns: u64,
    /// All shadow work (outside every op span), wall time.
    pub shadow_ns: u64,
    /// Engine attempts, retries and stale deliveries (the last from
    /// `batch_over`'s merged `EngineStats` only).
    pub attempts: u64,
    /// See [`Self::attempts`].
    pub retries: u64,
    /// See [`Self::attempts`].
    pub stale: u64,
    /// WAL bytes appended during puts, and puts.
    pub wal_put_bytes: u64,
    /// See [`Self::wal_put_bytes`].
    pub puts: u64,
    /// `batch_over` at 2 threads vs 1 (batch workloads only).
    pub speedup_2v1: Option<f64>,
}

/// One timed unit of a pass: a sequential op (with the churn event
/// before it and the repair pump after it), or a whole batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step {
    /// Service time: a sequential op's thread CPU time over all its
    /// client tries; a batch's wall time.
    pub service_ns: u64,
    /// Thread CPU time of the churn event run just before the op.
    pub churn_ns: u64,
    /// Thread CPU time of the `pump_repair` call after the op.
    pub pump_ns: u64,
    /// The client's own CPU time since the previous step: generating
    /// the op (the batch), checking the last result.
    pub gap_ns: u64,
    /// Puts in the step.
    pub puts: u32,
    /// Gets in the step.
    pub gets: u32,
    /// Ops of the step that failed every client try.
    pub failed: u32,
}

impl Step {
    /// Time the store was busy with the step.
    pub fn busy_ns(&self) -> u64 {
        self.churn_ns + self.service_ns + self.pump_ns
    }
}

/// Everything one pass measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Foreground ops attempted.
    pub ops: u64,
    /// Every op (every batch) in order, with its times.
    pub steps: Vec<Step>,
    /// Virtual completion tick of each successful get.
    pub get_ticks: Vec<f64>,
    /// Ops that failed every client try: puts without a quorum plus
    /// gets without the committed value.
    pub fails: u64,
    /// Client tries (calls into the store for foreground ops), and the
    /// ones that failed — sheds included.
    pub tries: u64,
    /// See [`Self::tries`].
    pub failed_tries: u64,
    /// Correctness violations (wrong values, lost items, …).
    pub violations: Vec<String>,
    /// Fold of every op's outcome.
    pub digest: Digest,
    /// Foreground wire messages and bytes.
    pub msgs: u64,
    /// See [`Self::msgs`].
    pub bytes: u64,
    /// Pass wall time.
    pub wall_ns: u64,
    /// CPU time of all threads inside `batch_over` calls.
    pub batch_cpu_ns: u64,
    /// Value bytes written by puts, and WAL bytes appended meanwhile.
    pub user_bytes: u64,
    /// See [`Self::user_bytes`].
    pub wal_bytes: u64,
    /// Merged repair reports of every churn event.
    pub repair: RepairReport,
    /// Repair traffic priced by `pump_repair`/`flush_repair`.
    pub pump_msgs: u64,
    /// See [`Self::pump_msgs`].
    pub pump_bytes: u64,
    /// Largest repair backlog seen (frames).
    pub backlog_peak: usize,
    /// Churn events run.
    pub churn_events: u64,
    /// Per-layer totals (traced passes only).
    pub layers: Option<Layers>,
}

impl Pass {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
        self.digest.fold(0xBAD);
    }

    /// Record a read's check; returns whether it counts as a failure.
    fn read(&mut self, gen: &mut Gen, key: u64, got: Option<&[u8]>) -> bool {
        match gen.check(key, got) {
            ReadCheck::Current => false,
            ReadCheck::Promoted(g) => {
                gen.commit(key, g);
                true
            }
            ReadCheck::Missing => true,
            ReadCheck::Wrong(why) => {
                self.violation(why);
                true
            }
        }
    }

    /// Seconds the store was busy with the pass's steps.
    pub fn busy_s(&self) -> f64 {
        self.steps.iter().map(Step::busy_ns).sum::<u64>() as f64 / 1e9
    }
}

/// The latencies of a run: every step at the least of its times over
/// the run's passes of one op stream, put through the workload's loop.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Put and get latencies, µs — one sample per op, or per batch
    /// (a batch's ops all finish with it): from the call (closed loop)
    /// or from when the request was due (open loop).
    pub put_us: Vec<f64>,
    /// See [`Self::put_us`].
    pub get_us: Vec<f64>,
    /// Churn event durations, µs.
    pub churn_us: Vec<f64>,
    /// Open loop: how late each op started after it was due; closed
    /// loop: the client's own time before each call. µs.
    pub lag_us: Vec<f64>,
    /// Open loop: requests due and not started at each op start.
    pub backlog: Vec<u32>,
    /// Seconds the store was busy.
    pub busy_s: f64,
    /// Ops over the workload's latency limit, failed ops included.
    pub slo_miss: u64,
}

/// Combine passes that ran the same op stream: each step takes the
/// least of its times over the passes (host noise only ever adds
/// time), then the workload's loop turns them into latencies. A closed
/// loop's latency is the service time. An open loop is a single-server
/// queue on a modeled clock, like `e_slo`: requests arrive on the
/// fixed-rate schedule, the server is busy for each churn event, op
/// and repair pump, and `latency = completion − arrival` — a request
/// stuck behind a stall pays for it.
pub fn timing(p: &Params, passes: &[Pass]) -> Timing {
    let steps = passes.iter().map(|x| x.steps.len()).min().unwrap_or(0);
    let mut t = Timing::default();
    let (mut server, mut arrived, mut busy) = (0u64, 0u64, 0u64);
    for i in 0..steps {
        let least = |f: fn(&Step) -> u64| passes.iter().map(|x| f(&x.steps[i])).min().unwrap_or(0);
        let s = Step {
            service_ns: least(|s| s.service_ns),
            churn_ns: least(|s| s.churn_ns),
            pump_ns: least(|s| s.pump_ns),
            gap_ns: least(|s| s.gap_ns),
            ..passes[0].steps[i]
        };
        busy += s.busy_ns();
        if s.churn_ns > 0 {
            t.churn_us.push(s.churn_ns as f64 / 1e3);
        }
        let (latency, lag) = match p.due_offset(i as u64) {
            Some(arrival) => {
                let start = server.max(arrival) + s.churn_ns;
                while p.due_offset(arrived).is_some_and(|d| d <= start) {
                    arrived += 1;
                }
                t.backlog.push(arrived.saturating_sub(i as u64) as u32);
                server = start + s.service_ns;
                let done = server;
                server += s.pump_ns;
                (done - arrival, start - arrival)
            }
            None => (s.service_ns, s.gap_ns),
        };
        let us = latency as f64 / 1e3;
        t.lag_us.push(lag as f64 / 1e3);
        if s.puts > 0 {
            t.put_us.push(us);
        }
        if s.gets > 0 {
            t.get_us.push(us);
        }
        t.slo_miss += if us > p.slo_us {
            u64::from(s.puts + s.gets)
        } else {
            u64::from(s.failed)
        };
    }
    t.busy_s = busy as f64 / 1e9;
    t
}

/// A set-up store plus its transport and client.
pub struct Runner<S: Store, T: Net> {
    /// The workload.
    p: Params,
    seed: u64,
    /// The store under test.
    dht: ReplicatedDht<DistanceHalving, S>,
    /// Its transport (sequential workloads, preload, verification).
    net: T,
    gen: Gen,
    /// Timing spans of the current op, transport and store together.
    spans: Vec<Span>,
}

impl<S: Store, T: Net> Runner<S, T> {
    /// Build the network and the store, then preload every item at
    /// generation 0 — the part of a run `setup_s` times.
    pub fn setup(
        p: &Params,
        seed: u64,
        shelves: S,
        make_net: impl FnOnce(&[NodeId]) -> T,
    ) -> Result<Self, String> {
        let mut rng = seeded(subseed(seed, 0x5E7));
        let net = DhNetwork::new(&PointSet::random(p.n, &mut rng));
        let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
        dht.set_repair_pacing(p.churn().map(|c| c.pace));
        let net = make_net(dht.net.live());
        let mut r = Runner {
            p: p.clone(),
            seed,
            dht,
            net,
            gen: Gen::new(subseed(seed, 0x6E7), p.items, p.value_len),
            spans: Vec::new(),
        };
        let retry = p.retry();
        for key in 0..p.items as u64 {
            let value = Bytes::from(value_of(key, 0, p.value_len));
            let committed = (0..8).any(|attempt| {
                let from = r.dht.net.random_node(&mut rng);
                let seed = subseed(seed ^ 0x9E1, key * 8 + attempt);
                r.dht
                    .put_over(from, key, value.clone(), &mut r.net, seed, retry)
                    .0
                    .ok
            });
            if !committed {
                return Err(format!(
                    "preload of key {key} found no write quorum in 8 tries"
                ));
            }
        }
        r.clear_times();
        Ok(r)
    }

    /// Forget timings recorded outside an op span.
    fn clear_times(&mut self) {
        if let Some(t) = self.net.times() {
            *t = Default::default();
        }
        if let Some(t) = self.dht.shelves.times() {
            *t = Default::default();
        }
    }

    /// The shadow calls of one op, outside its span: the synchronous
    /// route, and the erasure work of the op's value. Callers cool the
    /// caches first, as before the op itself.
    fn shadow(
        &self,
        layers: &mut Layers,
        rng: &mut StdRng,
        from: NodeId,
        key: u64,
        put: Option<&Bytes>,
    ) {
        let start = now_ns();
        let route = self
            .dht
            .net
            .lookup(self.dht.kind, from, self.dht.hash.point(key), rng);
        let routed = now_ns();
        layers.route_ns += routed - start;
        layers.routes += 1;
        layers.hops += route.nodes.len().saturating_sub(1) as u64;
        match put {
            Some(value) => {
                let t = now_ns();
                black_box(encode(value, K as usize, M as usize));
                layers.encode_ns += now_ns() - t;
                layers.encodes += 1;
                layers.encode_bytes += value.len() as u64;
            }
            None => {
                if let Some(item) = self.dht.shelves.map().get(&key) {
                    let shares = item.shares_of(item.version);
                    if shares.len() >= K as usize {
                        let t = now_ns();
                        black_box(try_decode(&shares[..K as usize], K as usize).ok());
                        layers.decode_ns += now_ns() - t;
                        layers.decodes += 1;
                    }
                }
            }
        }
        layers.shadow_ns += now_ns() - start;
    }

    /// One churn event: leave on even events, join on odd ones.
    fn churn(&mut self, pass: &mut Pass, i: u64) {
        let seed = subseed(self.seed ^ 0xC4, i);
        let report = if pass.churn_events.is_multiple_of(2) {
            let victim = self.dht.net.random_node(&mut self.gen.rng);
            self.dht.leave_over(victim, &mut self.net, seed).1
        } else {
            let host = self.dht.net.random_node(&mut self.gen.rng);
            let x = Point(self.gen.rng.gen());
            let kind = self.dht.kind;
            match self
                .dht
                .join_over(host, x, kind, seed, &mut self.net, self.p.retry())
            {
                Some((_, _, report)) => report,
                None => RepairReport::default(),
            }
        };
        for v in [
            report.items_checked,
            report.shares_rebuilt,
            report.items_lost,
        ] {
            pass.digest.fold(v as u64);
        }
        pass.digest.fold(report.msgs);
        pass.repair.merge(&report);
        pass.churn_events += 1;
        pass.backlog_peak = pass.backlog_peak.max(self.dht.repair_backlog());
    }

    /// Run the workload's sequential op stream until `limit`, timing
    /// each op, churn event and repair pump on this thread's CPU clock
    /// (see [`crate::span`]); [`timing`] turns the times into latencies.
    pub fn run(&mut self, limit: Limit, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut layers = Layers::default();
        let mut shadow_rng = seeded(subseed(self.seed, 0x5AD0));
        let retry = self.p.retry();
        let churn = self.p.churn();
        let wall0 = now_ns();
        let mut ready = thread_cpu_ns();
        let mut i = 0u64;
        loop {
            let stop = match limit {
                Limit::Seconds(s) => (now_ns() - wall0) as f64 >= s * 1e9,
                Limit::Ops(n) => i >= n,
            };
            if stop {
                break;
            }
            let mut step = Step::default();
            if churn.is_some_and(|c| i % c.every as u64 == c.every as u64 - 1) {
                let (t, c) = (now_ns(), thread_cpu_ns());
                self.churn(&mut pass, i);
                layers.churn_ns += now_ns() - t;
                step.churn_ns = thread_cpu_ns() - c;
            }
            let key = self.gen.key();
            let from = self.dht.net.random_node(&mut self.gen.rng);
            let put = self.gen.is_put(self.p.put_pct).then(|| self.gen.issue(key));
            let wal = self.dht.shelves.wal_len();
            if traced {
                self.clear_times();
            }
            cool_caches();
            let c0 = thread_cpu_ns();
            step.gap_ns = (c0 - ready).saturating_sub(step.churn_ns);
            let t0 = now_ns();
            let mut tries = 0;
            let (out, got) = loop {
                let seed = subseed(self.seed ^ 0xF0, i * CLIENT_TRIES + tries);
                let (out, got) = match &put {
                    Some((_, value)) => (
                        self.dht
                            .put_over(from, key, value.clone(), &mut self.net, seed, retry)
                            .0,
                        None,
                    ),
                    None => self.dht.get_over(from, key, &mut self.net, seed, retry),
                };
                tries += 1;
                layers.attempts += u64::from(out.attempts);
                layers.retries += u64::from(out.attempts.saturating_sub(1));
                let done = if put.is_some() { out.ok } else { got.is_some() };
                if done || tries == CLIENT_TRIES {
                    break (out, got);
                }
                // a shed or quorum-less try: priced, folded, re-issued
                pass.tries += 1;
                pass.failed_tries += 1;
                pass.msgs += out.msgs;
                pass.bytes += out.bytes;
                pass.digest
                    .op(key, out.ok, out.msgs, out.bytes, out.completed_at, 0);
            };
            let t1 = now_ns();
            step.service_ns = thread_cpu_ns() - c0;
            if traced {
                // before the repair pump, so only the op's own calls count
                attribute(
                    Span::new(t0, t1),
                    &mut layers,
                    &mut self.spans,
                    [&mut self.net],
                    &mut self.dht.shelves,
                );
            }
            let wal_bytes = appended(wal, self.dht.shelves.wal_len());
            pass.wal_bytes += wal_bytes;
            let put_ref = put.as_ref().map(|(gen, value)| (*gen, value));
            let failed = self.record(&mut pass, key, out.ok, &out, put_ref, got.as_deref());
            step.failed = u32::from(failed);
            if put.is_some() {
                step.puts = 1;
            } else {
                step.gets = 1;
            }
            if churn.is_some() {
                let (t, c) = (now_ns(), thread_cpu_ns());
                let (m, b) = self
                    .dht
                    .pump_repair(&mut self.net, subseed(self.seed ^ 0xF2, i));
                layers.pump_ns += now_ns() - t;
                step.pump_ns = thread_cpu_ns() - c;
                pass.pump_msgs += m;
                pass.pump_bytes += b;
                pass.digest.fold(m);
                pass.backlog_peak = pass.backlog_peak.max(self.dht.repair_backlog());
            }
            if traced {
                if put.is_some() {
                    layers.puts += 1;
                    layers.wal_put_bytes += wal_bytes;
                }
                cool_caches();
                self.shadow(
                    &mut layers,
                    &mut shadow_rng,
                    from,
                    key,
                    put.as_ref().map(|p| &p.1),
                );
            }
            pass.steps.push(step);
            ready = thread_cpu_ns();
            i += 1;
        }
        pass.ops = i;
        pass.wall_ns = now_ns() - wall0;
        if traced {
            pass.layers = Some(layers);
        }
        pass
    }

    /// Score one op: wire cost, digest, and the check of a put (`ok`:
    /// committed) or a read (`got` against the last committed value).
    /// Returns whether the op failed.
    fn record(
        &mut self,
        pass: &mut Pass,
        key: u64,
        ok: bool,
        out: &OpOutcome,
        put: Option<(u32, &Bytes)>,
        got: Option<&[u8]>,
    ) -> bool {
        pass.msgs += out.msgs;
        pass.bytes += out.bytes;
        let value = put.map(|p| p.1.as_ref()).or(got).map_or(0, hash_bytes);
        pass.digest
            .op(key, ok, out.msgs, out.bytes, out.completed_at, value);
        let failed = match put {
            Some((gen, value)) => {
                pass.user_bytes += value.len() as u64;
                if ok {
                    self.gen.commit(key, gen);
                }
                !ok
            }
            None => {
                if let (true, Some(at)) = (got.is_some(), out.completed_at) {
                    pass.get_ticks.push(at as f64);
                }
                pass.read(&mut self.gen, key, got)
            }
        };
        pass.tries += 1;
        pass.failed_tries += u64::from(failed);
        pass.fails += u64::from(failed);
        failed
    }

    /// Drain the repair outbox, then check that no item was lost and
    /// that a sample of keys is quorum-readable at its committed value.
    pub fn verify(&mut self, pass: &mut Pass) {
        let (m, b) = self
            .dht
            .flush_repair(&mut self.net, subseed(self.seed, 0xF3));
        pass.pump_msgs += m;
        pass.pump_bytes += b;
        if pass.repair.items_lost > 0 {
            pass.violation(format!("{} items lost to churn", pass.repair.items_lost));
        }
        let mut rng = seeded(subseed(self.seed, 0x9E7));
        let retry = self.p.retry();
        for key in (0..self.p.items as u64).step_by((self.p.items / 64).max(1)) {
            // the same client retry budget as the op stream: a shed read
            // (majority-suspected clique) is not evidence of lost data
            let mut got = None;
            for attempt in 0..CLIENT_TRIES {
                let from = self.dht.net.random_node(&mut rng);
                let seed = subseed(self.seed ^ 0x9E7, key * CLIENT_TRIES + attempt);
                let (out, value) = self.dht.get_over(from, key, &mut self.net, seed, retry);
                pass.digest.op(
                    key,
                    out.ok,
                    out.msgs,
                    out.bytes,
                    out.completed_at,
                    value.as_deref().map_or(0, hash_bytes),
                );
                if value.is_some() {
                    got = value;
                    break;
                }
            }
            if pass.read(&mut self.gen, key, got.as_deref()) && got.is_none() {
                pass.violation(format!("key {key} not quorum-readable after flush_repair"));
            }
        }
    }
}

impl<S: Store + Sync, T: Net + Send> Runner<S, T> {
    /// Run `batch_over` batches until `limit` (counted in ops, whole
    /// batches). `shard_net(seed)` builds one shard's transport.
    pub fn run_batches(
        &mut self,
        limit: Limit,
        traced: bool,
        shard_net: &(dyn Fn(u64) -> T + Sync),
    ) -> Pass {
        let mut pass = Pass::default();
        let mut layers = Layers::default();
        let mut shadow_rng = seeded(subseed(self.seed, 0x5AD0));
        let start = now_ns();
        let mut b = 0u64;
        loop {
            let stop = match limit {
                Limit::Seconds(s) => (now_ns() - start) as f64 >= s * 1e9,
                Limit::Ops(n) => pass.ops >= n,
            };
            if stop {
                break;
            }
            self.batch(
                &mut pass,
                traced.then_some(&mut layers),
                &mut shadow_rng,
                b,
                shard_net,
            );
            b += 1;
        }
        pass.wall_ns = now_ns() - start;
        if traced {
            pass.layers = Some(layers);
        }
        pass
    }

    /// One batch of the workload's batch size; returns its wall time in
    /// ns, which is also its service time: every op of the batch
    /// finishes with it, so a batch is one latency sample, shared by
    /// its puts and its gets. The CPU time of all threads inside the
    /// call is summed into the pass as a cross-check (an uneven shard
    /// split or a blocked worker leaves it below twice the wall time).
    fn batch(
        &mut self,
        pass: &mut Pass,
        layers: Option<&mut Layers>,
        shadow_rng: &mut StdRng,
        b: u64,
        shard_net: &(dyn Fn(u64) -> T + Sync),
    ) -> u64 {
        let Kind::BatchPar { batch, shards } = self.p.kind else {
            panic!("{} is not a batch workload", self.p.name);
        };
        let due = thread_cpu_ns();
        let mut ops = Vec::with_capacity(batch);
        let mut gens = Vec::with_capacity(batch);
        for _ in 0..batch {
            let key = self.gen.key();
            let from = self.dht.net.random_node(&mut self.gen.rng);
            let action = if self.gen.is_put(self.p.put_pct) {
                let (gen, value) = self.gen.issue(key);
                gens.push(gen);
                ReplicaAction::Put { key, value }
            } else {
                gens.push(0);
                ReplicaAction::Get { key }
            };
            ops.push(ReplicaOp { from, action });
        }
        let gap_ns = thread_cpu_ns() - due;
        let seed = subseed(self.seed ^ 0xBA7, b);
        if layers.is_some() {
            self.clear_times();
        }
        cool_caches();
        let (c0, t0) = (process_cpu_ns(), now_ns());
        let (results, stats, mut nets) =
            batch_over(&mut self.dht, &ops, seed, self.p.retry(), shards, |s| {
                shard_net(subseed(seed, s as u64))
            });
        let (t1, c1) = (now_ns(), process_cpu_ns());
        pass.batch_cpu_ns += c1 - c0;
        let mut step = Step {
            service_ns: t1 - t0,
            gap_ns,
            ..Step::default()
        };
        pass.digest.fold(stats.retries);
        // gets see the pre-batch snapshot: check them before any of
        // the batch's puts count as committed
        for (op, r) in ops.iter().zip(&results) {
            if let ReplicaAction::Get { key } = op.action {
                let got = r.value.as_deref();
                step.gets += 1;
                step.failed += u32::from(self.record(pass, key, r.applied, &r.outcome, None, got));
            }
        }
        for ((op, r), &gen) in ops.iter().zip(&results).zip(&gens) {
            if let ReplicaAction::Put { key, ref value } = op.action {
                let put = Some((gen, value));
                step.puts += 1;
                step.failed += u32::from(self.record(pass, key, r.applied, &r.outcome, put, None));
            }
        }
        pass.ops += ops.len() as u64;
        pass.steps.push(step);
        if let Some(layers) = layers {
            attribute(
                Span::new(t0, t1),
                layers,
                &mut self.spans,
                &mut nets,
                &mut self.dht.shelves,
            );
            layers.retries += stats.retries;
            layers.stale += stats.stale;
            // once per batch, like the batch itself: its ops share warm caches
            cool_caches();
            for (op, r) in ops.iter().zip(&results) {
                layers.attempts += u64::from(r.outcome.attempts);
                let value = match &op.action {
                    ReplicaAction::Put { value, .. } => {
                        layers.puts += 1;
                        Some(value)
                    }
                    ReplicaAction::Get { .. } => None,
                };
                self.shadow(layers, shadow_rng, op.from, op.action.key(), value);
            }
        }
        t1 - t0
    }

    /// `batch_over` at 1 and at 2 worker threads, interleaved, on
    /// `rounds` batches each: median 1-thread time over median
    /// 2-thread time. Runs real batches, so every result is checked.
    pub fn speedup_2v1(
        &mut self,
        pass: &mut Pass,
        rounds: u64,
        shard_net: &(dyn Fn(u64) -> T + Sync),
    ) -> f64 {
        let mut rng = seeded(subseed(self.seed, 0x5EED));
        let mut times = [Vec::new(), Vec::new()];
        for r in 0..rounds {
            for (slot, threads) in [(0, 1), (1, 2)] {
                rayon::set_num_threads(threads);
                let ns = self.batch(
                    pass,
                    None,
                    &mut rng,
                    1 << 20 | r << 1 | slot as u64,
                    shard_net,
                );
                times[slot].push(ns as f64);
            }
        }
        rayon::set_num_threads(THREADS);
        let mut med = times.map(|mut t| crate::stats::Summary::of(&mut t).p50);
        med[1] = med[1].max(1.0);
        med[0] / med[1]
    }
}

/// Attribute the spans the wrappers recorded since their last drain to
/// the op (or batch) that ran over `op`, and drain them: transport and
/// store get the part of `op` their spans cover, the engine the rest.
fn attribute<'a, T: Net + 'a>(
    op: Span,
    layers: &mut Layers,
    spans: &mut Vec<Span>,
    nets: impl IntoIterator<Item = &'a mut T>,
    store: &mut impl Store,
) {
    spans.clear();
    for net in nets {
        if let Some(t) = net.times() {
            layers.plans += t.plans;
            layers.deliveries += t.deliveries;
            spans.append(&mut t.spans);
            *t = Default::default();
        }
    }
    layers.transport_ns += covered(spans, op);
    if let Some(t) = store.times() {
        layers.store_ns += covered(&mut t.spans, op);
        layers.store_calls += t.calls;
        layers
            .commit_us
            .extend(t.commit_ns.iter().map(|&ns| ns as f64 / 1e3));
        spans.append(&mut t.spans);
        *t = Default::default();
    }
    layers.op_ns += op.len();
    layers.engine_ns += self_time(op, spans);
}

/// Bytes [`cool_caches`] streams through: twice a core's L2.
pub const COOL_BYTES: usize = 4 << 20;

/// Stream through [`COOL_BYTES`] of the benchmark's own memory, so the
/// timed call that follows starts with this core's caches holding none
/// of the store's data.
///
/// Every timed op and batch (and, traced, the shadow calls of each op
/// or batch) starts from cold caches. That is the common case for a
/// server whose cores serve many independent clients between two
/// requests for one item, and the one a shared machine reproduces: on
/// a 2-vCPU share of a Xeon host, other tenants evicted a warm working
/// set at will, and in runs alternating warm and cold on the same
/// seeds the run-to-run spread of the cold medians was about half that
/// of the warm ones.
fn cool_caches() {
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| vec![1; COOL_BYTES / 8]);
    // one read per 64-byte line
    black_box(buf.iter().step_by(8).fold(0u64, |s, &x| s.wrapping_add(x)));
}

/// WAL bytes written between two `wal_len` probes; a shrink means a
/// compaction rewrote the log, which wrote the new length.
fn appended(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(service_us: u64, put: bool) -> Step {
        Step {
            service_ns: service_us * 1_000,
            puts: u32::from(put),
            gets: u32::from(!put),
            ..Step::default()
        }
    }

    fn pass(steps: Vec<Step>) -> Pass {
        Pass {
            ops: steps.len() as u64,
            steps,
            ..Pass::default()
        }
    }

    #[test]
    fn each_step_takes_its_least_time_over_the_passes() {
        let p = by_name("kv-small").expect("a workload");
        let a = pass(vec![step(10, true), step(30, false), step(300, false)]);
        let b = pass(vec![step(20, true), step(25, false), step(300, false)]);
        let t = timing(&p, &[a, b]);
        assert_eq!(t.put_us, [10.0]);
        assert_eq!(t.get_us, [25.0, 300.0]);
        assert!((t.busy_s - 335e-6).abs() < 1e-12);
        assert_eq!(t.slo_miss, 1, "300 us is over kv-small's 250 us limit");
        assert!(t.backlog.is_empty(), "a closed loop has no queue");
    }

    #[test]
    fn a_batch_is_one_sample_for_each_verb_it_holds() {
        let p = by_name("batch-par").expect("a workload");
        let mixed = Step {
            service_ns: 150_000_000,
            puts: 300,
            gets: 700,
            failed: 2,
            ..Step::default()
        };
        let gets_only = Step {
            service_ns: 5_000_000,
            gets: 1_000,
            failed: 3,
            ..Step::default()
        };
        let t = timing(&p, &[pass(vec![mixed, gets_only])]);
        assert_eq!(t.put_us, [150_000.0]);
        assert_eq!(t.get_us, [150_000.0, 5_000.0]);
        // over the limit: every op of the batch misses; under it, the failed ones
        assert_eq!(t.slo_miss, 1_000 + 3);
    }

    #[test]
    fn open_loop_arrivals_keep_the_fixed_rate_and_burst_shape() {
        let p = by_name("churn-grey-open").expect("a workload");
        let due = |i| p.due_offset(i).expect("an open loop") as f64;
        let cycle = BURST_EVERY as u64;
        // the last BURST arrivals of a cycle share one instant
        assert_eq!(due(cycle - BURST as u64), due(cycle - 1));
        assert!(due(cycle - BURST as u64 - 1) < due(cycle - BURST as u64));
        // a whole cycle lasts as long as BURST_EVERY arrivals at the rate
        let want = 1e9 * BURST_EVERY as f64 / OPEN_RATE;
        assert!((due(10 * cycle) / 10.0 - want).abs() < 1e-3 * want);
        assert_eq!(by_name("kv-small").expect("a workload").due_offset(5), None);
    }

    #[test]
    fn an_open_loop_request_waits_for_the_server_and_its_stalls() {
        let p = by_name("churn-grey-open").expect("a workload");
        let iv = p.due_offset(1).expect("an open loop");
        let first = Step {
            service_ns: iv / 2,
            pump_ns: iv,
            ..step(0, false)
        };
        let second = Step {
            service_ns: iv / 2,
            churn_ns: iv,
            ..step(0, true)
        };
        let t = timing(&p, &[pass(vec![first, second])]);
        let h = iv / 2;
        // op 0 arrives at 0 and is served at once, until h
        assert_eq!(t.get_us, [h as f64 / 1e3]);
        // op 1 arrives at iv; the server is free at h + iv (op 0's
        // pump), runs the churn event until h + 2 iv, then op 1
        assert_eq!(t.put_us, [(2 * h + iv) as f64 / 1e3]);
        assert_eq!(t.lag_us, [0.0, (h + iv) as f64 / 1e3]);
        // due by h + 2 iv: ops 0, 1 and 2 — op 1 and one behind it
        assert_eq!(t.backlog, [1, 2]);
        assert_eq!(t.churn_us, [iv as f64 / 1e3]);
    }
}
