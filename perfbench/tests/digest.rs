//! The traced run must time the same program the untraced run does:
//! on a tiny network, every workload's traced replay folds the same
//! digest as its untraced pass, and every result checks out.

use perfbench::run::measure;
use perfbench::workload::{workloads, Kind, Params};
use std::path::PathBuf;

fn tiny(p: &Params) -> Params {
    let kind = match p.kind {
        Kind::BatchPar { batch, shards } => Kind::BatchPar {
            batch: batch.min(64),
            shards,
        },
        kind => kind,
    };
    Params {
        kind,
        n: 64,
        items: 40,
        ..p.clone()
    }
}

fn tmp() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-digest")
}

#[test]
fn traced_and_untraced_passes_fold_the_same_digest() {
    for p in workloads().iter().map(tiny) {
        let o = measure(&p, 7, 0.2, true, &tmp()).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let traced = o.traced.as_ref().expect("a traced run");
        assert!(o.plain().ops > 0, "{}: no ops ran", p.name);
        assert_eq!(
            traced.ops,
            o.plain().ops,
            "{}: the replay must run the same ops",
            p.name
        );
        assert_eq!(
            traced.digest,
            o.plain().digest,
            "{}: traced run diverged",
            p.name
        );
        assert_eq!(o.violations(), Vec::<String>::new(), "{}", p.name);
        let layers = traced.layers.as_ref().expect("traced layers");
        assert!(
            layers.plans > 0 && layers.transport_ns > 0,
            "{}: transport not timed",
            p.name
        );
        assert!(layers.store_calls > 0, "{}: shelves not timed", p.name);
        assert!(
            layers.op_ns >= layers.engine_ns + layers.transport_ns.max(layers.store_ns),
            "{}",
            p.name
        );
    }
}

#[test]
fn the_digest_depends_on_the_seed() {
    let p = tiny(&workloads()[0]);
    let a = measure(&p, 1, 0.1, true, &tmp()).expect("seed 1");
    let b = measure(&p, 2, 0.1, true, &tmp()).expect("seed 2");
    assert_ne!(a.plain().digest, b.plain().digest);
}

#[test]
fn untraced_replays_fold_the_same_digest_and_share_one_timing() {
    for p in workloads().iter().map(tiny) {
        let o = measure(&p, 3, 0.3, false, &tmp()).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert_eq!(o.passes.len(), p.passes, "{}", p.name);
        assert_eq!(o.setup_s.len(), p.passes, "{}", p.name);
        assert_eq!(o.violations(), Vec::<String>::new(), "{}", p.name);
        let steps = o.plain().steps.len();
        assert!(steps > 0, "{}: no ops ran", p.name);
        let samples = o.timing.put_us.len() + o.timing.get_us.len();
        match p.kind {
            // one sample per batch for each verb the batch holds
            Kind::BatchPar { .. } => assert!(samples >= steps && samples <= 2 * steps),
            _ => assert_eq!(samples as u64, o.plain().ops, "{}", p.name),
        }
    }
}
