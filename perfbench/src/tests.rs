//! Determinism self-checks at small sizes: simulated statistics and
//! error counts repeat exactly across runs, across thread counts, and
//! between the library path and the traced rebuilt path.

use crate::acl::AclHaloNb;
use crate::harness::{Round, Runner, Workload};
use crate::pipeline::PipelineZipf;
use crate::spans::Spans;
use crate::stream::StreamChurnEpoch;
use crate::{per_layer_names, END_TO_END, WORKLOADS};

const PIPELINE: PipelineZipf = PipelineZipf {
    flows: 64,
    masks: 5,
    round_pkts: 128,
};
const ACL: AclHaloNb = AclHaloNb {
    rules: 48,
    capacity: 1 << 10,
    hit: 0.7,
    update_every: 8,
    round_lookups: 64,
};
const STREAM: StreamChurnEpoch = StreamChurnEpoch {
    flows: 512,
    pmds: 4,
    tuples: 8,
    threads: 2,
    round_events: 512,
};

const SEED: u64 = 7;
const ROUNDS: usize = 3;

/// Everything simulated about a round: what must repeat exactly.
fn sim(r: &Round) -> (u64, u64, u64, u64, Vec<u64>, Vec<u64>) {
    (
        r.ops,
        r.attempted,
        r.failed,
        r.cycles,
        r.gaps.clone(),
        r.fingerprint.clone(),
    )
}

fn rounds(runner: &mut impl Runner, traced: bool) -> Vec<Round> {
    let mut spans = Spans::new(traced);
    (0..ROUNDS).map(|_| runner.round(&mut spans)).collect()
}

fn plain_twice<W: Workload>(w: &W) -> Vec<Round> {
    let a = rounds(&mut w.setup_plain(SEED), false);
    let b = rounds(&mut w.setup_plain(SEED), false);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(sim(x), sim(y), "a rerun changed the simulated statistics");
        assert_eq!(x.failed, 0, "reference check failed");
        assert!(x.ops > 0 && x.cycles > 0);
    }
    a
}

fn traced_matches_plain<W: Workload>(w: &W, plain: &[Round]) {
    let traced = rounds(&mut w.setup_rebuilt(SEED), true);
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.fingerprint, t.fingerprint, "traced path diverged");
        assert_eq!(p.cycles, t.cycles);
        assert_eq!(
            (p.ops, p.attempted, p.failed),
            (t.ops, t.attempted, t.failed)
        );
        if !p.gaps.is_empty() {
            assert_eq!(p.gaps, t.gaps);
        }
    }
}

#[test]
fn pipeline_zipf_repeats_and_traces_exactly() {
    let plain = plain_twice(&PIPELINE);
    traced_matches_plain(&PIPELINE, &plain);
}

#[test]
fn acl_halo_nb_repeats_and_traces_exactly() {
    let plain = plain_twice(&ACL);
    traced_matches_plain(&ACL, &plain);
}

#[test]
fn stream_churn_epoch_repeats_and_traces_exactly() {
    let plain = plain_twice(&STREAM);
    traced_matches_plain(&STREAM, &plain);
}

/// The benchmark runs the epoch runner on one thread and contrasts it
/// with two; both must simulate the same thing.
#[test]
fn stream_churn_epoch_is_identical_at_one_and_two_threads() {
    let one = StreamChurnEpoch {
        threads: 1,
        ..STREAM
    };
    let a = rounds(&mut one.setup_plain(SEED), false);
    let b = rounds(&mut STREAM.setup_plain(SEED), false);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            sim(x),
            sim(y),
            "thread count changed the simulated statistics"
        );
    }
}

/// `BENCHMARK.json` names exactly the workloads and metrics this
/// benchmark prints.
#[test]
fn benchmark_json_matches_the_benchmark() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let names: Vec<String> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect();
    let mut expected: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    expected.extend(per_layer_names().into_iter().map(|(n, _)| n));
    assert_eq!(names, expected);
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} must have unit {unit}"
        );
    }
}
