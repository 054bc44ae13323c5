//! The repository's benchmark: end-to-end host throughput of the HALO
//! simulator on three workloads, and a traced run that splits host
//! time across the simulator's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline_zipf|acl_halo_nb|stream_churn_epoch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its workload from `--seed` alone, checks every
//! classification against a reference kept in this crate, prints a
//! header and one line per metric, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones, from spans recorded around
//! every call into a layer (see `METRICS.md`).

mod acl;
mod harness;
mod pipeline;
mod spans;
mod stream;
#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::process::ExitCode;

use halo_sim::ParallelismReport;

use crate::harness::{median, quantile, run_traced, run_untraced, Workload};
use crate::spans::Layer;

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["pipeline_zipf", "acl_halo_nb", "stream_churn_epoch"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_pkts_per_kcy", "pkts/kcyc"),
    ("sim_p50_cyc", "cyc"),
    ("sim_p99_cyc", "cyc"),
];

/// Per-layer metrics reported by a workload itself: name and unit.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("nf.gen_ns_per_event", "ns"),
    ("vswitch.ns_per_pkt", "ns"),
    ("vswitch.emc_hit_ratio", "ratio"),
    ("vswitch.phase_cyc.io", "cyc/pkt"),
    ("vswitch.phase_cyc.preproc", "cyc/pkt"),
    ("vswitch.phase_cyc.emc", "cyc/pkt"),
    ("vswitch.phase_cyc.megaflow", "cyc/pkt"),
    ("vswitch.phase_cyc.other", "cyc/pkt"),
    ("vswitch.windows", "count"),
    ("vswitch.pkts_per_window", "pkts"),
    ("vswitch.window_ns", "ns"),
    ("classify.emc_lookup_ns", "ns"),
    ("datapath.walk_ns", "ns"),
    ("datapath.probes_per_lookup", "count"),
    ("datapath.insert_ns", "ns"),
    ("datapath.remove_ns", "ns"),
    ("cpu.prog_build_ns", "ns"),
    ("cpu.run_self_ns", "ns"),
    ("cpu.uops_per_pkt", "count"),
    ("mem.access_ns", "ns"),
    ("mem.accesses_per_pkt", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.llc_hit_ratio", "ratio"),
    ("mem.dram_per_pkt", "count"),
    ("mem.epoch_split_ns", "ns"),
    ("mem.epoch_merge_ns", "ns"),
    ("accel.dispatch_ns", "ns"),
    ("accel.dispatches_per_lookup", "count"),
    ("accel.snapshot_reads_per_lookup", "count"),
    ("vswitch.threads2_rate_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metric names: the workload-reported ones, then one
/// `self_pct.<layer>` per span layer and `self_pct.remainder`, which
/// together add up to 100% of the traced wall time.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    for l in Layer::ALL {
        v.push((format!("self_pct.{}", l.name()), "%"));
    }
    v.push(("self_pct.remainder".to_string(), "%"));
    v
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present");
    kib / 1024.0
}

/// A run's printable result.
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

/// Prints the output header, then runs `w`.
fn run_workload<W: Workload>(w: &W, args: &Args) -> Output {
    let par = ParallelismReport::capture(w.threads());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host parallelism {} cores, {} threads used (observed {}); \
         compare runs only from the same host",
        par.host, par.jobs, par.observed
    );
    println!("# every workload warms its tables into the LLC before timing");
    if args.trace {
        return traced(w, args);
    }
    let u = run_untraced(w, args.seed, args.seconds);
    let sim_ops: u64 = u.sim.iter().map(|r| r.ops).sum();
    let sim_cycles: u64 = u.sim.iter().map(|r| r.cycles).sum();
    let metrics = vec![
        ("pkts_per_s".to_string(), median(&u.rates), "1/s"),
        ("setup_s".to_string(), median(&u.setup_s), "s"),
        ("peak_rss_mib".to_string(), peak_rss_mib(), "MiB"),
        (
            "sim_pkts_per_kcy".to_string(),
            1000.0 * sim_ops as f64 / sim_cycles.max(1) as f64,
            "pkts/kcyc",
        ),
        ("sim_p50_cyc".to_string(), quantile(&u.gaps, 0.50), "cyc"),
        ("sim_p99_cyc".to_string(), quantile(&u.gaps, 0.99), "cyc"),
    ];
    let mut rates = u.rates.clone();
    rates.sort_by(f64::total_cmp);
    let q = |p: f64| rates[(p * (rates.len() - 1) as f64).round() as usize];
    let mut notes = vec![
        format!(
            "rounds {}: per-round rate min {:.0} p25 {:.0} median {:.0} p75 {:.0} max {:.0}",
            rates.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
        ),
        format!("setups (warm-up included), seconds: {:?}", u.setup_s),
        format!(
            "sim_* from the first {} timed rounds: {sim_ops} classifications, {sim_cycles} cycles, \
             {} latency samples",
            u.sim.len(),
            u.gaps.len()
        ),
        format!(
            "error_rate {} ({} failed of {} attempted)",
            u.tally.failed as f64 / u.tally.attempted.max(1) as f64,
            u.tally.failed,
            u.tally.attempted
        ),
    ];
    if !u.identical {
        notes.push("REBUILT PATH DIVERGED from the library path's simulated statistics".into());
    }
    Output {
        correct: u.tally.failed == 0 && u.identical,
        attempted: u.tally.attempted,
        failed: u.tally.failed,
        metrics,
        notes,
    }
}

fn traced<W: Workload>(w: &W, args: &Args) -> Output {
    let t = run_traced(w, args.seed, args.seconds);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let untraced = median(&t.untraced);
    let traced_rate = median(&t.traced);
    for (name, unit) in per_layer_names() {
        let v = if name == "trace.overhead_pct" {
            100.0 * (untraced / traced_rate.max(f64::MIN_POSITIVE) - 1.0)
        } else if let Some(l) = name.strip_prefix("self_pct.") {
            let ns = Layer::ALL.iter().find(|x| x.name() == l).map_or_else(
                || t.wall_ns.saturating_sub(t.spans.totals.top_ns),
                |x| t.spans.self_ns(*x),
            );
            100.0 * ns as f64 / t.wall_ns.max(1) as f64
        } else {
            t.per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        metrics.push((name, v, unit));
    }
    let header = format!("workload {} seed {} trace 1", args.workload, args.seed);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.spans.to_json(&header, t.wall_ns)));
    let mut notes = vec![
        format!(
            "traced rounds {}: traced {traced_rate:.1}/s vs untraced {untraced:.1}/s",
            t.traced.len()
        ),
        format!(
            "self times + remainder = traced wall {} ns (spans cover {} ns)",
            t.wall_ns, t.spans.totals.top_ns
        ),
        match written {
            Ok(()) => format!("spans written to {path}"),
            Err(e) => format!("spans not written: {e}"),
        },
    ];
    if !t.identical {
        notes.push("TRACED PATH DIVERGED from the library path's simulated statistics".into());
    }
    Output {
        correct: t.tally.failed == 0 && t.identical,
        attempted: t.tally.attempted,
        failed: t.tally.failed,
        metrics,
        notes,
    }
}

/// A JSON number: finite values as Rust prints them (all digits), 0
/// otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "pipeline_zipf" => run_workload(&pipeline::PipelineZipf::FULL, &args),
        "acl_halo_nb" => run_workload(&acl::AclHaloNb::FULL, &args),
        _ => run_workload(&stream::StreamChurnEpoch::FULL, &args),
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for (name, v, unit) in &out.metrics {
        println!("# {name} = {} {unit}", num(*v));
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, v, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
