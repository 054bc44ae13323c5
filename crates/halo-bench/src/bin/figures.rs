//! Regenerates the HALO paper's tables and figures.
//!
//! ```text
//! figures [--full] [--quick] [--jobs N] [fig3|fig4|table1|fig8b|fig9|fig10|fig11|fig12|table4|fig13|scaling|scale|extensions|ablation|ablation-backends|ablation-wildcard|bench-parallel|trace|all]
//! ```
//!
//! By default experiments run in "quick" mode (reduced sweep sizes,
//! identical shapes); pass `--full` for the paper-scale sweeps.
//!
//! Independent sweep points fan out over worker threads: `--jobs N`
//! (or the `HALO_JOBS` environment variable) sets the worker count,
//! defaulting to the host's available parallelism. Results are merged
//! in point order, so stdout is byte-identical at any jobs level;
//! progress and timing go to stderr.
//!
//! `figures bench-parallel [--quick]` times the epoch-parallel
//! executor (`MultiCoreDatapath::run_parallel_with`) at threads=1 vs
//! threads=N per simulated core count, checks byte-identity, and
//! writes `BENCH_parallel.json`.
//!
//! `figures trace [--quick]` runs a mixed classification workload with
//! the tracing sink enabled, prints per-op-class latency percentiles,
//! and writes `TRACE_halo.json` — a Chrome trace-event document
//! loadable in `chrome://tracing` or Perfetto.

#![deny(unsafe_code)]

use halo_bench::experiments as ex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;
    let mut jobs_flag: Option<usize> = None;
    let mut which: Vec<&str> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let v = it.next().and_then(|v| v.parse().ok());
            let Some(n) = v else {
                eprintln!("error: --jobs needs a positive integer");
                std::process::exit(2);
            };
            jobs_flag = Some(n);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            let Ok(n) = v.parse() else {
                eprintln!("error: --jobs needs a positive integer");
                std::process::exit(2);
            };
            jobs_flag = Some(n);
        } else if !a.starts_with("--") {
            which.push(a.as_str());
        }
    }
    if let Some(n) = jobs_flag {
        // The experiment modules read HALO_JOBS when building their
        // runners; the flag is just a friendlier spelling of it. Set
        // before any sweep spawns (single-threaded here, hence safe).
        std::env::set_var(halo_sim::JOBS_ENV, n.max(1).to_string());
    }
    const KNOWN: [&str; 18] = [
        "bench-parallel",
        "trace",
        "all",
        "table1",
        "fig3",
        "fig4",
        "fig8b",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "table4",
        "fig13",
        "scaling",
        "scale",
        "ablation-backends",
        "ablation-wildcard",
        "extensions",
    ];
    let known_with_ablation = |n: &str| n == "ablation" || KNOWN.contains(&n);
    if let Some(bad) = which.iter().find(|n| !known_with_ablation(n)) {
        eprintln!("error: unknown experiment '{bad}'");
        eprintln!(
            "usage: figures [--full] [--jobs N] [{} | ablation]...",
            KNOWN.join(" | ")
        );
        std::process::exit(2);
    }
    if which.contains(&"trace") {
        let quick = args.iter().any(|a| a == "--quick");
        eprintln!(
            "trace: capturing spans from a mixed workload ({} mode)...",
            if quick { "quick" } else { "full" }
        );
        let cap = halo_bench::trace_bench::run(quick);
        eprintln!(
            "  {} spans from components: {}",
            cap.spans,
            cap.components.join(", ")
        );
        std::fs::write("TRACE_halo.json", &cap.chrome_json).expect("write TRACE_halo.json");
        println!("{}", cap.summary);
        if which.len() == 1 {
            return;
        }
    }
    if which.contains(&"bench-parallel") {
        let quick = args.iter().any(|a| a == "--quick");
        // Simulated cores fan out over real threads; cap at 4 so the
        // recorded configuration matches what a typical CI runner can
        // actually overlap, floor at 2 so even single-core hosts
        // exercise the cross-thread determinism path.
        let threads = halo_sim::default_jobs().clamp(2, 4);
        eprintln!(
            "bench-parallel: epoch executor threads=1 vs threads={threads} ({} mode)...",
            if quick { "quick" } else { "full" }
        );
        let rows = halo_bench::parallel_bench::run(quick, threads);
        for r in &rows {
            eprintln!(
                "  {} cores: {} packets, {:.2}s -> {:.2}s ({:.2}x), identical: {}",
                r.cores,
                r.packets,
                r.sequential_s,
                r.parallel_s,
                r.speedup(),
                r.identical
            );
            assert!(
                r.identical,
                "{} cores: parallel run diverged from threads=1",
                r.cores
            );
        }
        // The acceptance bar: an 8-simulated-core run at threads=4
        // must beat 1.5x — but only where the host can actually run 4
        // threads side by side (single-core runners skip with a note).
        let p = halo_sim::ParallelismReport::capture(threads);
        if p.can_assert_speedup(4) && threads >= 4 {
            let eight = rows
                .iter()
                .find(|r| r.cores == 8)
                .expect("core counts include 8");
            assert!(
                eight.speedup() >= 1.5,
                "host offers {} cores but the 8-core simulation sped up only {:.2}x at \
                 threads={threads}",
                p.host,
                eight.speedup()
            );
        } else {
            eprintln!("bench-parallel: {}", p.skip_note());
        }
        let json = halo_bench::parallel_bench::to_json(&rows, quick, threads);
        std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
        println!("{json}");
        if which.len() == 1 {
            return;
        }
    }
    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    if want("table1") {
        println!("## Table 1 — instructions per software lookup\n");
        println!("{}", ex::table1::table());
    }
    if want("fig3") {
        println!("## Fig. 3 — packet-processing breakdown (cycles/packet)\n");
        println!("{}", ex::fig3::table(&ex::fig3::run(quick)));
    }
    if want("fig4") {
        println!("## Fig. 4 — cuckoo vs SFH cache behaviour\n");
        println!("{}", ex::fig4::table(&ex::fig4::run(quick)));
    }
    if want("fig8b") {
        println!("## Fig. 8b — flow-register accuracy\n");
        println!("{}", ex::fig8b::table(&ex::fig8b::run()));
    }
    if want("fig9") {
        println!("## Fig. 9 — single-table lookup throughput (lookups/kilocycle)\n");
        println!("{}", ex::fig9::table(&ex::fig9::run(quick)));
    }
    if want("fig10") {
        println!("## Fig. 10 — lookup latency breakdown\n");
        println!("{}", ex::fig10::table(&ex::fig10::run()));
    }
    if want("fig11") {
        println!("## Fig. 11 — tuple space search scaling\n");
        println!("{}", ex::fig11::table(&ex::fig11::run(quick)));
    }
    if want("fig12") {
        println!("## Fig. 12 — co-located NF interference\n");
        println!("{}", ex::fig12::table(&ex::fig12::run(quick)));
    }
    if want("table4") {
        println!("## Table 4 — power/area and energy efficiency\n");
        println!("{}", ex::table4::table(&ex::table4::run(quick)));
    }
    if want("fig13") {
        println!("## Fig. 13 — hash-table NF speedups with HALO\n");
        println!("{}", ex::fig13::table(&ex::fig13::run(quick)));
    }
    if want("scaling") {
        println!("## Scaling — multi-core datapath throughput\n");
        println!("{}", ex::scaling::table(&ex::scaling::run(quick)));
    }
    if want("scale") {
        let rows = ex::scale::run(quick);
        println!("## Scale — adversarial streaming workloads vs flow count\n");
        println!("{}", ex::scale::table(&rows));
        let json = ex::scale::to_json(&rows, quick, halo_sim::default_jobs());
        std::fs::write("SCALE_flows.json", &json).expect("write SCALE_flows.json");
    }
    if want("ablation-backends") {
        let cells = ex::ablation_backends::run(quick);
        println!("## Ablation — exact-match backend x lookup strategy\n");
        println!("{}", ex::ablation_backends::table(&cells));
        let json = ex::ablation_backends::to_json(&cells, quick);
        std::fs::write("ABLATION_backends.json", &json).expect("write ABLATION_backends.json");
    }
    if want("ablation-wildcard") {
        let cells = ex::ablation_wildcard::run(quick);
        println!("## Ablation — wildcard backend x ruleset shape x lookup strategy\n");
        println!("{}", ex::ablation_wildcard::table(&cells));
        let json = ex::ablation_wildcard::to_json(&cells, quick);
        std::fs::write("ABLATION_wildcard.json", &json).expect("write ABLATION_wildcard.json");
    }
    if want("extensions") {
        println!(
            "## Extension (§4.8) — tree-index lookup\n{}",
            ex::extensions::tree_lookup()
        );
        println!(
            "## Extension (§4.8) — MemC3-style key-value GETs\n{}",
            ex::extensions::kv_gets()
        );
        println!(
            "## Extension — update cost: cuckoo vs TCAM\n{}",
            ex::extensions::update_cost()
        );
    }
    if want("ablation") {
        println!(
            "## Ablation — metadata cache\n{}",
            ex::ablation::metadata_cache()
        );
        println!(
            "## Ablation — scoreboard depth\n{}",
            ex::ablation::scoreboard_depth()
        );
        println!(
            "## Ablation — dispatch policy\n{}",
            ex::ablation::dispatch_policy()
        );
        println!("## Ablation — locking\n{}", ex::ablation::locking());
        println!(
            "## Ablation — bulk software vs HALO\n{}",
            ex::ablation::bulk_software()
        );
        println!(
            "## Ablation — hybrid threshold\n{}",
            ex::ablation::hybrid_threshold()
        );
        println!(
            "## Ablation — hybrid controller in action\n{}",
            ex::ablation::hybrid_in_action()
        );
    }
}
