//! Critpath smoke: reconstruct the cross-rank critical path of the
//! 4-rank coupled run, then rerun with an injected straggler and show
//! the profiler pinning the blame — the paper's slowest-rank argument
//! (§5) made causal on a live run.
//!
//! ```sh
//! cargo run --release --example critpath_smoke
//! ```
//!
//! Prints the critical-path report (per-step table, hop chain, per-rank
//! slack, straggler attribution, wait-vs-wire decomposition) plus the
//! model-vs-path residuals, and exits non-zero if the injected straggler
//! is misattributed. Artifacts land in `target/critpath/` — load the
//! Chrome trace in Perfetto to see the flow arrows between ranks.

use hyades::tour::{Straggler, TourConfig};
use std::fs;
use std::path::Path;

fn main() {
    let seed = 7;
    println!("reconstructing the balanced run's critical path (seed {seed})...\n");
    let base = TourConfig::new(seed).run_coupled().critpath;
    println!("{}", base.report);
    println!("{}", base.slack_report);
    println!(
        "max |path vs model residual| = {:.4} (budget 2.0)\n",
        base.max_step_residual
    );

    let straggler = Straggler {
        rank: 2,
        extra_flops: 50_000_000,
    };
    println!(
        "injecting a straggler: rank {} + {} Mflop of PS compute per step...\n",
        straggler.rank,
        straggler.extra_flops / 1_000_000
    );
    let perturbed = TourConfig::new(seed)
        .straggler(straggler)
        .run_coupled()
        .critpath;
    println!("{}", perturbed.report);

    let dir = Path::new("target/critpath");
    fs::create_dir_all(dir).expect("create target/critpath");
    fs::write(dir.join("critpath.txt"), &base.report).expect("write report");
    fs::write(dir.join("critpath.json"), &base.json).expect("write json");
    fs::write(dir.join("critpath_trace.json"), &base.chrome_json).expect("write trace");
    fs::write(dir.join("critpath_straggler.txt"), &perturbed.report)
        .expect("write straggler report");
    println!(
        "wrote target/critpath/critpath.{{txt,json}}, critpath_trace.json, \
         critpath_straggler.txt"
    );

    match perturbed.blame {
        Some((rank, _)) if rank == straggler.rank => {
            println!("straggler attribution: rank {rank} -- correct");
        }
        other => {
            eprintln!(
                "straggler attribution FAILED: expected rank {}, got {other:?}",
                straggler.rank
            );
            std::process::exit(1);
        }
    }
}
