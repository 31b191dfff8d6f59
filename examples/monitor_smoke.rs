//! Monitor smoke: a short coupled atmosphere–ocean run with per-timestep
//! diagnostics on and the blowup sentinel armed — the unattended-run
//! health check behind the paper's century-in-two-weeks argument (§6).
//!
//! ```sh
//! cargo run --release --example monitor_smoke
//! ```
//!
//! Prints both components' diagnostics tables (budgets, CFL indicators,
//! per-field extremes with owning rank/level, CG convergence) and exits
//! non-zero if the sentinel tripped. Artifacts land in `target/diag/`.

use hyades::tour::TourConfig;
use std::fs;
use std::path::Path;

fn main() {
    let seed = 7;
    println!("running the monitored coupled pair (seed {seed}, sentinel armed)...\n");
    let d = TourConfig::new(seed).run_coupled().diag;

    let dir = Path::new("target/diag");
    fs::create_dir_all(dir).expect("create target/diag");
    let text_path = dir.join("diag.txt");
    let json_path = dir.join("diag.json");
    let prom_path = dir.join("diag.prom");
    fs::write(&text_path, &d.text).expect("write diag text");
    fs::write(&json_path, &d.json).expect("write diag json");
    fs::write(&prom_path, &d.prom).expect("write diag prom");

    println!("{}", d.text);
    println!(
        "monitored {} steps per component; CG iterations p50/p99 = {}/{}; max advective CFL = {:.3}",
        d.steps, d.cg_iters_p50, d.cg_iters_p99, d.max_cfl
    );
    println!("wrote {}", text_path.display());
    println!("wrote {}", json_path.display());
    println!("wrote {}", prom_path.display());

    if d.sentinel_trips != 0 {
        eprintln!(
            "FAIL: blowup sentinel tripped {} time(s) on the healthy run",
            d.sentinel_trips
        );
        std::process::exit(1);
    }
    println!("sentinel quiet: 0 trips");
}
