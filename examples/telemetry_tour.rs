//! Telemetry tour: run the instrumented profiling tour (GCM fan-out plus
//! DES microbench) with the flight recorder on, write both exporter artifacts, and print the
//! model-vs-measured phase report.
//!
//! ```sh
//! cargo run --release --example telemetry_tour
//! ```
//!
//! Outputs land in `target/telemetry/`:
//! * `tour.trace.json` — Chrome trace-event JSON; open it in
//!   chrome://tracing or https://ui.perfetto.dev
//! * `tour.summary.txt` — deterministic text summary (spans, counters,
//!   stats, histograms, flight-recorder dump)

use hyades::tour::TourConfig;
use std::fs;
use std::path::Path;

fn main() {
    let seed = 7;
    println!("running the instrumented telemetry tour (seed {seed})...\n");
    let t = TourConfig::new(seed).run_tour();

    let dir = Path::new("target/telemetry");
    fs::create_dir_all(dir).expect("create target/telemetry");
    let trace_path = dir.join("tour.trace.json");
    let summary_path = dir.join("tour.summary.txt");
    fs::write(&trace_path, &t.chrome_json).expect("write chrome trace");
    fs::write(&summary_path, &t.text_summary).expect("write text summary");

    println!("{}", t.phase_report);
    println!(
        "recorded {} spans across the charged (GCM) and event (DES) timelines",
        t.span_count
    );
    println!(
        "max |phase residual| vs eqs. (4)-(13): {:.1}%",
        t.max_abs_residual * 100.0
    );
    println!("\nwrote {}", trace_path.display());
    println!("wrote {}", summary_path.display());
}
