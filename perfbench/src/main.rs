//! Hyades host-cost benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload coupled_gcm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `coupled_gcm`, `fabric_traffic`, `collectives`,
//! `lint_corpus` (see `METRICS.md`). Every input is generated from
//! `--seed`. The run measures for `--seconds` of host time, checks the
//! program's outputs, prints one line per named metric and check, and
//! ends with one JSON object. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates traced and untraced operations, reports the
//! per-layer metrics, and writes the spans under `perfbench/out/`.
//! A failed correctness check exits with code 1.

mod clock;
mod collectives;
mod fabric;
mod gcm;
mod lintcorpus;
mod metrics;
mod refkernel;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// What the benchmark was asked to do.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Run {
    /// The reference-kernel process, started at the first kernel run.
    reference: Option<refkernel::Reference>,
    /// Operations that can fail (CG solves, collectives, packets,
    /// passes), how many failed in a way no known program defect
    /// explains, and how many hit each known defect (`METRICS.md`).
    pub attempted: u64,
    pub failed: u64,
    pub known_defects: BTreeMap<&'static str, u64>,
    /// Host seconds of each set-up sample, and of the reference kernel
    /// run right after it.
    pub setup_s: Vec<f64>,
    pub setup_kernel_s: Vec<f64>,
    /// Host ms of each untraced timed operation, and host seconds of the
    /// reference kernel run right after it.
    pub op_ms: Vec<f64>,
    pub op_kernel_s: Vec<f64>,
    /// Host ms of each traced timed operation (traced runs only).
    pub traced_op_ms: Vec<f64>,
    /// Timed operations completed, and the host seconds they took in
    /// total including the benchmark's bookkeeping between them.
    pub ops: u64,
    pub window_s: f64,
    /// Host seconds inside the window spent on set-up samples and
    /// reference-kernel runs, which `window_s` leaves out.
    pub excluded_s: f64,
    /// Correctness checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Per-layer metric values (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// The workload's own end-to-end figures under their own names,
    /// printed for humans: (name, value, unit).
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<trace::Span>,
}

/// Host seconds of window time between two set-up samples taken during
/// the measured window.
const SETUP_EVERY_S: f64 = 1.0;

/// Spreads set-up samples over the measured window, so `setup_s` is the
/// median over the whole run rather than over its first moments. The
/// host time the samples take is kept out of the window's throughput.
#[derive(Default)]
pub struct SetupSampler {
    /// Window time of the next sample, less `Run::excluded_s`.
    next_s: f64,
}

impl SetupSampler {
    /// Take one set-up sample with `sample`, which returns the host
    /// seconds of one set-up, if the window has reached the next sampling
    /// time.
    pub fn poll(&mut self, window: &clock::Stopwatch, run: &mut Run, sample: impl FnOnce() -> f64) {
        if window.s() - run.excluded_s < self.next_s {
            return;
        }
        let t = clock::Stopwatch::start();
        let s = sample();
        run.setup(s);
        run.excluded_s += t.s();
        self.next_s += SETUP_EVERY_S;
    }
}

impl Run {
    /// Record a set-up sample of `s` host seconds, then run the reference
    /// kernel.
    pub fn setup(&mut self, s: f64) {
        self.setup_s.push(s);
        let k = self.kernel_s();
        self.setup_kernel_s.push(k);
    }

    /// Record a timed operation of `ms` host ms, then run the reference
    /// kernel (after traced operations too, so both kinds start alike).
    pub fn op(&mut self, ms: f64, traced: bool) {
        let k = self.kernel_s();
        self.excluded_s += k;
        if traced {
            self.traced_op_ms.push(ms);
        } else {
            self.op_ms.push(ms);
            self.op_kernel_s.push(k);
        }
    }

    fn kernel_s(&mut self) -> f64 {
        self.reference
            .get_or_insert_with(refkernel::Reference::start)
            .kernel_s()
    }

    /// Count `n` operations that hit the known program defect `name`.
    pub fn known_defect(&mut self, name: &'static str, n: u64) {
        *self.known_defects.entry(name).or_default() += n;
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }
}

const WORKLOADS: &[&str] = &[
    "coupled_gcm",
    "fabric_traffic",
    "collectives",
    "lint_corpus",
];

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
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(refkernel::SERVE_FLAG) {
        return refkernel::serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = match args.workload.as_str() {
        "coupled_gcm" => gcm::run(&args),
        "fabric_traffic" => fabric::run(&args),
        "collectives" => collectives::run(&args),
        "lint_corpus" => lintcorpus::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let rss = stats::peak_rss_mb();
    run.check("peak_rss_readable", rss > 0.0, format!("{rss:.1} MiB"));
    if args.trace {
        if run.traced_op_ms.is_empty() || run.op_ms.is_empty() {
            run.check("trace_has_both_halves", false, "too few operations");
        } else {
            let ratio = stats::median(&run.traced_op_ms) / stats::median(&run.op_ms);
            run.layer.insert("trace.overhead_ratio", ratio);
        }
        match trace::write(&args.workload, &run.spans) {
            Ok(path) => println!("spans {} written to {path}", run.spans.len()),
            Err(e) => run.check("spans_written", false, e.to_string()),
        }
    }

    // Each sample is scaled by the kernel run right after it.
    let scaled = |host: &[f64], kernel_s: &[f64]| -> Vec<f64> {
        host.iter()
            .zip(kernel_s)
            .map(|(&h, &k)| refkernel::scale(h, k))
            .collect()
    };
    let e2e: BTreeMap<&str, f64> = [
        (
            "setup_s",
            stats::median(&scaled(&run.setup_s, &run.setup_kernel_s)),
        ),
        (
            "op_ms.p50",
            stats::median(&scaled(&run.op_ms, &run.op_kernel_s)),
        ),
        ("peak_rss_mb", rss),
    ]
    .into_iter()
    .collect();
    if args.trace {
        let layer = [
            ("ops_per_s", run.ops_per_s()),
            ("host.setup_s", stats::median(&run.setup_s)),
            ("host.op_ms.p50", stats::median(&run.op_ms)),
            ("host.kernel_ms", stats::median(&run.op_kernel_s) * 1e3),
        ];
        run.layer.extend(layer);
    }

    println!(
        "workload {} seed {} seconds {} trace {}: {} timed ops, {} set-ups",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.op_ms.len() + run.traced_op_ms.len(),
        run.setup_s.len()
    );
    for (name, value, unit) in &run.named {
        println!("metric {name} = {value} {unit}");
    }
    // The JSON line's `failed` leaves the known defects out, so that it
    // counts only failures nobody has diagnosed yet; `failed_op_share`
    // counts both.
    let known: u64 = run.known_defects.values().sum();
    for (name, n) in &run.known_defects {
        println!("known defect {name}: {n} operations");
    }
    let failed_share = (run.failed + known) as f64 / run.attempted.max(1) as f64;
    run.layer.insert("failed_op_share", failed_share);
    println!(
        "operations: {} attempted, {known} hit a known defect, {} failed otherwise \
         (failed_op_share {failed_share})",
        run.attempted, run.failed
    );
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = if args.trace {
            run.layer.get(name).copied().unwrap_or(0.0)
        } else {
            e2e[name]
        };
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            run.check(&format!("{name}_finite"), false, format!("{value}"));
        }
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    let mut correct = true;
    for (name, ok, detail) in &run.checks {
        println!(
            "check {name} {} {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
        correct &= ok;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.attempted.max(1),
        run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
