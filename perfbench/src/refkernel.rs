//! The host-speed reference kernel.
//!
//! The benchmark shares its machine with other tenants, and their load
//! changes how fast the same code runs. In one four-minute `lint_corpus`
//! run on one seed, the fastest tenth of passes took 216 ms in one
//! half-minute and 350 ms two minutes later. A fixed kernel, timed right
//! after each operation, slows down with it. So the end-to-end times are
//! the operation's host time divided by the kernel's, in units of
//! `REFERENCE_MS`: the time the operation would take on a host that runs
//! the kernel in `REFERENCE_MS`.
//!
//! The kernel mixes the kinds of work the workloads do: an integer hash
//! chain, a dependent walk through a 4 MB table, formatted strings
//! inserted into a `BTreeMap`, and a float stencil sweep. It is benchmark
//! code only, so no change to the program can make it faster or slower.
//! It runs in a child process, so its memory never counts in the
//! workload's `peak_rss_mb` and its allocations never touch the
//! workload's heap.

use crate::clock::Stopwatch;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};

/// The argument that makes this binary serve kernel runs instead of
/// running a workload.
pub const SERVE_FLAG: &str = "--reference-kernel";

/// The kernel's host time on the reference host. End-to-end times are
/// reported as `host time × REFERENCE_MS / kernel host time`.
pub const REFERENCE_MS: f64 = 15.0;

/// Scale `host` (in any time unit) to the reference host, given the
/// kernel's host seconds measured next to it.
pub fn scale(host: f64, kernel_s: f64) -> f64 {
    host * REFERENCE_MS * 1e-3 / kernel_s
}

/// A child process that runs the kernel on request. Dropping it closes
/// the child's input and waits until the child has ended.
pub struct Reference {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Reference {
    pub fn start() -> Reference {
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let mut child = Command::new(exe)
            .arg(SERVE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the reference-kernel process");
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("child stdout is piped"));
        Reference {
            child,
            input,
            output,
        }
    }

    /// Run the kernel once in the child; returns its host seconds.
    pub fn kernel_s(&mut self) -> f64 {
        let input = self.input.as_mut().expect("child input is open");
        writeln!(input, "run").expect("ask the reference-kernel process");
        input.flush().expect("ask the reference-kernel process");
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .expect("read the reference-kernel time");
        line.trim()
            .parse()
            .unwrap_or_else(|e| panic!("reference-kernel time {line:?}: {e}"))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The child's side: run the kernel once for every line read, and print
/// its host seconds; end when the input closes.
pub fn serve() -> ExitCode {
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            return ExitCode::from(1);
        }
        let mut out = stdout.lock();
        if writeln!(out, "{:?}", kernel_s())
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// Run the kernel once; returns its host seconds.
fn kernel_s() -> f64 {
    const TABLE: u64 = 1 << 20;
    let t = Stopwatch::start();
    // A SplitMix64 chain, written out so that no program code runs here.
    let (mut state, mut acc) = (1u64, 0u64);
    for _ in 0..600_000 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.wrapping_add((z ^ (z >> 31)) >> 3);
    }
    let table: Vec<u32> = (0..TABLE)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % TABLE) as u32)
        .collect();
    let mut j = 0usize;
    for _ in 0..500_000 {
        j = table[j] as usize;
        acc = acc.wrapping_add(j as u64);
    }
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        map.insert(format!("k{}", i.wrapping_mul(2_654_435_761) % 100_000), i);
    }
    let mut x = vec![1.0f64; 1 << 18];
    for k in 0..4 {
        for i in 1..x.len() - 1 {
            x[i] = 0.25 * (x[i - 1] + x[i + 1]) + 0.5 * x[i] + f64::from(k) * 1e-9;
        }
    }
    black_box((acc, map.len(), x[7]));
    t.s()
}
