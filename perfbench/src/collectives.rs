//! `collectives`: a seeded closed-loop stream of the paper's primitives,
//! each a fresh discrete-event simulation of the Arctic fabric with the
//! StarT-X exchange or global-sum protocol actors on it. One caller; each
//! collective is one `measure_*` call.
//!
//! The stream is made of rounds with a fixed make-up, so every seed runs
//! the same mix; the seed picks leg sizes, summands, fault plans and the
//! order within a round. A round holds clean exchanges at 2×2 and 4×4,
//! clean global sums at 2–16 ways with the SMP step off and on, the same
//! primitives under generated `FaultPlan`s, and the pinned 4×4/768 B
//! faulty exchange that panics in the protocol. A panic is caught and
//! counted as a failed operation; so is a global sum that is not exact.
//! The exchange protocol's "Proceed in unexpected phase" panic under a
//! fault plan is a known defect and is counted as such.
//!
//! The timed operation is one round, so that every timing covers the
//! whole mix; per-collective times are per-layer figures.

use crate::clock::Stopwatch;
use crate::fabric;
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Run, SetupSampler};
use hyades_comms::exchange::{measure_exchange, measure_exchange_faulty};
use hyades_comms::gsum::{measure_gsum, measure_gsum_faulty};
use hyades_comms::RecoveryCounters;
use hyades_des::rng::SplitMix64;
use hyades_fault::FaultPlan;
use hyades_startx::host::HostParams;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

/// Samples of the fabric construction timed for `setup_s` before the
/// window; more are taken during it.
const SETUP_REPS: usize = 5;

#[derive(Clone, Debug)]
enum Kind {
    Exchange { px: u16, py: u16, leg_bytes: u64 },
    Gsum { values: Vec<f64>, smp: bool },
}

#[derive(Clone, Debug)]
struct Op {
    kind: Kind,
    plan: Option<FaultPlan>,
}

impl Op {
    fn shape(&self) -> String {
        match &self.kind {
            Kind::Exchange { px, py, .. } => format!("{px}x{py}"),
            Kind::Gsum { values, .. } => format!("n{}", values.len()),
        }
    }

    fn is_exchange(&self) -> bool {
        matches!(self.kind, Kind::Exchange { .. })
    }

    fn tag(&self) -> String {
        let (kind, extra) = match &self.kind {
            Kind::Exchange { leg_bytes, .. } => ("exchange", format!(" leg={leg_bytes}B")),
            Kind::Gsum { smp, .. } => ("gsum", format!(" smp={smp}")),
        };
        format!(
            "{kind} {}{extra} fault={}",
            self.shape(),
            if self.plan.is_some() { "plan" } else { "none" }
        )
    }
}

/// What one operation produced.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    /// Simulated completion time in picoseconds, when it completed.
    sim_ps: Option<u64>,
    /// Global-sum result bits.
    value: Option<u64>,
    recovery: RecoveryCounters,
    /// Why the operation failed, if it did.
    failure: Option<String>,
}

/// The panic text of the known defect behind the pinned reproducer and
/// the failing faulty exchanges with generated plans.
const KNOWN_PANIC: &str = "Proceed in unexpected phase";
const FAULTY_EXCHANGE_PANIC: &str = "faulty_exchange_panic";

/// The pinned reproducer: this faulty 4×4 exchange with 768 B legs
/// panics inside the exchange protocol ("Proceed in unexpected phase").
fn pinned() -> Op {
    Op {
        kind: Kind::Exchange {
            px: 4,
            py: 4,
            leg_bytes: 768,
        },
        plan: Some(
            FaultPlan::new(3)
                .link_window(0.0, 60.0, 0.2, 0.1)
                .niu_stall(1, 5.0, 25.0),
        ),
    }
}

/// A generated fault plan for an `n`-endpoint collective: one link
/// corrupt/drop window early in the operation, and on half the plans an
/// NIU stall on one endpoint.
fn plan(rng: &mut SplitMix64, n: u16) -> FaultPlan {
    let from = rng.next_f64() * 20.0;
    let until = from + 20.0 + rng.next_f64() * 80.0;
    let mut p = FaultPlan::new(rng.next_u64()).link_window(
        from,
        until,
        rng.next_f64() * 0.2,
        rng.next_f64() * 0.1,
    );
    if rng.next_below(2) == 1 {
        let at = rng.next_f64() * 30.0;
        let stall = 5.0 + rng.next_f64() * 25.0;
        p = p.niu_stall(rng.next_below(u64::from(n)) as u16, at, at + stall);
    }
    p
}

fn exchange(rng: &mut SplitMix64, px: u16, py: u16) -> Kind {
    Kind::Exchange {
        px,
        py,
        leg_bytes: 64 + rng.next_below(8192 - 64 + 1),
    }
}

/// Summands with ten fractional bits and magnitude below 2^9: every
/// partial sum of up to 16 of them is exact in any association, so the
/// result must equal the rank-ordered sum bit for bit.
fn gsum(rng: &mut SplitMix64, n: u16, smp: bool) -> Kind {
    let values = (0..n)
        .map(|_| (rng.next_below(1 << 20) as f64 - f64::from(1 << 19)) / 1024.0)
        .collect();
    Kind::Gsum { values, smp }
}

/// One round of the stream, shuffled.
fn round(rng: &mut SplitMix64) -> Vec<Op> {
    let clean = |kind| Op { kind, plan: None };
    let mut ops = Vec::new();
    for _ in 0..2 {
        ops.push(clean(exchange(rng, 2, 2)));
        ops.push(clean(exchange(rng, 4, 4)));
    }
    for n in [2, 4, 8, 16] {
        for smp in [false, true] {
            ops.push(clean(gsum(rng, n, smp)));
        }
    }
    for (px, py) in [(2, 2), (4, 4)] {
        let kind = exchange(rng, px, py);
        ops.push(Op {
            kind,
            plan: Some(plan(rng, px * py)),
        });
    }
    for n in [4, 16] {
        let kind = gsum(rng, n, false);
        ops.push(Op {
            kind,
            plan: Some(plan(rng, n)),
        });
    }
    ops.push(pinned());
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    ops
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".to_string())
}

fn execute(op: &Op) -> Outcome {
    let host = HostParams::default();
    let result = panic::catch_unwind(AssertUnwindSafe(|| match (&op.kind, &op.plan) {
        (&Kind::Exchange { px, py, leg_bytes }, None) => (
            measure_exchange(host, px, py, leg_bytes).as_ps(),
            None,
            RecoveryCounters::default(),
        ),
        (&Kind::Exchange { px, py, leg_bytes }, Some(plan)) => {
            let (t, r) = measure_exchange_faulty(host, px, py, leg_bytes, plan);
            (t.as_ps(), None, r)
        }
        (Kind::Gsum { values, smp }, None) => {
            let m = measure_gsum(host, values, *smp);
            (
                m.elapsed.as_ps(),
                Some(m.value),
                RecoveryCounters::default(),
            )
        }
        (Kind::Gsum { values, .. }, Some(plan)) => {
            let (m, r) = measure_gsum_faulty(host, values, plan);
            (m.elapsed.as_ps(), Some(m.value), r)
        }
    }));
    match result {
        Ok((sim_ps, value, recovery)) => {
            let failure = match (&op.kind, value) {
                (Kind::Gsum { values, .. }, Some(v)) => {
                    let expect: f64 = values.iter().sum();
                    (v.to_bits() != expect.to_bits())
                        .then(|| format!("inexact global sum {v} != {expect}"))
                }
                _ => None,
            };
            Outcome {
                sim_ps: Some(sim_ps),
                value: value.map(f64::to_bits),
                recovery,
                failure,
            }
        }
        Err(payload) => Outcome {
            sim_ps: None,
            value: None,
            recovery: RecoveryCounters::default(),
            failure: Some(format!("panic: {}", panic_text(payload.as_ref()))),
        },
    }
}

/// Running totals over the stream. Only fixed-size figures and one host
/// time per collective are kept, so memory does not depend on how many
/// collectives the host managed to run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Failures no known defect explains, and known faulty-exchange panics.
    failed: u64,
    known: u64,
    clean_gsums: u64,
    clean_inexact: u64,
    clean_failed: u64,
    pinned_failed: u64,
    first_pinned_failure: Option<String>,
    faulty: u64,
    faulty_failed: u64,
    faulty_completed: u64,
    retransmits: u64,
    timeouts: u64,
    /// Host ms of every collective, and of the untraced ones.
    all_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Host µs of traced clean collectives by (is exchange, shape).
    traced_clean_us: BTreeMap<(bool, String), Vec<f64>>,
}

impl Tally {
    fn add(&mut self, op: &Op, out: &Outcome, host_us: f64, traced: bool) {
        let failed = out.failure.is_some();
        let known = op.is_exchange()
            && op.plan.is_some()
            && out
                .failure
                .as_deref()
                .is_some_and(|f| f.contains(KNOWN_PANIC));
        self.attempted += 1;
        self.known += u64::from(known);
        self.failed += u64::from(failed && !known);
        self.all_ms.push(host_us * 1e-3);
        if !traced {
            self.untraced_ms.push(host_us * 1e-3);
        }
        match &op.plan {
            None => {
                self.clean_failed += u64::from(failed);
                if !op.is_exchange() {
                    self.clean_gsums += 1;
                    self.clean_inexact += u64::from(failed);
                }
                if traced {
                    self.traced_clean_us
                        .entry((op.is_exchange(), op.shape()))
                        .or_default()
                        .push(host_us);
                }
            }
            Some(plan) => {
                self.faulty += 1;
                self.faulty_failed += u64::from(failed);
                if out.sim_ps.is_some() {
                    self.faulty_completed += 1;
                    self.retransmits += out.recovery.total_retransmits();
                    self.timeouts += out.recovery.timeouts;
                }
                if failed && Some(plan) == pinned().plan.as_ref() {
                    self.pinned_failed += 1;
                    if self.first_pinned_failure.is_none() {
                        self.first_pinned_failure = out.failure.clone();
                    }
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Run {
    // Every collective builds its own fabric: set-up is that build, timed
    // standalone (the same quantity as `arctic.build_us` on
    // `fabric_traffic`).
    let mut run = Run::default();
    for _ in 0..SETUP_REPS {
        run.setup(fabric::network_build_s());
    }

    // Panics are expected outcomes here: keep them off stderr.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut rng = SplitMix64::new(args.seed);
    let mut tracer = Tracer::new(Stopwatch::start(), 0, false);
    let mut tally = Tally::default();
    let mut first_round = Vec::new();
    let mut first_outcomes = Vec::new();
    let mut sampler = SetupSampler::default();
    let window = Stopwatch::start();
    while window.s() < args.seconds || run.ops == 0 {
        sampler.poll(&window, &mut run, fabric::network_build_s);
        let ops = round(&mut rng);
        let traced = args.trace && run.ops % 2 == 1;
        tracer.set(traced, run.ops);
        let span = tracer.begin("collectives.round", format!("round={}", run.ops));
        let t = Stopwatch::start();
        for op in &ops {
            let span = tracer.begin("comms.collective", op.tag());
            let t = Stopwatch::start();
            let out = execute(op);
            let host_us = t.s() * 1e6;
            tracer.end_with(
                span,
                vec![
                    ("sim_ps", out.sim_ps.unwrap_or(0)),
                    ("retransmits", out.recovery.total_retransmits()),
                    ("timeouts", out.recovery.timeouts),
                    ("failed", u64::from(out.failure.is_some())),
                ],
            );
            tally.add(op, &out, host_us, traced);
            if run.ops == 0 {
                first_outcomes.push(out);
            }
        }
        let ms = t.ms();
        tracer.end(span);
        run.op(ms, traced);
        if run.ops == 0 {
            first_round = ops;
        }
        run.ops += 1;
    }
    run.window_s = window.s() - run.excluded_s;

    // Determinism: the first round again, from fresh simulations.
    tracer.set(false, 0);
    let rerun: Vec<Outcome> = first_round.iter().map(execute).collect();
    panic::set_hook(default_hook);
    run.check(
        "collectives_repeat_identically",
        rerun == first_outcomes,
        format!("{} collectives of the first round run twice", rerun.len()),
    );
    run.check(
        "clean_gsums_exact",
        tally.clean_inexact == 0,
        format!(
            "{} of {} clean global sums differ from the rank-ordered sum",
            tally.clean_inexact, tally.clean_gsums
        ),
    );
    run.check(
        "clean_collectives_complete",
        tally.clean_failed == 0,
        format!("{} clean collectives failed", tally.clean_failed),
    );
    println!(
        "pinned faulty 4x4/768B exchange: {} runs failed; first failure: {}",
        tally.pinned_failed,
        tally.first_pinned_failure.as_deref().unwrap_or("none")
    );

    run.attempted = tally.attempted;
    run.failed = tally.failed;
    run.known_defect(FAULTY_EXCHANGE_PANIC, tally.known);
    run.named = vec![
        (
            "collective_ops_per_s",
            tally.attempted as f64 / run.window_s,
            "1/s",
        ),
        (
            "collective_op_ms.p50",
            stats::median(&tally.untraced_ms),
            "ms",
        ),
    ];
    if args.trace {
        layer_metrics(&mut run, &tally, &first_round, &first_outcomes);
        run.spans = tracer.into_spans();
    }
    run
}

fn layer_metrics(run: &mut Run, tally: &Tally, first_round: &[Op], first_outcomes: &[Outcome]) {
    let host = |exchange: bool, shape: &str| -> f64 {
        tally
            .traced_clean_us
            .get(&(exchange, shape.to_string()))
            .map_or(0.0, |xs| stats::median(xs))
    };
    let sim_us = |exchange: bool| -> f64 {
        let xs: Vec<f64> = first_round
            .iter()
            .zip(first_outcomes)
            .filter(|(op, _)| op.plan.is_none() && op.is_exchange() == exchange)
            .filter_map(|(_, o)| o.sim_ps)
            .map(|ps| ps as f64 * 1e-6)
            .collect();
        stats::mean(&xs)
    };
    let per_completed = |n: u64| n as f64 / tally.faulty_completed.max(1) as f64;
    let l = &mut run.layer;
    if stats::beyond(&tally.all_ms, 0.95) >= 10 {
        l.insert("collective_op_ms.p95", stats::quantile(&tally.all_ms, 0.95));
    }
    l.insert("comms.exchange_host_us.2x2", host(true, "2x2"));
    l.insert("comms.exchange_host_us.4x4", host(true, "4x4"));
    l.insert("comms.gsum_host_us.n4", host(false, "n4"));
    l.insert("comms.gsum_host_us.n16", host(false, "n16"));
    l.insert("comms.exchange_sim_us", sim_us(true));
    l.insert("comms.gsum_sim_us", sim_us(false));
    l.insert("fault.ops", tally.faulty as f64);
    l.insert("fault.retries_per_op", per_completed(tally.retransmits));
    l.insert("fault.timeouts_per_op", per_completed(tally.timeouts));
    l.insert("fault.failed_ops", tally.faulty_failed as f64);
}
