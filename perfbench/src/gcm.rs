//! `coupled_gcm`: the paper's 2.8125° coupled atmosphere–ocean pair
//! (128×64, 5 + 15 levels, continents, coupling every 4 steps) on two
//! `ThreadWorld` ranks under `TimedWorld(arctic_paper())`. Closed loop of
//! coupled steps; one operation is one coupled step. Each step can fail
//! three ways: either surface-pressure solve may stop unconverged, and
//! the state it leaves may be non-finite. Both are known defects at this
//! resolution and are counted as such. After a non-finite state both
//! ranks restart from a freshly built model, so the run goes on.

use crate::clock::Stopwatch;
use crate::refkernel::Reference;
use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use crate::{Args, Run};
use hyades_cluster::interconnect::arctic_paper;
use hyades_comms::{CommWorld, ThreadWorld, TimedWorld};
use hyades_des::rng::SplitMix64;
use hyades_gcm::coupler::CoupledModel;
use hyades_gcm::decomp::Decomp;
use hyades_gcm::{Model, ModelConfig};

const RANKS: usize = 2;
const COUPLE_EVERY: u64 = 4;
/// Set-up samples before the window. Every rebuild after a non-finite
/// state is a further sample; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Builds per set-up sample. The first builds of a process take longer
/// (9–13 ms against 6–8 ms in one run), as the allocator gets its memory
/// fresh from the operating system.
const BUILD_BATCH: usize = 4;
/// Steps in the reference prefix: run twice from fresh models and
/// compared byte for byte; the exact per-step counts come from it.
const PREFIX_STEPS: usize = 4;
/// Known program defects at this resolution: nearly every CG solve stops
/// at `cg_max_iters` unconverged, and the coupled state goes non-finite
/// the same number of steps after every fresh build.
const CG_UNCONVERGED: &str = "cg_unconverged";
const NONFINITE_STATE: &str = "gcm_nonfinite_state";

/// The seeded coupled pair for `rank`: the workload seed replaces the
/// configurations' initial-perturbation seeds.
fn build(rank: usize, seed: u64) -> CoupledModel {
    let d = Decomp::blocks(128, 64, RANKS, 1, 3);
    let mut rng = SplitMix64::new(seed);
    let mut acfg = ModelConfig::atmosphere_2p8125(d);
    acfg.seed = rng.next_u64();
    let mut ocfg = ModelConfig::ocean_2p8125(d);
    ocfg.seed = rng.next_u64();
    CoupledModel::new(Model::new(acfg, rank), Model::new(ocfg, rank), COUPLE_EVERY)
}

/// `CommWorld` wrapper counting (and, when tracing, timing and spanning)
/// every primitive the model issues.
struct CommProbe<'a, W: CommWorld> {
    inner: &'a mut W,
    tracer: &'a mut Tracer,
    exchange_calls: u64,
    reduce_calls: u64,
    exchange_bytes: u64,
    exchange_ns: u64,
    reduce_ns: u64,
}

impl<W: CommWorld> CommProbe<'_, W> {
    fn timed<R>(&mut self, exchange: bool, f: impl FnOnce(&mut W) -> R) -> R {
        if exchange {
            self.exchange_calls += 1;
        } else {
            self.reduce_calls += 1;
        }
        if !self.tracer.on() {
            return f(self.inner);
        }
        let name = if exchange {
            "comms.exchange"
        } else {
            "comms.reduce"
        };
        let span = self.tracer.begin(name, "");
        let t = Stopwatch::start();
        let r = f(self.inner);
        let ns = t.ns();
        self.tracer.end(span);
        if exchange {
            self.exchange_ns += ns;
        } else {
            self.reduce_ns += ns;
        }
        r
    }
}

impl<W: CommWorld> CommWorld for CommProbe<'_, W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
        self.exchange_bytes += outgoing
            .iter()
            .map(|(_, d)| d.len() as u64 * 8)
            .sum::<u64>();
        self.timed(true, |w| w.exchange(outgoing))
    }
    fn global_sum_vec(&mut self, xs: &mut [f64]) {
        self.timed(false, |w| w.global_sum_vec(xs))
    }
    fn global_max(&mut self, x: f64) -> f64 {
        self.timed(false, |w| w.global_max(x))
    }
    fn barrier(&mut self) {
        self.timed(false, |w| w.barrier())
    }
    fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        self.timed(false, |w| w.gather(data))
    }
}

/// One rank's record of one coupled step.
#[derive(Clone, Copy, Default)]
struct StepRec {
    host_ms: f64,
    traced: bool,
    iters: [usize; 2],
    converged: [bool; 2],
    ps_flops: u64,
    ds_flops: u64,
    exchange_calls: u64,
    reduce_calls: u64,
    exchange_bytes: u64,
    exchange_ms: f64,
    reduce_ms: f64,
    sim_comm_ps: u64,
    /// Host seconds of the reference kernel run after the step.
    kernel_s: f64,
}

/// What must repeat byte for byte between two runs of one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    state: u64,
    iters: Vec<[usize; 2]>,
    converged: Vec<[bool; 2]>,
    sim_comm_ps: u64,
    calls: (u64, u64, u64),
}

fn fields(c: &CoupledModel) -> impl Iterator<Item = &[f64]> {
    [&c.atmos, &c.ocean].into_iter().flat_map(|m| {
        let s = &m.state;
        [&s.u, &s.v, &s.w, &s.theta, &s.s, &s.phy, &s.b]
            .into_iter()
            .map(|f| f.raw())
            .chain(std::iter::once(s.ps.raw()))
    })
}

fn is_finite(c: &CoupledModel) -> bool {
    fields(c).all(|f| f.iter().all(|x| x.is_finite()))
}

/// Step once under a fresh `TimedWorld` over `tw`, returning the record.
fn step(c: &mut CoupledModel, tw: &mut ThreadWorld, tracer: &mut Tracer, n: u64) -> StepRec {
    let net = arctic_paper();
    let mut timed = TimedWorld::new(tw, &net);
    let span = tracer.begin("gcm.step", format!("step={n}"));
    let mut probe = CommProbe {
        inner: &mut timed,
        tracer,
        exchange_calls: 0,
        reduce_calls: 0,
        exchange_bytes: 0,
        exchange_ns: 0,
        reduce_ns: 0,
    };
    let t = Stopwatch::start();
    let (sa, so) = c.step_shared(&mut probe);
    let host_ms = t.ms();
    let rec = StepRec {
        host_ms,
        traced: probe.tracer.on(),
        iters: [sa.cg_iterations, so.cg_iterations],
        converged: [sa.cg_converged, so.cg_converged],
        ps_flops: sa.ps_flops + so.ps_flops,
        ds_flops: sa.ds_flops + so.ds_flops,
        exchange_calls: probe.exchange_calls,
        reduce_calls: probe.reduce_calls,
        exchange_bytes: probe.exchange_bytes,
        exchange_ms: probe.exchange_ns as f64 * 1e-6,
        reduce_ms: probe.reduce_ns as f64 * 1e-6,
        sim_comm_ps: 0,
        kernel_s: 0.0,
    };
    let tracer = probe.tracer;
    tracer.end(span);
    StepRec {
        sim_comm_ps: timed.comm_time.as_ps(),
        ..rec
    }
}

fn fingerprint(c: &CoupledModel, recs: &[StepRec]) -> Fingerprint {
    let mut d = Digest::default();
    fields(c).for_each(|f| d.f64s(f));
    Fingerprint {
        state: d.0,
        iters: recs.iter().map(|r| r.iters).collect(),
        converged: recs.iter().map(|r| r.converged).collect(),
        sim_comm_ps: recs.iter().map(|r| r.sim_comm_ps).sum(),
        calls: recs.iter().fold((0, 0, 0), |a, r| {
            (
                a.0 + r.exchange_calls,
                a.1 + r.reduce_calls,
                a.2 + r.exchange_bytes,
            )
        }),
    }
}

struct RankOut {
    setup_s: Vec<f64>,
    setup_kernel_s: Vec<f64>,
    steps: Vec<StepRec>,
    /// The reference prefix, run from the first set-up's model.
    prefix: Vec<StepRec>,
    reference: Fingerprint,
    /// Episodes (runs from a freshly built model) whose prefix was
    /// compared with the reference, and how many differed.
    episodes_compared: usize,
    episodes_differing: usize,
    /// Steps that left a non-finite state on either rank, each followed
    /// by a restart from a freshly built model.
    blowups: Vec<usize>,
    /// Steps that left this rank's own state non-finite, as it saw them
    /// before the ranks combined their verdicts.
    own_blowups: Vec<usize>,
    /// Steps from each episode's fresh build to its blow-up (1 = the
    /// first step blew up).
    blowup_offsets: Vec<usize>,
    window_s: f64,
    spans: Vec<trace::Span>,
}

/// Build this rank's coupled pair `BUILD_BATCH` times, dropping each
/// build before the next, and keep the last. Returns it with the mean host
/// seconds of a build, barrier to barrier.
fn build_sample(tw: &mut ThreadWorld, seed: u64) -> (CoupledModel, f64) {
    let mut total_s = 0.0;
    let mut model = None;
    for _ in 0..BUILD_BATCH {
        drop(model.take());
        tw.barrier();
        let t = Stopwatch::start();
        model = Some(build(tw.rank(), seed));
        tw.barrier();
        total_s += t.s();
    }
    let model = model.expect("BUILD_BATCH is at least 1");
    (model, total_s / BUILD_BATCH as f64)
}

/// The reference kernel on the rank that runs it; 0 s on the others.
struct KernelRunner(Option<Reference>);

impl KernelRunner {
    fn run(&mut self) -> f64 {
        self.0.as_mut().map_or(0.0, Reference::kernel_s)
    }
}

fn rank_main(tw: &mut ThreadWorld, args: &Args, epoch: Stopwatch) -> RankOut {
    let rank = tw.rank();
    let mut tracer = Tracer::new(epoch, rank, false);
    let mut setup_s = Vec::new();
    let mut setup_kernel_s = Vec::new();
    // Rank 0 runs the reference kernel; rank 1 waits for it in the next
    // collective, outside any timed step.
    let mut kernel = KernelRunner((rank == 0).then(Reference::start));
    let mut reference = None;
    let mut prefix = Vec::new();
    let mut model = None;
    for rep in 0..SETUP_REPS {
        drop(model.take());
        let (mut c, s) = build_sample(tw, args.seed);
        setup_s.push(s);
        setup_kernel_s.push(kernel.run());
        if rep == 0 {
            prefix = (0..PREFIX_STEPS as u64)
                .map(|n| step(&mut c, tw, &mut tracer, n))
                .collect();
            reference = Some(fingerprint(&c, &prefix));
        }
        model = Some(c);
    }
    let mut c = model.expect("at least one set-up");
    let reference = reference.expect("reference prefix ran");

    let mut steps = Vec::new();
    let mut episode_start = 0;
    let (mut episodes_compared, mut episodes_differing) = (0, 0);
    let mut blowups = Vec::new();
    let mut own_blowups = Vec::new();
    let mut blowup_offsets = Vec::new();
    // The window's throughput leaves the reference kernel and the set-up
    // samples out.
    let mut excluded_s = 0.0;
    let window = Stopwatch::start();
    loop {
        let n = steps.len();
        tracer.set(args.trace && n % 2 == 1, n as u64);
        let mut rec = step(&mut c, tw, &mut tracer, n as u64);
        rec.kernel_s = kernel.run();
        excluded_s += rec.kernel_s;
        steps.push(rec);
        if n + 1 - episode_start == PREFIX_STEPS {
            episodes_compared += 1;
            if fingerprint(&c, &steps[episode_start..]) != reference {
                episodes_differing += 1;
            }
        }
        // Rank 0's clock decides when both ranks stop; a non-finite
        // state on either rank restarts both from a fresh model.
        let blew_up = !is_finite(&c);
        if blew_up {
            own_blowups.push(n);
        }
        let mut flags = [
            f64::from(u8::from(rank == 0 && window.s() >= args.seconds)),
            f64::from(u8::from(blew_up)),
        ];
        tw.global_sum_vec(&mut flags);
        if flags[1] > 0.0 {
            blowups.push(n);
            blowup_offsets.push(n + 1 - episode_start);
            // Free the blown-up pair before building its replacement,
            // and take the rebuild as a further set-up sample, left out
            // of the window's throughput like the reference kernel.
            drop(c);
            let t = Stopwatch::start();
            let (fresh, s) = build_sample(tw, args.seed);
            c = fresh;
            setup_s.push(s);
            setup_kernel_s.push(kernel.run());
            excluded_s += t.s();
            episode_start = n + 1;
        }
        if flags[0] > 0.0 && steps.len() >= PREFIX_STEPS {
            break;
        }
    }
    let window_s = window.s() - excluded_s;
    tracer.set(false, 0);
    RankOut {
        setup_s,
        setup_kernel_s,
        steps,
        prefix,
        reference,
        episodes_compared,
        episodes_differing,
        blowups,
        own_blowups,
        blowup_offsets,
        window_s,
        spans: tracer.into_spans(),
    }
}

pub fn run(args: &Args) -> Run {
    let epoch = Stopwatch::start();
    let outs = ThreadWorld::run(RANKS, |tw| rank_main(tw, args, epoch));
    let mut run = Run::default();
    let r0 = &outs[0];
    run.setup_s = r0.setup_s.clone();
    run.setup_kernel_s = r0.setup_kernel_s.clone();
    run.window_s = r0.window_s;
    run.ops = r0.steps.len() as u64;
    for s in &r0.steps {
        if s.traced {
            run.traced_op_ms.push(s.host_ms);
        } else {
            run.op_ms.push(s.host_ms);
            run.op_kernel_s.push(s.kernel_s);
        }
    }
    // Per step: two global solves and the state it leaves; rank 0's
    // verdict on each is the run's.
    for s in &r0.steps {
        run.attempted += 3;
        let unconverged = s.converged.iter().filter(|&&ok| !ok).count();
        run.known_defect(CG_UNCONVERGED, unconverged as u64);
    }
    run.known_defect(NONFINITE_STATE, r0.blowups.len() as u64);

    for (rank, o) in outs.iter().enumerate() {
        run.check(
            &format!("gcm_prefix_identical.rank{rank}"),
            o.episodes_compared >= 1 && o.episodes_differing == 0,
            format!(
                "{} of {} episodes reproduced the {PREFIX_STEPS}-step reference \
                 (state digest {:016x}, sim comm {} ps)",
                o.episodes_compared - o.episodes_differing,
                o.episodes_compared,
                o.reference.state,
                o.reference.sim_comm_ps
            ),
        );
    }
    // Every rank's own state must go non-finite at the same steps, and
    // every episode from a fresh seeded build must blow up after the same
    // number of steps.
    let offsets = &r0.blowup_offsets;
    run.check(
        "gcm_blowups_agree",
        outs.iter().all(|o| o.own_blowups == r0.blowups)
            && offsets.iter().all(|&k| k == offsets[0]),
        format!(
            "non-finite state after steps {:?} (per rank {:?}), {:?} steps after each fresh build; \
             each counted as the known defect {NONFINITE_STATE}",
            r0.blowups,
            outs.iter().map(|o| &o.own_blowups).collect::<Vec<_>>(),
            offsets
        ),
    );

    let dt_atm = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, RANKS, 1, 3)).dt;
    let all: Vec<f64> = r0.steps.iter().map(|s| s.host_ms).collect();
    run.named = vec![
        (
            "model_days_per_wall_day",
            dt_atm * run.ops as f64 / run.window_s,
            "d/d",
        ),
        ("gcm_step_ms.p50", stats::median(&run.op_ms), "ms"),
    ];

    if args.trace {
        layer_metrics(&mut run, &outs, &all);
        for o in outs {
            run.spans.extend(o.spans);
        }
    }
    run
}

fn layer_metrics(run: &mut Run, outs: &[RankOut], all_ms: &[f64]) {
    let r0 = &outs[0];
    let traced: Vec<&StepRec> = r0.steps.iter().filter(|s| s.traced).collect();
    let compute: Vec<f64> = traced
        .iter()
        .map(|s| s.host_ms - s.exchange_ms - s.reduce_ms)
        .collect();
    let mflops: Vec<f64> = traced
        .iter()
        .zip(&compute)
        .map(|(s, ms)| (s.ps_flops + s.ds_flops) as f64 / (ms * 1e3))
        .collect();
    let per_step = |f: fn(&StepRec) -> u64| -> f64 {
        r0.prefix.iter().map(f).sum::<u64>() as f64 / r0.prefix.len() as f64
    };
    let both_ranks = |f: fn(&StepRec) -> u64| -> f64 {
        outs.iter()
            .map(|o| o.prefix.iter().map(f).sum::<u64>() as f64 / o.prefix.len() as f64)
            .sum()
    };
    let iters = |k: usize| -> f64 {
        stats::mean(
            &r0.steps
                .iter()
                .map(|s| s.iters[k] as f64)
                .collect::<Vec<_>>(),
        )
    };
    let l = &mut run.layer;
    if stats::beyond(all_ms, 0.95) >= 10 {
        l.insert("gcm_step_ms.p95", stats::quantile(all_ms, 0.95));
    }
    l.insert("gcm.compute_ms_per_step", stats::median(&compute));
    l.insert("gcm.flops_per_step.ps", both_ranks(|s| s.ps_flops));
    l.insert("gcm.flops_per_step.ds", both_ranks(|s| s.ds_flops));
    l.insert("gcm.host_mflops", stats::median(&mflops));
    l.insert("gcm.cg_iters_per_solve.atmos", iters(0));
    l.insert("gcm.cg_iters_per_solve.ocean", iters(1));
    l.insert(
        "gcm.cg_solves_failed",
        run.known_defects.get(CG_UNCONVERGED).copied().unwrap_or(0) as f64,
    );
    l.insert("gcm.nonfinite_steps", r0.blowups.len() as f64);
    l.insert("gcm.model_build_ms", stats::median(&r0.setup_s) * 1e3);
    l.insert(
        "comms.world.exchange_calls_per_step",
        per_step(|s| s.exchange_calls),
    );
    l.insert(
        "comms.world.reduce_calls_per_step",
        per_step(|s| s.reduce_calls),
    );
    l.insert(
        "comms.world.exchange_bytes_per_step",
        per_step(|s| s.exchange_bytes),
    );
    l.insert(
        "comms.world.exchange_host_ms_per_step",
        stats::median(&traced.iter().map(|s| s.exchange_ms).collect::<Vec<_>>()),
    );
    l.insert(
        "comms.world.reduce_host_ms_per_step",
        stats::median(&traced.iter().map(|s| s.reduce_ms).collect::<Vec<_>>()),
    );
    l.insert(
        "comms.timed.sim_comm_ms_per_step",
        per_step(|s| s.sim_comm_ps) * 1e-9,
    );
}
