//! `fabric_traffic`: the 16-endpoint Arctic fat-tree under open-loop
//! traffic from benchmark-owned seeded sources, in simulated time.
//!
//! One operation is one period of simulated traffic, run as a host
//! batch of three `Simulator` calls: 200 µs of uniform-random
//! destinations at 0.9 of the injection link's payload capacity
//! (uncongested), 200 µs of the bit-reverse permutation at 0.8
//! (congested: source-spread routing delivers about 56% of it, so queues
//! grow deep), then a drain with the sources paused until the fabric is
//! empty. The drain keeps the open-loop backlog from growing across
//! periods, so every period does the same work; after it, every injected
//! packet must have been delivered intact.

use crate::clock::Stopwatch;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{Args, Run, SetupSampler};
use hyades_arctic::network::{ArcticNetwork, Delivered, Inject, SinkEndpoint};
use hyades_arctic::packet::{u64_from_words, words_from_u64, Packet, Priority};
use hyades_des::event::Payload;
use hyades_des::rng::SplitMix64;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};

const ENDPOINTS: u16 = 16;
/// Simulated length of one traffic segment.
const SEGMENT_US: f64 = 200.0;
/// (name, offered load as a share of the link's payload capacity).
const SEGMENTS: [(&str, f64); 2] = [("uniform", 0.9), ("bitreverse", 0.8)];
/// Set-up samples taken before the window; more are taken during it.
const SETUP_REPS: usize = 5;
/// Builds per set-up sample, each built and dropped before the next, so
/// a sample spans far more than the clock's resolution.
const BATCH: usize = 1000;
/// Periods in the reference run.
const REFERENCE_PERIODS: u64 = 2;
/// Samples of standalone `ArcticNetwork::build` for `arctic.build_us`.
const BUILD_REPS: usize = 5;

struct Fire;
/// Switch a source to segment `Some(i)` of `SEGMENTS`, or pause it.
struct Phase(Option<usize>);

/// Open-loop packet source for one endpoint.
struct Source {
    me: u16,
    tx_port: ActorId,
    rng: SplitMix64,
    segment: Option<usize>,
    injected: u64,
}

impl Actor for Source {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<Phase>() {
            Ok(phase) => {
                let was_paused = self.segment.is_none();
                self.segment = phase.0;
                if was_paused && self.segment.is_some() {
                    // Restart within a microsecond, seeded.
                    let at = SimDuration::from_ps(self.rng.next_below(1_000_000));
                    ctx.wake_after(at, Fire);
                }
                return;
            }
            Err(ev) => ev,
        };
        assert!(ev.is::<Fire>(), "source expects Fire or Phase");
        let Some(seg) = self.segment else { return };
        let dst = if seg == 0 {
            let d = self.rng.next_below(u64::from(ENDPOINTS) - 1) as u16;
            if d >= self.me {
                d + 1
            } else {
                d
            }
        } else {
            self.me.reverse_bits() >> (16 - ENDPOINTS.trailing_zeros())
        };
        // Injection time in the payload for latency accounting, padded
        // to the full 88-byte payload.
        let mut payload = words_from_u64(ctx.now().as_ps());
        payload.resize(22, 0);
        ctx.send_now(
            self.tx_port,
            Inject(Packet::new(self.me, dst, Priority::Low, 1, payload)),
        );
        self.injected += 1;
        // 88 payload bytes in a 96-byte packet on a 150 MB/s link, at the
        // segment's load, with ±25% seeded jitter so sources do not
        // phase-lock.
        let gap_us = 88.0 / (150.0 * 88.0 / 96.0 * SEGMENTS[seg].1);
        let jitter = (self.rng.next_f64() - 0.5) * 0.5;
        ctx.wake_after(SimDuration::from_us_f64(gap_us * (1.0 + jitter)), Fire);
    }
}

/// Delivery sink for one endpoint.
#[derive(Default)]
struct Sink {
    delivered: u64,
    corrupted: u64,
    latency_ps: u64,
    digest: Digest,
}

impl Actor for Sink {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let Ok(d) = ev.downcast::<Delivered>() else {
            panic!("sink expects Delivered events");
        };
        let lat = ctx
            .now()
            .since(SimTime::from_ps(u64_from_words(&d.pkt.payload)))
            .as_ps();
        self.delivered += 1;
        self.corrupted += u64::from(d.pkt.corrupted);
        self.latency_ps += lat;
        self.digest
            .word(u64::from(d.pkt.src) << 16 | u64::from(d.pkt.dst));
        self.digest.word(lat);
    }
}

struct Fabric {
    sim: Simulator,
    net: ArcticNetwork,
    sources: Vec<ActorId>,
    sinks: Vec<ActorId>,
    /// Simulated time the traffic schedule has reached.
    clock: SimTime,
}

impl Fabric {
    fn build(seed: u64) -> Fabric {
        let mut sim = Simulator::new();
        let sinks: Vec<ActorId> = (0..ENDPOINTS)
            .map(|_| sim.add_actor(Sink::default()))
            .collect();
        let net = ArcticNetwork::build(&mut sim, &sinks, Default::default());
        let mut seeder = SplitMix64::new(seed);
        let sources = (0..ENDPOINTS)
            .map(|e| {
                sim.add_actor(Source {
                    me: e,
                    tx_port: net.tx_port(e),
                    rng: SplitMix64::new(seeder.next_u64()),
                    segment: None,
                    injected: 0,
                })
            })
            .collect();
        Fabric {
            sim,
            net,
            sources,
            sinks,
            clock: SimTime::ZERO,
        }
    }

    fn phase(&mut self, segment: Option<usize>) {
        for &s in &self.sources {
            self.sim.schedule(self.clock, s, Phase(segment));
        }
    }

    /// Run one segment of `SEGMENT_US` simulated µs; returns the events
    /// dispatched.
    fn segment(&mut self, seg: usize) -> u64 {
        self.phase(Some(seg));
        self.clock += SimDuration::from_us_f64(SEGMENT_US);
        self.sim.run_until(self.clock)
    }

    /// Pause the sources and run until the fabric is empty; returns the
    /// events dispatched.
    fn drain(&mut self) -> u64 {
        self.phase(None);
        let before = self.sim.events_dispatched();
        self.sim.run();
        self.clock = self.clock.max(self.sim.now());
        self.sim.events_dispatched() - before
    }

    /// One period: every segment, then a drain. Adds each part's host
    /// time to `seg_host_s` and returns the largest pending-event count
    /// seen at a part's end.
    fn period(&mut self, tracer: &mut Tracer, seg_host_s: &mut [f64; 3]) -> usize {
        let mut pending_peak = 0;
        for (seg, host_s) in seg_host_s.iter_mut().enumerate() {
            let name = SEGMENTS.get(seg).map_or("drain", |s| s.0);
            let span = tracer.begin("des.run", name);
            let t = Stopwatch::start();
            let events = if seg < SEGMENTS.len() {
                self.segment(seg)
            } else {
                self.drain()
            };
            *host_s += t.s();
            let pending = self.sim.pending_events();
            tracer.end_with(span, vec![("events", events), ("pending", pending as u64)]);
            pending_peak = pending_peak.max(pending);
        }
        pending_peak
    }

    fn totals(&self) -> Totals {
        let mut t = Totals {
            events: self.sim.events_dispatched(),
            stage_crossings: self.net.total_stage_crossings(&self.sim),
            crc_failures: self.net.total_crc_failures(&self.sim),
            ..Totals::default()
        };
        for &s in &self.sources {
            t.injected += self.sim.actor::<Source>(s).injected;
        }
        let mut d = Digest::default();
        for &s in &self.sinks {
            let k = self.sim.actor::<Sink>(s);
            t.delivered += k.delivered;
            t.corrupted += k.corrupted;
            t.latency_ps += k.latency_ps;
            d.word(k.digest.0);
        }
        t.latency_digest = d.0;
        t
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    events: u64,
    stage_crossings: u64,
    crc_failures: u64,
    injected: u64,
    delivered: u64,
    corrupted: u64,
    latency_ps: u64,
    latency_digest: u64,
}

/// Host seconds per standalone 16-endpoint `ArcticNetwork::build` (with
/// plain sink endpoints), as the mean over a batch of `BATCH` builds.
/// Only the builds are timed; each network is dropped before the next.
pub fn network_build_s() -> f64 {
    let mut ns = 0;
    for _ in 0..BATCH {
        let mut sim = Simulator::new();
        let ids: Vec<ActorId> = (0..ENDPOINTS)
            .map(|_| sim.add_actor(SinkEndpoint::default()))
            .collect();
        let t = Stopwatch::start();
        let net = ArcticNetwork::build(&mut sim, &ids, Default::default());
        ns += t.ns();
        std::hint::black_box((net, sim));
    }
    ns as f64 * 1e-9 / BATCH as f64
}

/// Host seconds per `Fabric::build`, as the mean over a batch of `BATCH`
/// builds, each dropped before the next.
fn fabric_build_s(seed: u64) -> f64 {
    let t = Stopwatch::start();
    for _ in 0..BATCH {
        std::hint::black_box(Fabric::build(seed));
    }
    t.s() / BATCH as f64
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    for _ in 0..SETUP_REPS {
        run.setup(fabric_build_s(args.seed));
    }
    // Two fabrics run the reference traffic; a third is measured.
    let references: Vec<Totals> = (0..2)
        .map(|_| {
            let mut f = Fabric::build(args.seed);
            let mut host = [0.0; 3];
            let mut off = Tracer::new(Stopwatch::start(), 0, false);
            for _ in 0..REFERENCE_PERIODS {
                f.period(&mut off, &mut host);
            }
            f.totals()
        })
        .collect();
    let reference = references[0];
    run.check(
        "fabric_reference_identical",
        references[1] == reference,
        format!(
            "{REFERENCE_PERIODS} periods: {} events, {} packets, {} stage crossings, latency digest {:016x}",
            reference.events, reference.delivered, reference.stage_crossings, reference.latency_digest
        ),
    );
    let mut f = Fabric::build(args.seed);

    let mut tracer = Tracer::new(Stopwatch::start(), 0, false);
    let mut seg_host_s = [0.0f64; 3];
    let mut pending_peak = 0usize;
    let mut undrained = 0u64;
    let start = f.totals();
    let sim_start = f.clock;
    let mut sampler = SetupSampler::default();
    let window = Stopwatch::start();
    while window.s() < args.seconds || run.ops == 0 {
        sampler.poll(&window, &mut run, || fabric_build_s(args.seed));
        let traced = args.trace && run.ops % 2 == 1;
        tracer.set(traced, run.ops);
        let span = tracer.begin("fabric.period", format!("period={}", run.ops));
        let t = Stopwatch::start();
        let peak = f.period(&mut tracer, &mut seg_host_s);
        let ms = t.ms();
        tracer.end(span);
        run.op(ms, traced);
        run.ops += 1;
        pending_peak = pending_peak.max(peak);
        let now = f.totals();
        undrained += u64::from(now.delivered != now.injected);
    }
    run.window_s = window.s() - run.excluded_s;
    let end = f.totals();
    tracer.set(false, 0);

    run.attempted = end.injected - start.injected;
    run.failed = (end.injected - end.delivered) + (end.corrupted - start.corrupted);
    run.check(
        "fabric_drained",
        undrained == 0 && end.delivered == end.injected && end.corrupted == 0 && end.crc_failures == 0,
        format!(
            "{} periods, {undrained} left packets in flight after the drain; {} of {} packets delivered, {} corrupt, {} CRC failures",
            run.ops, end.delivered, end.injected, end.corrupted, end.crc_failures
        ),
    );

    let sim_us = f.clock.since(sim_start).as_us_f64();
    run.named = vec![(
        "fabric_sim_us_per_wall_s",
        sim_us / run.window_s,
        "sim_us/s",
    )];
    if args.trace {
        let host_s: f64 = seg_host_s.iter().sum();
        let builds: Vec<f64> = (0..BUILD_REPS).map(|_| network_build_s()).collect();
        let l = &mut run.layer;
        l.insert("des.events", reference.events as f64);
        l.insert(
            "des.events_per_s",
            (end.events - start.events) as f64 / host_s,
        );
        l.insert("des.pending_peak", pending_peak as f64);
        l.insert("arctic.stage_crossings", reference.stage_crossings as f64);
        l.insert(
            "arctic.ns_per_stage_crossing",
            host_s * 1e9 / (end.stage_crossings - start.stage_crossings) as f64,
        );
        l.insert("arctic.crc_failures", end.crc_failures as f64);
        let rate = |seg: usize| SEGMENT_US * run.ops as f64 / seg_host_s[seg];
        l.insert("fabric.uniform.sim_us_per_wall_s", rate(0));
        l.insert("fabric.bitreverse.sim_us_per_wall_s", rate(1));
        l.insert("arctic.build_us", stats::median(&builds) * 1e6);
        run.spans = tracer.into_spans();
    }
    run
}
