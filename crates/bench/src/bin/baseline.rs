//! The perf-baseline harness: one deterministic, instrumented pass over
//! the E14-style experiments plus the fabric observatory, the run-health
//! observatory, the cross-rank critical-path profiler, the
//! fault-recovery tour, and the full static-analysis tree walk, emitting
//! `BENCH_pr10.json` — one point of the regression trajectory every
//! later PR is compared against.
//!
//! ```text
//! scripts/bench.sh            # full run
//! scripts/bench.sh --smoke    # CI-sized run (same checks, shorter windows)
//! baseline diff OLD NEW       # budgeted cross-run comparison
//! ```
//!
//! The harness fails (non-zero exit) if any of its embedded acceptance
//! checks fail:
//!
//! * the deliberately congested workload (bit-reverse at 0.8 offered
//!   load, deterministic up-routes) must flag at least one hotspot;
//! * the Prometheus exposition and the JSON manifest must be
//!   byte-identical across a same-seed double run;
//! * the telemetry tour's model-vs-measured phase residual must stay
//!   within the tour's own sanity bar (|residual| < 200 %): the analytic
//!   model and the executable simulation must not diverge wholesale;
//! * the coupled run-health observatory must finish with zero sentinel
//!   trips and byte-identical diagnostics across a same-seed double run;
//! * the full-tree hyades-lint pass (timed as `lint_full_tree_ms`) must
//!   come back clean;
//! * the interprocedural flow pass alone (call-graph build + effect
//!   fixpoint, timed as `lint_flow_ms`) must stay under its smoke
//!   budget;
//! * the SPMD collective-uniformity proof alone (taint fixpoint +
//!   sequence check, timed as `lint_uniform_ms`) must stay under the
//!   same smoke budget and report zero collective-divergence findings;
//! * the critical-path profiler must blame the injected straggler's
//!   exact (rank, phase), replay byte-identically across a same-seed
//!   double run, and keep the balanced run's per-step path within the
//!   phase model's residual budget;
//! * the fault-recovery tour (a seeded rank crash plus a lossy link
//!   window) must roll back, replay to a state bit-identical to the
//!   uninterrupted run, and retransmit its way to an exact global sum —
//!   surfaced as the `recovery` block.
//!
//! All raw artifacts land through the unified exporter API
//! ([`hyades_telemetry::Exporter`] / [`write_artifacts_to_dir`]): one
//! bundle, one writer, one file per [`hyades_telemetry::Artifact`].
//!
//! The `diff` subcommand compares two summaries through
//! [`hyades_bench::diff`]'s per-metric budgets and prints a
//! machine-readable verdict (non-zero exit on any busted budget).
//!
//! Wall-clock numbers in the output are environment-dependent by nature;
//! everything else in `BENCH_pr10.json` is deterministic.

use hyades::tour::{Straggler, TourConfig};
use hyades_arctic::observatory::ObservatoryConfig;
use hyades_arctic::packet::UpRoute;
use hyades_arctic::workload::{run_traffic_observed, Pattern};
use hyades_cluster::ethernet_sim::{
    EtherFrame, EtherSink, EthernetSim, FAST_ETHERNET_MBYTE_PER_SEC,
};
use hyades_des::{SimDuration, SimTime, Simulator};
use hyades_telemetry::{sampler, write_artifacts_to_dir, ArtifactKind};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 0x0B5_E7A;

/// Smoke budget for the interprocedural flow pass alone: call-graph
/// build plus effect fixpoint over the whole tree must stay interactive.
const FLOW_SMOKE_BUDGET_MS: f64 = 3000.0;

fn run_diff(paths: &[String]) -> ! {
    if paths.len() != 2 {
        eprintln!("usage: baseline diff OLD.json NEW.json");
        std::process::exit(2);
    }
    let read = |p: &String| {
        fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("FAIL: reading {p}: {e}");
            std::process::exit(2);
        })
    };
    let (old_src, new_src) = (read(&paths[0]), read(&paths[1]));
    match hyades_bench::diff::diff_summaries(&paths[0], &old_src, &paths[1], &new_src) {
        Ok((verdict, pass)) => {
            print!("{verdict}");
            std::process::exit(if pass { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    smoke: bool,
    out: PathBuf,
    artifact_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: PathBuf::from("BENCH_pr10.json"),
        artifact_dir: PathBuf::from("target/observatory"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--full" => args.smoke = false,
            "--out" => {
                args.out = PathBuf::from(it.next().expect("--out needs a path"));
            }
            "--artifacts" => {
                args.artifact_dir = PathBuf::from(it.next().expect("--artifacts needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        run_diff(&argv[1..]);
    }
    let args = parse_args();
    let mode = if args.smoke { "smoke" } else { "full" };
    let measure_us = if args.smoke { 120.0 } else { 400.0 };
    let wall = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    // 1. Telemetry tour: model-vs-measured phase residuals (E14).
    let wall_tour = Instant::now();
    let t = TourConfig::new(SEED).run_tour();
    let tour_ms = wall_tour.elapsed().as_secs_f64() * 1e3;
    if t.max_abs_residual >= 2.0 {
        failures.push(format!(
            "tour residual {:.1}% exceeds the 200% sanity bar",
            t.max_abs_residual * 100.0
        ));
    }

    // 2. Fabric observatory on the deliberately congested workload, run
    //    twice with the same seed: the exports must match byte-for-byte.
    let obs = ObservatoryConfig::new(5.0, 2.0 * measure_us);
    let observed = || {
        run_traffic_observed(
            16,
            Pattern::BitReverse,
            UpRoute::SourceSpread,
            0.8,
            measure_us,
            SEED,
            obs,
        )
    };
    let wall_fabric = Instant::now();
    let (traffic, report) = observed();
    let fabric_ms = wall_fabric.elapsed().as_secs_f64() * 1e3;
    let prom = report.prometheus();
    let manifest = report.json_manifest("bitreverse-0.8-sourcespread", SEED);
    let (_, report2) = observed();
    let prom_identical = prom == report2.prometheus();
    let manifest_identical = manifest == report2.json_manifest("bitreverse-0.8-sourcespread", SEED);
    if report.hotspots.is_empty() {
        failures.push("congested bit-reverse run detected no hotspot".into());
    }
    if !prom_identical {
        failures.push("prometheus exposition differs across same-seed double run".into());
    }
    if !manifest_identical {
        failures.push("json manifest differs across same-seed double run".into());
    }

    // 3. Ethernet contrast: the same sampler on a hammered switch port.
    let wall_ether = Instant::now();
    let mut sim = Simulator::new();
    let eps: Vec<_> = (0..16)
        .map(|_| sim.add_actor(EtherSink::default()))
        .collect();
    let enet = EthernetSim::build(&mut sim, &eps, FAST_ETHERNET_MBYTE_PER_SEC);
    enet.observe(
        &mut sim,
        SimDuration::from_us(50),
        SimTime::from_us_f64(20_000.0),
    );
    for s in 1..16u16 {
        for i in 0..10 {
            enet.inject_at(
                &mut sim,
                SimTime::from_us_f64(i as f64 * 3.0),
                EtherFrame {
                    src: s,
                    dst: 0,
                    payload_bytes: 1000,
                    injected_at: SimTime::ZERO,
                },
            );
        }
    }
    sim.run();
    let ether_samples = sampler::take().expect("ethernet run was observed");
    let ether_prom = EthernetSim::prometheus(&ether_samples);
    let ether_occ_p99 = ether_samples
        .get("ether.link", "p0", "occ")
        .map(|s| s.p99())
        .unwrap_or(0.0);
    let ether_ms = wall_ether.elapsed().as_secs_f64() * 1e3;

    // 4. Full-tree static analysis: time one cold pass of every rule over
    //    every workspace source (the per-PR `lint_full_tree_ms` figure).
    let wall_lint = Instant::now();
    let lint = hyades_lint::lint_workspace(&hyades_lint::workspace_root())
        .expect("lint pass over the workspace sources");
    let lint_ms = wall_lint.elapsed().as_secs_f64() * 1e3;
    if !lint.is_clean() {
        failures.push(format!(
            "hyades-lint found {} unsuppressed violation(s)",
            lint.violations.len()
        ));
    }

    // 5. The interprocedural flow pass alone (call graph + fixpoint),
    //    timed separately so regressions in the analysis itself show up.
    let sources = hyades_lint::collect_sources(&hyades_lint::workspace_root())
        .expect("collect workspace sources");
    let wall_flow = Instant::now();
    let fl = hyades_lint::flow::analyze(&sources, hyades_lint::flow::WORKSPACE_SINKS);
    let flow_ms = wall_flow.elapsed().as_secs_f64() * 1e3;
    let (det, dms, nondet) = fl.effect_counts();
    if args.smoke && flow_ms > FLOW_SMOKE_BUDGET_MS {
        failures.push(format!(
            "lint::flow took {flow_ms:.0} ms (smoke budget {FLOW_SMOKE_BUDGET_MS:.0} ms)"
        ));
    }

    // 5b. The SPMD collective-uniformity proof alone (rank-dependence
    //     taint fixpoint + collective-sequence check), timed separately
    //     and required to come back with zero divergences: the 16-node
    //     run's collective schedule is only trustworthy if no rank can
    //     branch around a blocking collective.
    let wall_uniform = Instant::now();
    let un = hyades_lint::uniform::analyze(&sources);
    let uniform_ms = wall_uniform.elapsed().as_secs_f64() * 1e3;
    let uniform_findings = un
        .findings
        .iter()
        .filter(|f| f.rule == "collective-divergence")
        .count();
    if uniform_findings != 0 {
        failures.push(format!(
            "lint::uniform found {uniform_findings} collective-divergence finding(s)"
        ));
    }
    if args.smoke && uniform_ms > FLOW_SMOKE_BUDGET_MS {
        failures.push(format!(
            "lint::uniform took {uniform_ms:.0} ms (smoke budget {FLOW_SMOKE_BUDGET_MS:.0} ms)"
        ));
    }

    // 6. Coupled tour: one run feeds both the run-health observatory and
    //    the critical-path profiler. The balanced run must keep the
    //    sentinel quiet and its path on the phase model; the straggler
    //    run (rank 2 + 1 s of PS compute per step) must get the exact
    //    blame; both must replay byte-identically across a double run.
    let straggler = Straggler {
        rank: 2,
        extra_flops: 50_000_000,
    };
    let wall_diag = Instant::now();
    let base = TourConfig::new(SEED).run_coupled();
    let diag_ms = wall_diag.elapsed().as_secs_f64() * 1e3;
    let wall_crit = Instant::now();
    let crit_perturbed = TourConfig::new(SEED)
        .straggler(straggler)
        .run_coupled()
        .critpath;
    let crit_ms = wall_crit.elapsed().as_secs_f64() * 1e3;
    let base2 = TourConfig::new(SEED).run_coupled();
    let crit_perturbed2 = TourConfig::new(SEED)
        .straggler(straggler)
        .run_coupled()
        .critpath;
    let (diag, crit_base) = (&base.diag, &base.critpath);
    let diag_identical = diag.text == base2.diag.text
        && diag.json == base2.diag.json
        && diag.prom == base2.diag.prom;
    if !diag_identical {
        failures.push("diagnostics exports differ across same-seed double run".into());
    }
    if diag.sentinel_trips != 0 {
        failures.push(format!(
            "blowup sentinel tripped {} time(s) on the healthy coupled run",
            diag.sentinel_trips
        ));
    }
    let critpath_identical = crit_base.report == base2.critpath.report
        && crit_base.json == base2.critpath.json
        && crit_perturbed.report == crit_perturbed2.report
        && crit_perturbed.json == crit_perturbed2.json;
    if !critpath_identical {
        failures.push("critpath artifacts differ across same-seed double run".into());
    }
    let blame_rank = crit_perturbed.blame.map(|(r, _)| r);
    let straggler_blamed = blame_rank == Some(straggler.rank);
    if !straggler_blamed {
        failures.push(format!(
            "critpath blamed rank {blame_rank:?}, injected straggler was rank {}",
            straggler.rank
        ));
    }
    if crit_base.max_step_residual.abs() >= 2.0 {
        failures.push(format!(
            "balanced critical path off the phase model by {:.1}% (budget 200%)",
            crit_base.max_step_residual * 100.0
        ));
    }

    // 7. Fault-recovery tour: a seeded rank crash plus a lossy link
    //    window, end to end. The run must roll back, replay to a state
    //    bit-identical to the uninterrupted reference, and retransmit
    //    its way to an exact global sum.
    let wall_rec = Instant::now();
    let rec = TourConfig::new(SEED)
        .fault_plan(TourConfig::demo_fault_plan(SEED))
        .run_resilient();
    let rec_ms = wall_rec.elapsed().as_secs_f64() * 1e3;
    if rec.restarts == 0 {
        failures.push("fault-recovery tour: planned rank crash never fired".into());
    }
    if !rec.recovered_identical {
        failures.push("fault-recovery tour: recovered run not bit-identical".into());
    }
    if rec.retries == 0 {
        failures.push("fault-recovery tour: link faults produced no retransmits".into());
    }

    // Every raw artifact through the one unified bundle: fabric
    // observatory, ethernet contrast, run-health diagnostics, both
    // critical-path runs, and the recovery tour — one writer, one file
    // per artifact, legacy file names preserved.
    let bundle = report
        .as_exporter("bitreverse-0.8-sourcespread", SEED)
        .with("ethernet", ArtifactKind::Prom, ether_prom.clone())
        .extend_from(&diag.exporter())
        .extend_from(&crit_base.exporter("critpath"))
        .extend_from(&crit_perturbed.exporter("critpath_straggler"))
        .extend_from(&rec.exporter());
    write_artifacts_to_dir(&bundle, &args.artifact_dir).expect("write artifact dir");

    // The summary JSON.
    let worst = report.hotspots.first();
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\n  \"bench\": \"pr10-baseline\",\n  \"mode\": \"{mode}\",\n  \"seed\": {SEED},\n"
    );
    let _ = write!(
        j,
        "  \"wall_ms\": {{\"total\": {:.1}, \"tour\": {tour_ms:.1}, \"fabric\": {fabric_ms:.1}, \"ethernet\": {ether_ms:.1}, \"diag\": {diag_ms:.1}, \"critpath\": {crit_ms:.1}, \"recovery\": {rec_ms:.1}, \"lint_full_tree_ms\": {lint_ms:.1}, \"lint_flow_ms\": {flow_ms:.1}, \"lint_uniform_ms\": {uniform_ms:.1}}},\n",
        wall.elapsed().as_secs_f64() * 1e3
    );
    let _ = write!(
        j,
        "  \"lint\": {{\"files_scanned\": {}, \"violations\": {}}},\n",
        lint.files_scanned,
        lint.violations.len()
    );
    let _ = write!(
        j,
        "  \"flow\": {{\"functions\": {}, \"call_edges\": {}, \"det\": {det}, \"det_modulo_seed\": {dms}, \"nondet\": {nondet}, \"sinks\": {}}},\n",
        fl.functions,
        fl.call_edges,
        fl.sinks.len()
    );
    let _ = write!(
        j,
        "  \"uniform\": {{\"functions\": {}, \"call_edges\": {}, \"collective_sites\": {}, \"collective_fns\": {}, \"trusted\": {}, \"findings\": {uniform_findings}}},\n",
        un.functions,
        un.call_edges,
        un.collective_sites,
        un.fns.len(),
        un.trusted.len()
    );
    let _ = write!(
        j,
        "  \"tour\": {{\"max_abs_residual\": {:.6}, \"max_step_residual\": {:.6}, \"span_count\": {}}},\n",
        t.max_abs_residual, t.max_step_residual, t.span_count
    );
    let _ = write!(
        j,
        "  \"diag\": {{\"steps\": {}, \"cg_iters_p50\": {}, \"cg_iters_p99\": {}, \"max_cfl\": {:.6}, \"sentinel_trips\": {}}},\n",
        diag.steps, diag.cg_iters_p50, diag.cg_iters_p99, diag.max_cfl, diag.sentinel_trips
    );
    let _ = write!(
        j,
        "  \"fabric\": {{\"pattern\": \"bit_reverse\", \"uproute\": \"source_spread\", \
         \"offered_fraction\": 0.8,\n    \"simulated_us\": {:.1}, \"delivered_mbyte_per_sec\": {:.3}, \
         \"latency_mean_us\": {:.3}, \"latency_max_us\": {:.3},\n    \"packets_delivered\": {}, \
         \"links_sampled\": {}, \"sample_ticks\": {}, \"hotspots\": {},\n",
        2.0 * measure_us,
        traffic.delivered_mbyte_per_sec,
        traffic.latency.mean(),
        traffic.latency.max(),
        traffic.packets_delivered,
        report.links.len(),
        report.ticks,
        report.hotspots.len(),
    );
    match worst {
        Some(h) => {
            let _ = write!(
                j,
                "    \"worst_hotspot\": {{\"link\": \"{}\", \"occ_p99\": {:.3}, \"util_mean\": {:.3}, \"stall_us\": {:.1}}}}},\n",
                h.entity, h.occ_p99, h.util_mean, h.stall_us
            );
        }
        None => {
            j.push_str("    \"worst_hotspot\": null},\n");
        }
    }
    let _ = write!(
        j,
        "  \"ethernet\": {{\"rate_mbyte_per_sec\": {FAST_ETHERNET_MBYTE_PER_SEC:.1}, \
         \"hammered_port_occ_p99\": {ether_occ_p99:.3}}},\n"
    );
    let _ = write!(
        j,
        "  \"critpath\": {{\"max_step_residual\": {:.6}, \"balanced_path_us\": {:.6}, \"straggler_path_us\": {:.6}, \"messages\": {}, \"straggler_blamed\": {straggler_blamed}, \"blame_rank\": {}}},\n",
        crit_base.max_step_residual,
        crit_base.total_path_us,
        crit_perturbed.total_path_us,
        crit_base.messages,
        blame_rank
            .map(|r| r.to_string())
            .unwrap_or_else(|| "null".into())
    );
    let _ = write!(j, "  \"recovery\": {},\n", rec.json);
    let _ = write!(
        j,
        "  \"determinism\": {{\"prometheus_identical\": {prom_identical}, \"manifest_identical\": {manifest_identical}, \"diag_identical\": {diag_identical}, \"critpath_identical\": {critpath_identical}, \"recovery_identical\": {}}},\n",
        rec.recovered_identical
    );
    let _ = write!(
        j,
        "  \"failures\": [{}]\n}}\n",
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    fs::write(&args.out, &j).expect("write bench summary");

    println!("perf baseline ({mode}) -> {}", args.out.display());
    println!(
        "  fabric: {} links sampled, {} ticks, {} hotspot(s); worst {}",
        report.links.len(),
        report.ticks,
        report.hotspots.len(),
        worst.map(|h| h.entity.as_str()).unwrap_or("-"),
    );
    println!(
        "  exports: prometheus {} B, manifest {} B, byte-identical double run: {}",
        prom.len(),
        manifest.len(),
        prom_identical && manifest_identical
    );
    println!(
        "  tour residual {:.2}% (per-step max {:.2}%), ethernet hammered-port occ p99 {:.1}",
        t.max_abs_residual * 100.0,
        t.max_step_residual * 100.0,
        ether_occ_p99
    );
    println!(
        "  diag: {} steps/component, cg p50/p99 {}/{} iters, max CFL {:.3}, trips {}, byte-identical: {diag_identical}",
        diag.steps, diag.cg_iters_p50, diag.cg_iters_p99, diag.max_cfl, diag.sentinel_trips
    );
    println!(
        "  critpath: balanced {:.1} us / straggler {:.1} us over {} msgs, blame rank {}, byte-identical: {critpath_identical}",
        crit_base.total_path_us,
        crit_perturbed.total_path_us,
        crit_base.messages,
        blame_rank
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into())
    );
    println!(
        "  recovery: {} checkpoint(s), {} restart(s), {} step(s) replayed, {} retransmit(s), bit-identical: {}",
        rec.checkpoints, rec.restarts, rec.replayed_steps, rec.retries, rec.recovered_identical
    );
    println!(
        "  lint: {} files in {lint_ms:.0} ms, {} violation(s)",
        lint.files_scanned,
        lint.violations.len()
    );
    println!(
        "  flow: {} fns, {} edges in {flow_ms:.0} ms ({det} Det / {dms} DetModuloSeed / {nondet} Nondet), {} sink(s) proven",
        fl.functions,
        fl.call_edges,
        fl.sinks.len()
    );
    println!(
        "  uniform: {} collective site(s) in {uniform_ms:.0} ms, {} trusted, {uniform_findings} divergence(s)",
        un.collective_sites,
        un.trusted.len()
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
