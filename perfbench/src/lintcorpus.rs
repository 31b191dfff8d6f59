//! `lint_corpus`: full static-analysis passes over an in-memory Rust
//! corpus generated from the seed. One operation is one pass:
//! `rules::analyze_file` on every file, then `flow::analyze` against
//! `WORKSPACE_SINKS`, then `uniform::analyze`.
//!
//! The corpus is shaped like the repository's own scanned tree: 178
//! files, 1824 functions, about 9.9k resolved call edges and 55
//! collective call sites, with `.rank()`-dependent branches, functions
//! named and placed like the flow sinks, wall-clock and unseeded-RNG
//! sources, `lint:allow` pragmas and both trust pragmas. The live tree
//! changes with every commit, so it cannot be the fixed input; the
//! corpus never touches the disk, so the lint scan roots never see it.

use crate::clock::Stopwatch;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{Args, Run, SetupSampler};
use hyades_des::rng::SplitMix64;
use hyades_lint::{flow, rules, uniform};
use std::fmt::Write as _;

const FILES: usize = 178;
const FUNCTIONS: usize = 1824;
const COLLECTIVE_SITES: usize = 55;
/// Accepted range of `flow` call edges for a generated corpus.
const CALL_EDGES: std::ops::RangeInclusive<usize> = 8_500..=11_500;
/// Seed of the corpus's shape. `uniform` iterates to a fixpoint over the
/// call graph, and its round count follows the depth of the rank-taint
/// chains: on two seeded call graphs it took 108 and 186 ms a pass. One
/// fixed graph keeps that out of the seed-to-seed spread.
const SHAPE_SEED: u64 = 0x4879_6164_6573;
/// Collective functions exempted with `lint:uniform-trusted`.
const TRUSTED_SITES: usize = 3;
/// Set-up (corpus generation) repetitions for `setup_s` before the
/// window; more are taken during it.
const SETUP_REPS: usize = 5;

const CRATES: &[&str] = &[
    "des",
    "arctic",
    "comms",
    "gcm",
    "telemetry",
    "cluster",
    "perf",
    "startx",
    "core",
    "fault",
    "lint",
    "bench",
];
/// Files placed and named like the flow sinks' path hints, with the sink
/// function defined in each (see `SINK_FNS`).
const SINK_FILES: &[&str] = &[
    "crates/comms/src/world.rs",
    "crates/comms/src/gsum.rs",
    "crates/comms/src/exchange.rs",
    "crates/gcm/src/halo.rs",
    "crates/telemetry/src/export.rs",
    "crates/telemetry/src/prom.rs",
    "crates/arctic/src/observatory.rs",
    "crates/cluster/src/ethernet_sim.rs",
    "crates/des/src/trace.rs",
    "crates/telemetry/src/artifact.rs",
];
const SINK_FNS: &[&[&str]] = &[
    &["global_max", "exchange", "global_sum", "global_sum_vec"],
    &["measure_gsum", "measure_gsum_tree"],
    &["measure_exchange"],
    &["exchange3"],
    &["chrome_trace_json", "text_summary"],
    &["render_registry"],
    &["prometheus", "json_manifest"],
    &["prometheus"],
    &["dump"],
    &["write_artifacts_to_dir"],
];
/// Method names shared across the generated types: a call on a receiver
/// of unknown type resolves to every method of that name.
const METHODS: &[&str] = &[
    "step", "update", "apply", "merge", "flush", "reset", "scale", "observe", "advance", "settle",
    "drain", "pack", "unpack", "route", "charge", "absorb", "relax", "sample", "encode", "decode",
];
const WORDS: &[&str] = &[
    "halo", "tile", "rank", "flux", "budget", "stage", "packet", "router", "solver", "residual",
    "tracer", "buffer", "window", "epoch", "column", "level", "stencil", "queue", "event", "link",
];
const COLLECTIVES: &[&str] = &[
    "global_sum",
    "global_max",
    "exchange",
    "barrier",
    "global_sum_vec",
];
/// Sink functions whose names the collective catalog also holds: calling
/// one would add a collective site, so nothing calls them.
const CATALOG_NAMES: &[&str] = &[
    "global_max",
    "exchange",
    "global_sum",
    "global_sum_vec",
    "measure_gsum",
    "measure_gsum_tree",
    "measure_exchange",
    "exchange3",
];

#[derive(Clone)]
struct FileSpec {
    path: String,
    module: String,
    crate_name: Option<&'static str>,
    ty: String,
    fns: Vec<FnSpec>,
}

#[derive(Clone)]
struct FnSpec {
    name: String,
    /// Method of the file's type (`&self` receiver).
    method: bool,
    test: bool,
    /// Takes a `w: &mut dyn CommWorld` and issues one collective.
    collective: Option<&'static str>,
    /// Carries a `lint:uniform-trusted` pragma over a rank-dependent
    /// loop around its collective.
    trusted: bool,
}

fn pick<'a, T>(rng: &mut SplitMix64, xs: &'a [T]) -> &'a T {
    &xs[rng.next_below(xs.len() as u64) as usize]
}

/// File paths, function counts and roles. Every count the shape check
/// tests is fixed here, independent of the seed.
fn layout(rng: &mut SplitMix64) -> Vec<FileSpec> {
    let mut files = Vec::with_capacity(FILES);
    for i in 0..FILES {
        let (path, crate_name) = if i < SINK_FILES.len() {
            let p = SINK_FILES[i];
            (p.to_string(), Some(p.split('/').nth(1).expect("crate dir")))
        } else if i < FILES - 12 {
            let c = CRATES[i % CRATES.len()];
            (format!("crates/{c}/src/m{i:03}.rs"), Some(c))
        } else if i < FILES - 4 {
            (format!("tests/gen_{i:03}.rs"), None)
        } else {
            (format!("examples/gen_{i:03}.rs"), None)
        };
        let module = path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .expect("file name")
            .to_string();
        let crate_name = crate_name.and_then(|c| CRATES.iter().copied().find(|&k| k == c));
        files.push(FileSpec {
            ty: format!("Gen{i:03}"),
            path,
            module,
            crate_name,
            fns: Vec::new(),
        });
    }
    // 10 functions per file, one more in 44 seeded files: 1824.
    let mut extra: Vec<usize> = (0..FILES).collect();
    for i in (1..extra.len()).rev() {
        extra.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    extra.truncate(FUNCTIONS - 10 * FILES);
    for (fi, f) in files.iter_mut().enumerate() {
        let n = 10 + usize::from(extra.contains(&fi));
        let test_file = f.crate_name.is_none() && f.path.starts_with("tests/");
        let sink_names: &[&str] = SINK_FNS.get(fi).copied().unwrap_or(&[]);
        // A fifth of the library files end in a test module.
        let tests_in_src = usize::from(f.crate_name.is_some() && fi % 5 == 0) * 2;
        for k in 0..n {
            let test = test_file || k >= n - tests_in_src;
            let method = !test && k >= 6 && k < n - tests_in_src;
            let name = if let Some(s) = sink_names.get(k) {
                s.to_string()
            } else if method {
                // Distinct within the type and shared across the library
                // types; the top layer's names are its own, so calls by
                // name from below never reach its unseeded sources.
                let m = METHODS[(fi * 7 + k) % METHODS.len()];
                if layer(f) >= CRATES.len() - 1 {
                    format!("{m}_{fi}")
                } else {
                    format!("{m}_{}", rng.next_below(3))
                }
            } else {
                format!("f{fi:03}_{k}")
            };
            f.fns.push(FnSpec {
                name,
                method,
                test,
                collective: None,
                trusted: false,
            });
        }
    }
    // 55 collective sites, one per function, in non-test free functions
    // of the communicating crates.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if matches!(f.crate_name, Some("comms" | "gcm" | "core" | "telemetry")) {
            for (k, g) in f.fns.iter().enumerate() {
                if !g.test && !g.method && k >= SINK_FNS.get(fi).map_or(0, |s| s.len()) {
                    candidates.push((fi, k));
                }
            }
        }
    }
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    for (i, &(fi, k)) in candidates.iter().take(COLLECTIVE_SITES).enumerate() {
        files[fi].fns[k].collective = Some(*pick(rng, COLLECTIVES));
        files[fi].fns[k].trusted = i < TRUSTED_SITES;
    }
    files
}

/// Render one file: `shape` draws what the call graph and the rank
/// taint depend on, `text` everything else.
fn render(files: &[FileSpec], fi: usize, shape: &mut SplitMix64, text: &mut SplitMix64) -> String {
    let f = &files[fi];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "//! Generated {} module {}: {} and {} bookkeeping.\n",
        f.crate_name.unwrap_or("workspace"),
        f.module,
        pick(text, WORDS),
        pick(text, WORDS)
    );
    s.push_str("use hyades_comms::CommWorld;\nuse std::collections::HashMap;\n\n");
    let _ = writeln!(
        s,
        "/// State carried between {} steps.\npub struct {} {{\n    pub level: f64,\n    pub count: usize,\n}}\n",
        pick(text, WORDS),
        f.ty
    );
    let lib = f.crate_name.is_some();
    let in_test_mod = |g: &FnSpec| lib && g.test;
    let mut i = 0;
    // Free functions.
    while i < f.fns.len() && !f.fns[i].method && !in_test_mod(&f.fns[i]) {
        render_fn(&mut s, files, fi, i, "", shape, text);
        i += 1;
    }
    if i < f.fns.len() && f.fns[i].method {
        let _ = writeln!(s, "impl {} {{", f.ty);
        while i < f.fns.len() && f.fns[i].method {
            render_fn(&mut s, files, fi, i, "    ", shape, text);
            i += 1;
        }
        s.push_str("}\n\n");
    }
    if i < f.fns.len() {
        s.push_str("#[cfg(test)]\nmod tests {\n    use super::*;\n\n");
        while i < f.fns.len() {
            render_fn(&mut s, files, fi, i, "    ", shape, text);
            i += 1;
        }
        s.push_str("}\n");
    }
    s
}

/// Dependency layer of a file: its crate's place in `CRATES` (lowest
/// first), with tests and examples on top.
fn layer(f: &FileSpec) -> usize {
    f.crate_name
        .and_then(|c| CRATES.iter().position(|&k| k == c))
        .unwrap_or(CRATES.len())
}

/// A call from function `k` of file `fi` to a seeded target, as an
/// expression yielding `f64`. Calls go to earlier functions of the same
/// file or to files below it (a lower layer, or an earlier file of the
/// same layer), so the graph is layered like a real workspace; only
/// calls on a receiver of unknown type may resolve upwards.
fn call(files: &[FileSpec], fi: usize, k: usize, rng: &mut SplitMix64) -> String {
    let caller = &files[fi].fns[k];
    let below = |tf: usize| {
        let (a, b) = (layer(&files[tf]), layer(&files[fi]));
        a < b || (a == b && tf < fi)
    };
    for _ in 0..32 {
        let roll = rng.next_below(100);
        let tf = if roll < 40 {
            fi
        } else {
            rng.next_below(FILES as u64) as usize
        };
        if tf != fi && !below(tf) {
            continue;
        }
        let target_file = &files[tf];
        let tk = rng.next_below(target_file.fns.len() as u64) as usize;
        let g = &target_file.fns[tk];
        if (tf == fi && tk >= k)
            || (g.test && !caller.test)
            || (g.collective.is_some() && caller.collective.is_none())
            || CATALOG_NAMES.contains(&g.name.as_str())
        {
            continue;
        }
        let w = if g.collective.is_some() { ", w" } else { "" };
        return if g.method {
            if roll.is_multiple_of(7) {
                // Receiver of unknown type: resolves by name.
                format!("item.{}(acc)", g.name)
            } else {
                format!(
                    "{ty}::{}(&{ty} {{ level: 0.5, count: 4 }}, acc)",
                    g.name,
                    ty = target_file.ty
                )
            }
        } else if tf == fi {
            format!("{}(acc, n{w})", g.name)
        } else {
            format!("{}::{}(acc, n{w})", target_file.module, g.name)
        };
    }
    "acc.sqrt()".to_string()
}

fn render_fn(
    s: &mut String,
    files: &[FileSpec],
    fi: usize,
    k: usize,
    ind: &str,
    shape: &mut SplitMix64,
    rng: &mut SplitMix64,
) {
    let f = &files[fi];
    let g = &f.fns[k];
    let _ = writeln!(
        s,
        "{ind}/// Advance the {} {} by one {} ({} in, {} out).",
        pick(rng, WORDS),
        pick(rng, WORDS),
        pick(rng, WORDS),
        pick(rng, WORDS),
        pick(rng, WORDS)
    );
    if g.trusted {
        let _ = writeln!(
            s,
            "{ind}// lint:uniform-trusted(the loop bound is reduced before the loop on every rank)"
        );
    } else if !g.test && rng.next_below(150) == 0 {
        let _ = writeln!(
            s,
            "{ind}// lint:det-trusted(seeded by the caller's run seed)"
        );
    }
    if g.test {
        let _ = writeln!(s, "{ind}#[test]\n{ind}fn {}() {{", g.name);
    } else if g.method {
        let _ = writeln!(s, "{ind}pub fn {}(&self, x: f64) -> f64 {{", g.name);
    } else if g.collective.is_some() {
        let _ = writeln!(
            s,
            "{ind}pub fn {}(x: f64, n: usize, w: &mut dyn CommWorld) -> f64 {{",
            g.name
        );
    } else {
        let _ = writeln!(s, "{ind}pub fn {}(x: f64, n: usize) -> f64 {{", g.name);
    }
    let b = format!("{ind}    ");
    if g.test {
        let _ = writeln!(s, "{b}let x = 1.5;\n{b}let n = 4usize;");
    } else if g.method {
        let _ = writeln!(
            s,
            "{b}let n = self.count.min(8);\n{b}let x = x + self.level;"
        );
    }
    let _ = writeln!(
        s,
        "{b}let mut acc = x * {}.{};\n{b}let item = {} {{ level: acc, count: n }};",
        1 + rng.next_below(9),
        rng.next_below(100),
        f.ty
    );
    let _ = writeln!(
        s,
        "{b}for i in 0..n.min({}) {{\n{b}    acc += (i as f64) * 0.{};\n{b}}}",
        2 + rng.next_below(14),
        1 + rng.next_below(9)
    );
    let calls = 2 + shape.next_below(6);
    for c in 0..calls {
        let expr = call(files, fi, k, shape);
        let _ = writeln!(s, "{b}let c{c} = {expr};");
        match shape.next_below(4) {
            0 => {
                let _ = writeln!(
                    s,
                    "{b}if c{c} > acc {{\n{b}    acc -= c{c} * 0.5;\n{b}}} else {{\n{b}    acc += c{c};\n{b}}}"
                );
            }
            1 => {
                let _ = writeln!(
                    s,
                    "{b}// Fold the {} into the {}.",
                    pick(rng, WORDS),
                    pick(rng, WORDS)
                );
                let _ = writeln!(s, "{b}acc = acc.max(c{c}) + {}.0;", rng.next_below(7));
            }
            _ => {
                let _ = writeln!(s, "{b}acc += c{c};");
            }
        }
    }
    hazards(s, f, g, &b, rng);
    if let Some(coll) = g.collective {
        collective(s, coll, g.trusted, &b, shape);
    }
    if g.test {
        let _ = writeln!(s, "{b}assert!(acc.is_finite() || acc.is_nan());\n{ind}}}\n");
    } else {
        let _ = writeln!(
            s,
            "{b}let v: Vec<f64> = (0..n).map(|k| k as f64 * acc).collect();\n{b}acc + v.len() as f64\n{ind}}}\n"
        );
    }
}

/// Occasional rule hazards: wall clock, unseeded RNG, hash iteration,
/// unwraps — some behind a reasoned `lint:allow`.
fn hazards(s: &mut String, f: &FileSpec, g: &FnSpec, b: &str, rng: &mut SplitMix64) {
    if g.test {
        return;
    }
    match rng.next_below(60) {
        0 => {
            let _ = writeln!(
                s,
                "{b}// lint:allow(instant-wallclock, progress display only)\n{b}let t0 = std::time::Instant::now();\n{b}acc += t0.elapsed().as_secs_f64() * 0.0;"
            );
        }
        // Unseeded sources live only where nothing below calls them.
        1 if layer(f) >= CRATES.len() - 1 => {
            let _ = writeln!(
                s,
                "{b}let jitter: f64 = rand::thread_rng().gen();\n{b}acc += jitter * 0.0;"
            );
        }
        2 if f.crate_name == Some("des") => {
            let _ = writeln!(
                s,
                "{b}let mut seen: HashMap<u64, f64> = HashMap::new();\n{b}seen.insert(1, acc);\n{b}// lint:allow(hash-iteration, one entry: the order cannot matter)\n{b}for (_, v) in seen.iter() {{\n{b}    acc += v;\n{b}}}"
            );
        }
        3 => {
            let _ = writeln!(
                s,
                "{b}let parsed: f64 = \"1.0\".parse().unwrap();\n{b}acc += parsed;"
            );
        }
        _ => {}
    }
}

/// The function's one collective call site, sometimes under a
/// rank-dependent condition.
fn collective(s: &mut String, coll: &str, trusted: bool, b: &str, rng: &mut SplitMix64) {
    let site = match coll {
        "exchange" => {
            "let got = w.exchange(vec![(0, vec![acc])]);\nacc += got.len() as f64;".to_string()
        }
        "barrier" => "w.barrier();".to_string(),
        "global_sum_vec" => {
            "let mut xs = [acc, 1.0];\nw.global_sum_vec(&mut xs);\nacc = xs[0];".to_string()
        }
        other => format!("acc = w.{other}(acc);"),
    };
    let site = |ind: &str| {
        site.lines()
            .map(|l| format!("{b}{ind}{l}\n"))
            .collect::<String>()
    };
    if trusted {
        let _ = write!(s, "{b}for _ in 0..w.rank() {{\n{}{b}}}\n", site("    "));
        return;
    }
    match rng.next_below(6) {
        0 => {
            // Rank-dependent branch around local work only: uniform.
            let _ = write!(
                s,
                "{b}if w.rank() == 0 {{\n{b}    acc += 1.0;\n{b}}}\n{}",
                site("")
            );
        }
        1 => {
            let _ = write!(
                s,
                "{b}if w.rank() % 2 == 1 {{ // lint:allow(collective-divergence, every rank reaches the matching site through the sibling helper)\n{}{b}}}\n",
                site("    ")
            );
        }
        _ => s.push_str(&site("")),
    }
}

/// Generate the corpus as `(path, contents)`, sorted by path. The seed
/// draws the text: comments, constants, loop bounds, rule hazards and
/// pragmas. The layout, the call graph and the collective sites come
/// from `SHAPE_SEED`, as the file and function counts are fixed.
fn generate(seed: u64) -> Vec<(String, String)> {
    let mut shape = SplitMix64::new(SHAPE_SEED);
    let mut text = SplitMix64::new(seed);
    let files = layout(&mut shape);
    let mut out: Vec<(String, String)> = (0..files.len())
        .map(|fi| {
            (
                files[fi].path.clone(),
                render(&files, fi, &mut shape, &mut text),
            )
        })
        .collect();
    out.sort();
    out
}

struct Pass {
    rules_ms: f64,
    flow_ms: f64,
    uniform_ms: f64,
    findings: u64,
    digest: u64,
    functions: usize,
    flow_edges: usize,
    uniform_edges: usize,
    collective_sites: usize,
}

fn pass(corpus: &[(String, String)], tracer: &mut Tracer) -> Pass {
    let mut d = Digest::default();
    let mut findings = 0u64;
    let mut note = |fs: &[rules::Finding]| {
        for f in fs {
            d.word(f.line as u64);
            d.word(f.rule.len() as u64);
            for chunk in [
                f.rel_path.as_bytes(),
                f.rule.as_bytes(),
                f.message.as_bytes(),
            ] {
                for &byte in chunk {
                    d.word(u64::from(byte));
                }
            }
        }
        findings += fs.len() as u64;
    };

    let span = tracer.begin("lint.rules", "");
    let t = Stopwatch::start();
    let per_file: Vec<rules::FileAnalysis> = corpus
        .iter()
        .map(|(rel, src)| rules::analyze_file(rel, src))
        .collect();
    let rules_ms = t.ms();
    tracer.end(span);

    let span = tracer.begin("lint.flow", "");
    let t = Stopwatch::start();
    let fl = flow::analyze(corpus, flow::WORKSPACE_SINKS);
    let flow_ms = t.ms();
    tracer.end(span);

    let span = tracer.begin("lint.uniform", "");
    let t = Stopwatch::start();
    let un = uniform::analyze(corpus);
    let uniform_ms = t.ms();
    tracer.end(span);

    for fa in &per_file {
        note(&fa.findings);
    }
    note(&fl.findings);
    note(&un.findings);
    Pass {
        rules_ms,
        flow_ms,
        uniform_ms,
        findings,
        digest: d.0,
        functions: fl.functions,
        flow_edges: fl.call_edges,
        uniform_edges: un.call_edges,
        collective_sites: un.collective_sites,
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Stopwatch::start();
        corpus = generate(args.seed);
        run.setup(t.s());
    }
    let bytes: usize = corpus.iter().map(|(_, c)| c.len()).sum();
    let lines: usize = corpus.iter().map(|(_, c)| c.lines().count()).sum();

    let mut tracer = Tracer::new(Stopwatch::start(), 0, false);
    let mut passes = Vec::new();
    let mut sampler = SetupSampler::default();
    let window = Stopwatch::start();
    while window.s() < args.seconds || passes.is_empty() {
        sampler.poll(&window, &mut run, || {
            let t = Stopwatch::start();
            std::hint::black_box(generate(args.seed));
            t.s()
        });
        let n = passes.len();
        let traced = args.trace && n % 2 == 1;
        tracer.set(traced, n as u64);
        let span = tracer.begin("lint.pass", format!("pass={n}"));
        let t = Stopwatch::start();
        let p = pass(&corpus, &mut tracer);
        let ms = t.ms();
        tracer.end(span);
        run.op(ms, traced);
        passes.push(p);
    }
    run.window_s = window.s() - run.excluded_s;
    run.ops = passes.len() as u64;
    run.attempted = run.ops;

    let first = &passes[0];
    let unstable = passes.iter().filter(|p| p.digest != first.digest).count();
    run.failed = unstable as u64;
    run.check(
        "lint_findings_stable",
        unstable == 0,
        format!(
            "{} passes, {} findings, digest {:016x}",
            passes.len(),
            first.findings,
            first.digest
        ),
    );
    run.check(
        "lint_corpus_shape",
        corpus.len() == FILES
            && first.functions == FUNCTIONS
            && first.collective_sites == COLLECTIVE_SITES
            && CALL_EDGES.contains(&first.flow_edges),
        format!(
            "{} files ({lines} lines, {bytes} bytes), {} functions, {} collective sites, {} call edges",
            corpus.len(),
            first.functions,
            first.collective_sites,
            first.flow_edges
        ),
    );

    run.named = vec![("lint_pass_ms.p50", stats::median(&run.op_ms), "ms")];
    if args.trace {
        let traced: Vec<&Pass> = passes.iter().skip(1).step_by(2).collect();
        let med =
            |f: fn(&Pass) -> f64| stats::median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
        run.layer.extend([
            ("lint.rules_ms", med(|p| p.rules_ms)),
            ("lint.flow_ms", med(|p| p.flow_ms)),
            ("lint.uniform_ms", med(|p| p.uniform_ms)),
            ("lint.files", corpus.len() as f64),
            ("lint.functions", first.functions as f64),
            ("lint.findings", first.findings as f64),
            ("lint.flow.call_edges", first.flow_edges as f64),
            ("lint.uniform.call_edges", first.uniform_edges as f64),
        ]);
        run.spans = tracer.into_spans();
    }
    run
}
