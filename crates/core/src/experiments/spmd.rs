//! E20 — §3/§5: static SPMD collective-uniformity proof.
//!
//! The paper's machine is a single-program-multiple-data ensemble: all
//! endpoints step the same model and meet at blocking exchanges and
//! reductions every timestep. One rank taking a rank-dependent branch
//! around a collective is the classic SPMD deadlock, and no amount of
//! recorded-run checking (E17's dynamic cousin, the happens-before
//! checker) can rule it out for inputs that were never run. This
//! experiment runs [`hyades_lint::uniform`] over the whole workspace —
//! rank-dependence taint fixpoint over the call graph, per-function
//! collective-sequence abstraction — and emits the per-crate proof
//! table: every collective call site in non-test code is reached
//! uniformly, or sits in a function carrying an audited
//! `lint:uniform-trusted` pragma.

use hyades_lint::uniform::{self, UniformReport};

pub struct SpmdReport {
    pub files: usize,
    pub uniform: UniformReport,
}

pub fn measure() -> SpmdReport {
    let sources = hyades_lint::collect_sources(&hyades_lint::workspace_root())
        .unwrap_or_else(|e| panic!("collecting workspace sources: {e}"));
    let uniform = uniform::analyze(&sources);
    SpmdReport {
        files: sources.len(),
        uniform,
    }
}

pub fn run() -> String {
    let rep = measure();
    let un = &rep.uniform;
    let mut s = String::new();
    s.push_str("E20 Sections 3/5: static SPMD collective-uniformity proof\n\n");
    s.push_str(&format!(
        "workspace: {} files, {} functions, {} call edges\n",
        rep.files, un.functions, un.call_edges
    ));
    s.push_str(&format!(
        "collective call sites in non-test code: {}\n",
        un.collective_sites
    ));
    s.push_str("lattice: Uniform < RankDependent; sources: .rank reads, received halo data\n");
    s.push_str(&format!(
        "fixpoint: converged after {} rounds ({} fn walks)\n\n",
        un.rounds, un.walks
    ));

    s.push_str("per-crate proof table:\n");
    s.push_str(&format!(
        "  {:<12} {:>4} {:>6} {:>7} {:>8} {:>9}\n",
        "crate", "fns", "sites", "proven", "trusted", "divergent"
    ));
    for c in &un.crates {
        s.push_str(&format!(
            "  {:<12} {:>4} {:>6} {:>7} {:>8} {:>9}\n",
            c.crate_name,
            c.fns_with_collectives,
            c.collective_sites,
            c.proven,
            c.trusted,
            c.findings
        ));
    }

    s.push_str(&format!(
        "\nuniform-trusted audit: {} pragma(s)",
        un.trusted.len()
    ));
    for t in &un.trusted {
        s.push_str(&format!(" {t}"));
    }
    s.push('\n');
    let divergences = un
        .findings
        .iter()
        .filter(|f| f.rule == "collective-divergence")
        .count();
    s.push_str(&format!("collective-divergence findings: {divergences}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_collective_is_proven_uniform_or_audited() {
        let rep = measure();
        assert!(
            rep.uniform.collective_sites > 0,
            "the workspace has collectives; the analysis must see them"
        );
        for f in &rep.uniform.fns {
            assert_ne!(
                f.verdict, "divergent",
                "fn {} ({}:{}) diverges at a collective",
                f.qual, f.file, f.line
            );
        }
        assert!(
            rep.uniform
                .findings
                .iter()
                .all(|f| f.rule != "collective-divergence"),
            "{:?}",
            rep.uniform.findings
        );
    }

    #[test]
    fn report_renders_the_proof() {
        let r = run();
        assert!(r.contains("collective-divergence findings: 0"), "{r}");
        assert!(r.contains("per-crate proof table:"), "{r}");
        assert!(r.contains("fixpoint: converged after "), "{r}");
        assert!(r.contains("comms"), "{r}");
        assert!(r.contains("gcm"), "{r}");
    }
}
