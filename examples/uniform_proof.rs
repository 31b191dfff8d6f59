//! Print the E20 SPMD collective-uniformity proof table for the workspace.
//!
//! ```sh
//! cargo run --release --example uniform_proof
//! ```
//!
//! `scripts/check.sh` greps the last line for
//! `collective-divergence findings: 0`: a rank-dependent branch around any
//! collective fails the gate. It also greps for the `fixpoint: converged`
//! line, which reports the taint fixpoint's rounds and function walks.

fn main() {
    print!("{}", hyades::experiments::spmd::run());
}
