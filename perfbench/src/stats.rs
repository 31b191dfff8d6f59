//! Order statistics, digests and process memory.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples strictly above the `q` quantile: a percentile is reported only
/// when at least ten samples lie beyond it.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a over a stream of 64-bit words: the byte-identity digest the
/// correctness checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Peak resident set size of this process image in MiB (`VmHWM`), or 0
/// if the kernel does not report it. Unlike `getrusage`'s `ru_maxrss`,
/// the high-water mark starts afresh at `exec`, so a launcher such as
/// `cargo run` does not leak its own peak into the figure.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
