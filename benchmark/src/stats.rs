//! Sample summaries, the machine manifest and process memory.

use crate::workload::Workload;

/// Median, quartiles and extremes of a sample set, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Spread {
    /// Summarizes `samples`. Quartiles use the exclusive method of
    /// Python's `statistics.quantiles(n=4)`, so they read the same as
    /// any tool that post-processes these numbers with it.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "no samples to summarize");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        let (min, max) = (samples[0], samples[n - 1]);
        if n < 2 {
            return Spread {
                min,
                max,
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            samples[j - 1] + (samples[j] - samples[j - 1]) * delta
        };
        Spread {
            min,
            max,
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }
}

/// Consecutive timed passes that make up one timing sample.
pub const BLOCK: usize = 8;

/// One time sample per block of [`BLOCK`] consecutive passes
/// (`passes[pass][job]` wall seconds; a trailing short block counts
/// too): the sum over jobs of each job's fastest execution in the
/// block. The host is shared, and contention only ever adds time, so a
/// job's best time over a few neighbouring executions is a far steadier
/// estimate of its own cost than any single execution; callers report
/// the median over blocks. A failed execution's `NaN` is never a
/// block's best.
pub fn block_times(passes: &[Vec<f64>]) -> Vec<f64> {
    passes
        .chunks(BLOCK)
        .map(|block| {
            (0..block[0].len())
                .map(|job| best(block.iter().map(|p| p[job])))
                .sum()
        })
        .collect()
}

fn best(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// The reference kernel's best time on the recorder (2-core Xeon VM,
/// 2 MiB L2 per core, 300 MiB L3 shared with other tenants), seconds.
pub const REFERENCE_S: f64 = 0.005;

/// A fixed computation whose time tracks how contended the shared last
/// level cache is: random read-modify-writes over a buffer four times
/// the recorder's L2, so it lives in the L3 that neighbouring tenants
/// contend for. Its code does not depend on the engine, so scaling by
/// it removes host contention from a timing without hiding any change
/// in the engine's own cost.
pub struct ReferenceKernel {
    buf: Vec<u64>,
}

impl ReferenceKernel {
    /// Allocates and touches the kernel's 8 MiB buffer.
    pub fn new() -> Self {
        ReferenceKernel {
            buf: (0..(8u64 << 20) / 8).collect(),
        }
    }

    /// Wall seconds of one pass: the same 2^20 accesses every call.
    pub fn time(&mut self) -> f64 {
        let len = self.buf.len();
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        let mut acc = 0u64;
        let start = std::time::Instant::now();
        for _ in 0..1 << 20 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % len;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc;
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// Scales block times to the reference host: each block's time times
/// `REFERENCE_S / k`, where `k` is the kernel's best time over the
/// block (`kernel` holds one kernel time per pass).
pub fn to_reference(times: &[f64], kernel: &[f64]) -> Vec<f64> {
    times
        .iter()
        .zip(kernel.chunks(BLOCK))
        .map(|(t, k)| t * REFERENCE_S / best(k.iter().copied()))
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line naming the machine, toolchain and run that produced
/// the numbers that follow.
pub fn manifest(wl: &Workload, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"jobs\": {}, \
         \"requests_per_pass\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"rayon_num_threads\": {}, \"git_rev\": {}}}}}",
        json_str(wl.name),
        wl.seed,
        wl.jobs.len(),
        wl.requests_per_pass(),
        json_str(&rustc_version()),
        json_str(&cpu_model()),
        json_str(&rayon),
        json_str(&git_rev()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Spread::of(vec![4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }
}
