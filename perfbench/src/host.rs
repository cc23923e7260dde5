//! Host facts and process accounting: the reference kernel behind
//! `host.speed_factor`, the CPU model, peak RSS, `/proc/self/io` and
//! directory sizes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median time of [`kernel`] on the host the benchmark was tuned on (an
/// Intel Xeon, 2 vCPUs). A run's `host.speed_factor` is its own median
/// kernel time over this constant: above 1 the host ran slower than that.
pub const NOMINAL_KERNEL_US: f64 = 540.0;

const KERNEL_ITERS: u32 = 200_000;

/// A fixed CPU-bound reference workload (xorshift + scattered L1 updates):
/// the same instructions and memory footprint on every call, so its time
/// tracks only how fast the host is running right now.
fn kernel() -> u64 {
    let mut buf = [0u32; 1024];
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for i in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 1023;
        buf[j] = buf[j].wrapping_add(i);
    }
    buf.iter().fold(x, |a, &b| a.wrapping_add(u64::from(b)))
}

/// Interleaves the reference kernel with the load on the calling thread
/// and keeps its timings.
#[derive(Default)]
pub struct SpeedProbe {
    samples_us: Vec<f64>,
}

impl SpeedProbe {
    /// Runs the kernel once and keeps its time.
    pub fn tick(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        self.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    /// Median kernel time over [`NOMINAL_KERNEL_US`] (1.0 before any tick).
    pub fn factor(&self) -> f64 {
        if self.samples_us.is_empty() {
            return 1.0;
        }
        crate::stats::median(&self.samples_us) / NOMINAL_KERNEL_US
    }

    pub fn samples(&self) -> usize {
        self.samples_us.len()
    }
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process caused to be sent to the storage layer so far.
pub fn write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes:").unwrap_or(0)
}

/// Total length of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
