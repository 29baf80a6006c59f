//! Host and provenance stamp, the fixed calibration probe, process
//! memory readings, and the small statistics every workload shares.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cascade_util::Json;

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `VmHWM` of process `pid` (`None` = this process), in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{}/status", p),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if dir.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, k)| k)
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout (benchmark checkouts usually are).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {}", r)),
        None => head,
    }
}

/// A fixed probe so numbers from different hosts can be labelled: a
/// dependent scalar multiply-add chain (GFLOP/s of one core) and a memcpy pass
/// over 32 MiB (GB/s). Reported, never gated.
fn calibrate() -> (f64, f64) {
    const MADD_STEPS: usize = 20_000_000;
    let t = Instant::now();
    let mut x = black_box(1.0f64);
    let (a, b) = (black_box(0.999_999_9), black_box(1e-7));
    // A separate multiply and add: `mul_add` lowers to a libm call on
    // targets built without the FMA feature, which would time the call.
    for _ in 0..MADD_STEPS {
        x = x * a + b;
    }
    black_box(x);
    let gflops = 2.0 * MADD_STEPS as f64 / t.elapsed().as_secs_f64() / 1e9;

    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let reps = 8;
    let t = Instant::now();
    for _ in 0..reps {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let gbps = (BYTES * reps) as f64 / t.elapsed().as_secs_f64() / 1e9;
    (gflops, gbps)
}

/// The provenance stamp printed with every result.
pub fn stamp(workload: &str, seed: u64, trace: bool, scratch: &Path) -> Json {
    let (gflops, gbps) = calibrate();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::from(workload)),
        ("seed".into(), Json::from(seed as f64)),
        ("trace".into(), Json::from(trace)),
        ("cpu_model".into(), Json::from(cpu_model())),
        ("available_parallelism".into(), Json::from(parallelism)),
        ("scratch_fs".into(), Json::from(fs_type(scratch))),
        ("git_revision".into(), Json::from(git_revision())),
        ("calib_madd_gflops".into(), Json::from(gflops)),
        ("calib_memcpy_gbps".into(), Json::from(gbps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }
}
