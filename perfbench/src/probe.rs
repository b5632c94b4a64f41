//! Measurement primitives: spans timed around calls into a layer,
//! counted sockets, per-thread context switches from `/proc`,
//! percentiles and peak RSS.

use crate::alloc::thread_allocs;
use asap_fleet::GatewayConn;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer: how many, their total wall time, and the
/// allocations they made on the calling thread.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub nanos: u64,
    pub allocs: u64,
}

impl Span {
    /// Runs `f` as one call, timed and alloc-counted when `on`, and
    /// untouched otherwise.
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let out = f();
        self.nanos += elapsed_nanos(t0);
        self.allocs += thread_allocs() - a0;
        self.calls += 1;
        out
    }

    /// Charges `nanos` spent on `calls` calls, for a span timed around
    /// a batch.
    pub fn add(&mut self, calls: u64, nanos: u64) {
        self.calls += calls;
        self.nanos += nanos;
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.nanos += other.nanos;
        self.allocs += other.allocs;
    }

    /// Mean microseconds per call.
    pub fn us(&self) -> f64 {
        ratio(self.nanos as f64 / 1e3, self.calls)
    }

    /// Mean allocations per call.
    pub fn allocs_per_call(&self) -> f64 {
        ratio(self.allocs as f64, self.calls)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

pub fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The simulator's own counters over a set of device runs.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimStats {
    pub span: Span,
    pub steps: u64,
    pub hits: u64,
    pub misses: u64,
    pub blocks_built: u64,
}

impl SimStats {
    pub fn merge(&mut self, other: &SimStats) {
        self.span.merge(&other.span);
        self.steps += other.steps;
        self.hits += other.hits;
        self.misses += other.misses;
        self.blocks_built += other.blocks_built;
    }

    /// Folds in one device's totals after its run.
    pub fn record_device(&mut self, device: &asap::Device) {
        let cache = device.mcu.cache_stats();
        self.steps += device.mcu.steps();
        self.hits += cache.hits;
        self.misses += cache.misses;
        self.blocks_built += cache.blocks_built;
    }
}

/// A socket whose `read` and `write` calls are counted: each is one
/// `recv` or `send` system call. (The kernel's per-thread `syscr` and
/// `syscw` do not see socket calls, which bypass the VFS.)
#[derive(Debug)]
pub struct Counted<S> {
    inner: S,
    calls: Arc<AtomicU64>,
}

impl<S> Counted<S> {
    pub fn new(inner: S, calls: Arc<AtomicU64>) -> Counted<S> {
        Counted { inner, calls }
    }
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl GatewayConn for Counted<UnixStream> {
    fn prepare(&mut self) -> io::Result<()> {
        self.inner.set_nonblocking(true)
    }
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The calling thread's kernel id.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Context switches (voluntary plus involuntary, from
/// `/proc/self/task/<tid>/status`) of every thread of this process, by
/// kernel thread id.
pub fn ctx_switches() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let status = std::fs::read_to_string(entry.path().join("status")).unwrap_or_default();
        out.insert(
            tid,
            field(&status, "voluntary_ctxt_switches:")
                + field(&status, "nonvoluntary_ctxt_switches:"),
        );
    }
    out
}

/// Context switches between two [`ctx_switches`] snapshots, split
/// `(prover, verifier)`: prover threads are those in `provers`, every
/// other thread of the process is verifier side.
pub fn ctx_switch_delta(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    provers: &[u64],
) -> (u64, u64) {
    let (mut prover, mut verifier) = (0, 0);
    for (tid, now) in after {
        let grew = now.saturating_sub(before.get(tid).copied().unwrap_or(0));
        if provers.contains(tid) {
            prover += grew;
        } else {
            verifier += grew;
        }
    }
    (prover, verifier)
}

/// Nearest-rank percentile `p` (0–100) of `samples`, which it sorts.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`, which it sorts.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// CPU time used so far by every thread of this process, living or
/// exited, in seconds. The kernel leaves out time the host stole from
/// the vCPUs, so on a shared host this reads the same for the same work
/// where wall time does not.
pub fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(median(&mut v), 5.5);
    }

    #[test]
    fn this_thread_is_in_the_snapshot() {
        let tid = current_tid();
        assert_ne!(tid, 0);
        assert!(ctx_switches().contains_key(&tid));
    }
}
