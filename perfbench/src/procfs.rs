//! This process's own figures from `/proc/self`: its peak resident set
//! and its thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The value of one `Key:   value kB`-style line.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process since it started or since
/// the last [`reset_peak_rss`], in MiB.
fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Starts a new peak window: lowers `VmHWM` to the current resident set
/// (`/proc/self/clear_refs`, value 5). Returns whether the kernel took
/// it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident sets of successive measurement windows, in MiB.
///
/// The process-wide high-water mark of a whole run is set by its single
/// worst moment, which depends on how the allocator's per-thread arenas
/// happened to line up; the median of per-window peaks is the footprint
/// the workload holds window after window.
#[derive(Debug, Default)]
pub struct PeakWindows {
    peaks: Vec<f64>,
    unresettable: bool,
}

impl PeakWindows {
    /// Opens a window.
    pub fn open(&mut self) {
        self.unresettable |= !reset_peak_rss();
    }

    /// Closes the current window, keeping its peak.
    pub fn close(&mut self) {
        if let Some(p) = peak_rss_mib() {
            self.peaks.push(p);
        }
    }

    /// The median window peak, or the process-wide peak when the mark
    /// cannot be reset here.
    pub fn median(&self) -> f64 {
        if self.unresettable || self.peaks.is_empty() {
            return peak_rss_mib().unwrap_or(f64::NAN);
        }
        crate::stats::median(&self.peaks)
    }
}

/// Samples the process's thread count every few milliseconds until
/// stopped, keeping the largest.
#[derive(Debug)]
pub struct ThreadPeak {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl ThreadPeak {
    /// Starts sampling.
    pub fn start() -> ThreadPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = 0;
            // ordering: Acquire — pairs with the Release store in `stop`.
            while !flag.load(Ordering::Acquire) {
                peak = peak.max(status_field("Threads:").unwrap_or(0));
                thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        ThreadPeak { stop, handle }
    }

    /// Stops sampling and returns the peak thread count seen.
    pub fn stop(self) -> u64 {
        // ordering: Release — pairs with the sampler's Acquire load.
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("thread sampler panicked")
    }
}
