//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inproc_k8|epoll_k128|daemon_live_l1> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output, prints each metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! `--trace 0` reports the end-to-end metrics, timed from outside the
//! program through its public API; `--trace 1` reports the per-layer
//! split from wrapper nodes and feeds, and writes its spans under
//! `perfbench/out/`. A failed check makes the exit code 1; bad arguments
//! make it 2. See `perfbench/README.md` for the workloads and metrics.

mod live;
mod procfs;
mod runs;
mod stats;
mod trace;
mod traced;

use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// run a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.source_ns_per_item", "ns"),
    ("driver.overhead_s", "s"),
    ("driver.frames", "count"),
    ("driver.peak_in_flight_frames", "count"),
    ("site.busy_s", "s"),
    ("site.ns_per_item", "ns"),
    ("site.input_wait_s", "s"),
    ("site.up_msgs_per_kitem", "msgs/kitem"),
    ("site.downs_applied", "count"),
    ("sim.lockstep_items_per_s", "items/s"),
    ("coordinator.busy_s", "s"),
    ("coordinator.idle_s", "s"),
    ("coordinator.ns_per_msg", "ns"),
    ("coordinator.msgs", "count"),
    ("coordinator.broadcasts", "count"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_kitem", "B/kitem"),
    ("engine.msg_inflation", "ratio"),
    ("epoll.feed_pending_polls", "count"),
    ("process.threads_peak", "count"),
    ("reactor.events", "count"),
    ("reactor.service_ns_p50", "ns"),
    ("reactor.site_flushes", "count"),
    ("daemon.bind_ms", "ms"),
    ("daemon.create_us", "us"),
    ("daemon.attach_ms", "ms"),
    ("daemon.snapshot_rtt_us_p50", "us"),
    ("daemon.query_p50_us", "us"),
    ("daemon.query_p90_us", "us"),
    ("daemon.query_p99_us", "us"),
    ("daemon.up_msgs", "count"),
    ("daemon.live_lag_p50_ms", "ms"),
    ("attach.feed_busy_frac", "ratio"),
    ("gen.writer_late_p99_ms", "ms"),
    ("gen.query_late_p99_us", "us"),
    ("apps.l1_rel_error", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["inproc_k8", "epoll_k128", "daemon_live_l1"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Prints every metric of `list` by name with its unit, then the result
/// line; returns whether every check passed. A missing end-to-end metric
/// is a failure; a missing per-layer one is a layer the workload does
/// not run.
fn report(mut out: Outcome, list: &[(&'static str, &'static str)], traced: bool) -> bool {
    let mut json = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => {
                out.check(name, Err(format!("measured a non-finite value {v}")));
                0.0
            }
            None if traced => {
                println!("{name}: not exercised by this workload");
                0.0
            }
            None => {
                out.check(name, Err("not measured".into()));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        if out.attempted == 0 { 1 } else { out.failed },
        json.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("inproc_k8", false) => runs::untraced(&runs::INPROC_K8, &args),
        ("inproc_k8", true) => runs::traced(&runs::INPROC_K8, &args),
        ("epoll_k128", false) => runs::untraced(&runs::EPOLL_K128, &args),
        ("epoll_k128", true) => runs::traced(&runs::EPOLL_K128, &args),
        (_, false) => live::untraced(&args),
        (_, true) => live::traced(&args),
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    if report(outcome, list, args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
