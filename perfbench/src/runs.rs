//! The batch workloads: one closed-loop client calling `run_scenario`
//! again and again on a flat deployment, threads (`inproc_k8`) or epoll
//! (`epoll_k128`).
//!
//! The untraced run times each call from outside. The traced run drives
//! the same deployment through the generic entry points (`run_threads`,
//! `run_epoll`, the lockstep `Runner`) on frames the benchmark builds
//! itself, once with plain nodes and once with traced ones, and splits
//! the time by layer.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dwrs_core::rng::mix;
use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite, UpMsg};
use dwrs_core::Keyed;
use dwrs_runtime::{
    run_epoll, run_scenario, run_threads, EngineKind, ItemFeed, RunOutput, RunReport,
    RuntimeConfig, Scenario, Workload,
};
use dwrs_sim::{swor_coordinator, swor_site, CoordinatorNode, Runner, SiteNode};
use dwrs_telemetry::{
    global, METRIC_REACTOR_EVENTS_TOTAL, METRIC_REACTOR_SERVICE_NS, METRIC_SITE_FLUSHES_TOTAL,
};

use crate::procfs::{PeakWindows, ThreadPeak};
use crate::stats::{median, Summary};
use crate::trace::{Span, Tracer};
use crate::traced::{
    dispatch, FeedTotals, FrameLink, FrameQueue, PlainFeed, Scope, SiteTotals, TracedCoord,
    TracedFeed, TracedSite,
};
use crate::{Args, Outcome};

/// Sample size of every batch workload.
const S: usize = 64;

/// Calls made before any is timed, each an eighth of a timed call: the
/// first calls pay for lazy set-up (page faults of fresh heaps, the fd
/// limit raise) that later calls do not.
const WARMUP_CALLS: usize = 1;

/// Timed calls made however short `--seconds` is.
const MIN_CALLS: usize = 3;

/// One batch workload.
#[derive(Debug)]
pub struct Spec {
    /// Benchmark name.
    pub name: &'static str,
    /// Engine the deployment runs on.
    pub engine: EngineKind,
    /// Sites.
    pub k: usize,
    /// Items per call: long enough that streaming, not wiring, is most
    /// of a call.
    pub n: u64,
    /// Empty-stream deployments timed for `setup_s`.
    pub setup_reps: usize,
}

/// Threads engine, k = 8: the default `dwrs run` deployment.
pub const INPROC_K8: Spec = Spec {
    name: "inproc_k8",
    engine: EngineKind::Threads,
    k: 8,
    n: 2_000_000,
    setup_reps: 41,
};

/// Epoll engine, k = 500: high fan-in onto a few event-loop threads.
pub const EPOLL_K128: Spec = Spec {
    name: "epoll_k128",
    engine: EngineKind::Epoll,
    k: 128,
    n: 16_000_000,
    setup_reps: 41,
};

/// The deployment the workload describes, at stream length `n`.
fn scenario(spec: &Spec, n: u64, seed: u64) -> Scenario {
    Scenario::new(spec.engine, spec.k, S)
        .with_n(n)
        .with_seed(seed)
        .with_workload(Workload::Zipf { alpha: 1.1 })
}

/// Every batch answer must pass the run's own invariants, hold a full
/// sample and cover every item.
fn check_report(r: &RunReport, n: u64) -> Result<(), String> {
    if !r.invariants_ok() {
        return Err(format!("invariants violated: {:?}", r.violations));
    }
    if r.items != n {
        return Err(format!("streamed {} items, expected {n}", r.items));
    }
    let want = (S as u64).min(n) as usize;
    if r.sample.len() != want {
        return Err(format!("sample size {} != {want}", r.sample.len()));
    }
    Ok(())
}

/// Checks a directly driven deployment's answer.
fn check_sample(sample: &[Keyed], items: u64, n: u64) -> Result<(), String> {
    if items != n {
        return Err(format!("dispatched {items} items, expected {n}"));
    }
    if sample.len() != S {
        return Err(format!("sample size {} != {S}", sample.len()));
    }
    Ok(())
}

/// Times one `run_scenario` call and checks its answer.
fn timed_call(out: &mut Outcome, what: &str, sc: &Scenario) -> Option<(f64, RunReport)> {
    let t0 = Instant::now();
    let result = run_scenario(sc);
    let wall = t0.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            out.check(what, check_report(&report, sc.n));
            Some((wall, report))
        }
        Err(e) => {
            out.check(what, Err(e.to_string()));
            None
        }
    }
}

/// `setup_s`: the median wall time of the same deployment with no items
/// (wiring, handshake, teardown).
fn setup_s(spec: &Spec, out: &mut Outcome, seed: u64) -> f64 {
    let walls: Vec<f64> = (0..spec.setup_reps)
        .filter_map(|i| {
            let sc = scenario(spec, 0, mix(seed, 0x5e7 + i as u64));
            timed_call(out, "empty-stream deployment", &sc).map(|(wall, _)| wall)
        })
        .collect();
    match Summary::of(walls.iter().map(|w| w * 1e3).collect()) {
        Some(s) => {
            println!("setup, empty-stream deployments: {}", s.describe("ms"));
            median(&walls)
        }
        None => f64::NAN,
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_s(spec, &mut out, args.seed);
    out.metric("setup_s", setup);
    for i in 0..WARMUP_CALLS {
        let sc = scenario(spec, spec.n / 8, mix(args.seed, 0xa000 + i as u64));
        timed_call(&mut out, "warm-up run", &sc);
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rss = PeakWindows::default();
    let mut call = 0u64;
    while walls.len() < MIN_CALLS || start.elapsed() < budget {
        let sc = scenario(spec, spec.n, mix(args.seed, call));
        call += 1;
        rss.open();
        if let Some((wall, _)) = timed_call(&mut out, "run", &sc) {
            walls.push(wall);
        }
        rss.close();
        if call as usize >= MIN_CALLS && walls.is_empty() {
            break;
        }
    }
    let rates: Vec<f64> = walls.iter().map(|w| spec.n as f64 / w).collect();
    let lat = Summary::of(walls.iter().map(|w| w * 1e6).collect());
    println!(
        "{}: {} timed calls of n = {} over {:.1} s",
        spec.name,
        walls.len(),
        spec.n,
        start.elapsed().as_secs_f64()
    );
    if let Some(l) = &lat {
        println!("call latency: {}", l.describe("us"));
    }
    out.metric(
        "items_per_s",
        if rates.is_empty() {
            f64::NAN
        } else {
            median(&rates)
        },
    );
    out.metric("peak_rss_mb", rss.median());
    out
}

/// Drives plain or traced nodes on the workload's engine, on frames the
/// benchmark's dispatcher builds from the scenario's source and
/// partitioner. Returns the engine's output, the items dispatched, and
/// the wall time.
fn drive<St, C>(
    spec: &Spec,
    sc: &Scenario,
    sites: Vec<St>,
    coordinator: C,
    feeds: impl FnOnce(Vec<FrameQueue>) -> Feeds,
) -> Result<(RunOutput<St, C>, u64, f64), String>
where
    St: SiteNode<Up = UpMsg, Down = dwrs_core::swor::DownMsg> + Send,
    C: CoordinatorNode<Up = UpMsg, Down = dwrs_core::swor::DownMsg> + Send,
{
    let cfg = RuntimeConfig::default();
    let source = sc.source().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (rxs, feeder) = dispatch(source, sc.partitioner(), spec.k);
    let result = match feeds(rxs) {
        Feeds::Blocking(streams) => run_threads(sites, coordinator, streams, &cfg),
        Feeds::Polled(polled) => run_epoll(sites, coordinator, polled, &cfg),
    };
    let items = feeder
        .join()
        .map_err(|_| "dispatcher panicked".to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let output = result.map_err(|e| e.to_string())?;
    Ok((output, items, wall))
}

/// A site thread's blocking item input.
type ItemStream = Box<dyn Iterator<Item = dwrs_core::Item> + Send>;

/// Per-site inputs in the shape the workload's engine takes.
enum Feeds {
    Blocking(Vec<ItemStream>),
    Polled(Vec<Box<dyn ItemFeed>>),
}

fn plain_feeds(engine: EngineKind, rxs: Vec<FrameQueue>) -> Feeds {
    match engine {
        EngineKind::Epoll => Feeds::Polled(
            rxs.into_iter()
                .map(|rx| Box::new(PlainFeed(rx)) as Box<dyn ItemFeed>)
                .collect(),
        ),
        _ => Feeds::Blocking(
            rxs.into_iter()
                .map(|rx| Box::new(rx.into_iter().flatten()) as ItemStream)
                .collect(),
        ),
    }
}

/// The deployment's nodes, seeded exactly as `run_scenario` seeds them.
fn swor_nodes(spec: &Spec, seed: u64) -> (Vec<SworSite>, SworCoordinator) {
    let cfg = SworConfig::new(S, spec.k);
    let sites = (0..spec.k).map(|i| swor_site(&cfg, seed, i)).collect();
    (sites, swor_coordinator(cfg, seed))
}

/// What one traced deployment measured.
#[derive(Debug, Default)]
struct TracedRep {
    wall: f64,
    site: SiteTotals,
    feed: FeedTotals,
    coord_msgs: u64,
    coord_busy_ns: u64,
    broadcasts: u64,
    /// Deltas of the process-wide registry counters over the deployment.
    reactor_events: u64,
    site_flushes: u64,
    /// Up-messages, kept by the first traced deployment only.
    captured: Vec<UpMsg>,
}

fn traced_drive(
    spec: &Spec,
    sc: &Scenario,
    tracer: &Arc<Tracer>,
    first: bool,
) -> Result<TracedRep, String> {
    let run = tracer.id();
    let root = tracer.id();
    let scope = Scope {
        tracer: Arc::clone(tracer),
        run,
        root,
        keep: first,
    };
    let links: Vec<Arc<FrameLink>> = (0..spec.k).map(|_| Arc::default()).collect();
    let (plain_sites, plain_coord) = swor_nodes(spec, sc.seed);
    let sites: Vec<_> = plain_sites
        .into_iter()
        .zip(&links)
        .map(|(s, link)| TracedSite::new(s, Arc::clone(link), scope.clone(), first))
        .collect();
    let coordinator = TracedCoord::new(plain_coord, scope.clone());
    let sink = Arc::new(Mutex::new(FeedTotals::default()));
    let registry = &global().registry;
    let events0 = registry.counter(METRIC_REACTOR_EVENTS_TOTAL).get();
    let flushes0 = registry.counter(METRIC_SITE_FLUSHES_TOTAL).get();
    let start = tracer.now();
    let engine = spec.engine;
    let (mut output, items, wall) = drive(spec, sc, sites, coordinator, |rxs| {
        let feeds = rxs.into_iter().zip(&links).map(|(rx, link)| {
            TracedFeed::new(rx, Arc::clone(link), scope.clone(), Arc::clone(&sink))
        });
        match engine {
            EngineKind::Epoll => {
                Feeds::Polled(feeds.map(|f| Box::new(f) as Box<dyn ItemFeed>).collect())
            }
            _ => Feeds::Blocking(feeds.map(|f| Box::new(f) as ItemStream).collect()),
        }
    })?;
    if first {
        tracer.submit(vec![Span {
            id: root,
            parent: 0,
            run,
            name: "run",
            start,
            end: tracer.now(),
        }]);
    }
    let coord = output.coordinator.finish_trace();
    check_sample(&output.coordinator.inner.sample(), items, sc.n)?;
    let mut rep = TracedRep {
        wall,
        feed: *sink.lock().expect("feed totals poisoned"),
        coord_msgs: coord.msgs,
        coord_busy_ns: coord.busy_ns,
        broadcasts: output.metrics.broadcast_events,
        reactor_events: registry.counter(METRIC_REACTOR_EVENTS_TOTAL).get() - events0,
        site_flushes: registry.counter(METRIC_SITE_FLUSHES_TOTAL).get() - flushes0,
        ..TracedRep::default()
    };
    for site in output.sites {
        let (_, totals, mut msgs) = site.finish_trace();
        rep.site.add(&totals);
        rep.captured.append(&mut msgs);
    }
    Ok(rep)
}

/// Replays up-messages through the wire codec: `(encode ns/msg, decode
/// ns/msg, encoded bytes)`. One untimed pass checks that every message
/// decodes back to itself; the timed passes repeat until the replay has
/// run for a while, so the per-message figures are not one clock tick.
pub fn wire_replay(msgs: &[UpMsg]) -> Result<(f64, f64, u64), String> {
    use dwrs_core::swor::wire::{decode_up, encode_up};
    if msgs.is_empty() {
        return Err("no up-messages to replay".into());
    }
    let mut buf = Vec::with_capacity(msgs.len() * 25);
    for m in msgs {
        encode_up(m, &mut buf);
    }
    let mut at = 0;
    for (i, m) in msgs.iter().enumerate() {
        let (msg, used) = decode_up(&buf[at..]).map_err(|e| format!("replay decode: {e}"))?;
        if msg != *m {
            return Err(format!("up-message {i} decoded as {msg:?}, not {m:?}"));
        }
        at += used;
    }
    let bytes = buf.len() as u64;
    let (mut enc_ns, mut dec_ns, mut passes) = (0u128, 0u128, 0u128);
    let t_all = Instant::now();
    while passes < 3 || t_all.elapsed() < Duration::from_millis(200) {
        buf.clear();
        let t0 = Instant::now();
        for m in msgs {
            encode_up(black_box(m), &mut buf);
        }
        enc_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let mut at = 0;
        while at < buf.len() {
            let (msg, used) = decode_up(&buf[at..]).map_err(|e| format!("replay decode: {e}"))?;
            black_box(msg);
            at += used;
        }
        dec_ns += t1.elapsed().as_nanos();
        passes += 1;
    }
    let per = (passes * msgs.len() as u128) as f64;
    Ok((enc_ns as f64 / per, dec_ns as f64 / per, bytes))
}

/// Time to drain the scenario's source alone, per item.
pub fn source_ns_per_item(sc: &Scenario) -> Result<f64, String> {
    let source = sc.source().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut count = 0u64;
    for item in source {
        black_box(item);
        count += 1;
    }
    Ok(t0.elapsed().as_nanos() as f64 / count.max(1) as f64)
}

/// The lockstep baseline of the same job: `(items/s, up-messages)`. The
/// up-message count is deterministic for a seed, so this one run is the
/// reference for `engine.msg_inflation`.
fn lockstep(spec: &Spec, sc: &Scenario) -> Result<(f64, u64), String> {
    let (sites, coordinator) = swor_nodes(spec, sc.seed);
    let source = sc.source().map_err(|e| e.to_string())?;
    let mut partitioner = sc.partitioner();
    let t0 = Instant::now();
    let mut runner = Runner::new(coordinator, sites);
    let mut items = 0u64;
    for item in source {
        runner.step(partitioner.next_site(), item);
        items += 1;
    }
    runner.finish();
    let wall = t0.elapsed().as_secs_f64();
    check_sample(&runner.coordinator.sample(), items, sc.n)?;
    Ok((items as f64 / wall, runner.metrics.up_total))
}

/// The traced run: every per-layer metric this workload exercises.
pub fn traced(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new());
    let threads = ThreadPeak::start();
    let sc = scenario(spec, spec.n, args.seed);

    match source_ns_per_item(&sc) {
        Ok(ns) => out.metric("workloads.source_ns_per_item", ns),
        Err(e) => out.check("source drain", Err(e)),
    }
    let mut lockstep_up = 0u64;
    let lock = lockstep(spec, &sc);
    if let Ok((rate, up)) = &lock {
        out.metric("sim.lockstep_items_per_s", *rate);
        lockstep_up = *up;
    }
    out.check("lockstep run", lock.map(|_| ()));

    // Alternate the three drives so drift hits each alike.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut rs_walls, mut plain_walls, mut plain_up) = (Vec::new(), Vec::new(), Vec::new());
    let (mut frames, mut peak_frames) = (Vec::new(), Vec::new());
    let mut reps: Vec<TracedRep> = Vec::new();
    let mut round = 0;
    while round < 2 || start.elapsed() < budget {
        round += 1;
        if let Some((wall, report)) = timed_call(&mut out, "run_scenario", &sc) {
            rs_walls.push(wall);
            if let Some(d) = report.dispatcher {
                frames.push(d.frames as f64);
                peak_frames.push(d.peak_in_flight_frames as f64);
            }
        }
        let (sites, coordinator) = swor_nodes(spec, sc.seed);
        let plain = drive(spec, &sc, sites, coordinator, |rxs| {
            plain_feeds(spec.engine, rxs)
        })
        .and_then(|(o, items, wall)| {
            check_sample(&o.coordinator.sample(), items, sc.n)?;
            Ok((wall, o.metrics.up_total))
        });
        if let Ok((wall, up)) = &plain {
            plain_walls.push(*wall);
            plain_up.push(*up as f64);
        }
        out.check("direct run", plain.map(|_| ()));
        match traced_drive(spec, &sc, &tracer, reps.is_empty()) {
            Ok(rep) => {
                out.check("traced run", Ok(()));
                reps.push(rep);
            }
            Err(e) => out.check("traced run", Err(e)),
        }
    }
    println!(
        "{}: {} rounds of run_scenario / direct / traced, n = {}, lockstep up-messages {lockstep_up}",
        spec.name,
        reps.len(),
        sc.n
    );

    // Wall-time differences use each group's fastest call: a call's wall
    // can carry a one-off stall (a descheduled thread, a retried loopback
    // connect) that says nothing about the layer being compared.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let traced_walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    if !rs_walls.is_empty() && !plain_walls.is_empty() {
        out.metric("driver.overhead_s", min(&rs_walls) - min(&plain_walls));
    }
    if !plain_walls.is_empty() && !traced_walls.is_empty() {
        out.metric(
            "trace.overhead_frac",
            1.0 - min(&plain_walls) / min(&traced_walls),
        );
    }
    if !frames.is_empty() {
        out.metric("driver.frames", median(&frames));
        out.metric("driver.peak_in_flight_frames", median(&peak_frames));
    }
    if lockstep_up > 0 && !plain_up.is_empty() {
        out.metric(
            "engine.msg_inflation",
            median(&plain_up) / lockstep_up as f64,
        );
    }
    // Per-deployment figures are medians over the traced deployments.
    let med = |f: fn(&TracedRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    if !reps.is_empty() {
        out.metric("site.busy_s", med(|r| r.site.busy_ns as f64 * 1e-9));
        out.metric(
            "site.ns_per_item",
            med(|r| r.site.busy_ns as f64 / r.site.items.max(1) as f64),
        );
        out.metric("site.input_wait_s", med(|r| r.feed.wait_ns as f64 * 1e-9));
        out.metric(
            "site.up_msgs_per_kitem",
            med(|r| r.site.up_msgs as f64 * 1e3 / r.site.items.max(1) as f64),
        );
        out.metric("site.downs_applied", med(|r| r.site.downs as f64));
        out.metric("coordinator.busy_s", med(|r| r.coord_busy_ns as f64 * 1e-9));
        out.metric(
            "coordinator.idle_s",
            med(|r| r.wall - r.coord_busy_ns as f64 * 1e-9),
        );
        out.metric(
            "coordinator.ns_per_msg",
            med(|r| r.coord_busy_ns as f64 / r.coord_msgs.max(1) as f64),
        );
        out.metric("coordinator.msgs", med(|r| r.coord_msgs as f64));
        out.metric("coordinator.broadcasts", med(|r| r.broadcasts as f64));
        out.metric(
            "epoll.feed_pending_polls",
            med(|r| r.feed.pending_polls as f64),
        );
        out.metric("reactor.events", med(|r| r.reactor_events as f64));
        out.metric("reactor.site_flushes", med(|r| r.site_flushes as f64));
        match wire_replay(&reps[0].captured) {
            Ok((enc, dec, bytes)) => {
                out.check("wire replay", Ok(()));
                out.metric("wire.encode_ns_per_msg", enc);
                out.metric("wire.decode_ns_per_msg", dec);
                out.metric("wire.bytes_per_kitem", bytes as f64 * 1e3 / sc.n as f64);
            }
            Err(e) => out.check("wire replay", Err(e)),
        }
    }
    let r = &global().registry;
    let service = r.histogram(METRIC_REACTOR_SERVICE_NS).summary();
    out.metric("reactor.service_ns_p50", service.map_or(0.0, |s| s.p50));
    out.metric("process.threads_peak", threads.stop() as f64);
    write_spans(&tracer, &mut out, spec.name, args.seed);
    out
}

/// Writes the spans file and prints each span name's self time.
pub fn write_spans(tracer: &Tracer, out: &mut Outcome, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/{workload}-seed{seed}.spans.jsonl"));
    match tracer.write(&path) {
        Ok(totals) => {
            println!("spans written to {}", path.display());
            for (name, t) in totals {
                println!(
                    "span {name}: {} kept, total {:.6} s, self {:.6} s",
                    t.count, t.total_s, t.self_s
                );
            }
        }
        Err(e) => out.check("writing spans", Err(e.to_string())),
    }
}
