//! `daemon_live_l1`: an in-process daemon with one L1-tracking stream
//! (k = 1), fed and queried in an open loop.
//!
//! One writer thread feeds an attached `L1Site` in chunks due at a fixed
//! item rate; one control connection issues live `l1-now` queries due at
//! a fixed query rate. Both are scheduled by due time, whatever the
//! daemon does, so a stall shows as latency of the requests behind it;
//! each query is timed from when it was due, and the benchmark reports
//! how late each generator ran so a generator stall is not read as
//! daemon latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dwrs_apps::L1Site;
use dwrs_core::ctrl::{CtrlResp, LiveQueryKind, LiveSnapshot};
use dwrs_core::swor::{DownMsg, SworConfig, UpMsg};
use dwrs_core::Item;
use dwrs_runtime::query::l1_site_seed;
use dwrs_runtime::{
    AttachClient, CtrlClient, Daemon, DaemonConfig, EngineKind, Query, RuntimeConfig, Scenario,
    Workload,
};
use dwrs_sim::{swor_coordinator, Runner, SiteNode};
use dwrs_telemetry::{
    global, METRIC_REACTOR_EVENTS_TOTAL, METRIC_REACTOR_SERVICE_NS, METRIC_SITE_FLUSHES_TOTAL,
};

use crate::procfs::{PeakWindows, ThreadPeak};
use crate::runs::{source_ns_per_item, wire_replay, write_spans};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::{Span, Tracer};
use crate::traced::{FrameLink, Recorder, Scope, TracedSite};
use crate::{Args, Outcome};

/// The stream's name on the daemon.
const STREAM: &str = "live";
/// The stream's application query: L1 tracking with the default
/// ε = 0.2, δ = 0.25.
const QUERY: &str = "l1";
/// Requested sample size (the L1 query derives its own effective s).
const S: u32 = 64;
/// Open-loop feed rate, items per second.
const FEED_RATE: f64 = 1_000_000.0;
/// Items per scheduled feed call (2 ms of stream at the feed rate).
const CHUNK: usize = 2_000;
/// Open-loop live-query rate, per second.
const QUERY_RATE: f64 = 500.0;
/// Daemon set-ups timed for `setup_s`.
const SETUP_REPS: usize = 51;
/// Length of the windows whose peak resident sets give `peak_rss_mb`.
const RSS_WINDOW: Duration = Duration::from_secs(1);
/// Items fed closed-loop per stream when the traced run compares plain
/// and traced sites.
const OVERHEAD_ITEMS: u64 = 400_000;

/// The query the stream runs, with its effective sample size and
/// duplication factor.
fn l1_query() -> (Query, usize, u64) {
    let q = Query::parse(QUERY).expect("the L1 query spec parses");
    let ell = q.duplication().expect("l1 has a duplication factor");
    (q, q.sample_size(S as usize), ell)
}

fn l1_site(seed: u64) -> L1Site {
    let (_, s_eff, ell) = l1_query();
    L1Site::new(&SworConfig::new(s_eff, 1), ell, l1_site_seed(seed, 0))
}

/// The stream the writer feeds: the same seeded `zipf_iid:1.1` source a
/// one-site scenario of `n` items reads.
fn scenario(n: u64, seed: u64) -> Scenario {
    Scenario::new(EngineKind::Threads, 1, S as usize)
        .with_n(n)
        .with_seed(seed)
        .with_workload(Workload::Zipf { alpha: 1.1 })
}

/// A daemon with the stream created and one site attached, and how long
/// each step took, in seconds: bind, create (connect + request), attach.
struct Deployment<St: SiteNode> {
    daemon: Daemon,
    ctrl: CtrlClient,
    client: AttachClient<St>,
    steps: [f64; 3],
}

fn deploy<St>(seed: u64, stream: &str, site: St) -> Result<Deployment<St>, String>
where
    St: SiteNode<Up = UpMsg, Down = DownMsg>,
{
    let t0 = Instant::now();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonConfig {
            seed,
            ..DaemonConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let t1 = Instant::now();
    let mut ctrl = CtrlClient::connect(daemon.local_addr()).map_err(|e| format!("connect: {e}"))?;
    create(&mut ctrl, stream)?;
    let t2 = Instant::now();
    let client = AttachClient::attach(
        daemon.local_addr(),
        stream,
        0,
        site,
        &RuntimeConfig::default(),
    )
    .map_err(|e| format!("attach: {e}"))?;
    let t3 = Instant::now();
    Ok(Deployment {
        daemon,
        ctrl,
        client,
        steps: [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
    })
}

fn create(ctrl: &mut CtrlClient, stream: &str) -> Result<(), String> {
    match ctrl.create(stream, 1, S, QUERY) {
        Ok(CtrlResp::Ok { .. }) => Ok(()),
        Ok(other) => Err(format!("create refused: {other:?}")),
        Err(e) => Err(format!("create: {e}")),
    }
}

/// Checks a drained stream: every fed item counted, a full sample, and
/// the L1 estimate within the query's (1 ± ε) of the exact fed weight.
fn check_final(snap: &LiveSnapshot, fed: u64, weight: f64) -> Result<f64, String> {
    let (q, s_eff, _) = l1_query();
    let Query::L1 { eps, .. } = q else {
        unreachable!("QUERY is an l1 spec")
    };
    if snap.items != fed {
        return Err(format!("drained {} items, fed {fed}", snap.items));
    }
    if fed > 0 && snap.sample.len() != s_eff {
        return Err(format!(
            "sample size {} != effective s {s_eff}",
            snap.sample.len()
        ));
    }
    let rel = if weight > 0.0 {
        (snap.estimate - weight).abs() / weight
    } else {
        0.0
    };
    if rel > eps {
        return Err(format!(
            "L1 estimate {:.6e} is off the fed weight {weight:.6e} by {rel:.3} > ε = {eps}",
            snap.estimate
        ));
    }
    Ok(rel)
}

/// Times `SETUP_REPS` deployments; tears all but the last down and
/// returns it with the per-step medians.
fn set_up<St, F>(out: &mut Outcome, seed: u64, mut site: F) -> Option<(Deployment<St>, [f64; 3])>
where
    St: SiteNode<Up = UpMsg, Down = DownMsg>,
    F: FnMut() -> St,
{
    let mut steps: [Vec<f64>; 3] = Default::default();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dep = match deploy(seed, STREAM, site()) {
            Ok(d) => d,
            Err(e) => {
                out.check("daemon set-up", Err(e));
                continue;
            }
        };
        out.check("daemon set-up", Ok(()));
        for (v, s) in steps.iter_mut().zip(dep.steps) {
            v.push(s);
        }
        if rep + 1 < SETUP_REPS {
            let Deployment {
                daemon,
                mut ctrl,
                client,
                ..
            } = dep;
            let torn = client
                .finish()
                .map_err(|e| e.to_string())
                .and_then(|_| ctrl.drain_stream(STREAM).map_err(|e| e.to_string()))
                .and_then(|snap| check_final(&snap, 0, 0.0).map(|_| ()));
            out.check("empty-stream teardown", torn);
            daemon.shutdown();
        } else {
            kept = Some(dep);
        }
    }
    let total: Vec<f64> = (0..steps[0].len())
        .map(|i| steps.iter().map(|v| v[i]).sum())
        .collect();
    if let Some(t) = Summary::of(total.iter().map(|w| w * 1e6).collect()) {
        println!("setup, bind + create + attach: {}", t.describe("us"));
    }
    if total.is_empty() {
        return None;
    }
    out.metric("setup_s", median(&total));
    let med = [median(&steps[0]), median(&steps[1]), median(&steps[2])];
    kept.map(|d| (d, med))
}

/// One live query's timings.
#[derive(Clone, Copy, Debug)]
struct QuerySample {
    /// Response time minus due time.
    latency_us: f64,
    /// Response time minus actual send time.
    rtt_us: f64,
    /// Actual send time minus due time.
    late_us: f64,
    /// Fed-but-uncounted items at the response, as time at the feed rate.
    lag_ms: f64,
}

/// What the open-loop phase measured.
struct Live<St> {
    fed: u64,
    weight: f64,
    feed_wall_s: f64,
    feed_busy_s: f64,
    feed_wait_s: f64,
    writer_late_ms: Vec<f64>,
    queries: Vec<QuerySample>,
    site: Option<St>,
    final_snap: Option<LiveSnapshot>,
    rss: PeakWindows,
}

/// Tracing hooks for the writer: the traced site's frame link and a span
/// recorder for the writer's waits.
struct WriterTrace {
    link: Arc<FrameLink>,
    rec: Recorder,
    root: u64,
}

/// Runs the open loop for `seconds`, then finishes the site and drains
/// the stream.
fn live_phase<St>(
    out: &mut Outcome,
    dep: Deployment<St>,
    seed: u64,
    seconds: f64,
    mut trace: Option<WriterTrace>,
) -> Live<St>
where
    St: SiteNode<Up = UpMsg, Down = DownMsg> + Send + 'static,
{
    let Deployment {
        daemon,
        mut ctrl,
        mut client,
        ..
    } = dep;
    let addr = daemon.local_addr();
    let planned = (FEED_RATE * seconds) as u64 + CHUNK as u64;
    let source = scenario(planned, seed).source();
    let mut querier = CtrlClient::connect(addr);
    let fed = Arc::new(AtomicU64::new(0));
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);

    let writer = {
        let fed = Arc::clone(&fed);
        thread::spawn(move || -> Result<_, String> {
            let mut source = source.map_err(|e| e.to_string())?;
            let period = CHUNK as f64 / FEED_RATE;
            let mut chunk: Vec<Item> = Vec::with_capacity(CHUNK);
            let (mut weight, mut busy, mut wait) = (0.0f64, 0.0f64, 0.0f64);
            let mut late = Vec::new();
            let mut feed_all = || -> Result<(), String> {
                for i in 0u64.. {
                    let due = start + Duration::from_secs_f64(i as f64 * period);
                    if due >= end {
                        return Ok(());
                    }
                    chunk.clear();
                    chunk.extend(source.by_ref().take(CHUNK));
                    if chunk.is_empty() {
                        return Ok(());
                    }
                    weight += chunk.iter().map(|it| it.weight).sum::<f64>();
                    let now = Instant::now();
                    if now < due {
                        let t_wait = trace.as_ref().map(|t| t.rec.tracer().now());
                        thread::sleep(due - now);
                        wait += (Instant::now() - now).as_secs_f64();
                        if let (Some(t), Some(s)) = (trace.as_mut(), t_wait) {
                            let (id, e) = (t.rec.tracer().id(), t.rec.tracer().now());
                            t.rec.record(id, t.root, "site.input_wait", s, e);
                        }
                    }
                    let t0 = Instant::now();
                    late.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                    // ordering: Release — an item counts as fed once handed
                    // to the client; pairs with the querier's Acquire load,
                    // so an answer never counts more items than the querier
                    // sees fed.
                    fed.fetch_add(chunk.len() as u64, Ordering::Release);
                    if let Some(t) = trace.as_ref() {
                        t.link.announce(chunk.len());
                    }
                    client.feed(chunk.drain(..)).map_err(|e| e.to_string())?;
                    busy += t0.elapsed().as_secs_f64();
                }
                Ok(())
            };
            if let Err(e) = feed_all() {
                // Tear the link down so the daemon does not wait on this
                // slot when the stream is drained.
                client.abort();
                return Err(e);
            }
            let (site, _) = client.finish().map_err(|e| e.to_string())?;
            let wall = start.elapsed().as_secs_f64();
            if let Some(t) = trace.as_mut() {
                t.rec.submit();
            }
            Ok((site, weight, wall, busy, wait, late))
        })
    };

    let rss_sampler = thread::spawn(move || {
        let mut rss = PeakWindows::default();
        thread::sleep(start.saturating_duration_since(Instant::now()));
        while Instant::now() + RSS_WINDOW <= end {
            rss.open();
            thread::sleep(RSS_WINDOW);
            rss.close();
        }
        rss
    });

    let query_thread = {
        let fed = Arc::clone(&fed);
        thread::spawn(move || -> Result<(Vec<QuerySample>, Vec<String>), String> {
            let q = querier
                .as_mut()
                .map_err(|e| format!("query connect: {e}"))?;
            let (mut samples, mut errors) = (Vec::new(), Vec::new());
            let mut last_items = 0u64;
            for j in 0u64.. {
                let due = start + Duration::from_secs_f64(j as f64 / QUERY_RATE);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    thread::sleep(due - now);
                }
                let sent = Instant::now();
                match q.snapshot(STREAM, LiveQueryKind::L1Now, 0) {
                    Ok(snap) => {
                        let done = Instant::now();
                        // ordering: Acquire — pairs with the writer's
                        // Release add (see there).
                        let fed_now = fed.load(Ordering::Acquire);
                        if snap.items > fed_now || snap.items < last_items {
                            errors.push(format!(
                                "live answer counts {} items; fed {fed_now}, previous answer {last_items}",
                                snap.items
                            ));
                        }
                        last_items = snap.items;
                        samples.push(QuerySample {
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            rtt_us: (done - sent).as_secs_f64() * 1e6,
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            lag_ms: fed_now.saturating_sub(snap.items) as f64 / FEED_RATE * 1e3,
                        });
                    }
                    Err(e) => errors.push(e.to_string()),
                }
            }
            Ok((samples, errors))
        })
    };

    let mut live = Live {
        fed: 0,
        weight: 0.0,
        feed_wall_s: 0.0,
        feed_busy_s: 0.0,
        feed_wait_s: 0.0,
        writer_late_ms: Vec::new(),
        queries: Vec::new(),
        site: None,
        final_snap: None,
        rss: rss_sampler.join().expect("memory sampler panicked"),
    };
    match query_thread.join().expect("query thread panicked") {
        Ok((samples, errors)) => {
            out.check("live queries", Ok(()));
            for e in errors {
                out.check("live query", Err(e));
            }
            for _ in 0..samples.len() {
                out.check("live query", Ok(()));
            }
            live.queries = samples;
        }
        Err(e) => out.check("live queries", Err(e)),
    }
    match writer.join().expect("writer thread panicked") {
        Ok((site, weight, wall, busy, wait, late)) => {
            out.check("open-loop feed", Ok(()));
            live.site = Some(site);
            live.weight = weight;
            live.feed_wall_s = wall;
            live.feed_busy_s = busy;
            live.feed_wait_s = wait;
            live.writer_late_ms = late;
        }
        Err(e) => out.check("open-loop feed", Err(e)),
    }
    // ordering: Acquire — the writer has been joined; any ordering works.
    live.fed = fed.load(Ordering::Acquire);
    match ctrl.drain_stream(STREAM) {
        Ok(snap) => {
            out.check(
                "drained answer",
                check_final(&snap, live.fed, live.weight).map(|_| ()),
            );
            live.final_snap = Some(snap);
        }
        Err(e) => out.check("drained answer", Err(e.to_string())),
    }
    daemon.shutdown();
    report_schedule(&live);
    live
}

/// Chunk periods by which more than 1% of feed chunks must be late for
/// the writer to count as behind its schedule. Single late chunks are
/// scheduling noise; this many means the writer itself stalled.
const BEHIND_PERIODS: f64 = 5.0;

/// Prints how the generators kept to their schedules, and flags a run
/// whose writer fell behind.
fn report_schedule<St>(live: &Live<St>) {
    let period_ms = CHUNK as f64 / FEED_RATE * 1e3;
    if let Some(w) = Summary::of(live.writer_late_ms.clone()) {
        println!("writer lateness: {}", w.describe("ms"));
        if w.p99 > BEHIND_PERIODS * period_ms {
            println!(
                "WARNING: the writer fell behind its schedule (p99 late {:.2} ms > {BEHIND_PERIODS} chunk periods \
                 of {period_ms} ms); query latency in this run includes generator stalls",
                w.p99
            );
        }
    }
    if let Some(q) = Summary::of(live.queries.iter().map(|q| q.late_us).collect()) {
        println!("query sender lateness: {}", q.describe("us"));
    }
    println!(
        "fed {} items in {:.3} s at a scheduled {FEED_RATE} items/s; writer busy {:.1}% of the time",
        live.fed,
        live.feed_wall_s,
        100.0 * live.feed_busy_s / live.feed_wall_s.max(1e-9)
    );
}

/// The untraced run: every end-to-end metric.
pub fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some((dep, _)) = set_up(&mut out, args.seed, || l1_site(args.seed)) else {
        return out;
    };
    let live = live_phase(&mut out, dep, args.seed, args.seconds, None);
    let counted = live.final_snap.as_ref().map_or(0, |s| s.items);
    out.metric("items_per_s", counted as f64 / live.feed_wall_s.max(1e-9));
    let lat = Summary::of(live.queries.iter().map(|q| q.latency_us).collect());
    if let Some(l) = &lat {
        println!("live query latency from due time: {}", l.describe("us"));
    }
    if let Some(lag) = Summary::of(live.queries.iter().map(|q| q.lag_ms).collect()) {
        println!("live lag: {}", lag.describe("ms"));
    }
    out.metric("peak_rss_mb", live.rss.median());
    out
}

/// Feeds `OVERHEAD_ITEMS` closed-loop into a fresh stream of `daemon`
/// and returns the wall time of feed + finish.
fn closed_loop_feed<St>(
    out: &mut Outcome,
    ctrl: &mut CtrlClient,
    daemon: &Daemon,
    stream: &str,
    seed: u64,
    site: St,
    link: Option<&FrameLink>,
) -> Option<f64>
where
    St: SiteNode<Up = UpMsg, Down = DownMsg>,
{
    let run = || -> Result<f64, String> {
        create(ctrl, stream)?;
        let mut client = AttachClient::attach(
            daemon.local_addr(),
            stream,
            0,
            site,
            &RuntimeConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let mut source = scenario(OVERHEAD_ITEMS, seed)
            .source()
            .map_err(|e| e.to_string())?;
        let mut chunk = Vec::with_capacity(CHUNK);
        let t0 = Instant::now();
        loop {
            chunk.clear();
            chunk.extend(source.by_ref().take(CHUNK));
            if chunk.is_empty() {
                break;
            }
            if let Some(l) = link {
                l.announce(chunk.len());
            }
            client.feed(chunk.drain(..)).map_err(|e| e.to_string())?;
        }
        client.finish().map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        let snap = ctrl.drain_stream(stream).map_err(|e| e.to_string())?;
        if snap.items != OVERHEAD_ITEMS {
            return Err(format!(
                "drained {} items, fed {OVERHEAD_ITEMS}",
                snap.items
            ));
        }
        Ok(wall)
    };
    let result = run();
    let wall = result.as_ref().ok().copied();
    out.check("closed-loop feed", result.map(|_| ()));
    wall
}

/// The lockstep baseline of the fed stream: `(items/s, up-messages)`.
fn lockstep(fed: u64, seed: u64) -> Result<(f64, u64), String> {
    let (_, s_eff, _) = l1_query();
    let source = scenario(fed, seed).source().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut runner = Runner::new(
        swor_coordinator(SworConfig::new(s_eff, 1), seed),
        vec![l1_site(seed)],
    );
    let mut items = 0;
    for item in source {
        runner.step(0, item);
        items += 1;
    }
    runner.finish();
    let wall = t0.elapsed().as_secs_f64();
    if runner.coordinator.sample().len() != s_eff.min(items as usize) {
        return Err("lockstep sample is not full".into());
    }
    Ok((items as f64 / wall, runner.metrics.up_total))
}

/// The traced run: the daemon-side per-layer split.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new());
    let threads = ThreadPeak::start();
    let r = &global().registry;
    let events0 = r.counter(METRIC_REACTOR_EVENTS_TOTAL).get();
    let flushes0 = r.counter(METRIC_SITE_FLUSHES_TOTAL).get();

    let (run, root) = (tracer.id(), tracer.id());
    let scope = Scope {
        tracer: Arc::clone(&tracer),
        run,
        root,
        keep: true,
    };
    let link = Arc::new(FrameLink::default());
    let start = tracer.now();
    let Some((dep, steps)) = set_up(&mut out, args.seed, || {
        TracedSite::new(l1_site(args.seed), Arc::clone(&link), scope.clone(), true)
    }) else {
        return out;
    };
    out.metric("daemon.bind_ms", steps[0] * 1e3);
    out.metric("daemon.create_us", steps[1] * 1e6);
    out.metric("daemon.attach_ms", steps[2] * 1e3);
    let writer_trace = WriterTrace {
        link: Arc::clone(&link),
        rec: Recorder::new(scope.clone()),
        root,
    };
    let live = live_phase(&mut out, dep, args.seed, args.seconds, Some(writer_trace));
    tracer.submit(vec![Span {
        id: root,
        parent: 0,
        run,
        name: "run",
        start,
        end: tracer.now(),
    }]);

    if let Some(site) = live.site {
        let (_, totals, captured) = site.finish_trace();
        out.metric("site.busy_s", totals.busy_ns as f64 * 1e-9);
        out.metric(
            "site.ns_per_item",
            totals.busy_ns as f64 / totals.items.max(1) as f64,
        );
        out.metric(
            "site.up_msgs_per_kitem",
            totals.up_msgs as f64 * 1e3 / totals.items.max(1) as f64,
        );
        out.metric("site.downs_applied", totals.downs as f64);
        match wire_replay(&captured) {
            Ok((enc, dec, bytes)) => {
                out.check("wire replay", Ok(()));
                out.metric("wire.encode_ns_per_msg", enc);
                out.metric("wire.decode_ns_per_msg", dec);
                out.metric(
                    "wire.bytes_per_kitem",
                    bytes as f64 * 1e3 / live.fed.max(1) as f64,
                );
            }
            Err(e) => out.check("wire replay", Err(e)),
        }
    }
    out.metric("site.input_wait_s", live.feed_wait_s);
    out.metric(
        "attach.feed_busy_frac",
        live.feed_busy_s / live.feed_wall_s.max(1e-9),
    );
    if !live.writer_late_ms.is_empty() {
        out.metric(
            "gen.writer_late_p99_ms",
            percentile(&sorted(live.writer_late_ms.clone()), 990),
        );
    }
    if !live.queries.is_empty() {
        let col = |f: fn(&QuerySample) -> f64| sorted(live.queries.iter().map(f).collect());
        out.metric(
            "gen.query_late_p99_us",
            percentile(&col(|q| q.late_us), 990),
        );
        out.metric(
            "daemon.snapshot_rtt_us_p50",
            percentile(&col(|q| q.rtt_us), 500),
        );
        out.metric(
            "daemon.live_lag_p50_ms",
            percentile(&col(|q| q.lag_ms), 500),
        );
    }
    if let Some(snap) = &live.final_snap {
        out.metric("daemon.up_msgs", snap.up_msgs as f64);
        out.metric("coordinator.msgs", snap.up_msgs as f64);
        out.metric("coordinator.broadcasts", snap.broadcast_events as f64);
        if live.weight > 0.0 {
            out.metric(
                "apps.l1_rel_error",
                (snap.estimate - live.weight).abs() / live.weight,
            );
        }
        match lockstep(live.fed, args.seed) {
            Ok((rate, up)) => {
                out.check("lockstep run", Ok(()));
                out.metric("sim.lockstep_items_per_s", rate);
                out.metric(
                    "engine.msg_inflation",
                    snap.up_msgs as f64 / up.max(1) as f64,
                );
                println!("lockstep up-messages for the fed stream: {up}");
            }
            Err(e) => out.check("lockstep run", Err(e)),
        }
    }
    match source_ns_per_item(&scenario(live.fed.max(1), args.seed)) {
        Ok(ns) => out.metric("workloads.source_ns_per_item", ns),
        Err(e) => out.check("source drain", Err(e)),
    }

    // Tracing cost: the same closed-loop feed with plain and traced sites,
    // alternated, each into a fresh stream of one daemon.
    match deploy(args.seed, "overhead-setup", l1_site(args.seed)) {
        Ok(Deployment {
            daemon,
            mut ctrl,
            client,
            ..
        }) => {
            let _ = client.finish();
            let (mut plain, mut traced) = (Vec::new(), Vec::new());
            for rep in 0..3 {
                let seed = args.seed ^ rep;
                if let Some(w) = closed_loop_feed(
                    &mut out,
                    &mut ctrl,
                    &daemon,
                    &format!("plain-{rep}"),
                    seed,
                    l1_site(seed),
                    None,
                ) {
                    plain.push(w);
                }
                let link = Arc::new(FrameLink::default());
                let scope = Scope {
                    tracer: Arc::clone(&tracer),
                    run: tracer.id(),
                    root: 0,
                    keep: false,
                };
                let site = TracedSite::new(l1_site(seed), Arc::clone(&link), scope, false);
                if let Some(w) = closed_loop_feed(
                    &mut out,
                    &mut ctrl,
                    &daemon,
                    &format!("traced-{rep}"),
                    seed,
                    site,
                    Some(&link),
                ) {
                    traced.push(w);
                }
            }
            daemon.shutdown();
            if !plain.is_empty() && !traced.is_empty() {
                out.metric(
                    "trace.overhead_frac",
                    1.0 - median(&plain) / median(&traced),
                );
            }
        }
        Err(e) => out.check("overhead daemon set-up", Err(e)),
    }

    out.metric(
        "reactor.events",
        (r.counter(METRIC_REACTOR_EVENTS_TOTAL).get() - events0) as f64,
    );
    out.metric(
        "reactor.site_flushes",
        (r.counter(METRIC_SITE_FLUSHES_TOTAL).get() - flushes0) as f64,
    );
    let service = r.histogram(METRIC_REACTOR_SERVICE_NS).summary();
    out.metric("reactor.service_ns_p50", service.map_or(0.0, |s| s.p50));
    out.metric("process.threads_peak", threads.stop() as f64);
    write_spans(&tracer, &mut out, "daemon_live_l1", args.seed);
    out
}
