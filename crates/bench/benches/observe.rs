//! Single-core sampler cost, isolated from every engine concern
//! (ROADMAP item 4, first step): how many items/s can one core push
//! through the weighted-SWOR `observe` path?
//!
//! Two regimes bracket the sampler:
//!
//! * `observe_only` — a lone `SworSite` with no coordinator feedback:
//!   the raw per-item cost of key generation + local filtering, with the
//!   message push included but nothing consuming it. No threshold ever
//!   arrives, so this is the messaging-heavy upper bound.
//! * `observe_filtered` — the same lone site in the state engines run it
//!   in for most of a long stream: levels 0..=63 saturated and the epoch
//!   threshold the coordinator would announce at the end of the stream
//!   (`r^j <= W/s`) already in force, so almost every item is filtered.
//! * `lockstep_k1` — the single-threaded `Runner` with one site: every
//!   message folds into the coordinator and thresholds feed back
//!   immediately, i.e. the complete sampler pipeline at its single-core
//!   floor. Engine-level wins (batching, event loops, parallelism) show
//!   up in `runtime.rs`/`BENCH_driver.json` *relative to this number*,
//!   so a sampler-level regression cannot masquerade as an engine-level
//!   one or vice versa.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dwrs_core::swor::{epoch_of, epoch_threshold, DownMsg, SworConfig, SworSite};
use dwrs_core::Item;
use dwrs_sim::{swor_coordinator, swor_site, Runner};

const N: usize = 1_000_000;
const S: usize = 64;

fn workloads() -> Vec<(&'static str, Vec<Item>)> {
    vec![
        ("unit", dwrs_workloads::unit(N)),
        ("zipf", dwrs_workloads::zipf_ranked(N, 1.2, 7)),
    ]
}

/// Feeds `items` to `site`; returns the messages left in the outbox.
fn observe_all(site: &mut SworSite, items: &[Item]) -> usize {
    let mut out = Vec::with_capacity(256);
    for &item in items {
        // The trait path the engines drive (inherent observe plus the
        // outbox push), fully qualified because `SworSite` also has an
        // inherent `observe`.
        dwrs_sim::SiteNode::observe(site, item, &mut out);
        // Discard messages without deallocating: the push is part of the
        // per-item cost, the consumer is not.
        if out.len() >= 192 {
            out.clear();
        }
    }
    out.len()
}

fn observe_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("observe_only");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for (name, items) in workloads() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &items, |b, items| {
            b.iter(|| {
                let mut site = swor_site(&SworConfig::new(S, 1), 42, 0);
                black_box(observe_all(&mut site, items))
            });
        });
    }
    g.finish();
}

fn observe_filtered(c: &mut Criterion) {
    let mut g = c.benchmark_group("observe_filtered");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for (name, items) in workloads() {
        let cfg = SworConfig::new(S, 1);
        let r = cfg.r();
        // The s-th largest of n keys w/t sits near W/s.
        let total: f64 = items.iter().map(|it| it.weight).sum();
        let epoch = epoch_of(total / S as f64, r).expect("W/s >= 1");
        let threshold = epoch_threshold(epoch, r);
        g.bench_with_input(BenchmarkId::from_parameter(name), &items, |b, items| {
            b.iter(|| {
                let mut site = swor_site(&cfg, 42, 0);
                for level in 0..64 {
                    dwrs_sim::SiteNode::receive(&mut site, &DownMsg::LevelSaturated { level });
                }
                dwrs_sim::SiteNode::receive(&mut site, &DownMsg::UpdateEpoch { threshold });
                black_box(observe_all(&mut site, items))
            });
        });
    }
    g.finish();
}

fn lockstep_k1(c: &mut Criterion) {
    let mut g = c.benchmark_group("lockstep_k1");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for (name, items) in workloads() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &items, |b, items| {
            b.iter(|| {
                let cfg = SworConfig::new(S, 1);
                let site = swor_site(&cfg, 42, 0);
                let coordinator = swor_coordinator(cfg, 42);
                let mut runner = Runner::new(coordinator, vec![site]);
                for &item in items {
                    runner.step(0, item);
                }
                black_box(runner.metrics.total())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, observe_only, observe_filtered, lockstep_k1);
criterion_main!(benches);
