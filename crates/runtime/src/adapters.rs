//! Convenience builders mirroring `dwrs_sim::adapters`: one call wires `k`
//! seeded protocol sites and a coordinator onto a runtime engine.
//!
//! The site/coordinator construction (seeds included) is byte-identical to
//! the lockstep builders, so a lockstep run and a runtime run of the same
//! deployment differ only in execution substrate — which is exactly what
//! the equivalence tests compare.

use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite};
use dwrs_core::Item;
use dwrs_sim::{swor_coordinator, swor_site};

use crate::config::RuntimeConfig;
use crate::engine::{run_threads, RunOutput, RuntimeError};

/// Which execution substrate to run a deployment on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded lockstep simulator (`dwrs_sim::Runner`).
    Lockstep,
    /// OS threads over in-process bounded channels.
    Threads,
    /// Loopback TCP with framed wire encoding, every connection
    /// multiplexed onto a few epoll event loops ([`crate::epoll`]).
    Epoll,
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lockstep" => Ok(EngineKind::Lockstep),
            "threads" => Ok(EngineKind::Threads),
            "epoll" => Ok(EngineKind::Epoll),
            other => Err(format!(
                "unknown engine '{other}' (expected lockstep | threads | epoll)"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Lockstep => write!(f, "lockstep"),
            EngineKind::Threads => write!(f, "threads"),
            EngineKind::Epoll => write!(f, "epoll"),
        }
    }
}

/// Builds the weighted-SWOR deployment (same seeds as
/// `dwrs_sim::build_swor`) and runs it on the chosen threaded substrate.
///
/// `streams[i]` is site `i`'s partition of the stream in arrival order
/// (any streaming iterator — pre-materialized vecs or the driver's
/// bounded shard queues); `cfg.num_sites` must equal `streams.len()`.
pub fn run_swor<I>(
    engine: EngineKind,
    cfg: SworConfig,
    seed: u64,
    streams: Vec<I>,
    rcfg: &RuntimeConfig,
) -> Result<RunOutput<SworSite, SworCoordinator>, RuntimeError>
where
    I: IntoIterator<Item = Item> + Send,
{
    assert_eq!(
        cfg.num_sites,
        streams.len(),
        "one stream partition per site"
    );
    let sites: Vec<SworSite> = (0..cfg.num_sites)
        .map(|i| swor_site(&cfg, seed, i))
        .collect();
    let coordinator = swor_coordinator(cfg, seed);
    match engine {
        EngineKind::Lockstep => {
            // Uniform API: drive the single-threaded simulator over a
            // round-robin interleaving of the partitions (any interleaving
            // is a valid adversarial arrival order in the paper's model).
            let mut runner = dwrs_sim::Runner::new(coordinator, sites);
            crate::driver::interleave_shards(streams, |site, item| runner.step(site, item));
            Ok(RunOutput {
                sites: runner.sites,
                coordinator: runner.coordinator,
                metrics: runner.metrics,
            })
        }
        EngineKind::Threads => run_threads(sites, coordinator, streams, rcfg),
        EngineKind::Epoll => {
            // Vec-based entry point: materialize each partition into a
            // nonblocking feed. The scenario driver streams shard queues
            // into `run_epoll` directly instead.
            let feeds: Vec<Box<dyn crate::epoll::ItemFeed>> = streams
                .into_iter()
                .map(|items| {
                    Box::new(crate::epoll::VecFeed::new(items.into_iter().collect()))
                        as Box<dyn crate::epoll::ItemFeed>
                })
                .collect();
            crate::epoll::run_epoll(sites, coordinator, feeds, rcfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_parses() {
        assert_eq!(
            "threads".parse::<EngineKind>().unwrap(),
            EngineKind::Threads
        );
        assert_eq!("epoll".parse::<EngineKind>().unwrap(), EngineKind::Epoll);
        assert_eq!(
            "lockstep".parse::<EngineKind>().unwrap(),
            EngineKind::Lockstep
        );
        assert!("async".parse::<EngineKind>().is_err());
        assert!("tcp".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::Epoll.to_string(), "epoll");
    }

    /// Items `0..n` with weights cycling through 1..=7, item `i` on site
    /// `i % k`.
    fn streams(n: u64, k: usize) -> Vec<Vec<Item>> {
        (0..k as u64)
            .map(|site| {
                (site..n)
                    .step_by(k)
                    .map(|i| Item::new(i, 1.0 + (i % 7) as f64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_swor_threads_end_to_end() {
        let n = 5000u64;
        let out = run_swor(
            EngineKind::Threads,
            SworConfig::new(8, 4),
            42,
            streams(n, 4),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.sample().len(), 8);
        assert!(out.metrics.up_total > 0);
        // The paper's byte accounting must hold after the per-thread merge.
        let m = &out.metrics;
        assert_eq!(
            m.up_bytes,
            17 * m.kind("early") + 25 * m.kind("regular"),
            "upstream bytes must match exact frame sizes"
        );
        assert_eq!(
            m.down_bytes,
            5 * m.kind("level_saturated") + 9 * m.kind("update_epoch"),
            "downstream bytes must match exact frame sizes"
        );
    }

    #[test]
    fn tight_pipeline_recovers_message_sublinearity() {
        // Threaded execution is the delayed-delivery regime: the message
        // bound degrades with the feedback window (pipeline depth =
        // queue_capacity × batch_max per site), never correctness. With a
        // pipeline much shorter than the stream, sites learn thresholds in
        // time and message counts stay strongly sublinear, as in lockstep.
        let n = 20_000u64;
        let rcfg = RuntimeConfig::new()
            .with_batch_max(4)
            .with_queue_capacity(4);
        let out = run_swor(
            EngineKind::Threads,
            SworConfig::new(8, 4),
            42,
            streams(n, 4),
            &rcfg,
        )
        .unwrap();
        assert_eq!(out.coordinator.sample().len(), 8);
        assert!(
            out.metrics.total() < n / 4,
            "expected sublinear traffic, got {} of n = {n}",
            out.metrics.total()
        );
        // And the deep-pipeline run on the same stream still answers with a
        // correct sample, just more traffic.
        let deep = run_swor(
            EngineKind::Threads,
            SworConfig::new(8, 4),
            42,
            streams(n, 4),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(deep.coordinator.sample().len(), 8);
    }
}
