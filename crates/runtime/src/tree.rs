//! Hierarchical fan-in topology on the concurrent substrate.
//!
//! The flat engine ([`crate::engine`]) runs `k` sites against one
//! coordinator. This module promotes the two-level tree of
//! `dwrs_sim::FanInTree` — `g` groups of `k` sites, each group running the
//! **full weighted SWOR protocol** against its own *aggregator*, and a
//! *root merger* holding the latest [`SyncMsg`] sample from every group —
//! from a lockstep-only simulation to a first-class runtime topology over
//! the same pluggable transports:
//!
//! ```text
//!   group 0: site threads ──►┐
//!                            ├─► aggregator 0 ──┐  SyncMsg every
//!   group 1: site threads ──►┤                  │  `sync_every` items
//!                            ├─► aggregator 1 ──┼─► root merger
//!        ...                 │       ...        │   (merge_samples)
//!   group g-1: sites ...   ──┴─► aggregator g-1─┘
//! ```
//!
//! Both hops reuse the existing transport layer: sites↔aggregator links
//! are ordinary [`crate::transport`] wirings (bounded in-process channels,
//! or the epoll engine's loopback sockets), and the aggregator→root hop is
//! *the same up-path abstraction* instantiated at `U = SyncMsg` over
//! in-process channels — so batch frames, fault frames, and the
//! backpressure discipline all carry over unchanged.
//!
//! # Deadlock freedom across two hops
//!
//! The invariant of the flat engine generalizes tier-wise. Site→aggregator
//! and aggregator→root queues are bounded (blocking sends = backpressure);
//! every down path is unbounded and eagerly drained. The root never sends,
//! so it always returns to draining its queue; hence a blocked
//! aggregator→root send always unblocks, hence the aggregator always
//! returns to draining its site queue, hence blocked site sends always
//! unblock. No cycle of blocking sends can form.
//!
//! # Shutdown ordering
//!
//! Deterministic two-tier drain, strictly ordered per group:
//!
//! 1. each site flushes its final partial batch (plus its residual item
//!    count) and sends `Eof`;
//! 2. once every site of a group reported `Eof`, the aggregator closes its
//!    down links, performs one **final sync** — making the root's view of
//!    that group exact — and sends its own `Eof` up;
//! 3. the root drains until every group reported `Eof`, then merges.
//!
//! # Bounded staleness
//!
//! An aggregator syncs as soon as its item watermark (the per-frame counts
//! shipped by the engine's site loop) has advanced `sync_every`
//! items since the previous sync. Watermarks move in frame granularity, so
//! the lag at a sync trigger is bounded by `sync_every - 1` plus the item
//! window of the frame that crossed the threshold — recorded per group in
//! [`GroupStats`] and asserted by the tree equivalence suite. After
//! shutdown the root is exact: the final sync covers every item.

use std::sync::mpsc;
use std::thread;

use dwrs_core::merge::merge_samples;
use dwrs_core::swor::{SworConfig, SworCoordinator, SyncMsg};
use dwrs_core::{Item, Keyed};
use dwrs_sim::{
    swor_coordinator, swor_site, tree_group_seed, CoordinatorNode, FanInTree, Meter, Metrics,
    NoDown, Outbox, SiteNode,
};

use crate::adapters::EngineKind;
use crate::config::RuntimeConfig;
use crate::engine::{route, site_loop, RuntimeError};
use crate::obs::{record_thread_metrics, tree_syncs_counter};
use crate::transport::{
    channel_wiring, CoordEndpoint, SiteEndpoint, TransportError, UpFrame, Wiring,
};

/// Shape of a two-level fan-in deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeTopology {
    /// Number of groups `g` (one aggregator each).
    pub groups: usize,
    /// Sites per group `k` (the intra-group protocol runs with this `k`).
    pub k_per_group: usize,
    /// An aggregator ships its sample to the root every `sync_every` items
    /// its group processes.
    pub sync_every: u64,
}

impl TreeTopology {
    /// A `groups × k_per_group` tree syncing every `sync_every` items.
    pub fn new(groups: usize, k_per_group: usize, sync_every: u64) -> Self {
        assert!(groups >= 1, "need at least one group");
        assert!(k_per_group >= 1, "need at least one site per group");
        assert!(sync_every >= 1, "sync period must be at least 1");
        Self {
            groups,
            k_per_group,
            sync_every,
        }
    }

    /// Total number of leaf sites `g · k`.
    pub fn total_sites(&self) -> usize {
        self.groups * self.k_per_group
    }
}

/// Per-group bookkeeping an aggregator hands back, used by the
/// bounded-staleness assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Items the group's sites reported (watermark at shutdown).
    pub items: u64,
    /// Aggregator→root syncs performed (including the final sync).
    pub syncs: u64,
    /// Largest item watermark lag reached before a sync fired. Bounded by
    /// `sync_every - 1 + max_frame_items` (see module docs).
    pub max_unsynced: u64,
    /// Largest single-frame item window received from a site.
    pub max_frame_items: u64,
}

/// Everything a completed tree run hands back.
#[derive(Debug)]
pub struct TreeOutput {
    /// The root's merged sample: an exact weighted SWOR of the full stream
    /// (every group's final sync covers its whole substream).
    pub root_sample: Vec<Keyed>,
    /// Each group's last-synced sample, in group order.
    pub group_samples: Vec<Vec<Keyed>>,
    /// All tiers' accounting merged into one paper-accounting total: site
    /// upstream traffic, aggregator downstream traffic, and one `"sync"`
    /// message per synced sample entry.
    pub metrics: Metrics,
    /// Per-group staleness/cadence bookkeeping, in group order. (Lockstep
    /// runs report `max_frame_items = 1`: watermarks advance per item.)
    pub group_stats: Vec<GroupStats>,
    /// Root-side log of `(group, items_covered)` per received sync, in
    /// arrival order. Empty for lockstep runs.
    pub sync_log: Vec<(usize, u64)>,
}

/// A coordinator that can expose its current keyed sample for a root sync
/// (implemented by the weighted-SWOR coordinator; any mergeable-sample
/// protocol can opt in).
pub trait SampleSource {
    /// The node's current keyed sample (its top-`s`).
    fn keyed_sample(&self) -> Vec<Keyed>;
}

impl SampleSource for SworCoordinator {
    fn keyed_sample(&self) -> Vec<Keyed> {
        self.sample()
    }
}

/// Largest candidate count a window aggregator syncs in one frame: what
/// fits a `MAX_FRAME_LEN` sync payload (17-byte header + 24 bytes per
/// entry, with slack for the batch wrapper). ~43k entries — far above the
/// expected `O(s·log(window/s))` retained-set size for any `s` up to
/// that size; only adversarially ordered keys (a near-monotone key
/// stream, whose undominated set is the whole window) ever reach it.
const MAX_WINDOW_SYNC_ENTRIES: usize = (dwrs_core::framed::MAX_FRAME_LEN as usize - 64) / 24;

impl SampleSource for dwrs_apps::WindowCoordinator {
    /// Aggregators sync their **un-truncated** in-window candidate set:
    /// the group's watermark lags the global one, so a premature local
    /// top-`s` cut could let globally-expired entries displace candidates
    /// the root still needs. The root applies the global window cutoff
    /// and the final top-`s` (`Query::SlidingWindow`'s tree answer).
    /// Only the backstop `MAX_WINDOW_SYNC_ENTRIES` truncates (keeping the
    /// largest keys), bounding a sync at what one framed payload carries.
    fn keyed_sample(&self) -> Vec<Keyed> {
        let mut entries = self.window_entries();
        if entries.len() > MAX_WINDOW_SYNC_ENTRIES {
            entries.sort_by(|a, b| b.key.total_cmp(&a.key));
            entries.truncate(MAX_WINDOW_SYNC_ENTRIES);
        }
        entries
    }
}

/// Ships one sync to the root, metering it as the paper accounts it (one
/// message per synced entry, exact wire bytes).
fn sync_to_root<C: SampleSource>(
    node: &C,
    root: &mut dyn crate::transport::BatchSender<SyncMsg>,
    group: usize,
    watermark: u64,
    window: u64,
    metrics: &mut Metrics,
) -> Result<(), TransportError> {
    let msg = SyncMsg {
        group: group as u32,
        items: watermark,
        sample: node.keyed_sample(),
    };
    metrics.count_up(Meter::kind(&msg), msg.units(), msg.wire_bytes());
    root.send(UpFrame::Batch {
        msgs: vec![msg],
        items: window,
    })
}

/// Drives one group's aggregator: the flat coordinator loop (receive site
/// batches, route broadcasts) plus the root-sync cadence and the
/// final-sync/`Eof` shutdown handshake. Returns the aggregator's metrics
/// (downstream routing + sync tier) and its [`GroupStats`].
pub(crate) fn aggregator_loop<C>(
    node: &mut C,
    endpoint: CoordEndpoint<C::Up, C::Down>,
    mut root: SiteEndpoint<SyncMsg, NoDown>,
    group: usize,
    sync_every: u64,
) -> Result<(Metrics, GroupStats), RuntimeError>
where
    C: CoordinatorNode + SampleSource,
{
    let CoordEndpoint { up, mut downs } = endpoint;
    let k = downs.len();
    let mut metrics = Metrics::new();
    let mut outbox = Outbox::new();
    let mut stats = GroupStats::default();
    // Resolved once; each sync is then a single relaxed atomic add.
    let syncs_counter = tree_syncs_counter();
    let mut pending = 0u64;
    let mut done = 0usize;
    let mut fault: Option<String> = None;
    while done < k {
        match up.recv() {
            Ok((site, UpFrame::Batch { msgs, items })) => {
                for msg in msgs {
                    node.receive(site, msg, &mut outbox);
                    route(&mut outbox, &mut downs, &mut metrics);
                }
                pending += items;
                stats.items += items;
                stats.max_frame_items = stats.max_frame_items.max(items);
                if pending >= sync_every {
                    stats.max_unsynced = stats.max_unsynced.max(pending);
                    let window = std::mem::take(&mut pending);
                    sync_to_root(
                        node,
                        &mut *root.up,
                        group,
                        stats.items,
                        window,
                        &mut metrics,
                    )?;
                    stats.syncs += 1;
                    syncs_counter.inc();
                }
            }
            Ok((_, UpFrame::Eof)) => done += 1,
            Ok((site, UpFrame::Fault(e))) => {
                fault.get_or_insert(format!("group {group}, site {site}: {e}"));
                done += 1;
            }
            // All site senders dropped before k Eofs: a site died without
            // its Eof; the engine's joins surface the precise cause.
            Err(mpsc::RecvError) => break,
        }
    }
    for d in &mut downs {
        d.close();
    }
    drop(downs);
    if let Some(e) = fault {
        // Propagate the failure up so the root terminates with a
        // diagnostic instead of waiting for a sync that never comes.
        let _ = root.up.send(UpFrame::Fault(e.clone()));
        root.up.close();
        return Err(RuntimeError::Transport(e));
    }
    // Final sync (shutdown phase 2): makes the root's view of this group
    // exact, then half-close the root link.
    stats.max_unsynced = stats.max_unsynced.max(pending);
    sync_to_root(
        node,
        &mut *root.up,
        group,
        stats.items,
        pending,
        &mut metrics,
    )?;
    stats.syncs += 1;
    syncs_counter.inc();
    root.up.send(UpFrame::Eof)?;
    root.up.close();
    drop(root.up);
    // Drain the (empty) root→aggregator path until the root closes it, so
    // shutdown stays ordered even if a future root gains a down path.
    while root.down.recv().is_ok() {}
    record_thread_metrics(&metrics);
    Ok((metrics, stats))
}

/// What the root merger hands back: each group's latest sample plus the
/// `(group, items_covered)` watermark log in arrival order.
type RootResult = Result<(Vec<Vec<Keyed>>, Vec<(usize, u64)>), RuntimeError>;

/// Drives the root merger: collects each group's latest sync until every
/// group reports `Eof`, recording the coverage watermark log. Syncs are
/// sender-metered (by the aggregators), so the root contributes no
/// metrics of its own.
pub(crate) fn root_loop(endpoint: CoordEndpoint<SyncMsg, NoDown>) -> RootResult {
    let CoordEndpoint { up, mut downs } = endpoint;
    let g = downs.len();
    let mut samples: Vec<Vec<Keyed>> = vec![Vec::new(); g];
    let mut log: Vec<(usize, u64)> = Vec::new();
    let mut done = 0usize;
    let mut fault: Option<String> = None;
    while done < g {
        match up.recv() {
            Ok((from, UpFrame::Batch { msgs, .. })) => {
                for msg in msgs {
                    let gi = msg.group as usize;
                    if gi != from || gi >= g {
                        fault.get_or_insert(format!(
                            "sync for group {gi} arrived on group {from}'s link"
                        ));
                        continue;
                    }
                    log.push((gi, msg.items));
                    samples[gi] = msg.sample;
                }
            }
            Ok((_, UpFrame::Eof)) => done += 1,
            Ok((from, UpFrame::Fault(e))) => {
                fault.get_or_insert(format!("group {from}: {e}"));
                done += 1;
            }
            Err(mpsc::RecvError) => break,
        }
    }
    for d in &mut downs {
        d.close();
    }
    drop(downs);
    match fault {
        Some(e) => Err(RuntimeError::Transport(e)),
        None => Ok((samples, log)),
    }
}

/// Runs a full fan-in tree on the threads engine: one channel wiring per
/// group plus the aggregator→root channel wiring. Generic over the
/// protocol — `mk_site(group, site)` and `mk_aggregator(group)` build the
/// group deployments (any [`SiteNode`]/[`CoordinatorNode`]+[`SampleSource`]
/// pair) — and the engine behind the threaded path of [`run_tree_swor`]
/// and the query-generic [`run_tree_nodes`].
#[allow(clippy::type_complexity)]
fn run_tree_threads<S, A, I>(
    s: usize,
    topo: &TreeTopology,
    mut mk_site: impl FnMut(usize, usize) -> S,
    mut mk_aggregator: impl FnMut(usize) -> A,
    streams: Vec<Vec<I>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send + 'static,
    S::Down: Clone + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
    I: IntoIterator<Item = Item> + Send,
{
    let (g, k) = (topo.groups, topo.k_per_group);
    let batch_max = cfg.batch_max.max(1);
    let down_poll_every = cfg.down_poll_every.max(1);
    let group_wirings: Vec<Wiring<S::Up, S::Down>> = (0..g)
        .map(|_| channel_wiring(k, cfg.queue_capacity))
        .collect();
    let (root_links, root_ep) = channel_wiring(g, cfg.queue_capacity);
    assert_eq!(streams.len(), g, "one stream block per group");

    type SiteRes = Result<Metrics, RuntimeError>;
    type AggRes = Result<(Metrics, GroupStats), RuntimeError>;
    let (root_res, agg_res, site_res) = thread::scope(|scope| {
        let mut site_handles: Vec<thread::ScopedJoinHandle<'_, SiteRes>> =
            Vec::with_capacity(g * k);
        let mut agg_handles: Vec<thread::ScopedJoinHandle<'_, AggRes>> = Vec::with_capacity(g);
        for (gi, (((site_eps, coord_ep), root_link), group_streams)) in group_wirings
            .into_iter()
            .zip(root_links)
            .zip(streams)
            .enumerate()
        {
            assert_eq!(site_eps.len(), k, "one endpoint per site");
            assert_eq!(group_streams.len(), k, "one stream partition per site");
            for ((i, ep), items) in site_eps.into_iter().enumerate().zip(group_streams) {
                let mut site = mk_site(gi, i);
                site_handles
                    .push(scope.spawn(move || {
                        site_loop(&mut site, ep, items, batch_max, down_poll_every)
                    }));
            }
            let mut aggregator = mk_aggregator(gi);
            let sync_every = topo.sync_every;
            agg_handles.push(scope.spawn(move || {
                aggregator_loop(&mut aggregator, coord_ep, root_link, gi, sync_every)
            }));
        }
        let root_handle = scope.spawn(move || root_loop(root_ep));
        let site_res: Vec<_> = site_handles.into_iter().map(|h| h.join()).collect();
        let agg_res: Vec<_> = agg_handles.into_iter().map(|h| h.join()).collect();
        (root_handle.join(), agg_res, site_res)
    });

    // Surface panics deterministically: sites (by global index), then
    // aggregators, then the root, then transport errors in the same order.
    for (i, res) in site_res.iter().enumerate() {
        if res.is_err() {
            return Err(RuntimeError::SitePanicked(i));
        }
    }
    for (gi, res) in agg_res.iter().enumerate() {
        if res.is_err() {
            return Err(RuntimeError::AggregatorPanicked(gi));
        }
    }
    let root_out = root_res.map_err(|_| RuntimeError::RootPanicked)?;

    let mut metrics = Metrics::new();
    for res in site_res {
        metrics.merge(&res.expect("panics handled above")?);
    }
    let mut group_stats = Vec::with_capacity(g);
    for res in agg_res {
        let (agg_metrics, stats) = res.expect("panics handled above")?;
        metrics.merge(&agg_metrics);
        group_stats.push(stats);
    }
    let (group_samples, sync_log) = root_out?;
    let parts: Vec<&[Keyed]> = group_samples.iter().map(Vec::as_slice).collect();
    let root_sample = merge_samples(&parts, s);
    Ok(TreeOutput {
        root_sample,
        group_samples,
        metrics,
        group_stats,
        sync_log,
    })
}

/// Finishes a lockstep fan-in tree run: final syncs (making the root
/// exact), then the uniform [`TreeOutput`] conversion. Shared by the
/// vec-based [`run_tree_swor`] lockstep arm and the streaming scenario
/// driver — the one place lockstep tree results are assembled.
pub(crate) fn finish_lockstep_tree(mut tree: FanInTree) -> TreeOutput {
    tree.sync_all();
    let g = tree.num_groups();
    let group_samples: Vec<Vec<Keyed>> = (0..g).map(|gi| tree.group_sample(gi).to_vec()).collect();
    let group_stats = (0..g)
        .map(|gi| GroupStats {
            items: tree.group_observed(gi),
            syncs: tree.group_syncs(gi),
            max_unsynced: tree.group_max_unsynced(gi),
            max_frame_items: 1,
        })
        .collect();
    TreeOutput {
        root_sample: tree.root_sample(),
        group_samples,
        metrics: tree.merged_metrics(),
        group_stats,
        sync_log: Vec::new(),
    }
}

/// Single-threaded fan-in tree over arbitrary protocol nodes: one lockstep
/// [`dwrs_sim::Runner`] per group plus the root's sync/merge bookkeeping —
/// the generic lockstep analogue of [`run_tree_nodes`], used by the
/// scenario driver for every non-SWOR [`crate::driver::Query`] (SWOR keeps
/// the specialized [`FanInTree`], with which identically-seeded runs are
/// byte-compatible).
pub struct LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    groups: Vec<dwrs_sim::Runner<S, A>>,
    synced: Vec<Vec<Keyed>>,
    stats: Vec<GroupStats>,
    pending: Vec<u64>,
    sync_metrics: Metrics,
    sync_every: u64,
    s: usize,
}

impl<S, A> std::fmt::Debug for LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LockstepTree({} groups, sync_every {})",
            self.groups.len(),
            self.sync_every
        )
    }
}

impl<S, A> LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    /// Builds the tree from per-group lockstep runners (each already
    /// holding its `k` sites and aggregator), syncing every group's keyed
    /// sample to the root after `sync_every` of its items.
    pub fn new(s: usize, sync_every: u64, groups: Vec<dwrs_sim::Runner<S, A>>) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        assert!(sync_every >= 1, "sync period must be at least 1");
        let g = groups.len();
        Self {
            groups,
            synced: vec![Vec::new(); g],
            stats: vec![GroupStats::default(); g],
            pending: vec![0; g],
            sync_metrics: Metrics::new(),
            sync_every,
            s,
        }
    }

    /// Feeds one item to site `site` of group `group`.
    pub fn observe(&mut self, group: usize, site: usize, item: Item) {
        self.groups[group].step(site, item);
        self.stats[group].items += 1;
        self.stats[group].max_frame_items = 1;
        self.pending[group] += 1;
        if self.pending[group] >= self.sync_every {
            self.sync_group(group);
        }
    }

    /// Ships group `group`'s current sample to the root, with the paper's
    /// sync-tier accounting (one message per synced entry, exact wire
    /// bytes) — identical to the concurrent aggregator's metering.
    fn sync_group(&mut self, group: usize) {
        let st = &mut self.stats[group];
        st.max_unsynced = st.max_unsynced.max(self.pending[group]);
        self.pending[group] = 0;
        let msg = SyncMsg {
            group: group as u32,
            items: st.items,
            sample: self.groups[group].coordinator.keyed_sample(),
        };
        self.sync_metrics
            .count_up(Meter::kind(&msg), msg.units(), msg.wire_bytes());
        st.syncs += 1;
        self.synced[group] = msg.sample;
    }

    /// Ends the stream: every site's `finish` messages route through its
    /// aggregator, each group performs its final (exact) sync, and the
    /// root merges. Mirrors the concurrent shutdown ordering.
    pub fn finish(mut self) -> TreeOutput {
        let g = self.groups.len();
        for gi in 0..g {
            self.groups[gi].finish();
            self.sync_group(gi);
        }
        let mut metrics = Metrics::new();
        for runner in &self.groups {
            metrics.merge(&runner.metrics);
        }
        metrics.merge(&self.sync_metrics);
        let parts: Vec<&[Keyed]> = self.synced.iter().map(Vec::as_slice).collect();
        let root_sample = merge_samples(&parts, self.s);
        TreeOutput {
            root_sample,
            group_samples: self.synced,
            metrics,
            group_stats: self.stats,
            sync_log: Vec::new(),
        }
    }
}

/// Builds the fan-in tree deployment — seeded exactly like
/// [`dwrs_sim::FanInTree`] via [`tree_group_seed`] — and runs it on the
/// chosen substrate. `group_cfg` is the intra-group protocol configuration
/// (its `num_sites` must equal `topo.k_per_group`).
///
/// `streams[gi][i]` is the partition of the stream for site `i` of group
/// `gi`, in that site's arrival order — any streaming iterators (the
/// scenario driver passes its bounded shard queues).
///
/// With [`EngineKind::Lockstep`] the tree runs on the single-threaded
/// simulator over a round-robin interleaving of the partitions; the other
/// engines run `g` aggregator threads and one root thread, with the `g·k`
/// sites on their own threads over in-process channels (threads) or
/// multiplexed over loopback TCP (epoll).
pub fn run_tree_swor<I>(
    engine: EngineKind,
    group_cfg: &SworConfig,
    topo: &TreeTopology,
    seed: u64,
    streams: Vec<Vec<I>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    I: IntoIterator<Item = Item> + Send,
{
    let (g, k) = (topo.groups, topo.k_per_group);
    assert_eq!(streams.len(), g, "one stream block per group");
    assert_eq!(
        group_cfg.num_sites, k,
        "group config must cover k_per_group sites"
    );
    match engine {
        EngineKind::Lockstep => {
            let mut tree = FanInTree::from_config(group_cfg.clone(), g, topo.sync_every, seed);
            // Flatten group-major and interleave round-robin: the same
            // one-item-per-site-per-round order as before.
            let flat: Vec<I> = streams.into_iter().flatten().collect();
            crate::driver::interleave_shards(flat, |shard, item| {
                tree.observe(shard / k, shard % k, item);
            });
            Ok(finish_lockstep_tree(tree))
        }
        EngineKind::Threads | EngineKind::Epoll => {
            let group_seed = |gi: usize| tree_group_seed(seed, gi);
            run_tree_nodes(
                engine,
                group_cfg.sample_size,
                topo,
                |gi, i| swor_site(group_cfg, group_seed(gi), i),
                |gi| swor_coordinator(group_cfg.clone(), group_seed(gi)),
                streams,
                cfg,
            )
        }
    }
}

/// Runs a generic fan-in tree on the threads or epoll engine: `g` groups
/// of `k` sites built by `mk_site(group, site)` against per-group
/// aggregators built by `mk_aggregator(group)` (any
/// [`SiteNode`]/[`CoordinatorNode`]+[`SampleSource`] pair), with the
/// aggregator→root hop at `U = SyncMsg` and the root merging each group's
/// latest keyed sample into a top-`s`. This is the engine every
/// [`crate::driver::Query`] tree deployment routes through; the lockstep
/// analogue is the driver's generic group-runner loop.
pub fn run_tree_nodes<S, A, I>(
    engine: EngineKind,
    s: usize,
    topo: &TreeTopology,
    mk_site: impl FnMut(usize, usize) -> S,
    mk_aggregator: impl FnMut(usize) -> A,
    streams: Vec<Vec<I>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: dwrs_core::framed::FrameCodec + Send + 'static,
    S::Down: dwrs_core::framed::FrameCodec + Clone + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
    I: IntoIterator<Item = Item> + Send,
{
    assert_eq!(streams.len(), topo.groups, "one stream block per group");
    match engine {
        EngineKind::Lockstep => Err(RuntimeError::InvalidScenario(
            "run_tree_nodes drives the concurrent substrates; lockstep trees run through \
             the scenario driver"
                .into(),
        )),
        EngineKind::Threads => run_tree_threads(s, topo, mk_site, mk_aggregator, streams, cfg),
        EngineKind::Epoll => {
            // This vec-based entry point materializes each partition into
            // a [`crate::epoll::VecFeed`]; streaming deployments (the
            // scenario driver) hand their bounded shard queues to
            // [`crate::epoll::run_tree_epoll`] directly as nonblocking
            // feeds, at O(batch × queue) memory.
            let feeds: Vec<Vec<Box<dyn crate::epoll::ItemFeed>>> = streams
                .into_iter()
                .map(|group| {
                    group
                        .into_iter()
                        .map(|items| {
                            Box::new(crate::epoll::VecFeed::new(items.into_iter().collect()))
                                as Box<dyn crate::epoll::ItemFeed>
                        })
                        .collect()
                })
                .collect();
            crate::epoll::run_tree_epoll(s, topo, mk_site, mk_aggregator, feeds, cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items `0..n` with weights cycling through 1..=7; global site
    /// `i % total` is site `i % k` of group `i / k`.
    fn tree_streams(topo: &TreeTopology, n: u64) -> Vec<Vec<Vec<Item>>> {
        let (total, k) = (topo.total_sites(), topo.k_per_group);
        (0..topo.groups)
            .map(|gi| {
                (0..k)
                    .map(|i| {
                        ((gi * k + i) as u64..n)
                            .step_by(total)
                            .map(|id| Item::new(id, 1.0 + (id % 7) as f64))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn threads_tree_end_to_end() {
        let topo = TreeTopology::new(3, 2, 500);
        let n = 30_000u64;
        let out = run_tree_swor(
            EngineKind::Threads,
            &SworConfig::new(8, topo.k_per_group),
            &topo,
            42,
            tree_streams(&topo, n),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), 8);
        assert_eq!(out.group_samples.len(), 3);
        // Every group's final sync covered its whole substream.
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, n);
        for (gi, st) in out.group_stats.iter().enumerate() {
            assert!(st.syncs >= 1, "group {gi} never synced");
            // Bounded staleness: lag at any sync trigger is under the
            // period plus one frame's item window.
            assert!(
                st.max_unsynced < topo.sync_every + st.max_frame_items,
                "group {gi}: max_unsynced {} vs bound {}",
                st.max_unsynced,
                topo.sync_every + st.max_frame_items
            );
            // The last sync in the log is the exact watermark.
            let last = out
                .sync_log
                .iter()
                .rev()
                .find(|&&(g, _)| g == gi)
                .expect("every group appears in the sync log");
            assert_eq!(last.1, st.items, "group {gi} final sync not exact");
        }
        // Sync traffic is metered into the merged totals.
        assert!(out.metrics.kind("sync") > 0);
        assert!(out.metrics.kind("regular") + out.metrics.kind("early") > 0);
    }

    #[test]
    fn epoll_tree_end_to_end() {
        let topo = TreeTopology::new(2, 2, 1_000);
        let n = 20_000u64;
        let out = run_tree_swor(
            EngineKind::Epoll,
            &SworConfig::new(8, topo.k_per_group),
            &topo,
            7,
            tree_streams(&topo, n),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), 8);
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, n);
        assert!(out.metrics.kind("sync") > 0);
    }

    #[test]
    fn lockstep_tree_matches_fan_in_tree_exactly() {
        // The Lockstep engine is a thin driver over dwrs_sim::FanInTree;
        // identical seeds and streams must give byte-identical samples.
        let topo = TreeTopology::new(2, 2, 100);
        let n = 5_000u64;
        let out = run_tree_swor(
            EngineKind::Lockstep,
            &SworConfig::new(4, topo.k_per_group),
            &topo,
            11,
            tree_streams(&topo, n),
            &RuntimeConfig::default(),
        )
        .unwrap();
        let mut tree = FanInTree::new(4, 2, 2, 100, 11);
        // Reproduce the run_tree_swor round-robin interleaving: one item
        // per (group, site) per round, in group-major order.
        let streams = tree_streams(&topo, n);
        let mut iters: Vec<Vec<_>> = streams
            .into_iter()
            .map(|gr| gr.into_iter().map(Vec::into_iter).collect())
            .collect();
        loop {
            let mut any = false;
            for (gi, group_iters) in iters.iter_mut().enumerate() {
                for (si, it) in group_iters.iter_mut().enumerate() {
                    if let Some(item) = it.next() {
                        tree.observe(gi, si, item);
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        tree.sync_all();
        let ids = |v: &[Keyed]| {
            v.iter()
                .map(|kd| (kd.item.id, kd.key.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&out.root_sample), ids(&tree.root_sample()));
        assert_eq!(out.metrics.total(), tree.total_messages());
        assert_eq!(out.group_stats[0].items, tree.group_observed(0));
        assert_eq!(out.group_stats[1].syncs, tree.group_syncs(1));
    }

    #[test]
    fn tiny_queue_and_batch_tree_still_completes() {
        // Two-hop backpressure on every message: the deadlock-freedom
        // invariant must hold tier-wise.
        let topo = TreeTopology::new(2, 2, 7);
        let cfg = RuntimeConfig::new()
            .with_batch_max(1)
            .with_queue_capacity(1);
        let out = run_tree_swor(
            EngineKind::Threads,
            &SworConfig::new(4, topo.k_per_group),
            &topo,
            3,
            tree_streams(&topo, 4_000),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), 4);
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, 4_000);
    }

    #[test]
    fn epoll_tree_completes_sample_size_over_frame_cap() {
        // A sync frame for s = 50,000 would exceed MAX_FRAME_LEN, but the
        // root hop is an in-process channel on every engine: the epoll
        // tree accepts the size the threads tree does.
        let topo = TreeTopology::new(2, 1, 1_000);
        let s = 50_000;
        let out = run_tree_swor(
            EngineKind::Epoll,
            &SworConfig::new(s, topo.k_per_group),
            &topo,
            1,
            tree_streams(&topo, 60_000),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), s);
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, 60_000);
    }

    #[test]
    fn topology_validates() {
        assert_eq!(TreeTopology::new(4, 8, 100).total_sites(), 32);
        let r = std::panic::catch_unwind(|| TreeTopology::new(0, 1, 1));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| TreeTopology::new(1, 1, 0));
        assert!(r.is_err());
    }
}
