//! The traced run's probes: wrapper nodes that implement the protocol
//! traits by delegation and time each call, and the benchmark's own item
//! feeds, which time how long sites wait for input.
//!
//! The clock is read per frame piece, per down message and per
//! coordinator call, never per item: a traced site counts items and
//! messages on every call but reads the clock only at the first and last
//! item of a piece, whose length its feed announces through a
//! [`FrameLink`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use dwrs_core::swor::{DownMsg, UpMsg};
use dwrs_core::Item;
use dwrs_runtime::driver::{FRAME_ITEMS, QUEUE_FRAMES};
use dwrs_runtime::{Feed, ItemFeed};
use dwrs_sim::{CoordinatorNode, Outbox, Partitioner, SiteNode};
use dwrs_workloads::source::ItemSource;

use crate::trace::{Span, Tracer};

/// Spans one producer keeps per deployment; the rest are only tallied,
/// so that a coordinator handling a million messages does not crowd
/// every other layer out of the span file.
const LOCAL_SPAN_CAP: usize = 20_000;

/// Where a probe's spans go: the tracer, the deployment's run id and the
/// deployment's root span.
#[derive(Clone, Debug)]
pub struct Scope {
    /// The process's span sink.
    pub tracer: Arc<Tracer>,
    /// The deployment's run id.
    pub run: u64,
    /// The deployment's root span id.
    pub root: u64,
    /// Whether spans are kept; repeated deployments keep only their
    /// counts, so the span file holds one deployment, not dozens.
    pub keep: bool,
}

/// Buffers one producer's spans until its deployment ends.
#[derive(Debug)]
pub struct Recorder {
    scope: Scope,
    spans: Vec<Span>,
    over: u64,
}

impl Recorder {
    /// An empty buffer for `scope`.
    pub fn new(scope: Scope) -> Recorder {
        Recorder {
            scope,
            spans: Vec::new(),
            over: 0,
        }
    }

    /// Keeps one span, or tallies it once the buffer is full.
    pub fn record(&mut self, id: u64, parent: u64, name: &'static str, start: u64, end: u64) {
        if !self.scope.keep {
            return;
        }
        if self.spans.len() < LOCAL_SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                run: self.scope.run,
                name,
                start,
                end,
            });
        } else {
            self.over += 1;
        }
    }

    /// The scope's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.scope.tracer
    }

    /// Hands every buffered span to the tracer.
    pub fn submit(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        self.scope.tracer.submit(spans);
        self.scope
            .tracer
            .count_dropped(std::mem::take(&mut self.over));
    }
}

/// Announces each piece's length from a feed to its traced site. Both
/// run on the same thread (a site thread, or the event-loop worker that
/// owns the site task), so the value needs no ordering.
#[derive(Debug, Default)]
pub struct FrameLink {
    len: AtomicU64,
}

impl FrameLink {
    /// Announces the length of the piece about to be observed.
    pub fn announce(&self, len: usize) {
        // ordering: Relaxed — written and read on the same thread (see
        // the type's comment); the atomic only makes the link `Sync`.
        self.len.store(len as u64, Ordering::Relaxed);
    }

    fn current(&self) -> u64 {
        // ordering: Relaxed — same-thread handoff, as in `announce`.
        self.len.load(Ordering::Relaxed)
    }
}

/// What a traced site counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteTotals {
    /// Items observed.
    pub items: u64,
    /// Up-messages produced.
    pub up_msgs: u64,
    /// Down-messages applied.
    pub downs: u64,
    /// Time inside pieces: first item's `observe` to last item's end.
    pub busy_ns: u64,
}

impl SiteTotals {
    /// Adds another site's totals.
    pub fn add(&mut self, o: &SiteTotals) {
        self.items += o.items;
        self.up_msgs += o.up_msgs;
        self.downs += o.downs;
        self.busy_ns += o.busy_ns;
    }
}

/// A site that delegates to `inner` and records `site.piece` and
/// `site.down` spans. Optionally keeps every up-message it produced, for
/// the wire replay.
#[derive(Debug)]
pub struct TracedSite<S> {
    inner: S,
    link: Arc<FrameLink>,
    rec: Recorder,
    left: u64,
    piece_id: u64,
    piece_start: u64,
    totals: SiteTotals,
    captured: Option<Vec<UpMsg>>,
}

impl<S> TracedSite<S> {
    /// Wraps `inner`; `capture` keeps its up-messages.
    pub fn new(inner: S, link: Arc<FrameLink>, scope: Scope, capture: bool) -> TracedSite<S> {
        TracedSite {
            inner,
            link,
            rec: Recorder::new(scope),
            left: 0,
            piece_id: 0,
            piece_start: 0,
            totals: SiteTotals::default(),
            captured: capture.then(Vec::new),
        }
    }

    /// Hands the spans over and returns the counts and captured messages.
    pub fn finish_trace(mut self) -> (S, SiteTotals, Vec<UpMsg>) {
        self.rec.submit();
        (self.inner, self.totals, self.captured.unwrap_or_default())
    }
}

impl<S: SiteNode<Up = UpMsg, Down = DownMsg>> SiteNode for TracedSite<S> {
    type Up = UpMsg;
    type Down = DownMsg;

    fn observe(&mut self, item: Item, out: &mut Vec<UpMsg>) {
        if self.left == 0 {
            self.left = self.link.current().max(1);
            self.piece_id = self.rec.scope.tracer.id();
            self.piece_start = self.rec.scope.tracer.now();
        }
        let before = out.len();
        self.inner.observe(item, out);
        if out.len() > before {
            self.totals.up_msgs += (out.len() - before) as u64;
            if let Some(c) = self.captured.as_mut() {
                c.extend_from_slice(&out[before..]);
            }
        }
        self.totals.items += 1;
        self.left -= 1;
        if self.left == 0 {
            let end = self.rec.scope.tracer.now();
            self.totals.busy_ns += end - self.piece_start;
            let root = self.rec.scope.root;
            self.rec
                .record(self.piece_id, root, "site.piece", self.piece_start, end);
        }
    }

    fn receive(&mut self, msg: &DownMsg) {
        let start = self.rec.scope.tracer.now();
        self.inner.receive(msg);
        let end = self.rec.scope.tracer.now();
        self.totals.downs += 1;
        let parent = if self.left > 0 {
            self.piece_id
        } else {
            self.rec.scope.root
        };
        let id = self.rec.scope.tracer.id();
        self.rec.record(id, parent, "site.down", start, end);
    }

    fn finish(&mut self, out: &mut Vec<UpMsg>) {
        let before = out.len();
        self.inner.finish(out);
        self.totals.up_msgs += (out.len() - before) as u64;
        if let Some(c) = self.captured.as_mut() {
            c.extend_from_slice(&out[before..]);
        }
    }
}

/// What a traced coordinator counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordTotals {
    /// Up-messages handled.
    pub msgs: u64,
    /// Time inside `receive`.
    pub busy_ns: u64,
}

/// A coordinator that delegates to `inner` and records one
/// `coordinator.receive` span per call.
#[derive(Debug)]
pub struct TracedCoord<C> {
    /// The wrapped coordinator (its sample is the run's answer).
    pub inner: C,
    rec: Recorder,
    totals: CoordTotals,
}

impl<C> TracedCoord<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, scope: Scope) -> TracedCoord<C> {
        TracedCoord {
            inner,
            rec: Recorder::new(scope),
            totals: CoordTotals::default(),
        }
    }

    /// Hands the spans over and returns the counts.
    pub fn finish_trace(&mut self) -> CoordTotals {
        self.rec.submit();
        self.totals
    }
}

impl<C: CoordinatorNode<Up = UpMsg, Down = DownMsg>> CoordinatorNode for TracedCoord<C> {
    type Up = UpMsg;
    type Down = DownMsg;

    fn receive(&mut self, from: usize, msg: UpMsg, out: &mut Outbox<DownMsg>) {
        let start = self.rec.scope.tracer.now();
        self.inner.receive(from, msg, out);
        let end = self.rec.scope.tracer.now();
        self.totals.msgs += 1;
        self.totals.busy_ns += end - start;
        let id = self.rec.scope.tracer.id();
        let root = self.rec.scope.root;
        self.rec.record(id, root, "coordinator.receive", start, end);
    }
}

/// What the traced feeds of one deployment counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeedTotals {
    /// Time sites waited for input: blocked on the frame queue (threads)
    /// or between a `Pending` poll and the next frame (epoll).
    pub wait_ns: u64,
    /// `Pending` answers to the event loop's polls.
    pub pending_polls: u64,
}

/// Items per traced piece of a frame: the unit a traced site times. The
/// event loop observes a site's items in runs of up to `FEED_CHUNK` and
/// may move to other sites in between (backpressure, end of its budget),
/// so a whole-frame span would include other sites' work; pieces this
/// short rarely straddle such a switch.
const PIECE_ITEMS: usize = 256;

/// The traced face of one shard queue, for both engines: a blocking
/// iterator for site threads and a nonblocking [`ItemFeed`] for the
/// event loop. It hands each frame out in pieces of [`PIECE_ITEMS`] and
/// announces each piece's length to its site.
#[derive(Debug)]
pub struct TracedFeed {
    rx: FrameQueue,
    cur: std::vec::IntoIter<Item>,
    piece_left: usize,
    link: Arc<FrameLink>,
    rec: Recorder,
    pending_since: Option<u64>,
    totals: FeedTotals,
    sink: Arc<Mutex<FeedTotals>>,
}

impl TracedFeed {
    /// A feed over `rx` that announces frames on `link` and adds its
    /// totals to `sink` when dropped.
    pub fn new(
        rx: FrameQueue,
        link: Arc<FrameLink>,
        scope: Scope,
        sink: Arc<Mutex<FeedTotals>>,
    ) -> TracedFeed {
        TracedFeed {
            rx,
            cur: Vec::new().into_iter(),
            piece_left: 0,
            link,
            rec: Recorder::new(scope),
            pending_since: None,
            totals: FeedTotals::default(),
            sink,
        }
    }

    fn waited(&mut self, start: u64) {
        let end = self.rec.scope.tracer.now();
        self.totals.wait_ns += end - start;
        let id = self.rec.scope.tracer.id();
        let root = self.rec.scope.root;
        self.rec.record(id, root, "site.input_wait", start, end);
    }
}

impl Iterator for TracedFeed {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        if self.cur.len() == 0 {
            let start = self.rec.scope.tracer.now();
            let frame = self.rx.recv().ok()?;
            self.waited(start);
            self.cur = frame.into_iter();
            self.piece_left = 0;
        }
        if self.piece_left == 0 {
            self.piece_left = self.cur.len().min(PIECE_ITEMS);
            self.link.announce(self.piece_left);
        }
        self.piece_left -= 1;
        self.cur.next()
    }
}

impl ItemFeed for TracedFeed {
    fn poll(&mut self) -> Feed {
        if self.cur.len() == 0 {
            match self.rx.try_recv() {
                Ok(frame) => {
                    if let Some(start) = self.pending_since.take() {
                        self.waited(start);
                    }
                    self.cur = frame.into_iter();
                }
                Err(mpsc::TryRecvError::Empty) => {
                    self.totals.pending_polls += 1;
                    if self.pending_since.is_none() {
                        self.pending_since = Some(self.rec.scope.tracer.now());
                    }
                    return Feed::Pending;
                }
                Err(mpsc::TryRecvError::Disconnected) => return Feed::Done,
            }
        }
        let piece: Vec<Item> = self.cur.by_ref().take(PIECE_ITEMS).collect();
        self.link.announce(piece.len());
        Feed::Frame(piece)
    }
}

impl Drop for TracedFeed {
    fn drop(&mut self) {
        self.rec.submit();
        if let Ok(mut sink) = self.sink.lock() {
            sink.wait_ns += self.totals.wait_ns;
            sink.pending_polls += self.totals.pending_polls;
        }
    }
}

/// The untraced nonblocking face of a shard queue, for the event loop.
#[derive(Debug)]
pub struct PlainFeed(pub FrameQueue);

impl ItemFeed for PlainFeed {
    fn poll(&mut self) -> Feed {
        match self.0.try_recv() {
            Ok(frame) => Feed::Frame(frame),
            Err(mpsc::TryRecvError::Empty) => Feed::Pending,
            Err(mpsc::TryRecvError::Disconnected) => Feed::Done,
        }
    }
}

/// The consuming end of one site's frame queue.
pub type FrameQueue = Receiver<Vec<Item>>;

/// The benchmark's own dispatcher: pulls the scenario's source, assigns
/// each item with the scenario's partitioner and ships frames of the
/// driver's size into bounded per-site queues of the driver's depth.
/// Returns the per-site queues and a handle yielding the items sent.
pub fn dispatch(
    source: Box<dyn ItemSource>,
    mut partitioner: Partitioner,
    k: usize,
) -> (Vec<FrameQueue>, JoinHandle<u64>) {
    let (txs, rxs): (Vec<SyncSender<Vec<Item>>>, Vec<_>) =
        (0..k).map(|_| mpsc::sync_channel(QUEUE_FRAMES)).unzip();
    let handle = thread::spawn(move || {
        let mut bufs: Vec<Vec<Item>> = (0..k).map(|_| Vec::with_capacity(FRAME_ITEMS)).collect();
        let mut items = 0u64;
        for item in source {
            let site = partitioner.next_site();
            items += 1;
            bufs[site].push(item);
            if bufs[site].len() == FRAME_ITEMS {
                let frame = std::mem::replace(&mut bufs[site], Vec::with_capacity(FRAME_ITEMS));
                if txs[site].send(frame).is_err() {
                    break;
                }
            }
        }
        for (tx, buf) in txs.iter().zip(bufs) {
            if !buf.is_empty() {
                let _ = tx.send(buf);
            }
        }
        items
    });
    (rxs, handle)
}
