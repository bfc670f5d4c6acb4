//! Site-side protocol — paper Algorithm 1.
//!
//! Per arriving item `(e, w)`:
//!
//! * if the item's level is not known to be saturated, forward it unfiltered
//!   as an *early* message (it will be withheld by the coordinator);
//! * otherwise draw `t ~ Exp(1)`, form the key `v = w/t` and forward
//!   `(e, w, v)` as a *regular* message iff `v` exceeds the current epoch
//!   threshold `u_i`.
//!
//! The site keeps O(1) words of state: the threshold and the saturation
//! bitset (Proposition 6), and spends O(1) time per item.
//!
//! In the steady state almost every item is filtered, and `observe` settles
//! those with one uniform draw, one multiply and two compares:
//!
//! * **Level.** When levels `0..=L` are all saturated, a weight below
//!   `r^(L+1)` lies in one of them, so the level logarithm runs only for
//!   weights at or above that bound.
//! * **Key.** The key is `w/t` with `t = -ln u`, `u` uniform. A draw with
//!   `u <= 1 - 4w/T` puts the key at or below `T/2`, so the item is
//!   filtered without computing `ln u`. The factor-2 margin covers every
//!   rounding error; the proof is at the cut in [`SworSite::observe`].
//!
//! Both cuts skip only work whose outcome is already fixed. RNG consumption,
//! keys and send decisions are bit-identical to computing the level and
//! the key of every item; a test keeps that computation as the reference.

use crate::item::Item;
use crate::math::powi;
use crate::rng::Rng;

use super::config::SworConfig;
use super::levels::{level_of, max_level, LevelBits};
use super::messages::{DownMsg, UpMsg};

/// Counters a site accumulates (not part of the protocol; zero messages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Items observed.
    pub observed: u64,
    /// Early messages sent.
    pub early_sent: u64,
    /// Regular messages sent.
    pub regular_sent: u64,
    /// Regular items whose key fell at or below the threshold (no message).
    pub filtered: u64,
}

/// The per-site state of the weighted SWOR protocol (Algorithm 1).
#[derive(Debug)]
pub struct SworSite {
    r: f64,
    level_sets_enabled: bool,
    /// Current epoch threshold `u_i` (0 until the first epoch broadcast).
    threshold: f64,
    /// `4 / threshold`, the scale of the fast reject (`+∞` until the first
    /// epoch broadcast, which makes the cut reject nothing).
    reject_scale: f64,
    saturated: LevelBits,
    /// `r^(L+1)` when levels `0..=L` are all saturated: every weight below
    /// it is in a saturated level. 0 while level 0 is unsaturated, `+∞`
    /// with level sets off.
    sat_below: f64,
    rng: Rng,
    /// Local counters.
    pub stats: SiteStats,
}

impl SworSite {
    /// Creates a site from the shared configuration and a per-site seed.
    pub fn new(cfg: &SworConfig, seed: u64) -> Self {
        let mut site = Self {
            r: cfg.r(),
            level_sets_enabled: cfg.level_sets_enabled,
            threshold: 0.0,
            reject_scale: f64::INFINITY,
            saturated: LevelBits::new(),
            sat_below: 0.0,
            rng: Rng::new(seed),
            stats: SiteStats::default(),
        };
        site.sat_below = site.saturated_below();
        site
    }

    /// Current epoch threshold `u_i`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Processes one stream item; returns at most one upstream message.
    ///
    /// An item in a level not known to be saturated goes early. Otherwise
    /// the item gets the key `w / -ln u` from one uniform draw `u` and is
    /// sent iff the key exceeds the threshold `T`. A draw with
    /// `u <= 1 - w·(4/T)` is filtered without forming the key: its key is
    /// at most `T/2`. The RNG draws, keys and decisions are exactly those
    /// of forming every key.
    pub fn observe(&mut self, item: Item) -> Option<UpMsg> {
        self.stats.observed += 1;
        let w = item.weight;
        // `level_of` brackets w between consecutive powers of r, so
        // w < r^(L+1) if and only if its level is at most L. The flag
        // still guards the lookup for a weight of +∞ (`sat_below` is +∞
        // without level sets).
        if w >= self.sat_below
            && self.level_sets_enabled
            && !self.saturated.get(level_of(w, self.r))
        {
            self.stats.early_sent += 1;
            return Some(UpMsg::Early { item });
        }
        // The draw `key_for` makes: t = -ln u.
        let u = self.rng.open01();
        // Fast reject. It skips only items the exact test below filters.
        // Let x = w/T (real), p = fl(w·(4/T)) and y = fl(1 - p).
        // * u <= y needs y > 0, so p < 1; with the bound on p below,
        //   2x < 0.51 < ln 2. A draw u < 1/2 then has -ln u > 2x.
        // * open01 draws in [1/2, 1) are multiples of 2^-53, so
        //   1 - u >= 2^-53. Also y <= 1 - p + 2^-54, and p >= 4x(1 - 2^-52)
        //   once x >= 2^-55 (w·(4/T) is then normal). So
        //   1 - u >= max(p - 2^-54, 2^-53) >= 2x, and -ln u >= 1 - u >= 2x.
        // * open01 can round up to exactly 1 (probability 2^-53); the key
        //   is then w / -0.0 = -∞, which the exact test filters too.
        // So the key w/(-ln u) is at most T/2, and the few ulps of error in
        // `ln` and the division cannot lift it above T.
        if u <= 1.0 - w * self.reject_scale {
            self.stats.filtered += 1;
            return None;
        }
        let key = w / -u.ln();
        if key > self.threshold {
            self.stats.regular_sent += 1;
            Some(UpMsg::Regular { item, key })
        } else {
            self.stats.filtered += 1;
            None
        }
    }

    /// Applies a coordinator broadcast.
    pub fn receive(&mut self, msg: &DownMsg) {
        match *msg {
            DownMsg::LevelSaturated { level } => {
                if level <= max_level(self.r) {
                    self.saturated.set(level);
                    self.sat_below = self.saturated_below();
                }
            }
            DownMsg::UpdateEpoch { threshold } => {
                // Epochs only move forward; ignore stale reordered values
                // defensively (FIFO delivery makes this a no-op in practice).
                if threshold > self.threshold {
                    self.threshold = threshold;
                    self.reject_scale = 4.0 / threshold;
                }
            }
        }
    }

    /// The `sat_below` bound for the current saturation bits.
    fn saturated_below(&self) -> f64 {
        if !self.level_sets_enabled {
            return f64::INFINITY;
        }
        match self.saturated.prefix_len() {
            0 => 0.0,
            len => powi(self.r, i64::from(len)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::key_for;

    fn cfg() -> SworConfig {
        SworConfig::new(4, 8) // r = 2
    }

    /// The site as it was before the fast paths: it computes the level and
    /// the key of every item. The bit-identity tests hold `SworSite` to it.
    struct ReferenceSite {
        r: f64,
        level_sets_enabled: bool,
        threshold: f64,
        saturated: LevelBits,
        rng: Rng,
        stats: SiteStats,
    }

    impl ReferenceSite {
        fn new(cfg: &SworConfig, seed: u64) -> Self {
            Self {
                r: cfg.r(),
                level_sets_enabled: cfg.level_sets_enabled,
                threshold: 0.0,
                saturated: LevelBits::new(),
                rng: Rng::new(seed),
                stats: SiteStats::default(),
            }
        }

        fn observe(&mut self, item: Item) -> Option<UpMsg> {
            self.stats.observed += 1;
            let level = level_of(item.weight, self.r);
            if self.level_sets_enabled && !self.saturated.get(level) {
                self.stats.early_sent += 1;
                return Some(UpMsg::Early { item });
            }
            let key = key_for(item.weight, &mut self.rng);
            if key > self.threshold {
                self.stats.regular_sent += 1;
                Some(UpMsg::Regular { item, key })
            } else {
                self.stats.filtered += 1;
                None
            }
        }

        fn receive(&mut self, msg: &DownMsg) {
            match *msg {
                DownMsg::LevelSaturated { level } => self.saturated.set(level),
                DownMsg::UpdateEpoch { threshold } => {
                    if threshold > self.threshold {
                        self.threshold = threshold;
                    }
                }
            }
        }
    }

    /// A message as bits, so keys compare by representation.
    fn msg_bits(msg: Option<UpMsg>) -> Option<(bool, u64, u64, u64)> {
        msg.map(|m| match m {
            UpMsg::Early { item } => (true, item.id, item.weight.to_bits(), 0),
            UpMsg::Regular { item, key } => (false, item.id, item.weight.to_bits(), key.to_bits()),
        })
    }

    /// One step of a scripted site input.
    #[derive(Clone, Copy)]
    enum Step {
        Item(f64),
        Down(DownMsg),
    }

    /// Drives `SworSite` and `ReferenceSite` through `script` and asserts
    /// equal output and counters after every item and equal RNG state at
    /// the end. Returns the regular messages sent, so callers can check
    /// the script reached the threshold test.
    fn assert_bit_identical(cfg: &SworConfig, seed: u64, script: &[Step]) -> u64 {
        let mut site = SworSite::new(cfg, seed);
        let mut reference = ReferenceSite::new(cfg, seed);
        for (i, step) in script.iter().enumerate() {
            match *step {
                Step::Item(w) => {
                    let item = Item::new(i as u64, w);
                    let got = msg_bits(site.observe(item));
                    let want = msg_bits(reference.observe(item));
                    assert_eq!(got, want, "step {i}: weight {w:e}");
                    assert_eq!(site.stats, reference.stats, "step {i}: weight {w:e}");
                }
                Step::Down(msg) => {
                    site.receive(&msg);
                    reference.receive(&msg);
                }
            }
        }
        assert_eq!(site.rng.state(), reference.rng.state());
        site.stats.regular_sent
    }

    /// Every power of `r` a finite weight can reach, with its neighbours
    /// on both sides, plus weights below 1.
    fn boundary_weights(r: f64) -> Vec<f64> {
        let mut ws = vec![f64::MIN_POSITIVE, 1e-300, 1e-3, 0.25, 0.5, f64::MAX];
        for j in 0..=max_level(r) {
            let p = powi(r, i64::from(j));
            ws.extend([p.next_down(), p, p.next_up()]);
        }
        ws.retain(|w| w.is_finite());
        ws
    }

    /// Thresholds from the extremes through the middle; the first is
    /// ignored (not above the initial 0), the rest arrive mid-stream.
    fn thresholds(r: f64) -> Vec<f64> {
        vec![0.0, f64::MIN_POSITIVE, 1e-300, 1.0, powi(r, 7), 1e300]
    }

    /// Boundary weights before any broadcast, after out-of-order and then
    /// in-order saturations, and after each threshold in turn, ending with
    /// every level saturated.
    fn boundary_script(r: f64) -> Vec<Step> {
        let weights: Vec<Step> = boundary_weights(r).into_iter().map(Step::Item).collect();
        let saturate = |level| Step::Down(DownMsg::LevelSaturated { level });
        let epoch = |threshold| Step::Down(DownMsg::UpdateEpoch { threshold });
        let mut script = weights.clone();
        // Out of order: 3 and 5 before 0..=2, leaving 4 open.
        for level in [3, 5, 1, 0, 2] {
            script.push(saturate(level));
            script.extend(&weights);
        }
        for t in thresholds(r) {
            script.push(epoch(t));
            script.extend(&weights);
            if t == 1.0 {
                script.push(saturate(4));
                script.extend(&weights);
            }
        }
        script.extend((6..=max_level(r)).map(saturate));
        script.extend(&weights);
        script
    }

    fn configs() -> Vec<SworConfig> {
        let mut out = Vec::new();
        for base in [cfg(), cfg().with_r(3.7)] {
            for enabled in [true, false] {
                let mut c = base.clone();
                c.level_sets_enabled = enabled;
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn observe_is_bit_identical_at_level_boundaries() {
        for (i, cfg) in configs().iter().enumerate() {
            let sent = assert_bit_identical(cfg, 40 + i as u64, &boundary_script(cfg.r()));
            assert!(sent > 0, "config {i} never sent a regular message");
        }
    }

    #[test]
    fn observe_is_bit_identical_around_the_reject_cut() {
        // Weights w = x·T for x across the cut's regimes: u <= 1 - 4x
        // rejects about 1 - 4x of the draws, so both sides of the cut and
        // keys near T each see many draws. Tiny x probe the 2^-55 case.
        let xs = [
            1e-20,
            2f64.powi(-56),
            2f64.powi(-55),
            2f64.powi(-54),
            1e-9,
            0.01,
            0.1,
            0.2,
            0.249,
            0.25,
            0.251,
            0.5,
            2.0,
        ];
        for (i, cfg) in configs().iter().enumerate() {
            let mut script = vec![Step::Down(DownMsg::LevelSaturated { level: 0 })];
            for t in [1.0, 1e12, 1e300] {
                script.push(Step::Down(DownMsg::UpdateEpoch { threshold: t }));
                for _ in 0..2_000 {
                    script.extend(xs.iter().map(|x| Step::Item(x * t)));
                }
            }
            let sent = assert_bit_identical(cfg, 60 + i as u64, &script);
            assert!(sent > 0, "config {i} never sent a regular message");
        }
    }

    #[test]
    fn observe_is_bit_identical_on_a_heavy_tailed_stream() {
        // Pareto(1.1) weights with the levels saturating and the threshold
        // rising one power of r every 5000 items.
        for (i, cfg) in configs().iter().enumerate() {
            let r = cfg.r();
            let mut weights = Rng::new(70 + i as u64);
            let mut script = Vec::new();
            for round in 0..40u32 {
                script.push(Step::Down(DownMsg::LevelSaturated { level: round }));
                let threshold = powi(r, i64::from(round) - 4);
                script.push(Step::Down(DownMsg::UpdateEpoch { threshold }));
                for _ in 0..5_000 {
                    script.push(Step::Item(weights.open01().powf(-1.0 / 1.1)));
                }
            }
            let sent = assert_bit_identical(cfg, 80 + i as u64, &script);
            assert!(sent > 0, "config {i} never sent a regular message");
        }
    }

    #[test]
    fn out_of_range_saturated_level_is_ignored() {
        let mut site = SworSite::new(&cfg(), 6);
        site.receive(&DownMsg::LevelSaturated { level: 3 });
        let words = site.saturated.words();
        site.receive(&DownMsg::LevelSaturated { level: u32::MAX });
        site.receive(&DownMsg::LevelSaturated {
            level: max_level(2.0) + 1,
        });
        assert_eq!(site.saturated.words(), words);
        assert!(!site.saturated.get(u32::MAX));
        // The highest real level is still accepted.
        site.receive(&DownMsg::LevelSaturated {
            level: max_level(2.0),
        });
        assert!(site.saturated.get(max_level(2.0)));
    }

    #[test]
    fn first_item_of_level_goes_early() {
        let mut site = SworSite::new(&cfg(), 1);
        let out = site.observe(Item::new(1, 5.0));
        assert!(matches!(out, Some(UpMsg::Early { .. })));
        assert_eq!(site.stats.early_sent, 1);
    }

    #[test]
    fn saturated_level_goes_regular() {
        let mut site = SworSite::new(&cfg(), 1);
        // weight 5.0, r=2 -> level 2
        site.receive(&DownMsg::LevelSaturated { level: 2 });
        let out = site.observe(Item::new(1, 5.0));
        match out {
            Some(UpMsg::Regular { item, key }) => {
                assert_eq!(item.id, 1);
                assert!(key > 0.0);
            }
            other => panic!("expected regular, got {other:?}"),
        }
    }

    #[test]
    fn threshold_filters_small_keys() {
        let mut site = SworSite::new(&cfg(), 2);
        site.receive(&DownMsg::LevelSaturated { level: 0 });
        site.receive(&DownMsg::UpdateEpoch { threshold: 1e12 });
        let mut sent = 0;
        for i in 0..5000u64 {
            if site.observe(Item::new(i, 1.0)).is_some() {
                sent += 1;
            }
        }
        // P(key > 1e12) = 1 - e^{-1e-12} ~ 1e-12: essentially everything is
        // filtered.
        assert_eq!(sent, 0, "sent {sent} messages over a huge threshold");
        assert_eq!(site.stats.filtered, 5000);
    }

    #[test]
    fn threshold_never_regresses() {
        let mut site = SworSite::new(&cfg(), 3);
        site.receive(&DownMsg::UpdateEpoch { threshold: 8.0 });
        site.receive(&DownMsg::UpdateEpoch { threshold: 2.0 });
        assert_eq!(site.threshold(), 8.0);
    }

    #[test]
    fn level_sets_disabled_sends_regular_immediately() {
        let mut cfg = cfg();
        cfg.level_sets_enabled = false;
        let mut site = SworSite::new(&cfg, 4);
        let out = site.observe(Item::new(9, 1e9));
        assert!(matches!(out, Some(UpMsg::Regular { .. })));
    }

    #[test]
    fn regular_send_rate_matches_key_tail() {
        // With threshold θ and unit weights, P(send) = 1 - e^{-1/θ}.
        let mut site = SworSite::new(&cfg(), 5);
        site.receive(&DownMsg::LevelSaturated { level: 0 });
        let theta = 4.0;
        site.receive(&DownMsg::UpdateEpoch { threshold: theta });
        let n = 200_000;
        let mut sent = 0u64;
        for i in 0..n {
            if site.observe(Item::new(i, 1.0)).is_some() {
                sent += 1;
            }
        }
        let p = crate::keys::p_key_above(1.0, theta);
        let emp = sent as f64 / n as f64;
        let se = (p * (1.0 - p) / n as f64).sqrt();
        assert!((emp - p).abs() < 6.0 * se, "emp {emp} vs p {p}");
    }
}
