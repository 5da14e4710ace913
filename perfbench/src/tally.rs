//! Per-pass accumulators: session outcomes, continuity, and deltas of the
//! program's own telemetry.

use espread_core::{layered_cache_stats, spread_cache_stats, CacheStats};
use espread_protocol::Ldu;
use espread_qos::{LossPattern, WindowSeries};
use espread_telemetry::{global, Snapshot};

use crate::stats;

/// The perceptual threshold for video: a window whose CLF exceeds it is
/// noticeably discontinuous.
pub const CLF_THRESHOLD: usize = 2;

/// What one measured pass saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions started.
    pub attempted: u64,
    /// Sessions that returned an error (counted as latency misses).
    pub failed: u64,
    /// Wall time of every session, failures at the miss value, in ms.
    pub session_ms: Vec<f64>,
    /// Handshake time of every session that got one, in ms.
    pub handshake_ms: Vec<f64>,
    /// Sum of session wall times, in seconds.
    pub busy_s: f64,
    /// Windows completed.
    pub windows: u64,
    /// Windows the continuity figures cover: every window of every
    /// session, a failed session's as wholly lost.
    pub scored_windows: u64,
    /// Frames streamed.
    pub frames: u64,
    /// Frames lost after all recovery.
    pub frames_lost: u64,
    /// Sum of per-window CLF.
    pub clf_sum: u64,
    /// Windows with CLF above [`CLF_THRESHOLD`].
    pub clf_breaches: u64,
    /// Media payload of every frame received intact, in bytes.
    pub payload_bytes: u64,
    /// Process CPU per delivered data datagram of every completed
    /// session, in µs.
    pub cpu_us_per_datagram: Vec<f64>,
    /// Output checks that failed.
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Counts a session that completed in `secs`: `series` and `patterns`
    /// are in window order, `ldus` the source's frames per window.
    pub fn completed(
        &mut self,
        secs: f64,
        series: &WindowSeries,
        patterns: &[LossPattern],
        ldus: &[Vec<Ldu>],
    ) {
        self.add_windows(series, patterns, ldus);
        self.attempted += 1;
        self.busy_s += secs;
        self.session_ms.push(secs * 1e3);
    }

    /// Records the process CPU (`cpu_ns`) a session spent delivering
    /// `datagrams` data datagrams.
    pub fn cpu(&mut self, cpu_ns: u64, datagrams: u64) {
        if datagrams > 0 {
            self.cpu_us_per_datagram
                .push(cpu_ns as f64 / 1e3 / datagrams as f64);
        }
    }

    /// Counts a session of windows `ldus` that failed after `secs`: it
    /// enters the latency sample at `miss_ms`, above any limit, and every
    /// frame of it counts as lost, so each window's CLF is its length.
    pub fn fail(&mut self, secs: f64, miss_ms: f64, ldus: &[Vec<Ldu>]) {
        self.attempted += 1;
        self.failed += 1;
        self.busy_s += secs;
        self.session_ms.push(miss_ms);
        for window in ldus {
            let frames = window.len();
            self.scored_windows += 1;
            self.frames += frames as u64;
            self.frames_lost += frames as u64;
            self.clf_sum += frames as u64;
            self.clf_breaches += u64::from(frames > CLF_THRESHOLD);
        }
    }

    fn add_windows(&mut self, series: &WindowSeries, patterns: &[LossPattern], ldus: &[Vec<Ldu>]) {
        for m in series.windows() {
            self.windows += 1;
            self.scored_windows += 1;
            self.clf_sum += m.clf() as u64;
            self.clf_breaches += u64::from(m.clf() > CLF_THRESHOLD);
        }
        for (pattern, window) in patterns.iter().zip(ldus) {
            self.frames += pattern.len() as u64;
            self.frames_lost += pattern.lost() as u64;
            self.payload_bytes += window
                .iter()
                .enumerate()
                .filter(|&(f, _)| pattern.is_received(f))
                .map(|(_, ldu)| u64::from(ldu.size_bytes))
                .sum::<u64>();
        }
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Windows completed per second of session time. A ratio of totals:
    /// when the host's speed switches between states for seconds at a
    /// time, it follows the share of time spent in each smoothly, where a
    /// median over slices of the run would jump between them.
    pub fn windows_per_s(&self) -> f64 {
        ratio(self.windows as f64, self.busy_s)
    }

    /// Media payload received intact per second of session time, in
    /// Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        ratio(self.payload_bytes as f64 * 8.0 / 1e6, self.busy_s)
    }

    /// Mean CLF per window.
    pub fn mean_clf(&self) -> f64 {
        ratio(self.clf_sum as f64, self.scored_windows as f64)
    }

    /// Share of windows over the perceptual threshold.
    pub fn clf_breach_share(&self) -> f64 {
        ratio(self.clf_breaches as f64, self.scored_windows as f64)
    }

    /// Share of frames lost after recovery.
    pub fn residual_loss_share(&self) -> f64 {
        ratio(self.frames_lost as f64, self.frames as f64)
    }

    /// Share of sessions that failed.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Median over sessions of process CPU per delivered data datagram,
    /// in µs (0 when no session delivered any).
    pub fn median_cpu_us_per_datagram(&self) -> f64 {
        if self.cpu_us_per_datagram.is_empty() {
            0.0
        } else {
            stats::median(&self.cpu_us_per_datagram)
        }
    }

    /// Median handshake time in ms (0 when no session handshakes).
    pub fn handshake_ms_p50(&self) -> f64 {
        if self.handshake_ms.is_empty() {
            0.0
        } else {
            stats::median(&self.handshake_ms)
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The program's own counters at the start of a pass.
#[derive(Debug)]
pub struct Mark {
    snapshot: Snapshot,
    spread: CacheStats,
    layered: CacheStats,
}

/// The change in the global telemetry registry and the `core` order
/// caches over a pass.
#[derive(Debug)]
pub struct TelemDelta {
    before: Mark,
    after: Mark,
}

fn mark() -> Mark {
    Mark {
        snapshot: global().snapshot(),
        spread: spread_cache_stats(),
        layered: layered_cache_stats(),
    }
}

fn miss_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let misses = (after.misses - before.misses) as f64;
    ratio(misses, misses + (after.hits - before.hits) as f64)
}

impl TelemDelta {
    /// Reads the counters at the start of a pass.
    pub fn begin() -> Mark {
        mark()
    }

    /// Reads them again at the end of the pass started at `before`.
    pub fn end(before: Mark) -> Self {
        TelemDelta {
            before,
            after: mark(),
        }
    }

    /// Increase of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        let at = |m: &Mark| m.snapshot.counter(name).unwrap_or(0);
        at(&self.after) - at(&self.before)
    }

    /// Samples added to a histogram and their sum.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let at = |m: &Mark| {
            m.snapshot
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let (c0, s0) = at(&self.before);
        let (c1, s1) = at(&self.after);
        (c1 - c0, s1 - s0)
    }

    /// Mean of the samples added to a histogram (0 when none).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum as f64, count as f64)
    }

    /// Share of `(n, b)` spread-order lookups that missed the cache.
    pub fn spread_miss_ratio(&self) -> f64 {
        miss_ratio(self.before.spread, self.after.spread)
    }

    /// Share of layered-order lookups that missed the cache.
    pub fn layered_miss_ratio(&self) -> f64 {
        miss_ratio(self.before.layered, self.after.layered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_qos::ContinuityMetrics;

    #[test]
    fn windows_and_payload_are_counted_per_frame() {
        let ldus = vec![vec![
            Ldu::new(100),
            Ldu::new(200),
            Ldu::new(300),
            Ldu::new(400),
        ]];
        let pattern = LossPattern::from_lost_indices(4, [1, 2]);
        let series: WindowSeries = [ContinuityMetrics::of(&pattern)].into_iter().collect();
        let mut t = Tally::default();
        t.completed(0.5, &series, &[pattern], &ldus);
        assert_eq!((t.windows, t.frames, t.frames_lost), (1, 4, 2));
        assert_eq!((t.clf_sum, t.clf_breaches), (2, 0));
        assert_eq!(t.payload_bytes, 500);
        assert_eq!(t.residual_loss_share(), 0.5);
        assert_eq!(t.windows_per_s(), 2.0);
        assert_eq!(t.goodput_mbps(), 500.0 * 8.0 / 1e6 / 0.5);
        assert_eq!(Tally::default().windows_per_s(), 0.0);
    }

    #[test]
    fn failed_sessions_count_as_misses_and_lost_windows() {
        let ldus = vec![vec![Ldu::new(100); 4], vec![Ldu::new(100); 2]];
        let mut t = Tally::default();
        t.fail(2.0, 60_000.0, &ldus);
        assert_eq!((t.attempted, t.failed, t.windows), (1, 1, 0));
        assert_eq!(t.session_ms, vec![60_000.0]);
        assert_eq!(t.failed_share(), 1.0);
        assert_eq!(t.windows_per_s(), 0.0);
        assert_eq!((t.scored_windows, t.frames, t.frames_lost), (2, 6, 6));
        assert_eq!(t.mean_clf(), 3.0);
        assert_eq!(t.clf_breach_share(), 0.5);
        assert_eq!(t.residual_loss_share(), 1.0);
        assert_eq!(t.payload_bytes, 0);

        // A lossless session beside it: the failure still weighs in.
        let pattern = LossPattern::from_lost_indices(4, []);
        let series: WindowSeries = [ContinuityMetrics::of(&pattern)].into_iter().collect();
        t.completed(1.0, &series, &[pattern], &ldus[..1]);
        assert_eq!((t.windows, t.scored_windows), (1, 3));
        assert_eq!(t.mean_clf(), 2.0);
        assert_eq!(t.residual_loss_share(), 0.6);
    }

    #[test]
    fn failed_checks_are_kept() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "lost a window".into());
        assert_eq!(t.check_failures, vec!["lost a window".to_string()]);
    }
}
