//! Pure measurement helpers: the percentile rule, histogram
//! interpolation, supersession-aware probe matching, view freshness and
//! the paced tick timeline.
//! Everything here is deterministic and unit-tested.

use matrix_core::quantize;
use matrix_geometry::Point;
use matrix_metrics::Histogram;
use std::collections::HashMap;

/// The percentiles a tail may be reported at, ascending, in permille.
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// A percentile is only reported when at least this many samples lie
/// beyond it.
const MIN_BEYOND: u64 = 10;

/// Nearest rank (1-based) of the `permille` percentile among `n`.
fn rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000) as usize).max(1)
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that
/// has at least ten of `n` samples beyond it, or `None` below 20
/// samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|p| (n - rank(n, **p).min(n)) as u64 >= MIN_BEYOND)
        .map(|p| *p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100, to 0.1) of ascending `sorted`
/// samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let permille = (p * 10.0).round() as u64;
    sorted[rank(sorted.len(), permille).min(sorted.len()) - 1]
}

/// A latency distribution summarised by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (needs at least 1000 samples).
    pub p99: f64,
    /// The highest percentile the rule allows for `n`.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Tail {
    /// Summarises `samples`, or `None` when there are too few for a
    /// p99 with ten samples beyond it.
    pub fn of(mut samples: Vec<f64>) -> Option<Tail> {
        let tail_pct = tail_percentile(samples.len())?;
        if tail_pct < 99.0 {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Tail {
            n: samples.len(),
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            tail_pct,
            tail: percentile(&samples, tail_pct),
        })
    }
}

/// `[low, high)` of log bucket `idx` of a [`matrix_metrics::Histogram`]
/// (16 sub-buckets per power of two; bucket 0 also holds everything
/// below 1).
fn bucket_bounds(idx: u32) -> (f64, f64) {
    let power = (idx / 16) as i32;
    let base = 2f64.powi(power);
    let low = base + base * (idx % 16) as f64 / 16.0;
    let low = if idx == 0 { 0.0 } else { low };
    (low, base + base * (idx % 16 + 1) as f64 / 16.0)
}

/// Quantile `q` (0–1) of a log-bucketed histogram, interpolated
/// linearly by rank inside the bucket that holds it and clamped to the
/// exact recorded extremes. The histogram's own quantile returns the
/// bucket's lower edge, which repeats exactly across inputs that differ
/// only inside a ~6% bucket.
pub fn hist_quantile(h: &Histogram, q: f64) -> Option<f64> {
    let total = h.count();
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (idx, count) in h.nonzero_buckets() {
        if (seen + count) as f64 >= target {
            let (low, high) = bucket_bounds(idx);
            let frac = ((target - seen as f64) / count as f64).clamp(0.0, 1.0);
            let v = low + frac * (high - low);
            return Some(v.clamp(h.min()?, h.max()?));
        }
        seen += count;
    }
    h.max()
}

/// Probe positions: probe `seq` sits at a distinct point of the
/// codec's 1/256 lattice near `origin`, so the position a receiver
/// applies names the probe exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeLattice {
    origin: Point,
}

/// Probes per lattice row (8 world units of 1/256 steps).
const ROW: u64 = 2048;
/// Lattice resolution, equal to the default `origin_quantum`.
const STEPS: f64 = 256.0;

impl ProbeLattice {
    /// A lattice anchored at `origin`, which must itself lie on the
    /// 1/256 lattice.
    pub fn new(origin: Point) -> ProbeLattice {
        assert_eq!(quantize(origin, 1.0 / STEPS), origin, "off-lattice anchor");
        ProbeLattice { origin }
    }

    /// Where probe `seq` moves the sender.
    pub fn position(&self, seq: u64) -> Point {
        Point::new(
            self.origin.x + (seq % ROW) as f64 / STEPS,
            self.origin.y + (seq / ROW) as f64 / STEPS,
        )
    }

    /// The probe a received position names, if it is one.
    pub fn seq_of(&self, p: Point) -> Option<u64> {
        let dx = (p.x - self.origin.x) * STEPS;
        let dy = (p.y - self.origin.y) * STEPS;
        let valid = |v: f64, max: f64| v >= 0.0 && v < max && v.fract() == 0.0;
        if !valid(dx, ROW as f64) || !valid(dy, 1e6) {
            return None;
        }
        let seq = dy as u64 * ROW + dx as u64;
        (self.position(seq) == p).then_some(seq)
    }
}

/// Matches applied positions to probes. Positions supersede: once the
/// receiver applies probe `k` (or any later probe), every probe up to
/// `k` counts as applied at that instant, because the flush keeps only
/// the newest position of a sender.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeLedger {
    due: Vec<f64>,
    applied: Vec<Option<f64>>,
    /// First probe not yet applied.
    next: usize,
    /// Applied positions older than one already applied.
    pub out_of_order: u64,
    /// Applied positions naming no probe that was sent.
    pub unknown: u64,
}

impl ProbeLedger {
    /// A ledger over probes due at `due` (seconds, ascending).
    pub fn new(due: Vec<f64>) -> ProbeLedger {
        let n = due.len();
        ProbeLedger {
            due,
            applied: vec![None; n],
            next: 0,
            out_of_order: 0,
            unknown: 0,
        }
    }

    /// Records that the receiver applied probe `seq` at `at` seconds.
    pub fn apply(&mut self, seq: u64, at: f64) {
        let Ok(seq) = usize::try_from(seq) else {
            self.unknown += 1;
            return;
        };
        if seq >= self.due.len() {
            self.unknown += 1;
        } else if seq + 1 < self.next {
            self.out_of_order += 1;
        } else {
            for slot in &mut self.applied[self.next..=seq] {
                *slot = Some(at);
            }
            self.next = self.next.max(seq + 1);
        }
    }

    /// When probe `i` was applied, in seconds, if it was.
    pub fn applied_at(&self, i: usize) -> Option<f64> {
        self.applied[i]
    }

    /// Latencies (applied − due) of probes `range`, and how many of
    /// them were never applied or applied later than `limit`.
    pub fn latencies(&self, range: std::ops::Range<usize>, limit: f64) -> (Vec<f64>, u64) {
        let mut out = Vec::with_capacity(range.len());
        let mut failed = 0;
        for i in range {
            match self.applied[i] {
                Some(at) if at - self.due[i] <= limit => out.push(at - self.due[i]),
                _ => failed += 1,
            }
        }
        (out, failed)
    }
}

/// Counts (receiver, entity) pairs within `radius` of each other whose
/// applied view holds the entity's current lattice position. Entity
/// `i + 1` stands at `positions[i]`; `views[i]` is the view of the
/// client standing there. Returns `(fresh, pairs)`.
pub fn view_freshness(
    positions: &[Point],
    views: &[HashMap<u64, Point>],
    radius: f64,
    quantum: f64,
) -> (u64, u64) {
    let wire: Vec<Point> = positions.iter().map(|p| quantize(*p, quantum)).collect();
    let (mut fresh, mut pairs) = (0, 0);
    for (r, (rpos, view)) in positions.iter().zip(views).enumerate() {
        for (e, epos) in positions.iter().enumerate() {
            if e == r || rpos.distance(*epos) > radius {
                continue;
            }
            pairs += 1;
            if view.get(&(e as u64 + 1)) == Some(&wire[e]) {
                fresh += 1;
            }
        }
    }
    (fresh, pairs)
}

/// A server's schedule of fixed-length ticks, charged without sleeping.
/// Tick `k` starts at its boundary `(k + 1) * tick_s`, or when tick
/// `k - 1` finished if that was later, and runs as long as its work took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacedTimeline {
    tick_s: f64,
    free_at: f64,
}

impl PacedTimeline {
    /// A timeline of `tick_s`-second ticks, idle at time 0.
    pub fn new(tick_s: f64) -> PacedTimeline {
        PacedTimeline {
            tick_s,
            free_at: 0.0,
        }
    }

    /// Runs tick `k` for `busy_s` seconds. Returns how long after its
    /// boundary it started and when it finished, in seconds.
    pub fn run(&mut self, k: u64, busy_s: f64) -> (f64, f64) {
        let boundary = (k + 1) as f64 * self.tick_s;
        let start = boundary.max(self.free_at);
        self.free_at = start + busy_s;
        (start - boundary, self.free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reports_count_and_refuses_thin_samples() {
        assert_eq!(Tail::of((0..999).map(f64::from).collect()), None);
        let t = Tail::of((1..=1000).rev().map(f64::from).collect()).unwrap();
        assert_eq!(
            (t.n, t.p50, t.p99, t.tail_pct, t.tail),
            (1000, 500.0, 990.0, 99.0, 990.0)
        );
        let t = Tail::of((1..=20_000).map(f64::from).collect()).unwrap();
        assert_eq!((t.tail_pct, t.tail), (99.9, 19_980.0));
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(100.0);
        }
        h.record(1000.0);
        // Bucket edges agree with the histogram's own lower edges.
        for v in [3.0, 100.0, 777.0, 123_456.0] {
            let mut one = Histogram::new();
            one.record(0.5);
            one.record(v);
            let idx = one.nonzero_buckets().last().unwrap().0;
            let (low, high) = bucket_bounds(idx);
            assert!(low <= v && v < high, "{v} outside [{low}, {high})");
            assert_eq!(one.quantile(1.0), Some(low));
        }
        // 100 sits in [100, 104): the median is interpolated, not an edge.
        let p50 = hist_quantile(&h, 0.5).unwrap();
        assert!(p50 > 100.0 && p50 < 104.0, "{p50}");
        assert_eq!(hist_quantile(&h, 1.0), Some(1000.0));
        assert_eq!(hist_quantile(&Histogram::new(), 0.5), None);
    }

    #[test]
    fn probe_lattice_round_trips() {
        let lat = ProbeLattice::new(Point::new(398.0, 402.0));
        for seq in [0, 1, 2047, 2048, 5000] {
            assert_eq!(lat.seq_of(lat.position(seq)), Some(seq));
        }
        assert_eq!(lat.seq_of(Point::new(398.001, 402.0)), None);
        assert_eq!(lat.seq_of(Point::new(397.0, 402.0)), None);
    }

    #[test]
    fn ledger_counts_superseded_probes_as_applied() {
        let mut l = ProbeLedger::new(vec![0.0, 0.01, 0.02, 0.03, 0.04]);
        l.apply(0, 0.05);
        // Probes 1 and 2 were superseded by 3 inside one flush.
        l.apply(3, 0.10);
        l.apply(3, 0.12); // a repeat of the newest position is fine
        l.apply(2, 0.13); // an older position after a newer one is not
        l.apply(9, 0.14); // never sent
        let (lat, failed) = l.latencies(0..5, 1.0);
        assert_eq!(failed, 1, "probe 4 was never applied");
        let want = [0.05, 0.09, 0.08, 0.07];
        assert!(
            lat.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-12),
            "{lat:?}"
        );
        assert_eq!((l.out_of_order, l.unknown), (1, 1));
        // Applied, but too late.
        assert_eq!(l.latencies(0..4, 0.085).1, 1);
    }

    #[test]
    fn view_freshness_on_three_clients() {
        let q = 1.0 / 256.0;
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(200.0, 0.0), // out of everyone's 100-unit radius
        ];
        let mut views = vec![HashMap::new(); 3];
        views[0].insert(2, Point::new(10.0, 0.0)); // fresh
        views[1].insert(1, Point::new(1.0, 0.0)); // stale
        views[1].insert(3, Point::new(200.0, 0.0)); // out of radius: ignored
        assert_eq!(view_freshness(&positions, &views, 100.0, q), (1, 2));
        views[1].insert(1, Point::new(0.0, 0.0));
        assert_eq!(view_freshness(&positions, &views, 100.0, q), (2, 2));
    }

    #[test]
    fn paced_timeline_queues_a_tick_behind_a_slow_one() {
        let mut t = PacedTimeline::new(0.1);
        let close = |(a, b): (f64, f64), (x, y): (f64, f64)| {
            assert!((a - x).abs() < 1e-12 && (b - y).abs() < 1e-12, "{a} {b}")
        };
        close(t.run(0, 0.03), (0.0, 0.13));
        // Overruns its 100 ms: the next tick waits for it.
        close(t.run(1, 0.15), (0.0, 0.35));
        close(t.run(2, 0.02), (0.05, 0.37));
        // Caught up again.
        close(t.run(3, 0.01), (0.0, 0.41));
    }
}
