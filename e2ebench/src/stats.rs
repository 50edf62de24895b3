//! Exact order statistics over raw per-call samples, and self time from
//! nested spans.
//!
//! Percentiles are taken from the full sorted sample set (nearest rank),
//! never from a bucketed histogram: the telemetry crate's log buckets are
//! about 8% wide, which is wider than the bounds this benchmark gates on.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a `q` share of all samples at or below it. `q` is in
/// `(0, 1]`.
///
/// # Panics
///
/// On an empty sample set.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of unsorted samples, sorting them in place; 0 when
/// there are none.
pub fn pct(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, q) as f64
    }
}

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary. `start`/`end` are nanoseconds
/// since the run's time base; `parent` indexes the enclosing span in the
/// same log (or [`NO_PARENT`]); `call` is the id of the outermost call the
/// span belongs to, shared by every span of that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer boundary the span was recorded at.
    pub layer: Layer,
    /// Outermost-call id.
    pub call: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the time base.
    pub start: u64,
    /// End, ns since the time base.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Layer boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// An alloc call into the outermost layer of the rung.
    OuterAlloc,
    /// A free call into the outermost layer of the rung.
    OuterFree,
    /// An alloc reaching the allocator core.
    CoreAlloc,
    /// A free reaching the allocator core.
    CoreFree,
    /// Any other core entry (event processing, cache release, compaction).
    CoreOther,
}

impl Layer {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::OuterAlloc => "outer.alloc",
            Layer::OuterFree => "outer.free",
            Layer::CoreAlloc => "core.alloc",
            Layer::CoreFree => "core.free",
            Layer::CoreOther => "core.other",
        }
    }

    /// `true` for the spans wrapping calls into the outermost layer.
    pub fn is_outer(self) -> bool {
        matches!(self, Layer::OuterAlloc | Layer::OuterFree)
    }
}

/// Self time of every span of `layer`: its duration minus the part of its
/// interval covered by its direct children (the union of the children's
/// intervals, clipped to the parent's). Returned in log order.
pub fn self_times(spans: &[Span], layer: Layer) -> Vec<u64> {
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    children.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0 as usize;
        let (p_start, p_end) = (spans[parent].start, spans[parent].end);
        let mut total = 0;
        let mut cursor = p_start;
        while i < children.len() && children[i].0 as usize == parent {
            let start = children[i].1.max(cursor);
            let end = children[i].2.min(p_end);
            if end > start {
                total += end - start;
                cursor = end;
            }
            i += 1;
        }
        covered[parent] = total;
    }
    spans
        .iter()
        .zip(covered)
        .filter(|(s, _)| s.layer == layer)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            call: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 3 samples: p50 is the 2nd, p99 the 3rd.
        assert_eq!(percentile(&[10, 20, 30], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30], 0.99), 30);
        // A 1-in-200 outlier sits above p99.
        let mut v = vec![100u64; 199];
        v.push(1_000_000);
        assert_eq!(percentile(&v, 0.99), 100);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            // Call 0: 100 ns outer with two disjoint 20 ns core spans.
            span(Layer::OuterAlloc, NO_PARENT, 0, 100),
            span(Layer::CoreAlloc, 0, 10, 30),
            span(Layer::CoreOther, 0, 50, 70),
            // Call 1: no children, self time is the whole span.
            span(Layer::OuterFree, NO_PARENT, 200, 240),
            // Call 2: overlapping children count once, and a child that
            // overruns its parent is clipped to it.
            span(Layer::OuterAlloc, NO_PARENT, 300, 400),
            span(Layer::CoreAlloc, 4, 310, 350),
            span(Layer::CoreAlloc, 4, 340, 420),
        ];
        assert_eq!(self_times(&spans, Layer::OuterAlloc), vec![60, 10]);
        assert_eq!(self_times(&spans, Layer::OuterFree), vec![40]);
        assert_eq!(self_times(&spans, Layer::CoreAlloc), vec![20, 40, 80]);
    }
}
