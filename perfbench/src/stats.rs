//! The benchmark's own arithmetic: percentiles, latency attribution,
//! `/proc` CPU accounting and failure accounting.  Kept free of I/O where
//! possible so the unit tests below pin every formula.

/// A nearest-rank percentile together with the number of samples it was
/// taken over, so a reader can tell how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    pub samples: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it.  Reorders `samples`.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    Some(Percentile {
        value: *value,
        samples: n,
    })
}

/// Median of a list of floats (mean of the middle pair for even lengths);
/// `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Mean of a slice of samples (0 when empty).
pub fn mean_u64(samples: &[u64]) -> f64 {
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len().max(1) as f64
}

/// The median, across consecutive slices of `slice` samples, of `stat`
/// computed on each slice.  A machine that slows down for a few seconds of
/// a run moves a few slices, not the reported figure.
pub fn slice_median(samples: &mut [u64], slice: usize, stat: impl Fn(&mut [u64]) -> f64) -> f64 {
    let per_slice: Vec<f64> = samples.chunks_mut(slice.max(1)).map(stat).collect();
    median_f64(&per_slice).unwrap_or(0.0)
}

/// Which slices to keep, given each slice's share of stolen CPU time:
/// those under `limit`, or, when fewer than a quarter are, the quarter
/// with the least steal.
pub fn calm_slices(steal: &[f64], limit: f64) -> Vec<bool> {
    let quarter = steal.len().div_ceil(4);
    if steal.iter().filter(|&&s| s < limit).count() >= quarter {
        return steal.iter().map(|&s| s < limit).collect();
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut keep = vec![false; steal.len()];
    for &i in &order[..quarter] {
        keep[i] = true;
    }
    keep
}

/// Median of the `values` that `keep` marks (missing marks count as kept).
pub fn median_kept(values: &[f64], keep: &[bool]) -> f64 {
    let kept: Vec<f64> = values
        .iter()
        .zip(keep.iter().chain(std::iter::repeat(&true)))
        .filter_map(|(&v, &k)| k.then_some(v))
        .collect();
    median_f64(&kept).unwrap_or(0.0)
}

/// Time the hypervisor ran something else on the machine's CPUs, in
/// clock ticks summed over CPUs: the eighth value of the aggregate `cpu`
/// line of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host steal time so far, in CPU-seconds summed over CPUs.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0) as f64
        / clock_ticks_per_s() as f64
}

/// Waits until the hypervisor steals less than `limit` of one busy CPU:
/// keeps a CPU busy for windows of `window` until one shows less steal
/// than that, for at most `max_wait`.  (An idle CPU shows no steal however
/// contended the host is.)  Returns the seconds waited and the last
/// window's steal share.
pub fn wait_for_calm(
    limit: f64,
    window: std::time::Duration,
    max_wait: std::time::Duration,
) -> (f64, f64) {
    let start = std::time::Instant::now();
    loop {
        let before = host_steal_s();
        let spin = std::time::Instant::now();
        let mut x = 1u64;
        while spin.elapsed() < window {
            for _ in 0..1000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
        }
        std::hint::black_box(x);
        let share = (host_steal_s() - before) / window.as_secs_f64();
        let waited = start.elapsed();
        if share < limit || waited + window > max_wait {
            return ((waited - window).as_secs_f64(), share);
        }
    }
}

/// One report marker as the ingest workloads record it: for each server,
/// how many stream events had been handed to it when the marker was
/// requested, and when (nanoseconds on the run clock) its answer arrived,
/// if it ever did.
#[derive(Debug, Clone)]
pub struct Marker {
    pub sent_ns: u64,
    pub delivered: Vec<u64>,
    pub answered_ns: Vec<Option<u64>>,
}

/// Per-event latency by flush order.
///
/// Every server receives the stream as a prefix that only grows (healthy
/// flushes, then the rejoin replay of a diverted backlog), and answers
/// report markers in FIFO order.  So event `e` is applied on server `s` by
/// the answer to the first marker whose `delivered[s]` exceeds `e`; the
/// event is done once that holds on every server.  Its latency runs from
/// its due time `e * period_ns` to that moment.
///
/// Returns the latencies of the events done on every server, in stream
/// order, and the number of events some server never confirmed.
pub fn attribute_latencies(
    events: usize,
    period_ns: u64,
    servers: usize,
    markers: &[Marker],
) -> (Vec<u64>, usize) {
    let mut done_ns = vec![0u64; events];
    let mut confirmed = events;
    for s in 0..servers {
        let mut next = 0usize;
        for m in markers {
            let Some(at) = m.answered_ns[s] else { continue };
            let upto = (m.delivered[s] as usize).min(events);
            while next < upto {
                done_ns[next] = done_ns[next].max(at);
                next += 1;
            }
        }
        confirmed = confirmed.min(next);
    }
    let latencies = done_ns[..confirmed]
        .iter()
        .enumerate()
        .map(|(e, &done)| done.saturating_sub(e as u64 * period_ns))
        .collect();
    (latencies, events - confirmed)
}

/// The newest marker at or after `from` that every server has answered,
/// with the number of stream events it confirms on all of them (the
/// smallest delivered count).
pub fn newest_confirmed(markers: &[Marker], from: usize) -> Option<(usize, u64)> {
    (from..markers.len())
        .rev()
        .find(|&i| markers[i].answered_ns.iter().all(Option::is_some))
        .map(|i| (i, markers[i].delivered.iter().copied().min().unwrap_or(0)))
}

/// User plus system CPU time, in clock ticks, from the text of a
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` file.  The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`: utime and stime are fields 14 and 15.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kernel's clock-tick rate (`AT_CLKTCK`) from the auxiliary vector
/// bytes of `/proc/self/auxv`: native-endian `(type, value)` word pairs.
pub fn parse_auxv_clktck(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    let word = |c: &[u8]| u64::from_ne_bytes(c.try_into().expect("8-byte chunk"));
    auxv.chunks_exact(16)
        .map(|pair| (word(&pair[..8]), word(&pair[8..])))
        .find(|&(kind, _)| kind == AT_CLKTCK)
        .map(|(_, value)| value)
        .filter(|&hz| hz > 0)
}

/// CPU time of the whole process (live and exited threads), in seconds.
pub fn process_cpu_s() -> f64 {
    read_ticks("/proc/self/stat") as f64 / clock_ticks_per_s() as f64
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    read_ticks("/proc/thread-self/stat") as f64 / clock_ticks_per_s() as f64
}

fn read_ticks(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .unwrap_or(0)
}

fn clock_ticks_per_s() -> u64 {
    static HZ: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *HZ.get_or_init(|| {
        std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|a| parse_auxv_clktck(&a))
            .unwrap_or(100)
    })
}

/// What a run attempted and how much of it failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// The share of attempted operations that failed (0 when nothing was
    /// attempted, which the caller reports as a failure of its own).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every attempted operation succeeded (and there was one).
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let mut v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut v, 50.0).unwrap().value, 5);
        assert_eq!(percentile(&mut v, 90.0).unwrap().value, 9);
        assert_eq!(percentile(&mut v, 91.0).unwrap().value, 10);
        assert_eq!(percentile(&mut v, 100.0).unwrap().value, 10);
        assert_eq!(percentile(&mut v, 0.0).unwrap().value, 1);
        assert_eq!(percentile(&mut v, 99.0).unwrap().samples, 10);
        let mut one = vec![42];
        assert_eq!(
            percentile(&mut one, 99.0),
            Some(Percentile {
                value: 42,
                samples: 1
            })
        );
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn slice_median_is_robust_to_one_slow_slice() {
        let mut v: Vec<u64> = vec![1, 2, 3, 2, 3, 4, 90, 95, 99, 3, 4, 5];
        let p50 = |s: &mut [u64]| percentile(s, 50.0).unwrap().value as f64;
        // Slice medians 2, 3, 95, 4.
        assert_eq!(slice_median(&mut v, 3, p50), 3.5);
        assert_eq!(slice_median(&mut [], 3, p50), 0.0);
        assert_eq!(mean_u64(&[1, 2, 6]), 3.0);
    }

    #[test]
    fn slices_with_steal_are_dropped_down_to_the_calmest_quarter() {
        let v = [1.0, 2.0, 90.0, 3.0];
        assert_eq!(median_kept(&v, &[true, true, false, true]), 2.0);
        assert_eq!(median_kept(&v, &[true, true, false]), 2.0);
        assert_eq!(median_kept(&[], &[]), 0.0);
        let steal = [0.0, 0.01, 0.5, 0.0];
        assert_eq!(calm_slices(&steal, 0.02), vec![true, true, false, true]);
        // Every slice over the limit: keep the quarter with the least.
        let steal = [0.3, 0.05, 0.5, 0.2, 0.04, 0.9, 0.1, 0.6];
        assert_eq!(
            calm_slices(&steal, 0.02),
            vec![false, true, false, false, true, false, false, false]
        );
        assert!(calm_slices(&[], 0.02).is_empty());
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  503514 0 46103 740571 425 0 609 8610 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(8610));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }

    fn marker(sent: u64, delivered: &[u64], answered: &[Option<u64>]) -> Marker {
        Marker {
            sent_ns: sent,
            delivered: delivered.to_vec(),
            answered_ns: answered.to_vec(),
        }
    }

    #[test]
    fn latency_is_attributed_to_the_first_covering_marker_on_every_server() {
        // 6 events due every 10 ns.  Marker 0 covers events 0..2 on both
        // servers; marker 1 covers 0..4 but server 1 only answers it late;
        // marker 2 covers everything.
        let markers = [
            marker(20, &[2, 2], &[Some(25), Some(30)]),
            marker(40, &[4, 4], &[Some(45), Some(70)]),
            marker(60, &[6, 6], &[Some(65), Some(75)]),
        ];
        let (lat, missing) = attribute_latencies(6, 10, 2, &markers);
        assert_eq!(missing, 0);
        // done = [30, 30, 70, 70, 75, 75]; due = [0, 10, 20, 30, 40, 50].
        assert_eq!(lat, vec![30, 20, 50, 40, 35, 25]);
    }

    #[test]
    fn a_down_server_confirms_events_only_after_its_replay() {
        // Server 1 is killed after 2 events: it misses marker 1, then the
        // rejoin replay brings its delivered prefix to 4 before marker 2.
        let markers = [
            marker(20, &[2, 2], &[Some(21), Some(22)]),
            marker(40, &[4, 2], &[Some(41), None]),
            marker(90, &[4, 4], &[Some(91), Some(95)]),
        ];
        let (lat, missing) = attribute_latencies(4, 10, 2, &markers);
        assert_eq!(missing, 0);
        assert_eq!(lat, vec![22, 12, 75, 65]);
    }

    #[test]
    fn the_newest_marker_answered_by_all_confirms_its_smallest_prefix() {
        let markers = [
            marker(20, &[2, 2], &[Some(21), Some(22)]),
            marker(40, &[4, 3], &[Some(41), Some(43)]),
            marker(60, &[6, 6], &[Some(61), None]),
        ];
        assert_eq!(newest_confirmed(&markers, 0), Some((1, 3)));
        assert_eq!(newest_confirmed(&markers, 1), Some((1, 3)));
        assert_eq!(newest_confirmed(&markers, 2), None);
        assert_eq!(newest_confirmed(&[], 0), None);
    }

    #[test]
    fn unconfirmed_events_are_counted_missing() {
        let markers = [marker(20, &[3, 1], &[Some(21), Some(22)])];
        let (lat, missing) = attribute_latencies(3, 10, 2, &markers);
        assert_eq!(lat, vec![22]);
        assert_eq!(missing, 2);
    }

    #[test]
    fn stat_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "1234 (my (odd) cmd) S 1 1234 1234 0 -1 4194560 100 0 0 0 \
                    250 17 0 0 20 0 3 0 5000 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(267));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn auxv_yields_the_clock_tick_rate() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clktck(&auxv), Some(100));
        assert_eq!(parse_auxv_clktck(&auxv[..16]), None);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut o = Outcome::default();
        assert!(!o.correct());
        o.add(1000, 0);
        assert!(o.correct());
        assert_eq!(o.failed_frac(), 0.0);
        o.add(5, 1);
        o.add(3, 9); // more failures than attempts cannot exceed attempts
        assert_eq!(
            o,
            Outcome {
                attempted: 1008,
                failed: 4
            }
        );
        assert_eq!(o.failed_frac(), 4.0 / 1008.0);
        assert!(!o.correct());
    }
}
