//! Small numeric and parsing helpers shared by the workloads.

/// Percentiles the tail metric may report, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the value at `pct`, chosen from `count` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub count: usize,
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank index (0-based) of the percentile `tenths / 10` in `n`
/// sorted samples, in integer arithmetic so no rounding moves the rank.
fn rank(tenths: usize, n: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n) - 1
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples strictly after its nearest-rank position,
/// or `None` when there are too few samples for even the median.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&tenths| {
        let index = rank(tenths, n);
        (n - 1 - index >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: tenths as f64 / 10.0,
            value: sorted[index],
            count: n,
        })
    })
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    let scale = match fields.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        _ => return None,
    };
    Some(value * scale)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A small deterministic generator for seed-chosen choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1 sample beyond, p95 leaves 5; p90 is the first
        // with ten: its nearest-rank value is 90.
        assert_eq!(
            tail(&samples),
            Some(Tail {
                pct: 90.0,
                value: 90.0,
                count: 100
            })
        );
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&samples).map(|t| (t.pct, t.value)),
            Some((99.0, 990.0))
        );
    }

    #[test]
    fn tail_is_order_independent_and_needs_twenty_samples() {
        let mut samples: Vec<f64> = (0..20).map(f64::from).collect();
        samples.reverse();
        assert_eq!(tail(&samples).map(|t| (t.pct, t.value)), Some((50.0, 9.0)));
        assert_eq!(tail(&samples[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_parses_kilobytes() {
        let status =
            "Name:\tc8bench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024 pages\n"), None);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "core.replay_s.wgrb",
            "core.array_accesses.6t",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "pct%",
            "slash/x",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..10).collect::<Vec<_>>());
    }
}
