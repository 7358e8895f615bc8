//! # ritm-bench — the experiment harness (paper §VII)
//!
//! One binary per table/figure regenerates the paper's evaluation (the
//! end-to-end benchmark claims are judged with is the separate package
//! under `benchmark/`; see `benchmark/README.md`). This library holds
//! shared helpers: text tables, summary statistics, CDFs, and the
//! RA-download cost model used by Fig. 6, Table II, and Fig. 7.

use ritm_workloads::heartbleed::Bin;

/// Prints a simple aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Computes [`Stats`]; empty input yields zeros.
pub fn stats(samples: &[f64]) -> Stats {
    if samples.is_empty() {
        return Stats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
        };
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &s in samples {
        min = min.min(s);
        max = max.max(s);
        sum += s;
    }
    Stats {
        min,
        max,
        mean: sum / samples.len() as f64,
    }
}

/// The `p`-quantile (0.0–1.0) of a sorted sample (nearest-rank).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Bytes one RA downloads in a Δ-period with `revocations` new entries in
/// the tracked CA's dictionary: a 20-byte freshness statement always, plus
/// the issuance message (framing + 3-byte length-prefixed serials + signed
/// root) when anything was revoked. This is the quantity plotted in Fig. 7
/// and integrated over a month for Fig. 6.
pub fn bytes_per_pull(revocations: u64) -> u64 {
    const FRESHNESS: u64 = 20;
    if revocations == 0 {
        FRESHNESS
    } else {
        FRESHNESS + 12 + revocations * 4 + ritm_dictionary::root::SIGNED_ROOT_LEN as u64
    }
}

/// Per-RA download volume over a window, given per-period revocation counts.
pub fn bytes_per_window(per_period_revocations: &[u64]) -> u64 {
    per_period_revocations
        .iter()
        .map(|&r| bytes_per_pull(r))
        .sum()
}

/// Splits a bin series into consecutive 30-day billing cycles starting at
/// the series start, returning the total revocations per cycle.
pub fn billing_cycles(series: &[Bin], cycles: usize) -> Vec<u64> {
    const CYCLE: u64 = 30 * 86_400;
    let start = series.first().map(|b| b.start).unwrap_or(0);
    let mut out = vec![0u64; cycles];
    for bin in series {
        let idx = ((bin.start - start) / CYCLE) as usize;
        if idx < cycles {
            out[idx] += bin.count;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(stats(&[]).mean, 0.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn pull_bytes_shape() {
        assert_eq!(bytes_per_pull(0), 20);
        // 1 revocation: 20 + 12 + (1 + 3) + 128 = 164.
        assert_eq!(bytes_per_pull(1), 164);
        assert!(bytes_per_pull(1_000) > 4_000);
    }

    #[test]
    fn billing_cycle_split() {
        let series = vec![
            Bin {
                start: 0,
                count: 10,
            },
            Bin {
                start: 29 * 86_400,
                count: 5,
            },
            Bin {
                start: 31 * 86_400,
                count: 7,
            },
        ];
        let cycles = billing_cycles(&series, 2);
        assert_eq!(cycles, vec![15, 7]);
    }
}
