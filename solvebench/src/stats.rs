//! Order statistics and the result line.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// above it: the `(n − 10)`-th smallest of `n` samples, at percentile
/// `100·(n − 10)/n`. With `n ≤ 10` no percentile qualifies, and the
/// maximum is returned at percentile 100 so the run still reports its
/// slowest sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// Solves per block when a long run's tail is taken block by block.
pub const TAIL_BLOCK: usize = 40;

/// The tail of a whole run, with `xs` in the order the solves ran.
///
/// A run of `n ≥ 2·`[`TAIL_BLOCK`] solves is cut into `⌊n / TAIL_BLOCK⌋`
/// consecutive blocks of near-equal size. The [`tail`] of each block is
/// taken, and the median over blocks is reported with the median of the
/// block percentiles. A burst of host slowness that fills a few seconds
/// of a long run then moves only the blocks it falls in, not the whole
/// run's tail. A shorter run is one block, and this is [`tail`] itself.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn run_tail(xs: &[f64]) -> (Tail, usize) {
    assert!(!xs.is_empty(), "tail of no samples");
    let n = xs.len();
    let blocks = (n / TAIL_BLOCK).max(1);
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| tail(&xs[b * n / blocks..(b + 1) * n / blocks]))
        .collect();
    let pick = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    (
        Tail {
            value: pick(|t| t.value),
            percentile: pick(|t| t.percentile),
            n,
        },
        blocks,
    )
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
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

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Renders the final result line. Fails on an illegal metric name or a
/// non-finite value, which would make the line unusable.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_metric_name(m.name) {
            return Err(format!("illegal metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.n, 40);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // Order of the input does not matter; exactly eleven samples
        // leave only the minimum with ten beyond it.
        let xs = [5.0, 3.0, 9.0, 1.0, 2.0, 8.0, 7.0, 4.0, 6.0, 11.0, 10.0];
        let t = tail(&xs);
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_ten_or_fewer_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.n), (3.0, 100.0, 3));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten).value, 9.0);
    }

    #[test]
    fn short_runs_take_the_tail_of_the_whole_run() {
        let xs: Vec<f64> = (0..79).map(|i| f64::from((i * 37) % 79)).collect();
        let (t, blocks) = run_tail(&xs);
        assert_eq!(blocks, 1);
        assert_eq!(t, tail(&xs));
    }

    #[test]
    fn long_runs_take_the_median_of_block_tails() {
        // Three blocks of 40: steady at 1..=40, a burst at 1001..=1040,
        // steady again. The burst moves only its own block's tail.
        let steady: Vec<f64> = (1..=40).map(f64::from).collect();
        let burst: Vec<f64> = steady.iter().map(|x| x + 1000.0).collect();
        let xs: Vec<f64> = [&steady[..], &burst[..], &steady[..]].concat();
        let (t, blocks) = run_tail(&xs);
        assert_eq!(blocks, 3);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.n, 120);
        // The whole run's tail is inside the burst.
        assert_eq!(tail(&xs).value, 1030.0);

        // 101 solves make two blocks, of 50 and 51, split in run order.
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let (t, blocks) = run_tail(&xs);
        assert_eq!(blocks, 2);
        assert_eq!(t.value, 0.5 * (39.0 + 90.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "solve_s_p50",
            "core.train.us_per_row",
            "peak-rss",
            "0x",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/",
            "ü",
            "quote\"",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_has_the_four_keys_and_rejects_bad_metrics() {
        let m = |name, value| Metric {
            name,
            unit: "s",
            value,
        };
        let line = result_json(true, 3, 0, &[m("setup_s", 0.25), m("x", 2.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_json(true, 1, 0, &[m("nan", f64::NAN)]).is_err());
    }
}
