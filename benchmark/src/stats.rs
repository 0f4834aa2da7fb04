//! Estimators: the quiet-host time of repeated identical work, medians and
//! percentiles.

/// Wall times of units of work, each executed once per episode.
///
/// Host interference on a shared machine only ever slows a unit down and
/// comes in bursts shorter than an episode, so the best of a unit's
/// repetitions (seconds apart) estimates its undisturbed cost. A class's
/// time is the sum of its units' best repetitions; nothing is discarded,
/// every unit counts once.
///
/// "Best" is the highest amount per second. With one client a unit is
/// identical work in every episode, so that is simply its fastest time. A
/// reader racing a writer meets the dataset at a slightly different point
/// in each episode, so a unit's rows and seconds are kept together.
#[derive(Debug, Clone, Default)]
pub struct Reps {
    /// `(seconds, ops or rows produced)` per `[unit][episode]`.
    runs: Vec<Vec<(f64, f64)>>,
}

impl Reps {
    /// Records one execution of `unit`.
    pub fn record(&mut self, unit: usize, secs: f64, amount: f64) {
        if unit >= self.runs.len() {
            self.runs.resize_with(unit + 1, Vec::new);
        }
        self.runs[unit].push((secs, amount));
    }

    /// Appends the repetitions another thread collected for the same units.
    pub fn absorb(&mut self, other: Reps) {
        for (unit, runs) in other.runs.into_iter().enumerate() {
            for (secs, amount) in runs {
                self.record(unit, secs, amount);
            }
        }
    }

    /// The best repetition of each unit: highest amount per second, or the
    /// fastest when the unit produces nothing countable.
    fn best(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.runs.iter().filter_map(|runs| {
            runs.iter().copied().min_by(|a, b| {
                let cost =
                    |(secs, amount): (f64, f64)| if amount > 0.0 { secs / amount } else { secs };
                cost(*a).total_cmp(&cost(*b))
            })
        })
    }

    /// Σ over units of the best repetition's seconds.
    pub fn quiet_secs(&self) -> f64 {
        self.best().map(|(secs, _)| secs).sum()
    }

    /// Σ of every repetition of every unit (the wall time actually spent).
    pub fn spent_secs(&self) -> f64 {
        self.runs.iter().flatten().map(|(secs, _)| secs).sum()
    }

    /// Σ over units of the best repetition's amount.
    pub fn amount(&self) -> f64 {
        self.best().map(|(_, amount)| amount).sum()
    }

    /// Work per quiet second.
    pub fn rate(&self) -> f64 {
        self.amount() / self.quiet_secs()
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of unsorted values.
pub fn percentile<T: Copy + PartialOrd>(values: &[T], p: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method) — the
/// spread the acceptance check computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_is_the_sum_of_per_unit_minima() {
        let mut r = Reps::default();
        for slow_unit in [1, 0, 2] {
            for unit in 0..3 {
                let secs = if unit == slow_unit {
                    5.0
                } else {
                    1.0 + unit as f64
                };
                r.record(unit, secs, 10.0);
            }
        }
        assert_eq!(r.quiet_secs(), 1.0 + 2.0 + 3.0);
        assert_eq!(r.amount(), 30.0);
        assert_eq!(r.rate(), 5.0);
        assert_eq!(r.spent_secs(), 9.0 + 10.0 + 8.0);
    }

    #[test]
    fn a_racing_unit_keeps_its_rows_with_its_seconds() {
        let mut r = Reps::default();
        r.record(0, 1.0, 100.0); // early in the ingest: few rows, fast
        r.record(0, 2.0, 300.0); // later: more rows per second
        r.record(1, 4.0, 0.0); // nothing countable: the fastest wins
        r.record(1, 3.0, 0.0);
        assert_eq!(r.amount(), 300.0);
        assert_eq!(r.quiet_secs(), 2.0 + 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
    }
}
