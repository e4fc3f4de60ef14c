//! Seeded open-loop arrival schedules.
//!
//! A schedule is fixed before the first request is sent: the generator
//! sends each request at its due time whatever the daemon is doing, and
//! latency is timed from that due time, so a stall is charged to every
//! request it delays.

use nshard_pool::sample_seed;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the schedule starts.
    pub due_ns: u64,
    /// A uniform random word for the caller (e.g. which hot body repeats).
    pub pick: u64,
}

/// Uniform draw in `(0, 1]` from a 64-bit word.
fn unit(word: u64) -> f64 {
    ((word >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// `count` Poisson arrivals of one class conditioned on their number: a
/// Poisson process with `count` arrivals in `[0, horizon_s)` places them as
/// sorted independent uniform draws. Conditioning fixes the count and the
/// mean rate (`count / horizon_s`) of every run, while the gaps stay as
/// bursty as Poisson traffic. Every draw is a pure function of
/// `(seed, class, i)`, so the same seed gives the same schedule on any host.
pub fn poisson(seed: u64, class: usize, count: usize, horizon_s: f64) -> Vec<Arrival> {
    assert!(horizon_s > 0.0, "arrival horizon must be positive");
    let stream = sample_seed(seed, 0xA11_0000 + class as u64);
    let mut due: Vec<u64> = (0..count as u64)
        .map(|i| ((1.0 - unit(sample_seed(stream, 2 * i))) * horizon_s * 1e9) as u64)
        .collect();
    due.sort_unstable();
    due.into_iter()
        .enumerate()
        .map(|(i, due_ns)| Arrival {
            due_ns,
            pick: sample_seed(stream, 2 * i as u64 + 1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(poisson(7, 0, 500, 5.0), poisson(7, 0, 500, 5.0));
        assert_ne!(
            poisson(7, 0, 500, 5.0),
            poisson(8, 0, 500, 5.0),
            "another seed gives another schedule"
        );
    }

    #[test]
    fn classes_draw_independent_streams() {
        let a = poisson(7, 0, 100, 2.0);
        let b = poisson(7, 1, 100, 2.0);
        assert_ne!(
            a.iter().map(|x| x.due_ns).collect::<Vec<_>>(),
            b.iter().map(|x| x.due_ns).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_are_ordered_inside_the_horizon() {
        let s = poisson(11, 0, 10_000, 50.0);
        assert_eq!(s.len(), 10_000);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.due_ns < 50_000_000_000));
    }

    #[test]
    fn gaps_are_exponential() {
        // Exponential gaps have a coefficient of variation of 1 (regular
        // arrivals would have 0) and about e^-1 of them exceed the mean.
        let s = poisson(13, 0, 20_000, 100.0);
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
        let over = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (over - (-1.0f64).exp()).abs() < 0.02,
            "share over the mean {over}"
        );
    }

    #[test]
    fn unit_draws_stay_in_range() {
        assert!(unit(0) > 0.0);
        assert!(unit(u64::MAX) <= 1.0);
    }
}
