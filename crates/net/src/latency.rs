//! Latency distributions for links and vantage points.
//!
//! `rand_distr` is not available offline, so the normal and log-normal
//! samplers are implemented directly (Box–Muller). Log-normal RTTs are the
//! standard model for wide-area latency and drive the Fig. 5 download-time
//! CDFs.

use crate::time::SimDuration;
use rand::Rng;

/// A latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Always the same value (seconds).
    Constant(f64),
    /// Uniform between min and max seconds.
    Uniform {
        /// Lower bound (seconds).
        min: f64,
        /// Upper bound (seconds).
        max: f64,
    },
    /// Log-normal with the given location/scale of the underlying normal,
    /// plus a fixed floor (propagation delay), all in seconds.
    LogNormal {
        /// Location parameter µ of `ln X`.
        mu: f64,
        /// Scale parameter σ of `ln X`.
        sigma: f64,
        /// Additive floor, e.g. speed-of-light propagation.
        floor: f64,
    },
}

impl LatencyModel {
    /// Draws one latency sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let secs = match *self {
            LatencyModel::Constant(s) => s,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max);
                rng.gen_range(min..=max)
            }
            LatencyModel::LogNormal { mu, sigma, floor } => {
                floor + (mu + sigma * standard_normal(rng)).exp()
            }
        };
        SimDuration::from_secs_f64(secs.max(0.0))
    }

    /// The distribution mean in seconds (analytic).
    pub fn mean_secs(&self) -> f64 {
        match *self {
            LatencyModel::Constant(s) => s,
            LatencyModel::Uniform { min, max } => (min + max) / 2.0,
            LatencyModel::LogNormal { mu, sigma, floor } => {
                floor + (mu + sigma * sigma / 2.0).exp()
            }
        }
    }
}

/// One standard-normal draw via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(0.05);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(50));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform {
            min: 0.01,
            max: 0.02,
        };
        for _ in 0..1000 {
            let s = m.sample(&mut rng).as_secs_f64();
            assert!((0.01..=0.02).contains(&s));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn lognormal_mean_close_to_analytic() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LatencyModel::LogNormal {
            mu: -3.0,
            sigma: 0.5,
            floor: 0.01,
        };
        let n = 50_000;
        let mean = (0..n)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - m.mean_secs()).abs() / m.mean_secs() < 0.05,
            "empirical {mean} vs analytic {}",
            m.mean_secs()
        );
    }

    #[test]
    fn samples_never_negative() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = LatencyModel::LogNormal {
            mu: -8.0,
            sigma: 3.0,
            floor: 0.0,
        };
        for _ in 0..1000 {
            let _ = m.sample(&mut rng); // from_secs_f64 would panic if negative
        }
    }
}
