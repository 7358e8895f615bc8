//! The four workloads and what they share: repetition layout, the result
//! of a run, and the per-workload budget table.

use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::stats::{self, Samples, Sorted};
use crate::sys;
use std::time::Instant;

pub mod handshake_mix;
pub mod revocation_storm;
pub mod status_churn;
pub mod status_hot;

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Run with every thread on one processor (`sys::pin_to_one_cpu`): the
    /// socket workloads, whose figures otherwise follow the scheduler's
    /// placement of the generator against the runtime's workers. The
    /// in-process workloads stay free, so that the dictionary's hash pool
    /// keeps its workers.
    pub one_cpu: bool,
    pub run: fn(&Params) -> Outcome,
}

pub const ALL: &[WorkloadDef] = &[WorkloadDef {
    name: "status_hot",
    why: "Depth-1 GetStatus over a loopback socket, 8 hot serials, every reply an encoded-cache hit: rt, proto and the kernel do all the work; cache and tree changes must not move it.",
    one_cpu: true,
    run: status_hot::run,
}, WorkloadDef {
    name: "status_churn",
    why: "64-deep Zipf GetStatus flights beside CA revoke + RA sync rounds on one shared runtime over sockets: cache misses, proof build, publish, big frames; read/write trade-offs show only here.",
    one_cpu: true,
    run: status_churn::run,
}, WorkloadDef {
    name: "handshake_mix",
    why: "Sans-io TLS handshakes through the RA's FlowTable, in process (paper Table III): crypto, tls, client and agent::intercept do the work; rt and proto none, so socket-path changes must not move it.",
    one_cpu: false,
    run: handshake_mix::run,
}, WorkloadDef {
    name: "revocation_storm",
    why: "CA revoke/refresh with WAL, CDN origin, edge, RA sync over Loopback, heavy-tailed batches, paged catch-up: ca, dictionary, crypto, cdn and the big-message codec do the work; the read path none.",
    one_cpu: false,
    run: revocation_storm::run,
}];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().find(|w| w.name == name)
}

pub struct Params {
    pub seed: u64,
    /// Total measured time of the run, split over the repetitions.
    pub seconds: f64,
    pub trace: bool,
}

/// One repetition: a fresh world (servers, connections, caches), its own
/// set-up time, then a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub traced: bool,
    pub seconds: f64,
}

impl Params {
    /// Untraced runs time five repetitions; every timing figure is computed
    /// per repetition and the run reports the worse quartile of the five. A
    /// traced run alternates untraced and traced repetitions on the same
    /// inputs: the untraced ones give the end-to-end figures (bare services
    /// mounted), the traced ones the spans, and their difference the
    /// tracing overhead.
    pub fn reps(&self) -> Vec<Rep> {
        let pattern: &[bool] = if self.trace {
            &[false, true, false, true]
        } else {
            &[false; 5]
        };
        pattern
            .iter()
            .map(|&traced| Rep {
                traced,
                seconds: self.seconds / pattern.len() as f64,
            })
            .collect()
    }

    pub fn layout(&self) -> String {
        let reps = self.reps();
        let kinds: Vec<&str> = reps
            .iter()
            .map(|r| if r.traced { "traced" } else { "untraced" })
            .collect();
        format!(
            "{} repetitions x {:.2} s, fresh world each ({})",
            reps.len(),
            reps[0].seconds,
            kinds.join(", ")
        )
    }
}

/// One row set of the traced budget: where one operation's time goes.
pub struct Budget {
    /// What one operation is ("GetStatus round trip", ...).
    pub operation: &'static str,
    /// `(layer, microseconds)`: median self time per operation.
    pub layers: Vec<(&'static str, f64)>,
    /// The observed end-to-end median of the operation, microseconds.
    pub observed_us: f64,
    /// The layer the unexplained remainder is charged to.
    pub residual_to: &'static str,
}

impl Budget {
    pub fn layer_sum_us(&self) -> f64 {
        self.layers.iter().map(|(_, us)| us).sum()
    }

    pub fn residual_us(&self) -> f64 {
        self.observed_us - self.layer_sum_us()
    }

    pub fn render(&self) -> String {
        let mut out = format!("budget: one {} (median, us)\n", self.operation);
        for (name, us) in &self.layers {
            out += &format!("  {name:<34} {us:>12.3}\n");
        }
        out += &format!("  {:<34} {:>12.3}\n", "= layers", self.layer_sum_us());
        out += &format!(
            "  {:<34} {:>12.3}\n",
            format!("+ residual -> {}", self.residual_to),
            self.residual_us()
        );
        out += &format!(
            "  {:<34} {:>12.3}\n",
            "= observed end to end", self.observed_us
        );
        out
    }
}

pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Hash of every input the generator produced.
    pub input_hash: u64,
    /// The timed operations' samples, pooled over the untraced
    /// repetitions, for the report's median-and-tail lines.
    pub timings: Vec<(&'static str, Sorted)>,
    pub budgets: Vec<Budget>,
}

impl Outcome {
    /// Closes a run: the oracle's verdict goes into the outcome and into
    /// `failed_share`.
    pub fn new(
        mut values: Values,
        oracle: &Oracle,
        input_hash: u64,
        timings: Vec<(&'static str, Sorted)>,
        budgets: Vec<Budget>,
    ) -> Self {
        let (attempted, failed) = (oracle.attempted(), oracle.failed());
        values.set(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        );
        Outcome {
            values,
            attempted,
            failed,
            first_failure: oracle.first_failure().map(str::to_owned),
            input_hash,
            timings,
            budgets,
        }
    }
}

/// Set-up time per repetition and the figures every workload reports the
/// same way.
#[derive(Default)]
pub struct Common {
    setup_s: Vec<f64>,
}

impl Common {
    pub fn setup_done(&mut self, since: Instant) {
        self.setup_s.push(since.elapsed().as_secs_f64());
    }

    pub fn fill(&self, values: &mut Values) {
        values.set(
            "setup_s",
            stats::median_of(&self.setup_s),
            self.setup_s.len(),
        );
        values.set("peak_rss_mb", sys::peak_rss_mb(), 1);
    }
}

/// The run's figure for a lower-is-better statistic computed once per
/// repetition (see [`stats::worse_quartile`]).
pub fn lower<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    stats::worse_quartile(&reps.iter().map(f).collect::<Vec<f64>>(), true)
}

/// The same for a higher-is-better statistic.
pub fn higher<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    stats::worse_quartile(&reps.iter().map(f).collect::<Vec<f64>>(), false)
}

/// One statistic's samples pooled over the repetitions.
pub fn pooled<'a, R, S: AsRef<[f64]> + 'a>(reps: &'a [R], f: impl Fn(&'a R) -> &'a S) -> Sorted {
    let mut all = Samples::default();
    for r in reps {
        all.extend(f(r));
    }
    all.sorted()
}

/// Samples behind a statistic, summed over the repetitions.
pub fn count<R>(reps: &[R], f: impl Fn(&R) -> usize) -> usize {
    reps.iter().map(f).sum()
}

/// `(traced - untraced) / untraced`.
pub fn overhead(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced
    } else {
        0.0
    }
}
