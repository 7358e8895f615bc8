//! The RITM benchmark: one command, four closed-loop workloads, every
//! metric printed by name with its unit and sample count, and a non-zero
//! exit when any output was wrong. See `benchmark/README.md`.

mod check;
mod gen;
mod metrics;
mod micro;
mod oracle;
mod shadow;
mod stats;
mod sys;
mod trace;
mod workloads;
mod world;
mod wrap;
mod writepath;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, Params, WorkloadDef};

/// Measured seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: ritm-benchmark (--workload <name> | --all | --check) \
[--seed <u64>] [--seconds <n>] [--trace [0|1]]
  --workload <name>  status_hot | status_churn | handshake_mix | revocation_storm
  --all              every workload, each in its own process (so peak RSS is per workload)
  --check            repeatability: two sets on one seed, one on another; fails on disagreement
  --trace [0|1]      spans on: per-layer metrics and a budget table instead of the end-to-end set";

enum Mode {
    One(&'static WorkloadDef),
    All,
    Check,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--check" => mode = Some(Mode::Check),
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Cli {
        mode: mode.ok_or("one of --workload, --all, --check is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::One(w) => run_one(w, &cli),
        Mode::All => check::run_all(cli.seed, cli.seconds, cli.trace),
        Mode::Check => check::run_check(cli.seed, cli.seconds),
    }
}

/// Where traces and the CA's write-ahead log go: `benchmark/out/` of the
/// checkout the command runs in (git-ignored, removed files on exit).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out under the working directory");
    dir
}

pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    match trace::write_json(&path, spans) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

fn run_one(w: &WorkloadDef, cli: &Cli) -> ExitCode {
    let params = Params {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    // Before the first thread is started, so that all of them inherit it.
    let nproc = sys::nproc();
    let pinned = w.one_cpu.then(sys::pin_to_one_cpu);
    println!("ritm-benchmark {}", w.name);
    println!("  why:     {}", w.why);
    println!("  commit:  {}", sys::commit());
    println!("  nproc:   {nproc}");
    match pinned {
        Some(Some(cpu)) => println!("  cpu:     every thread pinned to processor {cpu}"),
        Some(None) => println!("  cpu:     not pinned (the kernel refused)"),
        None => println!("  cpu:     not pinned (in-process workload)"),
    }
    println!("  rustc:   {}", env!("RITM_BENCH_RUSTC"));
    println!("  seed:    {}", cli.seed);
    println!("  layout:  {}", params.layout());
    let outcome = (w.run)(&params);
    println!(
        "  inputs:  {:016x} (hash of everything the generator produced)",
        outcome.input_hash
    );
    report(&outcome, cli.trace)
}

fn table(title: &str, defs: &[MetricDef], values: &Values) {
    println!("{title}");
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!(
                "  {:<34} {:>18} {:<6} n={:<8} ({} is better)",
                d.name,
                metrics::number(v),
                d.unit,
                values.samples(d.name),
                d.better
            );
        }
    }
}

/// Prints the human-readable tables, then the result line the driver
/// reads: the end-to-end set untraced, the per-layer set traced.
fn report(outcome: &Outcome, trace: bool) -> ExitCode {
    println!("timings, pooled over the untraced repetitions (median; highest percentile with 10 samples beyond it):");
    for (name, samples) in &outcome.timings {
        let tail = match samples.tail() {
            Some((p, v)) => format!("p{p} {v:.3}"),
            None => "too few samples for a tail".to_owned(),
        };
        println!(
            "  {name:<34} p50 {:.3}  {tail}  n={}",
            samples.median(),
            samples.len()
        );
    }
    table("end to end:", END_TO_END, &outcome.values);
    table(
        "per layer / by the issue's names:",
        PER_LAYER,
        &outcome.values,
    );
    for b in &outcome.budgets {
        print!("{}", b.render());
    }
    let correct = outcome.failed == 0;
    if let Some(why) = &outcome.first_failure {
        println!(
            "FAILED {} of {} operations; first: {why}",
            outcome.failed, outcome.attempted
        );
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            // A layer that did no work on this workload reads 0.
            let v = outcome.values.get(d.name).unwrap_or(0.0);
            assert!(
                trace || v > 0.0,
                "end-to-end metric {} was not measured",
                d.name
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                metrics::number(v),
                d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
