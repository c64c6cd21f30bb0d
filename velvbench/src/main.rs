//! `velvbench` — the end-to-end benchmark of the velv verification flow.
//!
//! ```text
//! velvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Workloads: `proof`, `bug-sweep`, `certify`, `serve-catalog`,
//! `serve-batch` (see `README.md` for why each exists).  The seed orders the
//! jobs; `--seconds` bounds the measurement, which runs whole passes over
//! the jobs.  Every verdict is checked against the oracle.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! budget untraced and half traced and prints the per-layer metrics,
//! writing the span JSONL next to the executable.  Each metric is printed
//! as `name value unit`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `--smoke` shrinks every workload
//! to the single-issue DLX and runs one pass.
//!
//! Exit codes: 0 with a result (failed jobs are reported in it, not by the
//! exit code), 1 when set-up or the traced run's self-check fails, 2 on a
//! usage error.

mod measure;
mod report;
mod workload;

use measure::Settings;
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

/// The harness runs on the counting allocator, as `velvd` does, so
/// `peak_heap_mb` and the per-scope figures describe the program users run.
#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

const USAGE: &str =
    "usage: velvbench --workload <proof|bug-sweep|certify|serve-catalog|serve-batch> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(settings) => settings,
        Err(error) => {
            eprintln!("velvbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure::run(&settings) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("velvbench: {}: {error}", settings.workload.name());
            ExitCode::from(1)
        }
    }
}

/// Serializes the tests that keep a core busy for seconds.  The traced
/// smoke runs' self-check counts scheduler waits as untimed, and a catalog
/// scan on the other core inflates those waits past the limit.
#[cfg(test)]
fn cpu_heavy_test() -> std::sync::MutexGuard<'static, ()> {
    static CPU_HEAVY: std::sync::Mutex<()> = std::sync::Mutex::new(());
    CPU_HEAVY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn smoke(workload: Workload, trace: bool) -> report::Report {
        let settings = Settings {
            workload,
            seed: 3,
            budget: Duration::ZERO,
            trace,
            smoke: true,
        };
        measure::run(&settings).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// The counts a change must not move by accident repeat exactly, and
    /// every metric `BENCHMARK.json` names is printed with its unit.
    #[test]
    fn smoke_runs_are_deterministic_and_print_every_metric() {
        let _serial = cpu_heavy_test();
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark = std::fs::read_to_string(manifest).expect("BENCHMARK.json is readable");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(benchmark.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let deterministic = [
            "sat.conflicts",
            "sat.propagations",
            "core.cnf_clauses",
            "proof.steps",
            "serve.hit_ratio",
            "core.translations",
        ];
        for workload in Workload::ALL {
            let plain = smoke(workload, false);
            let text = plain.render();
            for (name, unit) in END_TO_END {
                let value = plain.value(name).expect("every end-to-end metric");
                assert!(value > 0.0, "{}: {name} is {value}", workload.name());
                let line = format!("{name} {value} {unit}");
                assert!(
                    text.lines().any(|l| l.split("  #").next() == Some(&line)),
                    "{}: no line `{line}`",
                    workload.name()
                );
            }
            assert!(plain.failures.is_empty(), "{:?}", plain.failures);

            let first = smoke(workload, true);
            let second = smoke(workload, true);
            assert_eq!(first.metrics.len(), PER_LAYER.len());
            for name in deterministic {
                assert_eq!(
                    first.value(name),
                    second.value(name),
                    "{}: {name}",
                    workload.name()
                );
            }
            assert!(first.value("sat.conflicts").unwrap() > 0.0);
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let settings = parse_args(&args(
            "--workload bug-sweep --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(settings.workload, Workload::BugSweep);
        assert_eq!(settings.seed, 9);
        assert_eq!(settings.budget, Duration::from_secs(12));
        assert!(settings.trace && !settings.smoke);
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload proof --trace 2")).is_err());
        assert!(parse_args(&args("--workload proof --seconds -1")).is_err());
    }
}
