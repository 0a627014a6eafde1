//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the serving benchmark and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Exits non-zero without a result line when
//! the run cannot be set up.

use std::process::ExitCode;

use perfbench::{Config, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut config = Config::full(1, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => config.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => config.trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(config.seconds > 0.0 && config.seconds.is_finite()) {
        return Err(format!(
            "--seconds must be positive, got {}",
            config.seconds
        ));
    }
    if config.trace {
        // A traced run reports no set-up time, so one set-up is enough.
        config.setups = 1;
    }
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&workload, &config) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
            let samples: Vec<String> = outcome
                .samples
                .iter()
                .map(|(op, n)| format!("{op}={n}"))
                .collect();
            println!(
                "{workload} seed={} trace={} failed_ratio={failed_ratio} samples: {}",
                config.seed,
                config.trace,
                samples.join(" ")
            );
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
