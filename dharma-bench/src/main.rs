//! `dharma-bench`: run a workload, list the metrics, or run the A/A gate.

use std::path::PathBuf;
use std::process::ExitCode;

use dharma_bench::workloads::{self, RunArgs};
use dharma_bench::{check, report, spec};

const USAGE: &str = "usage:
  dharma-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ops <n>] [--out <dir>]
  dharma-bench list
  dharma-bench check [--seed <n>] [--ops <n>] [--benchmark-json <path>]

  --seconds   host seconds the measured phase lasts (default 8)
  --ops       stop after this many logical operations instead (fixed work)
  --out       where a traced run writes its span file (default dharma-bench/out)";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dharma-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Takes the value of `--flag value`; `Err` names what is wrong.
fn value<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::vec::IntoIter<String>,
) -> Result<T, String> {
    let raw = it.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot read '{raw}'"))
}

fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(args: Vec<String>) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 42,
        seconds: 8.0,
        max_ops: None,
        trace: false,
        setups: 3,
        out_dir: Some(default_out_dir()),
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value::<String>(&flag, &mut it)?),
            "--seed" => run.seed = value(&flag, &mut it)?,
            "--seconds" => run.seconds = value(&flag, &mut it)?,
            "--ops" => run.max_ops = Some(value(&flag, &mut it)?),
            "--out" => run.out_dir = Some(PathBuf::from(value::<String>(&flag, &mut it)?)),
            "--trace" => {
                run.trace = match value::<u8>(&flag, &mut it)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", run.seconds));
    }
    if run.max_ops == Some(0) {
        return Err("--ops must be at least 1".into());
    }
    let outcome = workloads::run(&workload, &run)?;
    report::print(
        &outcome,
        &workload,
        run.trace,
        &mut std::io::stdout().lock(),
    );
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("dharma-bench: {workload}: output check failed");
        ExitCode::FAILURE
    })
}

fn run_check(args: Vec<String>) -> Result<ExitCode, String> {
    let (mut seed, mut ops) = (42u64, 4_000u64);
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = value(&flag, &mut it)?,
            "--ops" => ops = value(&flag, &mut it)?,
            "--benchmark-json" => benchmark_json = PathBuf::from(value::<String>(&flag, &mut it)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let bad = check::run_check(seed, ops, &benchmark_json)?;
    for line in &bad {
        eprintln!("dharma-bench check: {line}");
    }
    Ok(if bad.is_empty() {
        println!("check passed: two runs of the same code agree");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        // A closed pipe (`list | head`) is the reader's choice, not an error.
        Some("list") if args.len() == 1 => {
            let _ = spec::print_list(&mut std::io::stdout().lock());
            Ok(ExitCode::SUCCESS)
        }
        Some("check") => {
            args.remove(0);
            run_check(args)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run_workload(args),
    };
    result.unwrap_or_else(|msg| usage_error(&msg))
}
