//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result as one JSON line.
//! `--print-golden` instead prints the observations the golden files pin.

use std::process::ExitCode;

use perfbench::paper::DEFAULT_SEED;
use perfbench::workload::{self, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_golden: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperE2e,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            args.print_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
            }
            "--seed" => {
                args.seed = parse_seed(&value).ok_or_else(|| format!("bad seed `{value}`"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    if args.print_golden {
        let (selfcheck, pass) = workload::golden_text(&plan);
        println!(
            "## selfcheck.txt\n{selfcheck}## {}.txt\n{pass}",
            plan.workload.name()
        );
        return ExitCode::SUCCESS;
    }
    let result = if args.trace {
        workload::trace(&plan, args.seconds)
    } else {
        workload::measure(&plan, args.seconds)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
