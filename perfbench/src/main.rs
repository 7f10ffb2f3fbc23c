//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per cell (label, events, digest), any failed check,
//! and as the last line of standard output one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to standard error as JSON lines.

use std::process::ExitCode;

use perfbench::{workloads, Options, Scale, Workload, COUNTER_SCOPE, HARNESS_SEED};

const USAGE: &str = "usage: perfbench --workload <fig2_sweep|fig7_n500|fig8_churn_ckpt> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = HARNESS_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = parse_u64(value).ok_or_else(|| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Digests are pinned for the harness seed only; any other seed makes
    // fresh cells whose digests are printed for the record.
    let pins = (opts.seed == HARNESS_SEED).then(|| workloads::pinned(opts.workload));
    let outcome = perfbench::run(&opts, pins);

    println!(
        "perfbench {} seed={} trace={} passes={} pins={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.passes,
        if pins.is_some() { "checked" } else { "printed" }
    );
    for cell in &outcome.cells {
        let run_s: Vec<String> = cell.run_s.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "cell {} events={} digest={:016x} run_s=[{}]",
            cell.label,
            cell.events,
            cell.digest,
            run_s.join(" ")
        );
    }
    for problem in &outcome.problems {
        println!("FAILED {problem}");
    }
    if opts.trace {
        println!("scope: {COUNTER_SCOPE}");
        eprint!("{}", outcome.spans_jsonl);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
