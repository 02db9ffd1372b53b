//! The benchmark's command line: one process, one workload.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--include-broken <0|1>] [--spans <file>]
//! ```
//!
//! Prints the per-engine table, every metric by name with its unit, and as
//! the last line of standard output one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use benchmark::workloads::{Workload, WORKLOADS};
use benchmark::{engine_table, run, Opts};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--include-broken <0|1>] [--spans <file>]",
        names.join("|")
    )
}

struct Args {
    opts: Opts,
    spans_out: Option<String>,
}

fn flag(value: &str, name: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("{name} takes 0 or 1, not {other:?}")),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload: Option<&'static Workload> = None;
    let mut opts = Opts {
        workload: &WORKLOADS[0],
        seed: 42,
        seconds: 10.0,
        trace: false,
        include_broken: false,
        scale: 1,
    };
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(name) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{name} needs a value\n{}", usage()))?;
        match name.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?}: want 0 to 3600"))?;
            }
            "--trace" => opts.trace = flag(value, "--trace")?,
            "--include-broken" => opts.include_broken = flag(value, "--include-broken")?,
            "--spans" => spans_out = Some(value.clone()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    opts.workload = workload.ok_or_else(usage)?;
    Ok(Args { opts, spans_out })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { opts, spans_out } = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let w = opts.workload;
    println!(
        "workload {} seed {} trace {}: {} cores, msg {} B, {} items + {} warm-up per core{}",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        w.cores,
        w.msg_size,
        w.items_per_core,
        w.warmup_per_core,
        if w.percore { ", per-core state" } else { "" }
    );
    let report = run(&opts);
    print!("{}", engine_table(&report));
    println!(
        "ops_attempted {}\nops_failed {}",
        report.outcome.attempted, report.outcome.failed
    );
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("setup_pass_s {}", secs(&report.setup_passes));
    println!("untraced_round_s {}", secs(&report.round_walls));
    if opts.trace {
        let (allocs, bytes, items) = report.alloc_counts;
        println!("counted round: allocs {allocs} alloc_bytes {bytes} items {items}");
    }
    print!("{}", report.outcome.metric_lines());
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(&path, report.spans.to_json_lines()) {
            eprintln!("cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.outcome.json_line());
    ExitCode::SUCCESS
}
