//! Differential fuzzer CLI: cross-check interpreter, simulated engine,
//! and linked trace backend over seeded random programs, clean and under
//! fault injection.
//!
//! ```text
//! difffuzz [--seeds N] [--start S] [--fault-seed F] [--no-faults]
//! ```
//!
//! Exits non-zero on the first divergence, after shrinking it to the
//! smallest generator configuration that still reproduces.

use std::process::ExitCode;

use hotpath_bench::difffuzz::{check_seed, shrink, FuzzOptions, EXIT_REASONS, FAULT_RATES};

fn usage() -> ! {
    eprintln!("usage: difffuzz [--seeds N] [--start S] [--fault-seed F] [--no-faults]");
    std::process::exit(2);
}

fn parse_u64(value: Option<String>) -> u64 {
    let Some(v) = value else { usage() };
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| usage())
}

fn main() -> ExitCode {
    let mut seeds = 200u64;
    let mut start = 0u64;
    let mut options = FuzzOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => seeds = parse_u64(args.next()),
            "--start" => start = parse_u64(args.next()),
            "--fault-seed" => options.fault_seed = parse_u64(args.next()),
            "--no-faults" => options.faults = false,
            _ => usage(),
        }
    }

    let started = std::time::Instant::now();
    let mut blocks = 0u64;
    let mut injected = [0u64; FAULT_RATES.len()];
    let mut churning = 0u64;
    let mut exits = [0u64; EXIT_REASONS.len()];
    for seed in start..start.saturating_add(seeds) {
        match check_seed(seed, &options) {
            Ok(report) => {
                blocks += report.blocks;
                churning += u64::from(report.churning_config);
                for (total, n) in exits.iter_mut().zip(report.exits) {
                    *total += n;
                }
                for (total, n) in injected.iter_mut().zip(report.injected) {
                    *total += n;
                }
            }
            Err(divergence) => {
                eprintln!("FAIL {divergence}");
                let (config, smallest) = shrink(seed, &options);
                eprintln!("  smallest reproducing generator config: {config:?}");
                eprintln!("  {smallest}");
                eprintln!(
                    "  reproduce: difffuzz --seeds 1 --start {seed} --fault-seed {:#x}",
                    options.fault_seed
                );
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "difffuzz: {} seeds ok ({} with a churning cache), {} reference blocks, {:.1}s",
        seeds,
        churning,
        blocks,
        started.elapsed().as_secs_f64()
    );
    let detail: Vec<String> = EXIT_REASONS
        .iter()
        .zip(exits)
        .map(|(reason, n)| format!("{}={n}", reason.as_str()))
        .collect();
    println!("difffuzz: linked excursions by exit: {}", detail.join(" "));
    if options.faults {
        let detail: Vec<String> = FAULT_RATES
            .iter()
            .zip(injected)
            .map(|((point, _), n)| format!("{}={n}", point.as_str()))
            .collect();
        println!("difffuzz: faults injected: {}", detail.join(" "));
    }
    ExitCode::SUCCESS
}
