//! End-to-end benchmark of the grouping planners, the campaign simulator
//! and the grouping service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-suite|city-anytime|metering-campaign|metering-service> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a report, then as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). Exits 1 when a correctness gate fails and 2
//! on a usage error, printing no JSON. See `NOTES.md` for the workloads
//! and metrics.

mod batch;
mod common;
mod harness;
mod paper_suite;
mod service;

use harness::{drive, Failure, Report, Workload};

const WORKLOADS: [&str; 4] = [
    "paper-suite",
    "city-anytime",
    "metering-campaign",
    "metering-service",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number, got `{value}`")))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => usage(&format!("unknown workload `{value}`")),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }
}

fn run<W: Workload>(
    args: &Args,
    mut setup: impl FnMut(u64) -> Result<W, Failure>,
) -> Result<Report, Failure> {
    drive(|| setup(args.seed), args.seconds, args.trace)
}

fn main() {
    let args = parse_args();
    let report = match args.workload.as_str() {
        "paper-suite" => run(&args, paper_suite::PaperSuite::new),
        "city-anytime" => run(&args, |seed| Ok(batch::Batch::city_anytime(seed))),
        "metering-campaign" => run(&args, |seed| Ok(batch::Batch::metering_campaign(seed))),
        "metering-service" => run(&args, service::MeteringService::new),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let report = report.unwrap_or_else(|failure| {
        eprintln!("perfbench: {} aborted: {failure}", args.workload);
        std::process::exit(1)
    });
    let metrics = if args.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", bad.name);
        std::process::exit(1);
    }
    println!(
        "perfbench {} seed={} trace={}: {} campaigns attempted, {} failed, {} cycles of {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.cycles,
        report.cycle_len
    );
    for m in &metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    println!("  digest of the first cycle: {:016x}", report.digest());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
}
