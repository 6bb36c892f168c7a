//! `rpxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human summary followed by one JSON
//! result line. Exits non-zero when an output check fails.
//! `rpxbench --catalog` prints the `BENCHMARK.json` these runs satisfy.

use std::time::Duration;

use rpxbench::{catalog, report, rotation, service, skew_adaptive, toy_bulk, Args};

/// A run that has not finished by then is stopped with an error rather
/// than left to hang.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage() -> ! {
    let names: Vec<&str> = catalog::WORKLOADS
        .iter()
        .chain(catalog::UNGATED)
        .map(|w| w.name)
        .collect();
    eprintln!(
        "usage: rpxbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       rpxbench --catalog",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--catalog" {
            print!("{}", catalog::benchmark_json());
            std::process::exit(0);
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let args = parse();
    let run: fn(&Args) -> report::Outcome = match args.workload.as_str() {
        "toy-bulk" => toy_bulk::run,
        "rotation-tcp" => rotation::run,
        "skew-adaptive" => skew_adaptive::run,
        "service-skew" => service::run,
        _ => usage(),
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("rpxbench: run exceeded {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });
    let outcome = run(&args);
    print!("{}", report::table(&args.workload, &outcome, args.trace));
    match report::result_json(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("rpxbench: {e}");
            std::process::exit(1);
        }
    }
    // Exit without running destructors: every runtime was shut down
    // already, and the result is printed.
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
