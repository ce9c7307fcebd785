//! `flowbench` command line.
//!
//! ```text
//! flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flowbench --setup-probe <name> --seed <n> --seconds <s> [--store <dir>]
//! flowbench --aa [--seconds <s>]
//! flowbench --manifest
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use flowbench::report::RUN_SECONDS;
use flowbench::runner::{self, RunArgs, MAX_SECONDS, WORKLOADS};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", flowbench::report::manifest());
        return ExitCode::SUCCESS;
    }
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let number = |flag: &str, default: f64| match value(flag) {
        None => Ok(default),
        Some(v) => v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}")),
    };
    let parsed = (|| -> Result<RunArgs, String> {
        let seconds = number("--seconds", f64::from(RUN_SECONDS))?;
        if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
            return Err(format!(
                "--seconds {seconds}: expected 0 < s <= {MAX_SECONDS}"
            ));
        }
        let workload = value("--workload")
            .or_else(|| value("--setup-probe"))
            .unwrap_or_default();
        let names = WORKLOADS.map(|(name, _)| name);
        if !argv.iter().any(|a| a == "--aa") && !names.contains(&workload.as_str()) {
            return Err(format!(
                "--workload `{workload}`: expected one of {names:?}"
            ));
        }
        Ok(RunArgs {
            workload,
            seed: number("--seed", 1.0)? as u64,
            seconds,
            trace: number("--trace", 0.0)? != 0.0,
        })
    })();
    let args = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("flowbench: {message}");
            return ExitCode::from(2);
        }
    };

    if argv.iter().any(|a| a == "--aa") {
        return if flowbench::aa::run(args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if value("--setup-probe").is_some() {
        let store = value("--store").map(PathBuf::from);
        println!("{}", runner::setup_probe(&args, store.as_deref()));
        return ExitCode::SUCCESS;
    }

    let outcome = flowbench::run(&args);
    println!(
        "workload {} seed {} seconds {} trace {} host_cores {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        flowbench::host::host_cores(),
        runner::THREADS
    );
    let s = &outcome.section;
    println!(
        "section: {} operations, {} evals, wall {:.3} s, cpu {:.3} s, tail = {}",
        s.latencies_ms.len(),
        s.evals,
        s.wall_s,
        s.cpu_s,
        flowbench::stats::tail(&s.latencies_ms).1
    );
    for (name, value) in &outcome.counters {
        println!("counter {name} = {value}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let line = outcome.result_line(args.trace);
    println!(
        "{} metrics, attempted {}, failed {}",
        line.matches("\"value\"").count(),
        outcome.attempted(),
        outcome.failed()
    );
    println!("{line}");
    ExitCode::SUCCESS
}
