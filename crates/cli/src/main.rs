//! `cote` — command-line driver for the COTE reproduction.
//!
//! ```text
//! cote workloads                      list workload names
//! cote show <workload> [N]            pseudo-SQL of a workload('s Nth query)
//! cote estimate <workload> [N]        COTE estimates (quick self-calibration)
//! cote estimate [workload] --sql <SQL|->    estimate one SQL statement
//! cote memo <workload> N              estimator MEMO property lists
//! cote compile <workload> [N]         compile for real; stats + chosen plan
//! cote forecast <workload>            §1.1 workload compilation forecast
//! cote mop <workload> <secs-per-unit> Figure 1 meta-optimizer decisions
//! cote calibrate [workload] [--online] fit the time model; drifted replay
//! cote metrics <workload> [N]         estimate + global metrics registry dump
//! cote serve <workload> [--listen ADDR]     estimation daemon (stdin + TCP/HTTP)
//! cote gateway --backend ADDR [..]    consistent-hash front over serve daemons
//! cote chaos --seed N --scenario S    deterministic fault-injection harness
//! cote bench-par [--tables N] [--threads A,B] parallel-enumeration speedup bench
//! cote bench-all [--json]             phase times, plans/sec, cache hit-rate
//! ```

mod chaos;
mod commands;
mod gateway;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("workloads") => commands::workloads(),
        Some("show") => commands::show(&args[1..]),
        Some("estimate") => commands::estimate(&args[1..]),
        Some("memo") => commands::memo(&args[1..]),
        Some("compile") => commands::compile(&args[1..]),
        Some("forecast") => commands::forecast(&args[1..]),
        Some("mop") => commands::mop(&args[1..]),
        Some("calibrate") => commands::calibrate(&args[1..]),
        Some("metrics") => commands::metrics(&args[1..]),
        Some("serve") => serve::serve(&args[1..]),
        Some("gateway") => gateway::run(&args[1..]),
        Some("chaos") => chaos::run(&args[1..]),
        Some("bench-par") => commands::bench_par(&args[1..]),
        Some("bench-all") => commands::bench_all(&args[1..]),
        Some("help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
