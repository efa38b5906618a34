//! `cote` — command-line driver for the COTE reproduction; `commands::USAGE`
//! lists the commands.

mod chaos;
mod commands;
mod gateway;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    // Restore the default SIGPIPE action, which the Rust runtime ignores, so
    // a closed stdout (`cote memo linear-s 15 | head -1`) ends the process
    // quietly, as it ends any Unix filter, instead of panicking in
    // `println!`. Sockets are unaffected: std sends on TCP and Unix
    // sockets with MSG_NOSIGNAL, so a closed peer is an `EPIPE` error.
    #[cfg(unix)]
    // SAFETY: sets one signal's disposition to SIG_DFL; no handler runs.
    unsafe {
        extern "C" {
            fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
        }
        signal(13 /* SIGPIPE */, 0 /* SIG_DFL */);
    }
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
