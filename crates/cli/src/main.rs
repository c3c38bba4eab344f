//! `ssr` — the campaign CLI over the `ssr-engine` verification engine.
//!
//! Runs the whole DATE 2009 flow as one batch job: enumerate (core config ×
//! retention policy × property suite) jobs, check them on a worker pool,
//! report verdicts and counterexamples, and drive the retention-set
//! minimisation with the engine as the oracle.
//!
//! ```text
//! ssr campaign --policy all --suite all --jobs 8
//! ssr campaign --policy all --suite all --json report.json   # journals to report.json.partial
//! ssr campaign --policy all --suite all --resume report.json.partial
//! ssr diff     last-good.json report.json                    # exit 1 iff a verdict regressed
//! ssr check    --policy no-imem --suite two
//! ssr minimise --jobs 8
//! ssr stats    --config small --policy architectural
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(command) => commands::run(command),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
