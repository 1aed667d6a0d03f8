//! CI gate for bench artifacts.
//!
//! ```text
//! check_bench schema    <file>                        # the document's own gates
//! check_bench compare   <fresh> <baseline>            # plus the baseline gates
//! check_bench attribute <current> <baseline> [top_k]  # name regressed frames
//! ```
//!
//! Every document has the one shape of [`mandipass_bench::gate`]:
//! `metrics` plus declared `gates`. `schema` checks the shape and every
//! gate a document can judge alone (absolute, same-run ratio, bool, and
//! the presence of every gated metric). `compare` also checks the fresh
//! document against the baseline's `ratio_vs_baseline` and `digest`
//! gates, taking every bound from the committed baseline, and requires
//! both to declare the same gate list. When it fails and both documents
//! embed a `"profile"` summary, the report appends the top regressed
//! frames.
//!
//! `attribute` diffs the embedded profile summaries directly and names
//! the `top_k` (default 5) frames whose per-call self-time growth added
//! the most self time — the "which stage regressed" answer a p99 ratio
//! alone cannot give. Exit status 0 = pass, 1 = fail, 2 = usage error.

use std::process::ExitCode;

use mandipass_bench::gate;
use mandipass_bench::profile::{attribute_profiles, render_attribution};
use mandipass_util::json::{parse, Value};

const USAGE: &str = "usage: check_bench schema <file> | compare <fresh> <baseline> \
                     | attribute <current> <baseline> [top_k]";

/// Why a run did not pass.
enum Failure {
    /// The command line was wrong (exit 2).
    Usage(String),
    /// A document failed to load or failed a gate (exit 1).
    Check(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Check(message)
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// The operands of a subcommand: exactly `required` paths, then up to
/// `optional` more arguments.
fn operands(args: &[String], required: usize, optional: usize) -> Result<&[String], Failure> {
    let operands = &args[1..];
    if operands.len() < required || operands.len() > required + optional {
        return Err(Failure::Usage(USAGE.to_string()));
    }
    Ok(operands)
}

fn run(args: &[String]) -> Result<String, Failure> {
    match args.first().map(String::as_str) {
        Some("schema") => {
            let path = &operands(args, 1, 0)?[0];
            gate::check(&load(path)?).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("{path}: schema ok"))
        }
        Some("compare") => {
            let paths = operands(args, 2, 0)?;
            let (fresh_path, base_path) = (&paths[0], &paths[1]);
            let fresh = load(fresh_path)?;
            let baseline = load(base_path)?;
            gate::compare(&fresh, &baseline).map_err(|failure| {
                match attribute_profiles(&fresh, &baseline, 5) {
                    Ok(regressions) => format!("{failure}\n{}", render_attribution(&regressions)),
                    Err(_) => failure,
                }
            })?;
            Ok(format!("{fresh_path} passes every gate of {base_path}"))
        }
        Some("attribute") => {
            let operands = operands(args, 2, 1)?;
            let top_k = match operands.get(2) {
                None => 5,
                Some(raw) => raw
                    .parse::<usize>()
                    .ok()
                    .filter(|k| *k > 0)
                    .ok_or_else(|| {
                        Failure::Usage(format!("top_k \"{raw}\" is not a positive integer"))
                    })?,
            };
            let current = load(&operands[0])?;
            let baseline = load(&operands[1])?;
            Ok(render_attribution(&attribute_profiles(
                &current, &baseline, top_k,
            )?))
        }
        _ => Err(Failure::Usage(USAGE.to_string())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(Failure::Check(message)) => {
            eprintln!("check_bench: {message}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(message)) => {
            eprintln!("check_bench: {message}");
            ExitCode::from(2)
        }
    }
}
