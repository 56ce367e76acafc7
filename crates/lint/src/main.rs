//! The `oocts-lint` binary: scan the workspace, print diagnostics, exit
//! nonzero on violations.
//!
//! ```text
//! oocts-lint [--root PATH] [--json] [--rules L001,L004] [--list]
//!            [--verbose] [--emit-callgraph]
//! ```
//!
//! Exit codes: 0 — clean, 1 — violations found, 2 — usage or I/O error.

use std::env;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

use oocts_lint::callgraph::CallGraph;
use oocts_lint::diagnostics::{render_human, render_json};
use oocts_lint::workspace::Workspace;
use oocts_lint::{analyze, rules};

const USAGE: &str = "usage: oocts-lint [--root PATH] [--json] [--rules L001,L002,...] [--list]
                  [--verbose] [--emit-callgraph]

  --root PATH       workspace root (default: nearest ancestor with a workspace manifest)
  --json            machine-readable output (schema oocts-lint/v1)
  --rules LIST      comma-separated subset of rules to run
  --list            print the rule set and exit
  --verbose         print a call-graph summary and unresolved calls on stderr
  --emit-callgraph  print the workspace call graph as Graphviz DOT and exit
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut verbose = false;
    let mut emit_callgraph = false;
    let mut only: Vec<String> = Vec::new();
    let args: Result<Vec<String>, OsString> =
        env::args_os().skip(1).map(OsString::into_string).collect();
    let mut args = match args {
        Ok(args) => args.into_iter(),
        Err(raw) => {
            let raw = raw.to_string_lossy();
            return usage_error(&format!("argument {raw:?} is not valid UTF-8"));
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--json" => json = true,
            "--verbose" => verbose = true,
            "--emit-callgraph" => emit_callgraph = true,
            "--rules" => match args.next() {
                Some(list) => {
                    only.extend(list.split(',').map(|r| r.trim().to_uppercase()));
                }
                None => return usage_error("--rules needs a comma-separated list"),
            },
            "--list" => {
                for rule in rules::all_rules() {
                    println!("{}  {}", rule.id(), rule.describe());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("oocts-lint: no workspace manifest found above the current directory");
            return ExitCode::from(2);
        }
    };

    if emit_callgraph {
        return match Workspace::load(&root) {
            Ok(ws) => {
                let graph = CallGraph::build(&ws);
                if verbose {
                    graph_summary(&graph);
                }
                print!("{}", graph.to_dot());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("oocts-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match analyze(&root, &only) {
        Ok(report) => {
            if verbose {
                graph_summary(&report.graph);
            }
            if json {
                println!("{}", render_json(&report.diagnostics));
            } else {
                print!("{}", render_human(&report.diagnostics));
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("oocts-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// The `--verbose` stderr report: graph size plus every call the nominal
/// resolver could not pin to a workspace function.
fn graph_summary(graph: &CallGraph) {
    eprintln!(
        "callgraph: {} fns, {} edges, {} unresolved",
        graph.fns.len(),
        graph.edges.len(),
        graph.unresolved.len()
    );
    for u in &graph.unresolved {
        eprintln!("  unresolved {}:{}: {}", u.file, u.line, u.text);
    }
}

/// The nearest ancestor of the current directory whose `Cargo.toml`
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(toml) = std::fs::read_to_string(&manifest) {
                if toml.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("oocts-lint: {message}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
