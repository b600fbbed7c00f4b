//! `blazeit-lint` — the CLI over [`blazeit_lint`].
//!
//! ```text
//! blazeit-lint [--root <dir>] [--json] [--deny-warnings] [PATH…]
//! ```
//!
//! With no `PATH` arguments, analyzes the standard workspace targets under
//! `--root` (default: the current directory). Explicit `PATH` arguments —
//! files or directories — are analyzed instead (used by the CI canary to prove
//! the gate fails on a seeded violation).
//!
//! Exit status: `0` when clean (or when only reporting without
//! `--deny-warnings`), `1` on unsuppressed diagnostics under
//! `--deny-warnings`, `2` on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use blazeit_lint::diag::Diagnostic;

fn main() -> ExitCode {
    let mut json = false;
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root requires a directory argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: blazeit-lint [--root <dir>] [--json] [--deny-warnings] [PATH…]\n\n\
                     Checks: fault-coverage, clock-accounting.\n\
                     Suppress with `// blazeit-lint: allow(<check>) -- <reason>`."
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(&format!("unknown flag `{arg}`")),
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let result = if paths.is_empty() {
        blazeit_lint::analyze_workspace(&root)
    } else {
        analyze_paths(&paths)
    };
    let diags = match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("blazeit-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let objects: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
        println!("[{}]", objects.join(","));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        eprintln!(
            "blazeit-lint: {} diagnostic{} ({} files analyzed from {})",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            analyzed_file_count(&paths, &root),
            if paths.is_empty() { root.display().to_string() } else { "explicit paths".into() },
        );
    }
    if deny && !diags.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("blazeit-lint: {msg}\nusage: blazeit-lint [--root <dir>] [--json] [--deny-warnings] [PATH…]");
    ExitCode::from(2)
}

fn analyze_paths(paths: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut inputs = Vec::new();
    for p in paths {
        if p.is_dir() {
            for file in blazeit_lint::collect_rs_files(p)? {
                inputs.push(read_input(&file)?);
            }
        } else {
            inputs.push(read_input(p)?);
        }
    }
    Ok(blazeit_lint::analyze(&inputs))
}

fn read_input(path: &std::path::Path) -> std::io::Result<blazeit_lint::Input> {
    Ok(blazeit_lint::Input {
        crate_name: "adhoc".to_string(),
        path: path.to_string_lossy().replace(std::path::MAIN_SEPARATOR, "/"),
        source: std::fs::read_to_string(path)?,
    })
}

fn analyzed_file_count(paths: &[PathBuf], root: &std::path::Path) -> usize {
    let count_dir =
        |d: &std::path::Path| blazeit_lint::collect_rs_files(d).map(|f| f.len()).unwrap_or(0);
    if paths.is_empty() {
        blazeit_lint::TARGETS.iter().map(|(_, rel)| count_dir(&root.join(rel))).sum()
    } else {
        paths.iter().map(|p| if p.is_dir() { count_dir(p) } else { 1 }).sum()
    }
}
