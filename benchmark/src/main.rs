//! The repo's one performance ledger.
//!
//! ```text
//! blazeit-benchmark --server-bin PATH [--workload NAME] [--seed N]
//!                   [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Runs the workloads of `BENCHMARK.json` against the real
//! `blazeit-server` over TCP wherever the wire protocol allows, prints
//! every metric by name with its unit, verifies outputs, and exits non-zero
//! on a failed check. `--trace 0` (the default) measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! produces the per-layer metrics. Without `--workload` every workload is
//! run, first untraced, then traced. The last line printed for a run is
//! the JSON result object the driver reads. See `README.md`.

mod check;
mod inproc;
mod json;
mod layers;
mod proc;
mod queries;
mod spans;
mod stats;
mod stream;
mod tcp;
mod traced;
mod workloads;

use check::Outcome;
use proc::ServerSpec;
use std::path::PathBuf;
use workloads::{Params, WORKLOADS};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// The run length used when none is given (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    server_bin: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server_bin: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server-bin" => args.server_bin = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v} is outside 0..=60"));
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}, expected 0 or 1")),
                });
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.server_bin.as_os_str().is_empty() {
        return Err("--server-bin is required (benchmark/run.sh passes it)".to_string());
    }
    if !args.server_bin.is_file() {
        return Err(format!("--server-bin {} is not a file", args.server_bin.display()));
    }
    Ok(args)
}

fn run_one(workload: &str, traced: bool, p: &Params) -> Result<Outcome, String> {
    match (workload, traced) {
        ("cold_first_query", false) => workloads::cold_first_query(p),
        ("warm_cache_hits", false) => workloads::warm_cache_hits(p),
        ("warm_index_recompute", false) => workloads::warm_index_recompute(p),
        ("stream_ingest_ticks", false) => stream::stream_ingest_ticks(p),
        (_, true) => traced::run(workload, p),
        _ => Err(format!("unknown workload {workload:?}")),
    }
}

/// Writes a run's raw sample series to `<out>/samples-<workload>.json`.
fn write_samples(workload: &str, p: &Params, outcome: &Outcome) -> Result<(), String> {
    if outcome.samples.is_empty() {
        return Ok(());
    }
    let series = outcome.samples.iter().map(|(name, values)| {
        (name.as_str(), json::array(values.iter().map(|v| json::number(*v))))
    });
    let rendered = json::object([
        ("workload", json::string(workload)),
        ("seed", p.seed.to_string()),
        ("series", json::object(series)),
    ]);
    std::fs::create_dir_all(&p.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(p.out_dir.join(format!("samples-{workload}.json")), rendered)
        .map_err(|e| e.to_string())
}

/// Prints one run: notes and metrics by name with units, failures, and the
/// result line last. `--quick` prints the checks but no numbers.
fn report(workload: &str, traced: bool, quick: bool, mut outcome: Outcome) -> i32 {
    let kind = if traced { "per-layer (traced run)" } else { "end-to-end (tracing off)" };
    println!("== {workload}: {kind}");
    if quick {
        outcome.metrics.clear();
        println!("  --quick: output checks only, no numbers");
    } else {
        for note in &outcome.notes {
            println!("  # {note}");
        }
        for metric in &outcome.metrics {
            println!("  {:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
        }
    }
    let checker = &outcome.checker;
    println!(
        "  checks: {} operations attempted, {} failed, {} whole-run checks failed",
        checker.attempted,
        checker.failed,
        checker.run_failures.len()
    );
    for message in checker.messages.iter().chain(&checker.run_failures) {
        println!("  FAILED: {message}");
    }
    println!("{}", outcome.result_line());
    outcome.exit_code()
}

/// Several runs: each in a process of its own, the way the driver runs
/// them, so that no run inherits another's pinned threads or peak memory.
fn run_each_in_its_own_process(args: &Args, runs: &[(&str, bool)]) -> i32 {
    let mut exit_code = 0;
    for (workload, traced) in runs {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .arg("--server-bin")
                .arg(&args.server_bin)
                .args(["--workload", workload, "--trace", if *traced { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .args(args.quick.then_some("--quick"))
                .status()
        });
        match status {
            Ok(status) if status.success() => {}
            Ok(_) => exit_code = 1,
            Err(error) => {
                eprintln!("blazeit-benchmark: {workload}: {error}");
                exit_code = 1;
            }
        }
    }
    exit_code
}

/// The workloads of short videos ([`queries::SHORT_FRAMES`]) whose untraced
/// runs pin everything to one CPU (see [`proc::CpuPin`]): the two whose
/// timed operations train networks and fan out over the engine's worker
/// pool. The two `warm_*` workloads keep both CPUs for their two
/// connections; traced runs measure the pool's parallelism and stay free.
const SHORT_AND_PINNED: [&str; 2] = ["cold_first_query", "stream_ingest_ticks"];

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("blazeit-benchmark: {message}");
            std::process::exit(2);
        }
    };
    let (workload, traced) = match (&args.workload, args.trace) {
        (Some(workload), trace) => (workload.as_str(), trace.unwrap_or(false)),
        (None, trace) => {
            let traces = match trace {
                Some(trace) => vec![trace],
                None if args.quick => vec![false],
                None => vec![false, true],
            };
            let runs: Vec<(&str, bool)> =
                traces.into_iter().flat_map(|t| WORKLOADS.iter().map(move |w| (*w, t))).collect();
            std::process::exit(run_each_in_its_own_process(&args, &runs));
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let short = SHORT_AND_PINNED.contains(&workload);
    // Before the first thread is started, so that every thread inherits it;
    // held until the process exits.
    let pin = if short && !traced { proc::CpuPin::one_cpu() } else { None };
    let params = Params {
        seed: args.seed,
        seconds: if args.quick { 0.4 } else { args.seconds },
        quick: args.quick,
        server: ServerSpec {
            bin: args.server_bin,
            frames: if short { queries::SHORT_FRAMES } else { 4000 },
            videos: queries::VIDEOS.map(|video| video.name()).join(","),
        },
        out_dir: PathBuf::from("benchmark/out"),
        connections: nproc.min(2),
    };
    println!(
        "blazeit-benchmark: seed {}, {} s per run, {} frames per video, nproc {nproc}, \
         {} closed-loop load-generating threads and connections (never more than nproc), {}",
        params.seed,
        params.seconds,
        params.frames(),
        if short { 1 } else { params.connections },
        pin.as_ref().map_or("no CPU pinned".to_string(), |pin| format!(
            "everything pinned to CPU {}",
            pin.cpu
        )),
    );
    let exit_code = match run_one(workload, traced, &params) {
        Ok(outcome) => {
            let written = write_samples(workload, &params, &outcome);
            if let Err(message) = &written {
                eprintln!("blazeit-benchmark: {workload}: samples not written: {message}");
            }
            report(workload, traced, args.quick, outcome) | i32::from(written.is_err())
        }
        Err(message) => {
            eprintln!("blazeit-benchmark: {workload}: {message}");
            1
        }
    };
    std::process::exit(exit_code);
}

#[cfg(test)]
mod tests {
    use crate::traced::PER_LAYER;
    use crate::workloads::{END_TO_END, WORKLOADS};

    /// `BENCHMARK.json` at the repo root is what the driver reads; the
    /// tables in the code are what the harness prints. They must agree,
    /// name for name, unit for unit, in order.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json sits beside benchmark/")
            .split_whitespace()
            .collect();
        let listed = |key: &str| -> Vec<String> {
            let from = manifest.find(&format!("\"{key}\":[")).expect(key);
            let section = &manifest[from..];
            let section = &section[..section.find(']').expect("closing bracket")];
            section
                .split("{\"name\":\"")
                .skip(1)
                .map(|entry| format!("{{\"name\":\"{entry}"))
                .collect()
        };
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, name) in workloads.iter().zip(WORKLOADS) {
            assert!(entry.starts_with(&format!("{{\"name\":\"{name}\",\"why\":\"")), "{entry}");
        }
        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better)) in end_to_end.iter().zip(END_TO_END) {
            let expected = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":"
            );
            assert!(entry.starts_with(&expected), "{entry} vs {expected}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            let expected =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(entry.starts_with(&expected), "{entry} vs {expected}");
        }
        assert!(manifest.contains("\"command\":[\"bash\",\"benchmark/run.sh\"]"));
        assert!(manifest.contains("\"paths\":[\"benchmark\"]"));
    }
}
