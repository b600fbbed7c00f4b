//! `blazeit-server` — the concurrent FrameQL query server.
//!
//! Serves a shared [`Catalog`] over TCP through the serving layer
//! ([`blazeit::core::serve`]): every connection gets its own
//! [`ServerSession`], identical in-flight queries coalesce onto one
//! computation, completed answers are cached per video data generation, and
//! admission control bounds concurrent load. The wire protocol is
//! line-oriented: one command in per line, one JSON object out per line
//! (documented in `docs/server.md`).
//!
//! ```text
//! blazeit-server [--port N] [--videos a,b,..] [--frames N] [--capacity X]
//! ```
//!
//! Commands: a FrameQL query (anything not listed below), `PING`, `STATS`,
//! `METRICS` (the process-wide registry in Prometheus text exposition format,
//! JSON-escaped onto one line), `SHUTDOWN` (acknowledges, then drains every
//! open connection and exits).
//! On startup the server prints `listening on 127.0.0.1:<port>` to stdout.

// The workspace panic lints, per crate root: opting the root package in would
// also lint its integration tests and examples.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use blazeit::core::sync::{AtomicU64, Mutex, Ordering};
use blazeit::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a JSON number that is valid JSON even for non-finite floats.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One successful query result as a JSON line.
fn render_result(result: &QueryResult) -> String {
    let common = format!(
        "\"simulated_secs\":{},\"wall_secs\":{}",
        json_num(result.runtime_secs()),
        json_num(result.wall_secs)
    );
    match &result.output {
        QueryOutput::Aggregate { value, standard_error, detection_calls, .. }
        | QueryOutput::CatalogAggregate { value, standard_error, detection_calls, .. } => {
            let se = standard_error.map(json_num).unwrap_or_else(|| "null".to_string());
            format!(
                "{{\"ok\":true,\"kind\":\"aggregate\",\"value\":{},\"standard_error\":{se},\
                 \"detection_calls\":{detection_calls},{common}}}",
                json_num(*value)
            )
        }
        QueryOutput::Frames { frames, detection_calls } => {
            let list: Vec<String> = frames.iter().map(|f| f.to_string()).collect();
            format!(
                "{{\"ok\":true,\"kind\":\"frames\",\"frames\":[{}],\
                 \"detection_calls\":{detection_calls},{common}}}",
                list.join(",")
            )
        }
        QueryOutput::CatalogFrames { frames, detection_calls } => {
            let list: Vec<String> = frames
                .iter()
                .map(|f| format!("[\"{}\",{}]", json_escape(&f.video), f.frame))
                .collect();
            format!(
                "{{\"ok\":true,\"kind\":\"frames\",\"sourced_frames\":[{}],\
                 \"detection_calls\":{detection_calls},{common}}}",
                list.join(",")
            )
        }
        QueryOutput::Rows { rows, detection_calls } => format!(
            "{{\"ok\":true,\"kind\":\"rows\",\"count\":{},\
             \"detection_calls\":{detection_calls},{common}}}",
            rows.len()
        ),
        QueryOutput::CatalogRows { rows, detection_calls } => format!(
            "{{\"ok\":true,\"kind\":\"rows\",\"count\":{},\
             \"detection_calls\":{detection_calls},{common}}}",
            rows.len()
        ),
        QueryOutput::Explain { plan } => format!(
            "{{\"ok\":true,\"kind\":\"explain\",\"plan\":\"{}\"}}",
            json_escape(&plan.to_string())
        ),
        QueryOutput::ExplainAnalyze { plan, trace } => format!(
            "{{\"ok\":true,\"kind\":\"explain_analyze\",\"plan\":\"{}\",\"trace\":\"{}\",\
             \"detection_calls\":{},{common}}}",
            json_escape(&plan.to_string()),
            json_escape(&trace.to_string()),
            result.output.detection_calls(),
        ),
    }
}

/// One query error as a JSON line; `kind` is the error variant name.
fn render_error(err: &BlazeItError) -> String {
    let kind = match err {
        BlazeItError::FrameQl(_) => "frameql",
        BlazeItError::Video(_) => "video",
        BlazeItError::Nn(_) => "nn",
        BlazeItError::UnknownVideo { .. } => "unknown_video",
        BlazeItError::Store(_) => "store",
        BlazeItError::Ingest { .. } => "ingest",
        BlazeItError::TaskPanicked { .. } => "task_panicked",
        BlazeItError::Unsupported(_) => "unsupported",
        BlazeItError::Internal(_) => "internal",
    };
    format!("{{\"ok\":false,\"kind\":\"{kind}\",\"error\":\"{}\"}}", json_escape(&err.to_string()))
}

fn render_stats(stats: &ServeStats) -> String {
    format!(
        "{{\"ok\":true,\"kind\":\"stats\",\"hits\":{},\"misses\":{},\"coalesced\":{},\
         \"evicted\":{},\"invalidated\":{},\"queued\":{}}}",
        stats.hits, stats.misses, stats.coalesced, stats.evicted, stats.invalidated, stats.queued
    )
}

/// The metrics registry as one JSON line wrapping the Prometheus text
/// exposition (the line protocol has no multi-line responses, so the
/// exposition travels escaped; clients unescape to get scrape-ready text).
fn render_metrics() -> String {
    format!(
        "{{\"ok\":true,\"kind\":\"metrics\",\"exposition\":\"{}\"}}",
        json_escape(&blazeit::core::obs::prometheus_exposition())
    )
}

/// Shared server state: the serving layer plus the drain flag.
struct Shared {
    server: Server,
    addr: SocketAddr,
    /// 0 = serving, 1 = draining. Flipped by `SHUTDOWN`.
    shutdown: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) != 0
    }

    /// Flips the drain flag and pokes the accept loop awake with a throwaway
    /// connection (accept has no timeout; this is the portable wakeup).
    fn begin_shutdown(&self) {
        self.shutdown.store(1, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
    }
}

/// Serves one client connection until it closes, errors, or asks to shut
/// the server down.
fn serve_client(shared: &Shared, stream: TcpStream) {
    let session = shared.server.session();
    let reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let command = line.trim();
        if command.is_empty() {
            continue;
        }
        let response = match command {
            "PING" => "{\"ok\":true,\"kind\":\"pong\"}".to_string(),
            "STATS" => render_stats(&shared.server.stats()),
            "METRICS" => render_metrics(),
            "SHUTDOWN" => "{\"ok\":true,\"kind\":\"shutdown\"}".to_string(),
            // A cache hit is rendered straight from the shared answer.
            sql => match session.query_shared(sql) {
                Ok(result) => render_result(&result),
                Err(err) => render_error(&err),
            },
        };
        if writeln!(writer, "{response}").and_then(|()| writer.flush()).is_err() {
            break;
        }
        if command == "SHUTDOWN" {
            shared.begin_shutdown();
            break;
        }
    }
}

/// Parsed command line.
struct Args {
    port: u16,
    videos: Vec<DatasetPreset>,
    frames_per_day: u64,
    capacity: f64,
}

fn parse_preset(name: &str) -> Option<DatasetPreset> {
    let normalized = name.trim().to_lowercase().replace(['-', '_'], "");
    DatasetPreset::ALL
        .into_iter()
        .find(|p| p.name().to_lowercase().replace(['-', '_'], "") == normalized)
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { port: 0, videos: vec![DatasetPreset::Taipei], frames_per_day: 900, capacity: 64.0 };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--port" => {
                let v = value("--port")?;
                args.port = v.parse().map_err(|_| format!("bad --port {v:?}"))?;
            }
            "--frames" => {
                let v = value("--frames")?;
                args.frames_per_day = v.parse().map_err(|_| format!("bad --frames {v:?}"))?;
            }
            "--capacity" => {
                let v = value("--capacity")?;
                args.capacity = v.parse().map_err(|_| format!("bad --capacity {v:?}"))?;
            }
            "--videos" => {
                let v = value("--videos")?;
                args.videos = v
                    .split(',')
                    .map(|name| {
                        parse_preset(name).ok_or_else(|| format!("unknown preset {name:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.videos.is_empty() {
                    return Err("--videos needs at least one preset".to_string());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let catalog = Catalog::new();
    for preset in &args.videos {
        catalog
            .register_preset(*preset, args.frames_per_day)
            .map_err(|e| format!("registering {}: {e}", preset.name()))?;
    }
    let config = ServeConfig { admission_capacity: args.capacity, ..ServeConfig::default() };
    let server = Server::with_config(Arc::new(catalog), config);

    let listener = TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("binding 127.0.0.1:{}: {e}", args.port))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();

    let shared = Arc::new(Shared { server, addr, shutdown: AtomicU64::new(0) });
    let clients: Mutex<Vec<thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        clients.lock().push(thread::spawn(move || serve_client(&shared, stream)));
    }
    // Drain: every accepted client finishes (or hits its own I/O error)
    // before the process exits.
    for handle in clients.into_inner() {
        let _ = handle.join();
    }
    let stats = shared.server.stats();
    println!(
        "shutdown: hits={} misses={} coalesced={} evicted={} invalidated={}",
        stats.hits, stats.misses, stats.coalesced, stats.evicted, stats.invalidated
    );
    Ok(())
}

/// Pins glibc's mmap threshold at its default, 128 KiB.
///
/// Left alone, glibc raises the threshold each time a large mapped block is
/// freed; from then on large transient buffers (a selection's feature matrix,
/// a training batch) are carved from the heap, whose freed space is kept and
/// fragments differently with every interleaving of the connection and pool
/// threads. The server's peak memory then differed by ~2.5 MiB between two runs
/// of one workload. Pinned, every block of 128 KiB or more is mapped when
/// allocated and returned to the system when freed, so the peak follows what
/// is live.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    /// `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets a parameter of the process's allocator, which
    // glibc guards with its own lock; it touches no memory of ours.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    if let Err(message) = run() {
        eprintln!("blazeit-server: {message}");
        std::process::exit(2);
    }
}
