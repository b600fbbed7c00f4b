//! The system under test as a child process, and the TCP client that
//! drives it.
//!
//! Every spawned `blazeit-server` lives inside a [`ServerProcess`] guard
//! whose `Drop` asks for `SHUTDOWN`, waits briefly, then kills and reaps —
//! so no server outlives the harness on success, failed check, panic or
//! timeout. Every socket carries [`OP_TIMEOUT`] read and write timeouts.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest one operation may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// How the TCP workloads start the server.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Path of the `blazeit-server` binary.
    pub bin: PathBuf,
    /// `--frames`.
    pub frames: u64,
    /// `--videos`.
    pub videos: String,
}

/// A running `blazeit-server`, reaped on drop.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    port: u16,
    /// Kept open so the server's closing summary line never hits a closed
    /// pipe; it is two lines in total, far below the pipe buffer.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Spawns the server on an ephemeral port and waits for its
    /// `listening on` banner.
    pub fn spawn(spec: &ServerSpec) -> Result<ServerProcess, String> {
        let mut child = Command::new(&spec.bin)
            .args(["--port", "0", "--frames", &spec.frames.to_string(), "--videos", &spec.videos])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout was not captured")?;
        // The banner read has no timeout of its own: read it on a helper
        // thread and give up (killing the child unblocks the thread) if it
        // does not arrive in time.
        let (sender, receiver) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut banner = String::new();
            let read = stdout.read_line(&mut banner);
            let _ = sender.send((read.map(|_| banner), stdout));
        });
        let outcome = receiver.recv_timeout(OP_TIMEOUT);
        if outcome.is_err() {
            let _ = child.kill();
        }
        let _ = reader.join();
        let mut guard = |message: String| {
            let _ = child.kill();
            let _ = child.wait();
            message
        };
        let (banner, stdout) =
            outcome.map_err(|_| guard("no listening banner within the timeout".to_string()))?;
        let banner = banner.map_err(|e| guard(format!("reading the banner: {e}")))?;
        let port = banner
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.rsplit(':').next())
            .and_then(|port| port.parse().ok())
            .ok_or_else(|| guard(format!("unparseable banner {banner:?}")))?;
        Ok(ServerProcess { child, port, _stdout: stdout })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.port)
    }

    /// The server's peak resident set (`VmHWM`) in MiB, so far.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks for `SHUTDOWN` and waits for a clean exit; the caller must have
    /// closed its own connections first (the server drains them). Returns
    /// whether the process exited with status 0.
    pub fn shutdown(mut self) -> bool {
        self.request_shutdown();
        self.exited_within(OP_TIMEOUT) == Some(true)
    }

    /// Polls for the child's exit for at most `patience`; whether it exited
    /// with status 0, or `None` if it is still running (or unwaitable).
    fn exited_within(&mut self, patience: Duration) -> Option<bool> {
        let deadline = Instant::now() + patience;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status.success()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return None,
            }
        }
    }

    fn request_shutdown(&self) {
        if let Ok(mut client) = Client::connect(self.port) {
            let _ = client.roundtrip("SHUTDOWN");
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if self.exited_within(Duration::ZERO).is_some() {
            return;
        }
        // Polite first (connections the caller still holds keep the server
        // draining, hence the short grace), then kill and reap.
        self.request_shutdown();
        if self.exited_within(Duration::from_millis(200)).is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One closed-loop client connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// Request plus response bytes moved so far, newlines included.
    pub wire_bytes: u64,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let writer = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connecting to 127.0.0.1:{port}: {e}"))?;
        let configure = |stream: &TcpStream| {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(OP_TIMEOUT))?;
            stream.set_write_timeout(Some(OP_TIMEOUT))
        };
        configure(&writer).map_err(|e| format!("configuring the socket: {e}"))?;
        let reader = writer.try_clone().map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Client { writer, reader: BufReader::new(reader), line: String::new(), wire_bytes: 0 })
    }

    /// Sends one command line and returns the one reply line (trimmed).
    /// An error (timeout included) leaves the connection unusable.
    pub fn roundtrip(&mut self, command: &str) -> Result<&str, String> {
        let mut request = String::with_capacity(command.len() + 1);
        request.push_str(command);
        request.push('\n');
        self.writer.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let read = self.reader.read_line(&mut self.line).map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        self.wire_bytes += (request.len() + read) as u64;
        Ok(self.line.trim_end())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The harness's own peak resident set, for the in-process workload.
pub fn own_peak_rss_mib() -> Option<f64> {
    peak_rss_mib("/proc/self/status")
}

/// The calling thread pinned to one CPU — the highest-numbered it may run
/// on — until this is dropped. Threads and processes started meanwhile
/// inherit the pin and keep it, so taken first thing in `main` it puts the
/// harness, the engine's worker pool and every spawned server on that CPU.
///
/// Why a workload wants that: this host places freshly woken threads
/// erratically (two threads started together shared one of two idle vCPUs
/// for hundreds of milliseconds), so anything that fans out over the pool is
/// bimodal from run to run — a cold `FROM *` took 63 or 130 ms — and a
/// process takes a fifth longer to start (the best of 43 starts 2.9–3.1 ms,
/// against 2.4–2.6 ms). On one CPU a fan-out always takes the sum of its
/// parts.
#[derive(Debug)]
pub struct CpuPin {
    /// The CPU everything is pinned to.
    pub cpu: usize,
    allowed: CpuSet,
}

type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

impl CpuPin {
    /// Pins the calling thread; `None` when the kernel refuses.
    pub fn one_cpu() -> Option<CpuPin> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0
        {
            return None;
        }
        let cpu =
            (0..allowed.len() * 64).rev().find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some(CpuPin { cpu, allowed })
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        set_affinity(&self.allowed);
    }
}

/// A scratch directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `benchmark/out/tmp-<pid>-<label>` below `root`, emptying any
    /// stale copy first.
    pub fn create(root: &Path, label: &str) -> Result<TempDir, String> {
        let path = root.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(own_peak_rss_mib().expect("VmHWM present on Linux") > 0.0);
        assert_eq!(peak_rss_mib("/proc/self/no-such-file"), None);
    }

    #[test]
    fn a_cpu_pin_holds_for_threads_started_meanwhile_and_ends_on_drop() {
        let cpus = || std::thread::available_parallelism().map_or(0, usize::from);
        let before = cpus();
        let pin = CpuPin::one_cpu().expect("the kernel lets a thread pin itself");
        assert_eq!(cpus(), 1);
        assert_eq!(std::thread::spawn(cpus).join().expect("joined"), 1, "inherited");
        drop(pin);
        assert_eq!(cpus(), before);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        // Inside the package's ignored `out/`, never outside the checkout.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = {
            let dir = TempDir::create(&root, "unit").expect("create");
            std::fs::write(dir.path().join("artifact"), b"x").expect("write");
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn a_missing_server_binary_is_an_error_not_a_panic() {
        let spec = ServerSpec {
            bin: PathBuf::from("/nonexistent/blazeit-server"),
            frames: 10,
            videos: "taipei".to_string(),
        };
        assert!(ServerProcess::spawn(&spec).unwrap_err().contains("spawning"));
    }
}
