//! Child processes: fresh `structmine-serve` starts timed to their first
//! healthy probe, graceful stops, and peak-memory readings.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client;

/// How long a server may take from spawn to its first healthy probe.
const START_DEADLINE: Duration = Duration::from_secs(60);
/// How long a stopping server may take to drain and exit.
const STOP_DEADLINE: Duration = Duration::from_secs(30);

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

fn signal(child: &Child, sig: i32) {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    // SAFETY: `kill` only reads its two integer arguments. `child` has not
    // been waited for, so its pid still names our own child.
    unsafe {
        kill(pid, sig);
    }
}

/// Build a command for one of the program's binaries with a clean
/// `STRUCTMINE_*` environment: nothing inherited, only `env`. The child is
/// killed if the benchmark dies first, so no process outlives a run.
pub fn command(bin: &Path, args: &[&str], env: &[(String, String)]) -> Command {
    use std::os::unix::process::CommandExt;
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // SAFETY: the hook runs in the forked child before exec and only makes
    // one async-signal-safe system call on integer arguments.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL as std::ffi::c_ulong);
            Ok(())
        });
    }
    for (k, _) in std::env::vars() {
        if k.starts_with("STRUCTMINE_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    cmd
}

/// Parse a `/proc/<pid>/status` field given in kB (`VmHWM:   1234 kB`).
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// Steal and total jiffies from the `cpu` line of `/proc/stat`.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// A reading of the host's CPU steal counters.
pub fn steal_now() -> Option<(u64, u64)> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The share of CPU time the hypervisor gave to other guests between two
/// readings, in percent.
pub fn steal_pct(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (a?, b?);
    crate::stats::ratio(100.0 * (s1 - s0) as f64, (t1 - t0) as f64)
}

/// A `/proc/<pid>/status` field in MB (1 MB = 1024 kB).
pub fn proc_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kb(&status, field).map(|kb| kb as f64 / 1024.0)
}

/// A running `structmine-serve`.
pub struct Server {
    child: Child,
    /// Kept open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first `GET /healthz` 200, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawn the server and wait until `/healthz` answers 200.
    pub fn start(mut cmd: Command) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn structmine-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on a failure must not leave the child running.
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server stdout: {e}"))?;
            if n == 0 {
                return Err("structmine-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                break;
            }
        }
        loop {
            match client::request(server.addr, "GET", "/healthz", "") {
                Ok(r) if r.status == 200 => break,
                Ok(r) if r.status == 503 => {
                    return Err(format!("server unusable: {}", r.body.trim()));
                }
                _ if started.elapsed() > START_DEADLINE => {
                    return Err("server never became healthy".into());
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory so far (VmHWM), in MB.
    pub fn peak_mb(&self) -> Option<f64> {
        proc_mb(self.pid(), "VmHWM")
    }

    /// Graceful stop: SIGTERM, then wait for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        signal(&self.child, SIGTERM);
        let deadline = Instant::now() + STOP_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("structmine-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("structmine-serve did not drain in time".into()),
                Err(e) => return Err(format!("wait for structmine-serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A stopped server has been reaped and this is a no-op; any other
        // path (an error mid-run) must not leave the process behind.
        if let Ok(None) = self.child.try_wait() {
            signal(&self.child, SIGKILL);
            let _ = self.child.wait();
        }
    }
}

/// What a finished batch process left behind.
pub struct Finished {
    pub stdout: Vec<u8>,
    pub success: bool,
    pub wall_s: f64,
    /// Peak resident memory over the process's life, in MB.
    pub peak_mb: f64,
}

/// Run a process to completion, capturing stdout and its peak RSS.
pub fn run_to_end(mut cmd: Command) -> Result<Finished, String> {
    use std::io::Read;
    let started = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // `wait4` expects on 64-bit Linux; `pid` is our own unreaped child, and
    // `child` is not waited for again after this call.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    read.map_err(|e| format!("read child stdout: {e}"))?;
    if rc != pid {
        return Err(format!("wait4({pid}) returned {rc}"));
    }
    Ok(Finished {
        stdout,
        // Exited normally (low 7 bits zero) with code 0.
        success: status == 0,
        wall_s,
        peak_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_and_rss() {
        let status = "Name:\tstructmine-serve\nVmPeak:\t  912340 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\nThreads:\t5\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(status_kb(status, "VmRSS"), Some(40960));
        assert_eq!(status_kb(status, "VmSwap"), None);
        assert_eq!(status_kb(status, "Threads"), None);
        // A field name that only prefixes another must not match.
        assert_eq!(status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn parses_steal_from_proc_stat() {
        let stat = "cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 50 2 25 400 5 0 1 16 0 0\n";
        assert_eq!(parse_steal(stat), Some((32, 1000)));
        assert_eq!(parse_steal("cpu0 1 2\n"), None);
        let pct = steal_pct(Some((32, 1000)), Some((42, 1100))).unwrap();
        assert!((pct - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reads_own_peak_memory() {
        let hwm = proc_mb(std::process::id(), "VmHWM").expect("own status");
        let rss = proc_mb(std::process::id(), "VmRSS").expect("own status");
        assert!(hwm >= rss && rss > 0.0);
    }

    #[test]
    fn run_to_end_reports_exit_and_peak() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo hi; exit 3"]);
        let f = run_to_end(cmd).expect("sh runs");
        assert_eq!(f.stdout, b"hi\n");
        assert!(!f.success);
        assert!(f.peak_mb > 0.0);
    }
}
