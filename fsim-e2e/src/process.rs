//! Building `fsim` and running it as a measured child process.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Cargo's build directory for the checkout in the current directory.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `fsim` binary from the checkout in the current
/// directory and returns its path. Cargo's output goes to stderr.
pub fn build_fsim() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cfs-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fsim failed ({status})"));
    }
    let fsim = target_dir().join("release").join("fsim");
    if !fsim.is_file() {
        return Err(format!("{} missing after the build", fsim.display()));
    }
    Ok(fsim)
}

/// Resource use of one finished child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn to reap.
    pub wall_s: f64,
    /// User plus system CPU time.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` (every field after the two timevals is a `long`).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `program args…` to completion with stdout discarded and stderr
/// written to `stderr_to`, and measures it. The child is reaped with
/// `wait4`, which reports that child's own CPU time and peak RSS.
pub fn run_measured(program: &Path, args: &[String], stderr_to: &Path) -> Result<Usage, String> {
    let stderr = File::create(stderr_to).map_err(|e| format!("{}: {e}", stderr_to.display()))?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_owned())?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let reaped = loop {
        // SAFETY: `pid` is our unreaped child; both out-pointers are live.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    // The child is reaped here; `child` must not be waited on again.
    drop(child);
    if reaped != pid {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
    })
}

/// First line of a command's stdout, or `unknown`.
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}
