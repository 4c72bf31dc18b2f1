//! Where a run happened and what the process cost: the environment
//! record printed with every report, and process-wide resource readings
//! (`VmHWM`, CPU time, involuntary context switches).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Generator threads or connections the benchmark drives at most.
pub const GENERATOR_THREADS: usize = 2;

/// Facts about the machine and build a reader needs beside the numbers.
pub struct Environment {
    pub nproc: String,
    pub available_parallelism: usize,
    pub work_fs: String,
    pub rustc: String,
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

impl Environment {
    /// Probe the environment; `work` is the directory store files go to.
    pub fn probe(work: &Path) -> Environment {
        let unknown = || "unknown".to_string();
        Environment {
            nproc: command_line("nproc", &[]).unwrap_or_else(unknown),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            work_fs: filesystem_of(work),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            // The driver's checkout is not a git repository.
            git_commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "not a git checkout".to_string()),
        }
    }

    /// The record as report lines, with a loud warning when the load
    /// generators cannot run beside the program under test.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "environment: nproc={} available_parallelism={} work_fs={} generator_threads={} rustc=\"{}\" git={}",
            self.nproc,
            self.available_parallelism,
            self.work_fs,
            GENERATOR_THREADS,
            self.rustc,
            self.git_commit
        )];
        if self.available_parallelism < GENERATOR_THREADS {
            out.push(format!(
                "WARNING: available_parallelism is {} (< {GENERATOR_THREADS}): generator threads, \
                 loader threads and the server share one core, so every throughput and latency \
                 below measures time-slicing. Do not compare these numbers with a 2-core run.",
                self.available_parallelism
            ));
        }
        out
    }
}

/// Peak resident set of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Process-wide CPU time and involuntary context switches, exited
/// threads included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub involuntary_switches: u64,
}

impl Usage {
    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub longs: [i64; 14],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Read the process's resource usage. `/proc/self/status` only reports
/// the main thread's context switches, so this asks `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut ru = sys::Rusage {
        utime: sys::Timeval { sec: 0, usec: 0 },
        stime: sys::Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (see `sys::Rusage`), which is all
    // getrusage(2) requires of its out-pointer; RUSAGE_SELF is 0.
    let rc = unsafe { sys::getrusage(0, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        // ru_nivcsw is the last of the fourteen longs.
        involuntary_switches: ru.longs[13].max(0) as u64,
    }
}

/// Other platforms report no usage (the rows read 0).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// `<checkout>/benchmark/out`: the only directory the benchmark writes
/// to. Found from the working directory so a checkout can be moved
/// after it was built.
pub fn out_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    cwd.ancestors()
        .find(|a| a.join("benchmark/Cargo.toml").is_file())
        .map(|a| a.join("benchmark/out"))
        .ok_or_else(|| {
            format!(
                "{}: not inside a checkout that holds benchmark/Cargo.toml",
                cwd.display()
            )
        })
}

/// Scratch directory of one run, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Create `benchmark/out/work-<pid>` (emptying a stale one).
    pub fn create(out: &Path) -> Result<WorkDir, String> {
        let dir = out.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
