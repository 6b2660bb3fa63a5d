//! Process accounting from `/proc`, the scratch directory, and timers.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// User plus system CPU seconds consumed so far by every thread of
/// process `pid`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("{path}: no field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Run `f` and return its value with the peak resident set, in MiB,
/// reached while it ran: `VmHWM` is first set back to the current
/// resident set (`/proc/self/clear_refs`, Linux 4.0 and later).
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> Result<(T, f64), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    let out = f();
    Ok((out, peak_rss_mib(std::process::id())?))
}

/// Bytes of the files under `dir`, in MiB; unreadable entries count 0.
pub fn dir_mib(dir: &Path) -> f64 {
    fn bytes(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    bytes(dir) as f64 / (1024.0 * 1024.0)
}

/// Mark `dir` as the top of a directory hierarchy (`chattr +T`), so that
/// ext4 places each directory made in it in a block group of its own
/// rather than next to `dir`. Without a journal, ext4 passes over every
/// inode freed in the last minute when it allocates one in a group, so a
/// run that creates and deletes thousands of files makes file creation
/// in that group slower for the next minute; with the flag, one run's
/// scratch files do not slow the next run's. Best effort: file systems
/// without the flag refuse it, harmlessly.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn spread_subdirs(dir: &Path) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
    }
    const FS_IOC_GETFLAGS: c_ulong = 0x8008_6601;
    const FS_IOC_SETFLAGS: c_ulong = 0x4008_6602;
    const FS_TOPDIR_FL: c_int = 0x0002_0000;
    let Ok(f) = std::fs::File::open(dir) else { return };
    let mut flags: c_int = 0;
    // SAFETY: both requests read or write one `int` through the pointer,
    // which is valid for the duration of the call.
    unsafe {
        if ioctl(f.as_raw_fd(), FS_IOC_GETFLAGS, &mut flags as *mut c_int) == 0
            && flags & FS_TOPDIR_FL == 0
        {
            flags |= FS_TOPDIR_FL;
            ioctl(f.as_raw_fd(), FS_IOC_SETFLAGS, &flags as *const c_int);
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn spread_subdirs(_dir: &Path) {}

/// A per-run scratch directory under the working directory, removed
/// (with its parent, when that is left empty) on drop.
pub struct WorkDir {
    path: PathBuf,
}

/// Parent of every scratch directory; listed in the root `.gitignore`.
const WORK_ROOT: &str = ".layerbench";

impl WorkDir {
    pub fn create(label: &str) -> Result<WorkDir, String> {
        std::fs::create_dir_all(WORK_ROOT)
            .map_err(|e| format!("cannot create {WORK_ROOT}: {e}"))?;
        spread_subdirs(Path::new(WORK_ROOT));
        let path = Path::new(WORK_ROOT).join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn file(&self, name: &str) -> String {
        self.path.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(WORK_ROOT); // fails, harmlessly, unless empty
    }
}

/// Run `f` once and return its value with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median elapsed seconds of `reps` calls of `f` — for layers that take
/// milliseconds, where one call is too short to time steadily.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
