//! Process and per-thread CPU, memory and write traffic, read from outside
//! the program: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`,
//! `/proc/self/task/*/stat`, `/proc/self/status` and `/proc/self/io`.
//!
//! The CPU ledger splits a phase's process CPU by thread role, using the
//! names the runtime gives its threads (`stateflow-coordinator`,
//! `stateflow-worker<N>`; the kernel keeps the first 15 bytes). The driver is
//! the benchmark's main thread. Whatever the live threads do not account for
//! (threads that exited inside the phase, tick rounding of per-thread times)
//! is reported as the residual, never dropped.

use std::collections::HashMap;

/// Process user+sys CPU time in nanoseconds (all threads, live and exited).
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target; the call only writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Which part of the system a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The StateFlow coordinator thread.
    Coordinator,
    /// A StateFlow worker thread (or its exec-pool threads).
    Worker,
    /// The benchmark's driver (the process's main thread).
    Driver,
    /// Any other live thread.
    Other,
}

/// Classifies a thread by its kernel name (`comm`, at most 15 bytes) and id.
pub fn role_of(tid: u32, comm: &str) -> Role {
    if tid == std::process::id() {
        Role::Driver
    } else if comm.starts_with("stateflow-coord") {
        Role::Coordinator
    } else if comm.starts_with("stateflow-work") {
        Role::Worker
    } else {
        Role::Other
    }
}

/// CPU of every live thread, plus the process total, at one instant.
#[derive(Debug, Clone)]
pub struct CpuSnapshot {
    process_ns: u64,
    threads: HashMap<u32, (Role, u64)>,
}

fn ticks_to_ns(ticks: u64) -> u64 {
    // USER_HZ is 100 on every Linux ABI the workspace targets.
    ticks * 10_000_000
}

/// Parses `utime + stime` (clock ticks) and the name out of one
/// `/proc/<pid>/task/<tid>/stat` line. The name is parenthesised and may
/// itself contain spaces or parentheses, so fields are counted after the
/// last `)`.
pub fn parse_task_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_owned();
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

impl CpuSnapshot {
    /// Reads the process clock and every thread's `stat`.
    pub fn take() -> CpuSnapshot {
        let mut threads = HashMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry
                    .file_name()
                    .to_str()
                    .and_then(|s| s.parse::<u32>().ok())
                else {
                    continue;
                };
                let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
                    continue;
                };
                if let Some((comm, ticks)) = parse_task_stat(&line) {
                    threads.insert(tid, (role_of(tid, &comm), ticks_to_ns(ticks)));
                }
            }
        }
        CpuSnapshot {
            process_ns: process_cpu_ns(),
            threads,
        }
    }
}

/// CPU spent between two snapshots, split by thread role. All in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Process user+sys CPU.
    pub process_ns: u64,
    /// Coordinator thread.
    pub coordinator_ns: u64,
    /// Worker threads.
    pub worker_ns: u64,
    /// The driver (main) thread.
    pub driver_ns: u64,
    /// Other live threads.
    pub other_ns: u64,
}

impl Ledger {
    /// The ledger of the interval `before..after`. Threads born inside the
    /// interval count from zero; threads that died inside it are missing
    /// from `after` and land in the residual.
    pub fn between(before: &CpuSnapshot, after: &CpuSnapshot) -> Ledger {
        let mut l = Ledger {
            process_ns: after.process_ns.saturating_sub(before.process_ns),
            ..Ledger::default()
        };
        for (tid, &(role, ns)) in &after.threads {
            let start = before.threads.get(tid).map_or(0, |&(_, ns0)| ns0);
            let d = ns.saturating_sub(start);
            match role {
                Role::Coordinator => l.coordinator_ns += d,
                Role::Worker => l.worker_ns += d,
                Role::Driver => l.driver_ns += d,
                Role::Other => l.other_ns += d,
            }
        }
        l
    }

    /// Process CPU that no live thread accounts for (may be negative by the
    /// per-thread tick rounding).
    pub fn residual_ns(&self) -> i64 {
        self.process_ns as i64
            - (self.coordinator_ns + self.worker_ns + self.driver_ns + self.other_ns) as i64
    }
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set size (`VmRSS`), KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Bytes the process has handed to `write(2)` and friends so far
/// (`wchar` in `/proc/self/io`). Inside a measured phase only the durable
/// layer writes files, so the difference over the phase is its WAL and
/// snapshot traffic; compaction cannot make it shrink, unlike a directory
/// size.
pub fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_names() {
        let line = "4242 (stateflow-coord) S 1 2 3 0 -1 4194304 117 0 0 0 250 31 0 0 20 0 1 0";
        assert_eq!(
            parse_task_stat(line),
            Some(("stateflow-coord".to_string(), 281))
        );
        let odd = "7 (a) b (c)) R 1 2 3 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0";
        assert_eq!(parse_task_stat(odd), Some(("a) b (c)".to_string(), 11)));
    }

    #[test]
    fn written_bytes_counts_file_writes() {
        let before = written_bytes();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("io-test-{}", std::process::id()));
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let after = written_bytes();
        let _ = std::fs::remove_file(&path);
        assert!(after >= before + 4096, "{before} -> {after}");
    }

    #[test]
    fn roles_follow_runtime_thread_names() {
        assert_eq!(role_of(1, "stateflow-coord"), Role::Coordinator);
        assert_eq!(role_of(1, "stateflow-worke"), Role::Worker);
        assert_eq!(role_of(std::process::id(), "rtbench"), Role::Driver);
        assert_eq!(role_of(1, "obs-snapshots"), Role::Other);
    }

    #[test]
    fn ledger_sees_the_driver_burn_cpu() {
        let before = CpuSnapshot::take();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = CpuSnapshot::take();
        let l = Ledger::between(&before, &after);
        assert!(l.process_ns >= 40_000_000, "{l:?}");
        // Tests run on a worker thread, so the burn shows up in the
        // process total; the split always sums back with the residual.
        let parts = (l.coordinator_ns + l.worker_ns + l.driver_ns + l.other_ns) as i64;
        assert_eq!(parts + l.residual_ns(), l.process_ns as i64);
    }
}
