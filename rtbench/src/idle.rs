//! Keeps every vCPU from halting while a run measures.
//!
//! On a virtual machine, a thread that wakes an idle vCPU waits for the
//! hypervisor to schedule that vCPU again. On a shared host that wait ranges
//! from microseconds to milliseconds with the neighbours' load, and StateFlow
//! hands every batch through several sleeping threads, so real-time latency
//! and throughput end up measuring the host. A child process runs one
//! `SCHED_IDLE` spinner per vCPU: it only ever gets CPU time nobody else
//! wants, is preempted as soon as a benchmark thread wakes, and keeps the
//! vCPUs runnable so those wake-ups stay inside the guest. Being a separate
//! process, its CPU never appears in the benchmark's own CPU clocks.
//!
//! The child exits when its stdin closes, so it cannot outlive the
//! benchmark even if the benchmark is killed.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// The command-line flag that turns the benchmark binary into the spinner.
pub const SPINNER_FLAG: &str = "--idle-spinners";

/// The running spinner process; stopped and reaped on drop.
pub struct IdleSpinners(Option<Child>);

impl IdleSpinners {
    /// Starts `threads` spinners in a child copy of this executable.
    pub fn start(threads: usize) -> std::io::Result<IdleSpinners> {
        let child = Command::new(std::env::current_exe()?)
            .arg(SPINNER_FLAG)
            .arg(threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()?;
        Ok(IdleSpinners(Some(child)))
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            // Closing stdin asks the child to exit; kill covers a child that
            // is itself stuck. Either way, reap it.
            drop(child.stdin.take());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn set_sched_idle() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: pid 0 is the calling thread; `param` outlives the call, which
    // only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The child's body: `threads` `SCHED_IDLE` busy loops until stdin closes.
/// The loops are never joined: they end with the process.
pub fn run_spinners(threads: usize) -> ! {
    for _ in 0..threads {
        std::thread::spawn(|| {
            if !set_sched_idle() {
                // Without SCHED_IDLE a spinner would compete with the
                // benchmark on equal terms; better to spin not at all.
                return;
            }
            loop {
                std::hint::spin_loop();
            }
        });
    }
    let mut sink = [0u8; 64];
    while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
    std::process::exit(0)
}
