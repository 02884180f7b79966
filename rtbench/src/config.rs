//! The one deployment every workload runs on, pinned in code.
//!
//! Every `StateflowConfig` field is written out here, so no `SE_*`
//! environment variable that `StateflowConfig::default()` would read
//! (`SE_EXEC_BACKEND`, `SE_EXEC_THREADS`, `SE_PIPELINE_DEPTH`,
//! `SE_DURABILITY`, `SE_OBS*`) can change what is measured. A new field in
//! the config fails to compile here until it is pinned too.

use std::path::{Path, PathBuf};
use std::time::Duration;

use se_core::{ChaosPlan, CommitRule, ExecBackend, FallbackPolicy, NetConfig};
use se_dataflow::FsyncPolicy;
use se_obs::{ObsConfig, ObsMode};
use se_stateflow::{DurabilityConfig, DurabilityMode, StateflowConfig};

/// StateFlow workers (state partitions): one per vCPU of the reference
/// 2-vCPU host.
pub const WORKERS: usize = 2;

/// The benchmark deployment: 2 workers, no exec pool, stop-and-wait
/// pipeline, VM bodies, real time (no simulated delays, no batching wait,
/// no synthetic service time), a WAL that is written but never synced,
/// engine defaults otherwise.
///
/// `wal_dir` is where WAL durability keeps its files (ignored when
/// `durability` is off); `obs_dir` is where a traced run's metrics dump
/// goes.
pub fn pinned_config(
    durability: DurabilityMode,
    wal_dir: &Path,
    obs: ObsMode,
    obs_dir: &Path,
) -> StateflowConfig {
    StateflowConfig {
        workers: WORKERS,
        exec_threads: 1,
        net: NetConfig {
            time_scale: 0.0,
            ..NetConfig::default()
        },
        batch_interval: Duration::ZERO,
        max_batch: 512,
        pipeline_depth: 1,
        commit_rule: CommitRule::Reordering,
        fallback: FallbackPolicy::Serial,
        snapshot_every_batches: 16,
        snapshot_retention: se_dataflow::DEFAULT_SNAPSHOT_RETENTION,
        service_time: Duration::ZERO,
        chaos: ChaosPlan::none(),
        history: None,
        inject_reserve_bug: false,
        inject_torn_upgrade: false,
        backend: ExecBackend::Vm,
        durability: DurabilityConfig {
            mode: durability,
            dir: (durability == DurabilityMode::Wal).then(|| wal_dir.to_path_buf()),
            // The WAL is written but never synced: every commit is
            // logged (framed, CRC'd, written) and every epoch cut appends
            // its marker, but nothing waits for the device. A sync (an
            // epoch-cut fsync, or the `sync_data` of a full base snapshot
            // and the WAL compaction it enables) waits for writeback, and
            // on a shared, rate-limited virtual disk YCSB-A's tens of MB/s
            // of WAL left both workers blocked for more than ten seconds
            // in some runs, so the workload measured the host's disk.
            // Hence no fsync and no base snapshot within a run.
            fsync: FsyncPolicy::Never,
            full_snapshot_every: u64::MAX,
            inject_wal_no_crc: false,
        },
        obs: ObsConfig {
            mode: obs,
            dir: obs_dir.to_path_buf(),
            label: "rtbench".to_string(),
            snapshot_every_ms: 0,
            ring_capacity: 65_536,
        },
    }
}

/// The effective deployment as one JSON object: every knob that shapes
/// what is measured.
pub fn describe(cfg: &StateflowConfig) -> String {
    let durability = match cfg.durability.mode {
        DurabilityMode::Off => "off",
        DurabilityMode::Wal => "wal",
    };
    let backend = match cfg.backend {
        ExecBackend::Interp => "interp",
        ExecBackend::Vm => "vm",
    };
    format!(
        "{{\"workers\":{},\"exec_threads\":{},\"pipeline_depth\":{},\"backend\":\"{}\",\
         \"time_scale\":{},\"batch_interval_us\":{},\"service_time_us\":{},\"max_batch\":{},\
         \"commit_rule\":\"{:?}\",\"fallback\":\"{:?}\",\"snapshot_every_batches\":{},\
         \"snapshot_retention\":{},\"durability\":\"{}\",\"fsync\":\"{}\",\
         \"full_snapshot_every\":{},\"obs\":\"{}\"}}",
        cfg.workers,
        cfg.exec_threads,
        cfg.pipeline_depth,
        backend,
        cfg.net.time_scale,
        cfg.batch_interval.as_micros(),
        cfg.service_time.as_micros(),
        cfg.max_batch,
        cfg.commit_rule,
        cfg.fallback,
        cfg.snapshot_every_batches,
        cfg.snapshot_retention,
        durability,
        cfg.durability.fsync,
        cfg.durability.full_snapshot_every,
        cfg.obs.mode.as_str(),
    )
}

/// The commit the checkout was made from, read from `.git` without running
/// git; `"unknown"` outside a git work tree.
pub fn commit_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(git.join(reference)) {
        return sha.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of every file under `dirs` (relative paths and contents,
/// in path order): identifies the measured source when there is no git
/// metadata, as in an exported checkout.
pub fn source_digest(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Online vCPUs of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
