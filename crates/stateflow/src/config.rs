//! StateFlow runtime configuration.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

use se_aria::{CommitRule, FallbackPolicy};
use se_chaos::{ChaosPlan, History};
use se_dataflow::{FsyncPolicy, NetConfig};
use se_ir::ExecBackend;
use se_obs::{knob, ObsConfig};

/// Whether worker state survives a crash on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Volatile state only (the default): recovery restores the in-memory
    /// snapshot store's latest complete epoch. Byte-identical behavior to
    /// a build without the durable layer.
    Off,
    /// Per-partition write-ahead log + incremental snapshots: every commit
    /// is appended to a per-worker WAL, epoch cuts persist the dirty set,
    /// and recovery replays state from disk (see `se_dataflow::durable`).
    Wal,
}

impl std::str::FromStr for DurabilityMode {
    type Err = &'static str;

    /// Parses `off` / `wal`, case-insensitively.
    fn from_str(s: &str) -> Result<DurabilityMode, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(DurabilityMode::Off),
            "wal" => Ok(DurabilityMode::Wal),
            _ => Err("expected off|wal"),
        }
    }
}

/// Durable-layer configuration (see [`DurabilityMode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Off (default) or WAL-backed.
    pub mode: DurabilityMode,
    /// Directory holding one subdirectory per worker. `None` (the default)
    /// lets the runtime create a unique temporary directory at deploy time
    /// and remove it at shutdown.
    pub dir: Option<PathBuf>,
    /// Group-commit fsync policy for the per-worker WALs.
    pub fsync: FsyncPolicy,
    /// Full base snapshots every this many epoch cuts (≥ 1); between bases
    /// an epoch costs O(dirty keys), not O(state).
    pub full_snapshot_every: u64,
    /// Test-only: skip WAL checksum verification on recovery, re-applying
    /// silently corrupted records. Exists so the chaos harness can prove
    /// the checker catches a checksum-skip bug; never enable outside tests.
    /// The `chaos_explore` driver maps `SE_CHAOS_INJECT_BUG=wal-no-crc`
    /// onto this flag.
    #[doc(hidden)]
    pub inject_wal_no_crc: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            mode: knob("SE_DURABILITY", DurabilityMode::Off),
            dir: None,
            fsync: FsyncPolicy::OnEpoch,
            full_snapshot_every: 4,
            inject_wal_no_crc: false,
        }
    }
}

/// Tunables of the StateFlow deployment.
///
/// Defaults mirror the paper's setup (§4): "StateFlow requires a single core
/// coordinator, and the rest are used for its workers" — 1 coordinator plus
/// one worker per remaining core, never fewer than the paper's 5 (see
/// [`default_workers`]).
#[derive(Debug, Clone)]
pub struct StateflowConfig {
    /// Number of worker threads (state partitions).
    pub workers: usize,
    /// Threads in each worker's intra-partition execution pool. `1` (the
    /// default) executes on the worker's protocol thread — the exact
    /// pre-pool serial schedule. At ≥ 2 a batch's transactions execute
    /// concurrently on a work-stealing pool: Aria's deterministic batches
    /// make intra-batch execution embarrassingly parallel (every execution
    /// reads the committed snapshot plus its own buffer; writes wait for
    /// the commit phase), so the pool changes timing, never outcomes. The
    /// `SE_EXEC_THREADS` env var overrides the default.
    pub exec_threads: usize,
    /// Network latency model.
    pub net: NetConfig,
    /// How long the coordinator waits to fill a batch before sealing it.
    pub batch_interval: Duration,
    /// Maximum transactions per batch.
    pub max_batch: usize,
    /// Maximum batches in flight at the coordinator. `1` (the default)
    /// keeps one batch in flight: a regular batch is decided before the
    /// next one is sealed. At depth ≥ 2 the coordinator seals and
    /// dispatches batch *N+1* as soon as batch *N* enters its reservation
    /// round (Aria's cross-batch pipelining). At every depth, workers
    /// order execution with a committed-batch watermark, and
    /// single-transaction serial-fallback batches commit at their final hop
    /// without a coordinator round trip. The `SE_PIPELINE_DEPTH` env var
    /// overrides the default.
    pub pipeline_depth: usize,
    /// Aria commit rule (the ablation knob).
    pub commit_rule: CommitRule,
    /// What happens to aborted transactions: re-enqueue into the next
    /// batch, or Aria's serial fallback (single-transaction batches run
    /// immediately, bounding hot-key retry storms).
    pub fallback: FallbackPolicy,
    /// Take a consistent snapshot every N batches (0 disables snapshots).
    pub snapshot_every_batches: u64,
    /// Complete snapshot epochs retained before older ones are pruned
    /// (0 = keep every epoch forever). Recovery always restores the latest
    /// complete epoch, which is always retained.
    pub snapshot_retention: usize,
    /// Synthetic per-invocation-step service time, modeling the work the
    /// authors' Python prototype spends per event (object construction,
    /// dispatch, bookkeeping). Burned on the worker thread, so saturation
    /// under load emerges naturally.
    pub service_time: Duration,
    /// Fault injection: scripted crashes (per incarnation, at chosen
    /// protocol points), message faults at the coordinator/worker channel
    /// seams, or nothing (`ChaosPlan::none()`, the default).
    /// `ChaosPlan::single_crash` is the one-crash shorthand.
    pub chaos: ChaosPlan,
    /// Optional execution-history recording for the serializability
    /// checker. `None` (the default) records nothing and costs one branch
    /// per protocol step.
    pub history: Option<History>,
    /// Test-only: revert the errored-transaction reservation fix (errored
    /// chains reserve their buffered writes again, knocking healthy
    /// higher-id transactions into pointless retries). Exists so the chaos
    /// harness can prove it catches a real, historical bug; never enable
    /// outside tests. The `chaos_explore` driver maps
    /// `SE_CHAOS_INJECT_BUG=reserve-errored` onto this flag.
    #[doc(hidden)]
    pub inject_reserve_bug: bool,
    /// Test-only: break the live-upgrade epoch barrier — the coordinator
    /// flips to the new version and resumes sealing batches *before* the
    /// workers acknowledge the migration pass, so post-switch transactions
    /// race the migration writes (a torn upgrade). Exists so the chaos
    /// harness can prove the history checker catches version-atomicity
    /// violations; never enable outside tests. The `chaos_explore` driver
    /// maps `SE_CHAOS_INJECT_BUG=torn-upgrade` onto this flag.
    #[doc(hidden)]
    pub inject_torn_upgrade: bool,
    /// Which execution backend runs split method bodies: tree-walking
    /// interpretation, or bytecode compiled once at deploy time and run on
    /// the `se-vm` register VM. Semantically identical; the VM trades a
    /// deploy-time lowering pass for cheaper per-invocation dispatch. The
    /// `SE_EXEC_BACKEND` env var (`interp` | `vm`) overrides the default.
    pub backend: ExecBackend,
    /// Durable storage under the workers' state stores: `Off` (default,
    /// byte-identical to no durable layer) or WAL-backed with incremental
    /// epoch snapshots and disk recovery. The `SE_DURABILITY` env var
    /// (`off` | `wal`) overrides the default mode.
    pub durability: DurabilityConfig,
    /// Observability: `SE_OBS=off|metrics|trace` (default off — byte-
    /// identical histories, ≈ zero overhead), dump directory via
    /// `SE_OBS_DIR`, periodic snapshots via `SE_OBS_SNAPSHOT_MS`. See
    /// `se_obs::ObsConfig`.
    pub obs: ObsConfig,
}

impl Default for StateflowConfig {
    /// The paper deployment. The only constructor that reads the engine's
    /// environment knobs: `SE_EXEC_THREADS`, `SE_PIPELINE_DEPTH` (positive
    /// integers), `SE_EXEC_BACKEND`, and — through their own defaults —
    /// `SE_DURABILITY` and `SE_OBS*`. A malformed value panics here.
    fn default() -> Self {
        Self {
            workers: default_workers(),
            exec_threads: knob("SE_EXEC_THREADS", NonZeroUsize::MIN).get(),
            net: NetConfig::default(),
            batch_interval: Duration::from_millis(10),
            max_batch: 512,
            pipeline_depth: knob("SE_PIPELINE_DEPTH", NonZeroUsize::MIN).get(),
            commit_rule: CommitRule::Reordering,
            fallback: FallbackPolicy::Serial,
            snapshot_every_batches: 16,
            snapshot_retention: se_dataflow::DEFAULT_SNAPSHOT_RETENTION,
            service_time: Duration::from_micros(350),
            chaos: ChaosPlan::none(),
            history: None,
            inject_reserve_bug: false,
            inject_torn_upgrade: false,
            backend: knob("SE_EXEC_BACKEND", ExecBackend::Interp),
            durability: DurabilityConfig::default(),
            obs: ObsConfig::from_env("stateflow"),
        }
    }
}

impl StateflowConfig {
    /// A configuration with tiny delays for fast unit tests.
    pub fn fast_test(workers: usize) -> Self {
        Self {
            workers,
            net: NetConfig::fast_test(),
            batch_interval: Duration::from_millis(2),
            max_batch: 256,
            snapshot_every_batches: 4,
            service_time: Duration::from_micros(10),
            obs: ObsConfig::from_env("stateflow-test"),
            ..Self::default()
        }
    }
}

/// The default worker count: one per available core minus the coordinator's,
/// floored at the paper deployment's 5 workers. Derived (not hard-coded) so
/// a default deployment actually uses the machine it runs on; the floor
/// keeps partitioning behavior identical to the paper's setup on small
/// hosts, where workers time-share cores exactly as threads always have.
pub fn default_workers() -> usize {
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    available.saturating_sub(1).max(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = StateflowConfig::default();
        assert_eq!(
            c.workers,
            default_workers(),
            "workers default derives from available parallelism"
        );
        assert_eq!(c.commit_rule, CommitRule::Reordering);
        assert!(c.snapshot_every_batches > 0);
        // The pipeline knob may be raised via SE_PIPELINE_DEPTH (CI runs
        // the suite at depth 3), but never below one batch in flight.
        assert!(c.pipeline_depth >= 1);
        // The exec-pool knob may be raised via SE_EXEC_THREADS (CI runs the
        // suite at 4), but never below the serial schedule.
        assert!(c.exec_threads >= 1);
    }

    #[test]
    fn engine_knob_spellings_parse_and_junk_is_rejected_by_name() {
        use se_obs::knob::parse_knob;
        use se_vm::VmOpts;
        use DurabilityMode::{Off, Wal};
        // Every spelling CI and the docs use keeps its value; blank is unset.
        for (raw, want) in [("off", Some(Off)), ("wal", Some(Wal)), (" ", None)] {
            assert_eq!(parse_knob("SE_DURABILITY", Some(raw)), Ok(want));
        }
        for (raw, want) in [("interp", ExecBackend::Interp), ("vm", ExecBackend::Vm)] {
            assert_eq!(parse_knob("SE_EXEC_BACKEND", Some(raw)), Ok(Some(want)));
        }
        for (raw, want) in [("off", VmOpts::none()), ("all", VmOpts::all())] {
            assert_eq!(parse_knob("SE_VM_OPT", Some(raw)), Ok(Some(want)));
        }
        let rejected = [
            parse_knob::<DurabilityMode>("SE_DURABILITY", Some("wall")).map(drop),
            parse_knob::<ExecBackend>("SE_EXEC_BACKEND", Some("jit")).map(drop),
            parse_knob::<VmOpts>("SE_VM_OPT", Some("of")).map(drop),
        ];
        let want = [
            "SE_DURABILITY=\"wall\" is not a valid DurabilityMode: expected off|wal",
            "SE_EXEC_BACKEND=\"jit\" is not a valid ExecBackend: expected interp|vm",
            "SE_VM_OPT=\"of\" is not a valid VmOpts: expected off|all (or none|0|false, on|1|true)",
        ];
        for (got, want) in rejected.into_iter().zip(want) {
            assert_eq!(got.unwrap_err(), want);
        }
    }

    #[test]
    fn default_workers_adapts_to_parallelism_with_paper_floor() {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let w = default_workers();
        // The paper's 5-worker deployment is the floor; on bigger hosts one
        // core is reserved for the coordinator and the rest become workers.
        assert!(w >= 5);
        if available > 6 {
            assert_eq!(w, available - 1);
        } else {
            assert_eq!(w, 5);
        }
    }
}
