//! The benchmark's deployment ignores the `SE_*` knobs that
//! `StateflowConfig::default()` reads. Its own test binary (one test), since
//! it sets process-wide environment variables.

use std::path::Path;

use se_obs::ObsMode;
use se_rtbench::config::{describe, pinned_config};
use se_stateflow::{DurabilityMode, StateflowConfig};

#[test]
fn se_env_knobs_leave_the_recorded_config_unchanged() {
    let record = |mode| {
        describe(&pinned_config(
            mode,
            Path::new("wal"),
            ObsMode::Off,
            Path::new("obs"),
        ))
    };
    let clean = (record(DurabilityMode::Off), record(DurabilityMode::Wal));

    std::env::set_var("SE_EXEC_BACKEND", "interp");
    std::env::set_var("SE_PIPELINE_DEPTH", "4");
    std::env::set_var("SE_EXEC_THREADS", "3");
    std::env::set_var("SE_DURABILITY", "wal");
    std::env::set_var("SE_OBS", "trace");

    // The knobs are live: an engine-default config picks them up...
    let default = StateflowConfig::default();
    assert_eq!(default.pipeline_depth, 4);
    assert_eq!(default.exec_threads, 3);
    assert_eq!(default.durability.mode, DurabilityMode::Wal);
    assert_eq!(default.obs.mode, ObsMode::Trace);
    assert_ne!(describe(&default), clean.0);

    // ...but the benchmark's deployment does not.
    assert_eq!(record(DurabilityMode::Off), clean.0);
    assert_eq!(record(DurabilityMode::Wal), clean.1);
    let cfg = pinned_config(
        DurabilityMode::Off,
        Path::new("wal"),
        ObsMode::Off,
        Path::new("obs"),
    );
    assert_eq!(cfg.backend, se_core::ExecBackend::Vm);
    assert_eq!(
        (cfg.pipeline_depth, cfg.exec_threads, cfg.workers),
        (1, 1, 2)
    );
    assert!(clean.0.contains("\"backend\":\"vm\"") && clean.0.contains("\"pipeline_depth\":1"));
}
