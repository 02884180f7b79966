//! **CI overhead gate** — proves `SE_OBS=metrics` is (nearly) free.
//!
//! Deploys the same invoke-chain workload twice per round — once with obs
//! off, once in metrics mode — on a fast-test StateFlow cluster, and
//! compares the median end-to-end invoke latency. Rounds interleave the two
//! modes so host-load drift hits both sides equally; samples are pooled
//! across rounds before taking the median.
//!
//! The assertion is `metrics_median ≤ off_median × (1 + pct) + floor`: a
//! relative bound (default 5%, the ISSUE budget) plus an absolute floor
//! (default 750 µs) because 5% of a ~3 ms simulated-network median is
//! smaller than OS scheduling noise on a shared CI host.
//!
//! Knobs (defaults in the README's knob table): `SE_OVERHEAD_DEPTH` (chain
//! depth), `SE_OVERHEAD_REPS` (timed calls per mode and round),
//! `SE_OVERHEAD_ROUNDS` (interleaved rounds), `SE_OVERHEAD_PCT` and
//! `SE_OVERHEAD_FLOOR_US` (relative budget and absolute floor, µs).
//!
//! Exit codes: 0 within budget, 1 over budget.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

use se_core::{deploy, RuntimeChoice, StateflowConfig};
use se_lang::{EntityRef, Value};
use se_obs::knob;

const DEPTH: NonZeroUsize = NonZeroUsize::new(4).unwrap();
const REPS: NonZeroUsize = NonZeroUsize::new(200).unwrap();
const ROUNDS: NonZeroUsize = NonZeroUsize::new(3).unwrap();

/// Runs one deployment in `mode` and returns per-call latencies in ns.
fn run_once(
    mode: se_obs::ObsMode,
    depth: usize,
    reps: usize,
    dump_dir: &std::path::Path,
) -> Vec<f64> {
    let program = se_lang::programs::chain_program(depth);
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.obs = se_obs::ObsConfig {
        mode,
        dir: dump_dir.to_path_buf(),
        label: "overhead".into(),
        ..Default::default()
    };
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).expect("deploy");
    for i in (0..=depth).rev() {
        let init = if i < depth {
            vec![(
                "next".to_string(),
                Value::Ref(EntityRef::new(format!("C{}", i + 1), "n")),
            )]
        } else {
            vec![]
        };
        rt.create(&format!("C{i}"), "n", init).expect("create");
    }
    let target = EntityRef::new("C0", "n");
    // Warmup: JIT nothing, but fill batches/queues to steady state.
    for _ in 0..(reps / 10).max(10) {
        rt.call(target, "relay", vec![Value::Int(1)])
            .expect("warmup call");
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        rt.call(target, "relay", vec![Value::Int(1)])
            .expect("timed call");
        samples.push(t.elapsed().as_nanos() as f64);
    }
    rt.shutdown();
    samples
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let depth = knob("SE_OVERHEAD_DEPTH", DEPTH).get();
    let reps = knob("SE_OVERHEAD_REPS", REPS).get().max(10);
    let rounds = knob("SE_OVERHEAD_ROUNDS", ROUNDS).get();
    let pct = knob("SE_OVERHEAD_PCT", 0.05);
    let floor_ns = knob("SE_OVERHEAD_FLOOR_US", 750.0) * 1e3;

    let dump_dir = std::env::temp_dir().join(format!("se-obs-overhead-{}", std::process::id()));
    println!(
        "obs_overhead: chain depth {depth}, {reps} calls x {rounds} rounds per mode, \
         budget {:.1}% + {:.0} us floor",
        pct * 100.0,
        floor_ns / 1e3
    );

    let mut off = Vec::new();
    let mut metrics = Vec::new();
    for round in 0..rounds {
        // Interleave modes so slow-host drift cancels instead of biasing.
        off.extend(run_once(se_obs::ObsMode::Off, depth, reps, &dump_dir));
        metrics.extend(run_once(se_obs::ObsMode::Metrics, depth, reps, &dump_dir));
        eprintln!("  round {} done", round + 1);
    }
    let _ = std::fs::remove_dir_all(&dump_dir);

    let off_med = median(&mut off);
    let metrics_med = median(&mut metrics);
    let delta_pct = (metrics_med - off_med) / off_med * 100.0;
    let budget = off_med * (1.0 + pct) + floor_ns;
    println!(
        "  SE_OBS=off     median {:9.3} ms\n  SE_OBS=metrics median {:9.3} ms  ({:+.2}%)\n  budget {:9.3} ms",
        off_med / 1e6,
        metrics_med / 1e6,
        delta_pct,
        budget / 1e6
    );
    if metrics_med <= budget {
        println!("obs_overhead: OK — metrics mode within budget");
        ExitCode::SUCCESS
    } else {
        println!("obs_overhead: FAIL — metrics mode exceeds budget");
        ExitCode::FAILURE
    }
}
