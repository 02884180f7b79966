//! **§4 "System overhead"** (described in prose, not plotted) — "We created
//! a synthetic workload in which we varied different state sizes from 50 to
//! 200kb. For each event, we measured the duration of different runtime
//! components. Some of the components, like object construction, are
//! attributed to program transformation overhead, whereas others, like
//! state storage, are attributed to the runtime. In short, function
//! splitting/instrumentation is only responsible for less than 1% of the
//! total overhead."
//!
//! Regenerates the per-component breakdown on the StateFun runtime (whose
//! remote deployment has the richest component set: state must be
//! (de)serialized and shipped on every call) across state sizes
//! {50, 100, 150, 200} KiB, and checks the < 1% claim. Each component is an
//! se-obs stage histogram (the deployment runs with `ObsMode::Metrics`); a
//! row is the difference of the histogram's count and exact sum across the
//! measured events, so account loading is excluded.

use std::io::Write as _;

use se_core::{EntityRuntime, StatefunRuntime};
use se_lang::EntityRef;
use se_obs::{ObsMode, Stage};
use se_workloads::{key_name, load_accounts};

/// The StateFun per-event components of the §4 experiment.
const COMPONENTS: [Stage; 6] = [
    Stage::Body,
    Stage::ObjectConstruct,
    Stage::SplitOverhead,
    Stage::StateDeserialize,
    Stage::StateSerialize,
    Stage::StateStore,
];

/// `(count, sum_ns)` of every component histogram, in `COMPONENTS` order.
fn component_totals(rt: &StatefunRuntime) -> Vec<(u64, u64)> {
    COMPONENTS
        .iter()
        .map(|&st| {
            let h = rt.obs().stage_hist(st);
            (h.count(), h.sum())
        })
        .collect()
}

fn main() {
    let sizes_kib = [50usize, 100, 150, 200];
    let events_per_size = se_bench::count("SE_OVERHEAD_EVENTS", 300);
    let n_keys = 16;

    println!("overhead: {events_per_size} events per state size, sizes {sizes_kib:?} KiB\n");
    println!("| state KiB | component | total µs | per-event µs | share % |");
    println!("|---|---|---|---|---|");

    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    let mut worst_split_share = 0.0f64;

    for &kib in &sizes_kib {
        let bytes = kib * 1024;
        let program = se_workloads::ycsb_program();
        let mut cfg = se_bench::statefun_bench_config();
        // The overhead experiment measures component *durations*, not
        // latency under load: shrink hop delays so the run is quick.
        cfg.net.time_scale = 0.05f64.min(se_bench::time_scale());
        if cfg.obs.mode == ObsMode::Off {
            cfg.obs.mode = ObsMode::Metrics;
        }
        let graph = se_core::compile(&program).expect("compile");
        let rt = StatefunRuntime::deploy(graph, cfg);
        load_accounts(&rt, n_keys, bytes, 0);
        let before = component_totals(&rt);

        // Alternate reads and updates over the big-payload records.
        let payload = se_lang::Value::Bytes(vec![7u8; bytes]);
        for i in 0..events_per_size {
            let target = EntityRef::new("Account", key_name(i % n_keys));
            let result = if i % 2 == 0 {
                rt.call(target, "read", vec![])
            } else {
                rt.call(target, "update", vec![payload.clone()])
            };
            result.expect("op succeeds");
        }

        let measured: Vec<(u64, f64)> = component_totals(&rt)
            .iter()
            .zip(&before)
            .map(|(after, before)| (after.0 - before.0, (after.1 - before.1) as f64 / 1e3))
            .collect();
        let total_us: f64 = measured.iter().map(|(_, us)| us).sum();
        for (stage, (count, total)) in COMPONENTS.iter().zip(&measured) {
            let component = stage.as_str();
            let share = total / total_us.max(f64::MIN_POSITIVE) * 100.0;
            let per_event = total / (*count as f64).max(1.0);
            println!("| {kib} | {component} | {total:.1} | {per_event:.2} | {share:.2} |");
            json_rows.push(serde_json::json!({
                "state_kib": kib,
                "component": component,
                "total_us": total,
                "per_event_us": per_event,
                "share_pct": share,
            }));
            if *stage == Stage::SplitOverhead {
                worst_split_share = worst_split_share.max(share);
            }
        }
        rt.shutdown();
    }

    println!(
        "\nfunction splitting/instrumentation worst-case share: {worst_split_share:.3}% \
         (paper claims < 1%)"
    );
    if worst_split_share >= 1.0 {
        eprintln!("WARN: split overhead exceeded 1% — check calibration");
    }

    let _ = std::fs::create_dir_all("bench_results");
    if let Ok(mut f) = std::fs::File::create("bench_results/overhead.json") {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("serialize")
        );
    }
}
