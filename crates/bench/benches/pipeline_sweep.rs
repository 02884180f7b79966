//! **Scaling sweep** — StateFlow saturation throughput and p99 across
//! workers × exec_threads × pipeline_depth × backend.
//!
//! Grown from the original pipeline-depth sweep into the repository's
//! scaling bench: every cell drives an open-loop load far above capacity so
//! completion throughput (completed requests / un-scaled wall-clock until
//! the last completion) measures the protocol, not the arrival process.
//!
//! Two regimes matter:
//!
//! * **Compute-bound, conflict-free** (workload C, uniform keys): bodies
//!   are loop-heavy `spin` calls with no writes, so Aria batches carry no
//!   conflicts and the intra-partition exec pool (`exec_threads`) is the
//!   lever — throughput should scale with pool size until cores run out.
//! * **Contended** (workloads A/T, Zipfian keys): serial-fallback retries
//!   dominate; their fallback batches commit at their final hop at every
//!   depth, and `pipeline_depth` overlaps regular batches with that drain;
//!   the exec pool barely moves these cells.
//!
//! Comma-separated `SE_SWEEP_*` ladders select the grid: workers, exec-pool
//! sizes, depths, backends, key-space sizes (the nightly ladder runs
//! `1000,100000,1000000`) and workload-distribution cells; the README's knob
//! table lists them with `SE_PIPELINE_REQUESTS` and `SE_SPIN_ITERS`, their
//! values and defaults. Two knobs behave specially here:
//!
//! * `SE_SERVICE_SLEEP` — service-time mode (default **1** here:
//!   sleep-based service so simulated cores stay independent on a
//!   core-starved host; `0` restores the spin burns the figure benches use)
//! * `SE_SWEEP_FORCE_EXEC_THREADS` — **CI self-test lever**: forces the
//!   deployed pool size to this value while labels and params keep claiming
//!   the swept value. Running the smoke sweep with this set to 1 against a
//!   baseline recorded at exec_threads 4 must turn the perf gate red — it
//!   seeds exactly the regression the gate exists to catch. Never set it
//!   outside that self-test.
//!
//! Rows are emitted in the workspace's uniform JSON schema (see
//! `se_bench::Row`) with labels like `C-uniform@w5x4d2-interp`:
//! workers 5 × exec_threads 4, depth 2, interpreter backend.

use std::num::NonZeroUsize;
use std::str::FromStr;

use se_bench::{count, emit, key_count, ladder, Row};
use se_core::{compile, EntityRuntime, ExecBackend, StateflowRuntime};
use se_obs::{knob, knob_list, knob_opt, Flag, ObsMode};
use se_workloads::{load_accounts, run_open_loop, Distribution, DriverConfig, WorkloadSpec};

/// One workload-distribution cell, spelled `<A|B|T|M|C>-<uniform|zipfian>`.
struct Cell(String, WorkloadSpec, Distribution);

impl FromStr for Cell {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Cell, Self::Err> {
        use Distribution::{Uniform, Zipfian};
        use WorkloadSpec as W;
        let (wl, dist) = name.split_once('-').unwrap_or_default();
        let spec = [W::A, W::B, W::T, W::M, W::C]
            .into_iter()
            .find(|s| s.name == wl);
        let dist = [Uniform, Zipfian].into_iter().find(|d| d.label() == dist);
        match (spec, dist) {
            (Some(spec), Some(dist)) => Ok(Cell(name.to_string(), spec, dist)),
            _ => Err("expected <A|B|T|M|C>-<uniform|zipfian>"),
        }
    }
}

fn main() {
    // Scaling cells measure parallel capacity, so service time must behave
    // like independent simulated cores even when the host has fewer real
    // ones: default to sleep-based service (spin burns monopolize their
    // timeslice and serialize on an oversubscribed host, hiding exactly the
    // exec-pool overlap this bench exists to measure). Explicit
    // SE_SERVICE_SLEEP=0 restores spinning.
    if knob_opt::<Flag>("SE_SERVICE_SLEEP").is_none() {
        std::env::set_var("SE_SERVICE_SLEEP", "1");
    }
    let requests = count("SE_PIPELINE_REQUESTS", 1200);
    let workers_ladder = ladder("SE_SWEEP_WORKERS", &[5]);
    let exec_ladder = ladder("SE_SWEEP_EXEC_THREADS", &[1, 4]);
    let depth_ladder = ladder("SE_SWEEP_DEPTHS", &[1, 2]);
    let keys_ladder = ladder("SE_SWEEP_KEYS", &[key_count()]);
    let spin_iters = count("SE_SPIN_ITERS", 256) as i64;
    let backends = knob_list("SE_SWEEP_BACKENDS", vec![ExecBackend::Interp]);
    let default_cells = ["C-uniform", "A-zipfian", "T-zipfian", "A-uniform"].map(Cell::from_str);
    let cells = knob_list("SE_SWEEP_CELLS", default_cells.map(Result::unwrap).into());
    let forced_exec =
        knob_opt::<NonZeroUsize>("SE_SWEEP_FORCE_EXEC_THREADS").map(NonZeroUsize::get);
    if let Some(f) = forced_exec {
        eprintln!(
            "SEEDED REGRESSION: every cell actually runs exec_threads={f} \
             regardless of its label (perf-gate self-test mode)"
        );
    }
    // The queue/utilization/fsync columns come from the se-obs registry, so
    // this bench records metrics even without SE_OBS set (an explicit
    // SE_OBS=off|trace still wins).
    let obs_mode = knob("SE_OBS", ObsMode::Metrics);
    // Offered load far above capacity: the issue phase finishes fast and
    // completion throughput measures saturation.
    let offered = 50_000.0;

    println!(
        "pipeline_sweep: {requests} requests/cell, keys {keys_ladder:?}, \
         workers {workers_ladder:?}, exec_threads {exec_ladder:?}, \
         depths {depth_ladder:?}, backends {}, time_scale {}",
        backends.len(),
        se_bench::time_scale()
    );

    let mut rows = Vec::new();
    for Cell(cell_name, spec, dist) in &cells {
        for &n_keys in &keys_ladder {
            for &workers in &workers_ladder {
                for &exec_threads in &exec_ladder {
                    for &depth in &depth_ladder {
                        for &backend in &backends {
                            let mut cfg = se_bench::stateflow_bench_config();
                            cfg.workers = workers;
                            cfg.exec_threads = forced_exec.unwrap_or(exec_threads);
                            cfg.pipeline_depth = depth;
                            cfg.backend = backend;
                            cfg.obs.mode = obs_mode;
                            let deployed_exec = cfg.exec_threads;
                            let program = se_workloads::ycsb_program();
                            let graph = compile(&program).expect("compile");
                            let rt = StateflowRuntime::deploy(graph, cfg);
                            let deployed_at = std::time::Instant::now();
                            load_accounts(&rt, n_keys, 1024, 1_000_000);
                            let driver = DriverConfig {
                                rps: offered,
                                requests,
                                seed: 0x51EE9,
                                value_size: 1024,
                                time_scale: se_bench::time_scale(),
                                spin_iters,
                                latency_hist: rt.obs().histogram("driver.latency"),
                            };
                            let report = run_open_loop(&rt, *spec, *dist, n_keys, &driver);
                            // Registry counters/hists cover the deployment's
                            // whole life, so the utilization window must too.
                            let obs_window = deployed_at.elapsed();
                            let backend_name = backend.to_string();
                            let mut label = format!(
                                "{cell_name}@w{workers}x{exec_threads}d{depth}-{backend_name}"
                            );
                            if keys_ladder.len() > 1 {
                                label.push_str(&format!("-k{n_keys}"));
                            }
                            eprintln!(
                                "  {label:<34} tput {:>7.0} rps  p50 {:>7.2} ms  \
                                 p99 {:>8.2} ms  (timeouts {})",
                                report.throughput_rps(),
                                se_bench::ms(report.latency.p50),
                                se_bench::ms(report.latency.p99),
                                report.timed_out,
                            );
                            rows.push(
                                Row::from_report(label, "stateflow", offered, &report)
                                    .with_obs(rt.obs(), obs_window, workers * deployed_exec)
                                    .with_param("workers", workers)
                                    .with_param("exec_threads", exec_threads)
                                    .with_param("depth", depth)
                                    .with_param("backend", backend_name)
                                    .with_param("keys", n_keys)
                                    .with_param("workload", spec.name)
                                    .with_param("dist", dist.label())
                                    .with_param("spin_iters", spin_iters)
                                    .with_param("requests", requests),
                            );
                            rt.shutdown();
                        }
                    }
                }
            }
        }
    }

    // Derived exec-pool speedup rows: `tput_rps` holds the x{hi}/x{lo}
    // throughput ratio of two cells from the *same* run, which cancels the
    // run-wide noise (host load, frequency drift) that makes absolute
    // throughput a flaky gate metric. The CI perf gate keys on these rows.
    let tput = |rows: &[Row], label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .map(|r| (r.tput_rps, r.p99_ms))
    };
    if exec_ladder.len() > 1 {
        let (lo, hi) = (exec_ladder[0], *exec_ladder.last().unwrap());
        let mut speedups = Vec::new();
        for Cell(cell_name, ..) in &cells {
            for &workers in &workers_ladder {
                for &depth in &depth_ladder {
                    let base = tput(
                        &rows,
                        &format!("{cell_name}@w{workers}x{lo}d{depth}-interp"),
                    );
                    let wide = tput(
                        &rows,
                        &format!("{cell_name}@w{workers}x{hi}d{depth}-interp"),
                    );
                    if let (Some((base, _)), Some((wide, wide_p99))) = (base, wide) {
                        if base > 0.0 {
                            let ratio = wide / base;
                            eprintln!(
                                "  speedup {cell_name}@w{workers}d{depth}: \
                                 exec {hi} vs {lo} = {ratio:.2}x"
                            );
                            speedups.push(Row {
                                bench: String::new(),
                                label: format!("{cell_name}@w{workers}d{depth}-speedup-x{hi}v{lo}"),
                                system: "stateflow".to_string(),
                                params: Default::default(),
                                rps: offered,
                                mean_ms: 0.0,
                                p50_ms: 0.0,
                                p99_ms: wide_p99,
                                tput_rps: ratio,
                                count: requests,
                                errors: 0,
                                queue_p99_ms: 0.0,
                                exec_utilization: 0.0,
                                fsync_p99_ms: 0.0,
                                commit: String::new(),
                            });
                        }
                    }
                }
            }
        }
        for s in speedups {
            rows.push(
                s.with_param("metric", "speedup")
                    .with_param("exec_hi", hi)
                    .with_param("exec_lo", lo)
                    .with_param("requests", requests),
            );
        }
    }

    // Same-run VM-optimization speedup rows: each compute-bound (workload C)
    // cell runs twice on the VM backend — the full optimization pipeline vs
    // `SE_VM_OPT=off` — and `tput_rps` holds the on/off throughput ratio.
    // Same-run pairing cancels run-wide noise exactly like the exec-pool
    // ratios above; the CI perf gate keys on these rows so a regression in
    // the VM's lowering optimizations (folding, superinstructions,
    // quickening) turns the gate red even though both sides still "work".
    //
    // The spin count is scaled ×16 over the sweep default (4096 turns at
    // the canonical config, `SE_VM_OPT_SPIN_ITERS` overrides): at the
    // default 256 the body costs ≤ ~15 µs either way and the coordinator's
    // ~90 µs/request floor hides the lowering entirely (on/off ≈ 1.0×, so
    // a total fusion regression would sit inside the gate tolerance). At
    // 4096 turns the single exec thread is the bottleneck and the ratio
    // directly tracks dispatch-loop quality.
    {
        let workers = workers_ladder[0];
        let exec_threads = exec_ladder[0];
        let depth = depth_ladder[0];
        let n_keys = keys_ladder[0];
        let spin_iters = count("SE_VM_OPT_SPIN_ITERS", spin_iters as usize * 16) as i64;
        for Cell(cell_name, spec, dist) in &cells {
            if spec.name != "C" {
                continue;
            }
            let mut measured = Vec::new();
            for opt in ["off", "on"] {
                // `VmProgram::compile` reads SE_VM_OPT at each deploy; this
                // is the last section, so the flip is never undone.
                std::env::set_var("SE_VM_OPT", if opt == "on" { "all" } else { "off" });
                let mut cfg = se_bench::stateflow_bench_config();
                cfg.workers = workers;
                cfg.exec_threads = forced_exec.unwrap_or(exec_threads);
                cfg.pipeline_depth = depth;
                cfg.backend = ExecBackend::Vm;
                let program = se_workloads::ycsb_program();
                let graph = compile(&program).expect("compile");
                let rt = StateflowRuntime::deploy(graph, cfg);
                load_accounts(&rt, n_keys, 1024, 1_000_000);
                let driver = DriverConfig {
                    rps: offered,
                    requests,
                    seed: 0x51EE9,
                    value_size: 1024,
                    time_scale: se_bench::time_scale(),
                    spin_iters,
                    latency_hist: rt.obs().histogram("driver.latency"),
                };
                let report = run_open_loop(&rt, *spec, *dist, n_keys, &driver);
                let label = format!("{cell_name}@w{workers}x{exec_threads}d{depth}-vm-opt-{opt}");
                eprintln!(
                    "  {label:<34} tput {:>7.0} rps  p99 {:>8.2} ms",
                    report.throughput_rps(),
                    se_bench::ms(report.latency.p99),
                );
                measured.push((report.throughput_rps(), report.latency.p99));
                rows.push(
                    Row::from_report(label, "stateflow", offered, &report)
                        .with_param("workers", workers)
                        .with_param("exec_threads", exec_threads)
                        .with_param("depth", depth)
                        .with_param("backend", "vm")
                        .with_param("vm_opt", opt)
                        .with_param("keys", n_keys)
                        .with_param("workload", spec.name)
                        .with_param("dist", dist.label())
                        .with_param("spin_iters", spin_iters)
                        .with_param("requests", requests),
                );
                rt.shutdown();
            }
            let ((off_tput, _), (on_tput, on_p99)) = (measured[0], measured[1]);
            if off_tput > 0.0 {
                let ratio = on_tput / off_tput;
                eprintln!(
                    "  vm_opt speedup {cell_name}@w{workers}d{depth}: on vs off = {ratio:.2}x"
                );
                rows.push(
                    Row {
                        bench: String::new(),
                        label: format!(
                            "{cell_name}@w{workers}x{exec_threads}d{depth}-vm-opt-speedup"
                        ),
                        system: "stateflow".to_string(),
                        params: Default::default(),
                        rps: offered,
                        mean_ms: 0.0,
                        p50_ms: 0.0,
                        p99_ms: se_bench::ms(on_p99),
                        tput_rps: ratio,
                        count: requests,
                        errors: 0,
                        queue_p99_ms: 0.0,
                        exec_utilization: 0.0,
                        fsync_p99_ms: 0.0,
                        commit: String::new(),
                    }
                    .with_param("metric", "speedup")
                    .with_param("vm_opt", "ratio-on-vs-off")
                    .with_param("requests", requests),
                );
            }
        }
    }

    emit(
        "pipeline_sweep",
        "Scaling sweep — saturation throughput across workers × exec_threads × depth × backend",
        &rows,
    );
    for cell in ["A-zipfian", "T-zipfian"] {
        let d1 = tput(&rows, &format!("{cell}@w5x1d1-interp"));
        let d2 = tput(&rows, &format!("{cell}@w5x1d2-interp"));
        if let (Some((d1, _)), Some((d2, _))) = (d1, d2) {
            if d2 <= d1 {
                eprintln!(
                    "WARN: expected depth 2 to beat depth 1 on {cell} \
                     ({d2:.0} vs {d1:.0} rps)"
                );
            }
        }
    }
}
