//! One benchmark run: deploy, load, drive, check, measure.
//!
//! An untraced run (`trace = false`) yields the end-to-end metrics. It
//! drives its first deployment through an open loop (after which `rss_mb`
//! is read) and a closed loop measured in slices (throughput and CPU per
//! request, medians over the slices), checks the final state, then sets up
//! `SETUPS - 1` more times so `setup_s` is a median.
//!
//! A traced run yields the per-layer metrics from two deployments: one
//! untraced, whose open loop gives latency and generator lateness and whose
//! closed loop gives the per-thread CPU ledger and the baseline for the
//! tracing overhead, and one with `ObsMode::Metrics`, whose registry gives
//! the coordinator, Aria, stage and WAL figures. It ends with the body
//! replay and writes the benchmark's spans to a file.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use se_dataflow::EntityRuntime;
use se_obs::{ObsMode, Stage};
use se_stateflow::StateflowRuntime;

use crate::config::pinned_config;
use crate::driver::{open_loop, quantile, ClosedLoop, ClosedSpan, Tally, Traced};
use crate::ledger::{self, CpuSnapshot, Ledger};
use crate::trace::Spans;
use crate::workload::{final_check, load, Workload, YcsbRequests, ACCOUNTS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Shares of `--seconds` given to the open loop, the closed-loop warm-up
/// and the measured closed loop.
const OPEN_SHARE: f64 = 0.2;
const WARM_SHARE: f64 = 0.05;
const CLOSED_SHARE: f64 = 0.75;
/// Length of the slices whose medians are reported, seconds.
const SLICE_S: f64 = 0.5;
/// How long stragglers may take once a phase stops sending.
const DRAIN: Duration = Duration::from_secs(10);

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every request answered, none errored, every check passed.
    pub correct: bool,
    /// Requests sent, final-state checks included.
    pub attempted: u64,
    /// Requests that errored, timed out or failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Where the run keeps its files, inside the checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `rtbench/work` under `root`, created if missing.
    pub fn under(root: &Path) -> std::io::Result<WorkDir> {
        let dir = root.join("rtbench").join("work");
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    fn wal(&self, n: usize) -> PathBuf {
        self.0.join(format!("wal-{}-{n}", std::process::id()))
    }

    fn obs(&self) -> PathBuf {
        self.0.join("obs")
    }

    /// The span file of a traced run of `workload`.
    pub fn trace_file(&self, workload: &str) -> PathBuf {
        self.0.join(format!("trace-{workload}.jsonl"))
    }
}

/// A loaded deployment and what its set-up cost.
struct Deployed {
    rt: StateflowRuntime,
    wal_dir: PathBuf,
    compile: Duration,
    deploy: Duration,
    load: Duration,
}

impl Deployed {
    fn setup(&self) -> Duration {
        self.compile + self.deploy + self.load
    }

    fn tear_down(self) {
        // Joins every engine thread, so no WAL file is still being written.
        self.rt.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Compiles the YCSB program, deploys it on the pinned configuration and
/// loads the accounts, timing each step (and recording spans if traced).
fn set_up(
    w: &Workload,
    seed: u64,
    obs: ObsMode,
    work: &WorkDir,
    n: usize,
    spans: Option<&mut Spans>,
) -> Deployed {
    let wal_dir = work.wal(n);
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create WAL dir");
    let program = se_workloads::ycsb_program();
    let t0 = Instant::now();
    let graph = se_core::compile(&program).expect("the YCSB program compiles");
    let t1 = Instant::now();
    let rt = StateflowRuntime::deploy(
        graph,
        pinned_config(w.durability, &wal_dir, obs, &work.obs()),
    );
    let t2 = Instant::now();
    load(&rt, seed);
    let t3 = Instant::now();
    if let Some(spans) = spans {
        let id = spans.phase_id();
        spans.record("compile", id, 0, t0, t1);
        spans.record("deploy", id, 0, t1, t2);
        spans.record("load", id, 0, t2, t3);
    }
    Deployed {
        rt,
        wal_dir,
        compile: t1 - t0,
        deploy: t2 - t1,
        load: t3 - t2,
    }
}

/// Median, 0 for no values.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs one invocation of the benchmark.
pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    if args.trace {
        run_traced(args, work)
    } else {
        run_untraced(args, work)
    }
}

/// Prints the engine's protocol counters to stderr, for the run record.
fn report_stats(rt: &StateflowRuntime) {
    let st = rt.stats();
    eprintln!(
        "rtbench: coordinator: batches {} commits {} failed {} aborts {} snapshots {} recoveries {}",
        st.batches.get(),
        st.commits.get(),
        st.failed.get(),
        st.aborts.get(),
        st.snapshots.get(),
        st.recoveries.get()
    );
}

/// Share of attempted requests answered correctly: errors, timeouts and
/// failed checks all count against it.
fn success_rate(tally: &Tally) -> f64 {
    1.0 - ratio(tally.failures() as f64, tally.issued as f64)
}

fn outcome(w: &Workload, tally: &Tally, metrics: Vec<Metric>) -> Outcome {
    let failed = tally.failures();
    eprintln!(
        "rtbench: {}: error_rate {} (errored {}, timed out {}, failed checks {}, attempted {})",
        w.name,
        1.0 - success_rate(tally),
        tally.errored,
        tally.timed_out,
        tally.failed_checks,
        tally.issued
    );
    Outcome {
        correct: failed == 0 && tally.issued > 0,
        attempted: tally.issued,
        failed,
        metrics,
    }
}

fn run_untraced(args: &Args, work: &WorkDir) -> Outcome {
    let w = &args.workload;
    let s = args.seconds;
    // The driven deployment is the first set-up; the others run after it
    // is torn down, so `rss_mb` sees one deployment's memory only.
    let d = set_up(w, args.seed, ObsMode::Off, work, 0, None);
    let mut setups = vec![d.setup().as_secs_f64()];
    let rt: &dyn EntityRuntime = &d.rt;

    let mut reqs = YcsbRequests::new(w, args.seed);
    let open = open_loop(rt, &mut reqs, w.open_rps, secs(OPEN_SHARE * s), DRAIN, None);
    // Read before the closed loop: the source log keeps every request, so
    // a later reading would track the closed loop's throughput.
    let rss_mb = ledger::peak_rss_kb() as f64 / 1024.0;
    let mut cl = ClosedLoop::new(w.window);
    let mut tally = open.tally;
    tally.absorb(&cl.run_for(rt, &mut reqs, secs(WARM_SHARE * s), None).tally);
    let (mut tputs, mut cpus) = (Vec::new(), Vec::new());
    let slices = ((CLOSED_SHARE * s / SLICE_S).round() as usize).max(1);
    for _ in 0..slices {
        let cpu0 = ledger::process_cpu_ns();
        let slice = cl.run_for(rt, &mut reqs, secs(SLICE_S), None);
        let cpu1 = ledger::process_cpu_ns();
        tputs.push(slice.throughput());
        // CPU per request is undefined for a slice that answered nothing.
        if slice.tally.completed() > 0 {
            cpus.push((cpu1 - cpu0) as f64 / 1e3 / slice.tally.completed() as f64);
        }
        tally.absorb(&slice.tally);
    }
    tally.absorb(&cl.drain(&mut reqs, DRAIN));
    tally.absorb(&final_check(w, &reqs, rt, args.seed));
    report_stats(&d.rt);
    d.tear_down();
    for n in 1..SETUPS {
        let extra = set_up(w, args.seed, ObsMode::Off, work, n, None);
        setups.push(extra.setup().as_secs_f64());
        extra.tear_down();
    }

    let metrics = vec![
        metric("tput_rps", median(tputs), "1/s"),
        metric("cpu_us_per_txn", median(cpus), "us"),
        metric("success_rate", success_rate(&tally), "ratio"),
        metric("setup_s", median(setups), "s"),
        metric("rss_mb", rss_mb, "MB"),
    ];
    outcome(w, &tally, metrics)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Registry state of a traced deployment at one instant.
struct ObsSnapshot {
    counters: HashMap<String, u64>,
    /// Per stage: bucket counts by bucket floor, and the sum of samples.
    stages: BTreeMap<Stage, (HashMap<u64, u64>, u64)>,
}

const LEDGER_STAGES: [Stage; 7] = [
    Stage::BatchSeal,
    Stage::BatchExec,
    Stage::BatchDecide,
    Stage::BatchCommit,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::EpochCut,
];

impl ObsSnapshot {
    fn take(rt: &StateflowRuntime) -> ObsSnapshot {
        let obs = rt.obs();
        let stages = LEDGER_STAGES
            .iter()
            .map(|&st| {
                let h = obs.stage_hist(st);
                (st, (h.nonzero_buckets().into_iter().collect(), h.sum()))
            })
            .collect();
        ObsSnapshot {
            counters: obs.registry().counter_values().into_iter().collect(),
            stages,
        }
    }
}

/// What a traced deployment's registry recorded between two snapshots.
struct ObsDelta<'a> {
    before: &'a ObsSnapshot,
    after: &'a ObsSnapshot,
}

impl ObsDelta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &ObsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// Sum of the stage's span durations, ns.
    fn stage_sum_ns(&self, st: Stage) -> f64 {
        self.after.stages[&st]
            .1
            .saturating_sub(self.before.stages[&st].1) as f64
    }

    /// Quantile of the stage's spans recorded in the interval, ns (bucket
    /// midpoint, so within the histogram's ≈6% resolution).
    fn stage_quantile_ns(&self, st: Stage, q: f64) -> f64 {
        let before = &self.before.stages[&st].0;
        let mut buckets: Vec<(u64, u64)> = self.after.stages[&st]
            .0
            .iter()
            .map(|(&floor, &c)| {
                (
                    floor,
                    c.saturating_sub(before.get(&floor).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        buckets.sort_unstable();
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (floor, c) in buckets {
            seen += c;
            if seen >= rank {
                let ceil = se_obs::hist::bucket_ceil(se_obs::hist::bucket_index(floor));
                return (floor + (ceil - floor) / 2) as f64;
            }
        }
        0.0
    }
}

/// One closed-loop measurement with everything read around it.
struct Measured {
    span: ClosedSpan,
    ledger: Ledger,
    rss_growth_kb: f64,
    written_bytes: f64,
}

fn measure_closed(
    cl: &mut ClosedLoop<crate::workload::Expect>,
    d: &Deployed,
    reqs: &mut YcsbRequests,
    duration: Duration,
) -> Measured {
    let (rss0, wal0) = (ledger::rss_kb(), ledger::written_bytes());
    let cpu0 = CpuSnapshot::take();
    let span = cl.run_for(&d.rt, reqs, duration, None);
    let cpu1 = CpuSnapshot::take();
    let (rss1, wal1) = (ledger::rss_kb(), ledger::written_bytes());
    Measured {
        span,
        ledger: Ledger::between(&cpu0, &cpu1),
        rss_growth_kb: rss1 as f64 - rss0 as f64,
        written_bytes: wal1 as f64 - wal0 as f64,
    }
}

fn run_traced(args: &Args, work: &WorkDir) -> Outcome {
    let w = &args.workload;
    let s = args.seconds;
    let mut spans = Spans::new();
    let mut tally = Tally::default();

    // Deployment A, untraced: latency, generator lateness, the CPU ledger
    // and the baseline for the tracing overhead.
    let a = set_up(w, args.seed, ObsMode::Off, work, 0, Some(&mut spans));
    let mut reqs = YcsbRequests::new(w, args.seed);
    let mut open = open_loop(&a.rt, &mut reqs, w.open_rps, secs(0.3 * s), DRAIN, None);
    tally.absorb(&open.tally);
    let mut cl = ClosedLoop::new(w.window);
    tally.absorb(&cl.run_for(&a.rt, &mut reqs, secs(0.05 * s), None).tally);
    let base = measure_closed(&mut cl, &a, &mut reqs, secs(0.25 * s));
    tally.absorb(&base.span.tally);
    tally.absorb(&cl.drain(&mut reqs, DRAIN));
    tally.absorb(&final_check(w, &reqs, &a.rt, args.seed));
    let (compile, deploy, load_time) = (a.compile, a.deploy, a.load);
    a.tear_down();

    // Deployment B, `ObsMode::Metrics`: the registry-derived figures. The
    // benchmark records its request spans in B's open loop and warm-up
    // only, so the measured stretch carries se-obs's overhead alone.
    let b = set_up(w, args.seed, ObsMode::Metrics, work, 1, Some(&mut spans));
    let mut reqs = YcsbRequests::new(w, args.seed);
    let phase = spans.phase_id();
    let traced = Some(Traced {
        spans: &mut spans,
        phase,
    });
    tally.absorb(&open_loop(&b.rt, &mut reqs, w.open_rps, secs(0.1 * s), DRAIN, traced).tally);
    let mut cl = ClosedLoop::new(w.window);
    let phase = spans.phase_id();
    let traced = Some(Traced {
        spans: &mut spans,
        phase,
    });
    tally.absorb(&cl.run_for(&b.rt, &mut reqs, secs(0.05 * s), traced).tally);
    let obs0 = ObsSnapshot::take(&b.rt);
    let updates0 = reqs.updates_ok;
    let meas = measure_closed(&mut cl, &b, &mut reqs, secs(0.25 * s));
    let obs1 = ObsSnapshot::take(&b.rt);
    let updates = (reqs.updates_ok - updates0) as f64;
    tally.absorb(&meas.span.tally);
    tally.absorb(&cl.drain(&mut reqs, DRAIN));
    tally.absorb(&final_check(w, &reqs, &b.rt, args.seed));
    b.tear_down();

    // Body execution alone, on a sample of the workload's own operations.
    let sample: Vec<_> = {
        let mut r = YcsbRequests::new(w, args.seed);
        (0..2_000).map(|_| r.next_op()).collect()
    };
    let graph = se_core::compile(&se_workloads::ycsb_program()).expect("the YCSB program compiles");
    let t0 = Instant::now();
    let body_ns = crate::body::ns_per_call(&graph, &sample, Duration::from_millis(200));
    let phase = spans.phase_id();
    spans.record("body_replay", phase, 0, t0, Instant::now());

    let trace_file = work.trace_file(w.name);
    if let Err(e) = spans.write_jsonl(&trace_file) {
        eprintln!("rtbench: cannot write {}: {e}", trace_file.display());
    }

    let d = ObsDelta {
        before: &obs0,
        after: &obs1,
    };
    let base_done = base.span.tally.completed() as f64;
    let per_txn_us = |ns: f64| ratio(ns / 1e3, base_done);
    let commits = d.counter("coord.commits");
    let batches = d.counter("coord.batches");
    let aborts = d.counter("coord.aborts");
    let l = &base.ledger;
    let traced_cpu = ratio(
        meas.ledger.process_ns as f64 / 1e3,
        meas.span.tally.completed() as f64,
    );
    let base_cpu = per_txn_us(l.process_ns as f64);
    let stage_us = |st| ratio(d.stage_sum_ns(st) / 1e3, commits);
    let stage_p50_us = |st| d.stage_quantile_ns(st, 0.5) / 1e3;
    let m = metric;
    let metrics = vec![
        m(
            "driver.issue_us",
            ratio(
                base.span.issue_ns as f64 / 1e3,
                base.span.tally.issued as f64,
            ),
            "us",
        ),
        m(
            "driver.late_p99_ms",
            ms(quantile(&mut open.lateness_ns, 0.99)),
            "ms",
        ),
        m(
            "driver.cpu_us_per_txn",
            per_txn_us(l.driver_ns as f64),
            "us",
        ),
        m("open.p50_ms", ms(open.latency_quantile(0.50)), "ms"),
        m("open.p99_ms", ms(open.latency_quantile(0.99)), "ms"),
        m("compile.ms", compile.as_secs_f64() * 1e3, "ms"),
        m("deploy.ms", deploy.as_secs_f64() * 1e3, "ms"),
        m(
            "load.create_us",
            load_time.as_secs_f64() * 1e6 / ACCOUNTS as f64,
            "us",
        ),
        m(
            "coord.cpu_us_per_txn",
            per_txn_us(l.coordinator_ns as f64),
            "us",
        ),
        m("coord.txns_per_batch", ratio(commits, batches), "count"),
        m("stage.batch_seal_us", stage_us(Stage::BatchSeal), "us"),
        m(
            "stage.batch_seal_p50_us",
            stage_p50_us(Stage::BatchSeal),
            "us",
        ),
        m("stage.batch_exec_us", stage_us(Stage::BatchExec), "us"),
        m(
            "stage.batch_exec_p50_us",
            stage_p50_us(Stage::BatchExec),
            "us",
        ),
        m("stage.batch_decide_us", stage_us(Stage::BatchDecide), "us"),
        m(
            "stage.batch_decide_p50_us",
            stage_p50_us(Stage::BatchDecide),
            "us",
        ),
        m("stage.batch_commit_us", stage_us(Stage::BatchCommit), "us"),
        m(
            "stage.batch_commit_p50_us",
            stage_p50_us(Stage::BatchCommit),
            "us",
        ),
        m(
            "worker.cpu_us_per_txn",
            per_txn_us(l.worker_ns as f64),
            "us",
        ),
        m("aria.abort_ratio", ratio(aborts, commits + aborts), "ratio"),
        m(
            "vm.runs_per_txn",
            ratio(d.counter("vm.body_runs"), commits),
            "count",
        ),
        m("body.ns_per_call", body_ns, "ns"),
        m("stage.wal_append_us", stage_us(Stage::WalAppend), "us"),
        m(
            "stage.wal_fsync_p99_us",
            d.stage_quantile_ns(Stage::WalFsync, 0.99) / 1e3,
            "us",
        ),
        m(
            "stage.epoch_cut_p50_us",
            stage_p50_us(Stage::EpochCut),
            "us",
        ),
        m(
            "wal.bytes_per_update",
            ratio(meas.written_bytes, updates),
            "B",
        ),
        m(
            "coord.snapshots_per_kbatch",
            ratio(d.counter("coord.snapshots") * 1e3, batches),
            "count",
        ),
        m(
            "mem.rss_growth_kb_per_ktxn",
            ratio(base.rss_growth_kb * 1e3, base_done),
            "KiB",
        ),
        m("obs.overhead", ratio(traced_cpu, base_cpu) - 1.0, "ratio"),
        m("ledger.process_us_per_txn", base_cpu, "us"),
        m(
            "ledger.other_us_per_txn",
            per_txn_us(l.other_ns as f64),
            "us",
        ),
        m(
            "ledger.residual_us_per_txn",
            per_txn_us(l.residual_ns() as f64),
            "us",
        ),
    ];
    outcome(w, &tally, metrics)
}
