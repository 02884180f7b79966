//! **Ablation A1** — Aria protocol design points (§3/§5).
//!
//! The paper builds StateFlow on "an extension of Aria" and motivates
//! borrowing "ideas from deterministic databases for minimizing the
//! coordination of transactions". This ablation quantifies two protocol
//! choices over a mixed YCSB+T-style workload (50% two-account transfers,
//! 50% two-account read-only audits) with increasing Zipfian contention:
//!
//! * **commit rule** — Basic (`¬WAW ∧ ¬RAW`) vs deterministic Reordering
//!   (`¬WAW ∧ (¬RAW ∨ ¬WAR)`). Reordering rescues read-only transactions
//!   whose reads are stale but whose (empty) write set conflicts with
//!   nothing; on pure read-write transfers the rules coincide.
//! * **fallback** — Retry (re-enqueue aborted transactions) vs Aria's
//!   Serial fallback (finish a batch's aborted transactions serially),
//!   which prevents the hot-key retry storm under heavy skew.
//!
//! Expected shape: reordering never aborts more than basic and its
//! advantage grows with skew; the serial fallback collapses batch counts at
//! high θ.

use std::io::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use se_aria::{run_to_completion_with, CommitRule, FallbackPolicy, Store, TxnCtx};
use se_lang::{EntityRef, EntityState, Value};
use se_workloads::{KeyChooser, Zipfian};

#[derive(Debug, Clone)]
enum Job {
    /// Move money between two accounts (read+write both).
    Transfer { from: usize, to: usize, amount: i64 },
    /// Read-only audit of two accounts.
    Audit { a: usize, b: usize },
}

fn account(i: usize) -> EntityRef {
    EntityRef::new("Account", format!("a{i}"))
}

fn exec_job(job: &Job, ctx: &mut TxnCtx<'_>) {
    match job {
        Job::Transfer { from, to, amount } => {
            let Some(src) = ctx.read(&account(*from)) else {
                return;
            };
            if src["balance"].as_int().unwrap() < *amount {
                return;
            }
            ctx.update(&account(*from), |s| {
                let b = s["balance"].as_int().unwrap();
                s.insert("balance", Value::Int(b - amount));
            });
            ctx.update(&account(*to), |s| {
                let b = s["balance"].as_int().unwrap();
                s.insert("balance", Value::Int(b + amount));
            });
        }
        Job::Audit { a, b } => {
            let _ = ctx.read(&account(*a));
            let _ = ctx.read(&account(*b));
        }
    }
}

fn fresh_store(n: usize) -> Store {
    (0..n)
        .map(|i| {
            (
                account(i),
                EntityState::from([("balance".to_string(), Value::Int(1_000_000))]),
            )
        })
        .collect()
}

fn main() {
    let n_accounts = 1000;
    let n_txns = se_bench::count("SE_ARIA_TXNS", 20_000);
    let batch_size = 64;
    let thetas = [0.6, 0.9, 0.99, 1.2];
    // Standalone Aria runs publish their schedule totals as `aria.*`
    // counters; SE_OBS=metrics|trace gets a run dump at exit.
    let obs = se_obs::Obs::new(&se_obs::ObsConfig::from_env("ablation-aria"));

    println!(
        "ablation_aria: {n_txns} txns (50% transfer / 50% audit), {n_accounts} accounts, \
         batch {batch_size}\n"
    );
    println!("| theta | rule | fallback | executions | aborts | abort rate | batches | fallback commits |");
    println!("|---|---|---|---|---|---|---|---|");

    let configs = [
        (CommitRule::Basic, FallbackPolicy::Retry),
        (CommitRule::Reordering, FallbackPolicy::Retry),
        (CommitRule::Reordering, FallbackPolicy::Serial),
    ];

    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    for &theta in &thetas {
        // One deterministic workload per theta, shared by all configs.
        let mut rng = StdRng::seed_from_u64(0xA51A);
        let mut zipf = Zipfian::with_theta(n_accounts, theta);
        let jobs: Vec<Job> = (0..n_txns)
            .map(|_| {
                let a = zipf.next_key(&mut rng);
                let mut b = zipf.next_key(&mut rng);
                if b == a {
                    b = (b + 1) % n_accounts;
                }
                if rng.gen_bool(0.5) {
                    Job::Transfer {
                        from: a,
                        to: b,
                        amount: 1,
                    }
                } else {
                    Job::Audit { a, b }
                }
            })
            .collect();

        let mut abort_rates = Vec::new();
        for (rule, fallback) in configs {
            let mut store = fresh_store(n_accounts);
            let stats = run_to_completion_with(
                &mut store,
                jobs.clone(),
                exec_job,
                rule,
                batch_size,
                fallback,
            );
            stats.publish(&obs);
            println!(
                "| {theta} | {rule:?} | {fallback:?} | {} | {} | {:.4} | {} | {} |",
                stats.executions,
                stats.aborts,
                stats.abort_rate(),
                stats.batches,
                stats.fallback_commits
            );
            json_rows.push(serde_json::json!({
                "theta": theta,
                "rule": format!("{rule:?}"),
                "fallback": format!("{fallback:?}"),
                "executions": stats.executions,
                "aborts": stats.aborts,
                "abort_rate": stats.abort_rate(),
                "batches": stats.batches,
                "fallback_commits": stats.fallback_commits,
            }));
            abort_rates.push((rule, fallback, stats.abort_rate(), stats.batches));
        }
        // Shape assertions.
        let basic = abort_rates[0].2;
        let reorder = abort_rates[1].2;
        assert!(
            reorder <= basic + 1e-12,
            "reordering must never abort more than basic (theta {theta})"
        );
        let retry_batches = abort_rates[1].3;
        let serial_batches = abort_rates[2].3;
        assert!(
            serial_batches <= retry_batches,
            "serial fallback must not need more batches (theta {theta})"
        );
    }

    let _ = std::fs::create_dir_all("bench_results");
    if let Ok(mut f) = std::fs::File::create("bench_results/ablation_aria.json") {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("serialize")
        );
    }
    let _ = obs.dump();
}
