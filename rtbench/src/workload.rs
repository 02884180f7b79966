//! The benchmark's workloads, their inputs (made from the seed alone) and
//! the checks on their outputs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use se_dataflow::EntityRuntime;
use se_lang::{EntityRef, Value};
use se_stateflow::DurabilityMode;
use se_workloads::{key_name, Distribution, OpGenerator, Operation, WorkloadSpec};

use crate::driver::{Request, Requests, Tally};

/// Accounts in every workload.
pub const ACCOUNTS: usize = 10_000;
/// Payload size of every record, bytes.
pub const PAYLOAD: usize = 1024;
/// Loop turns of `spin` bodies.
pub const SPIN_ITERS: i64 = 1024;

/// A named workload: operation mix, key distribution, durability, and the
/// rates of its open and closed loops.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in results.
    pub name: &'static str,
    /// Operation mix.
    pub spec: WorkloadSpec,
    /// Key popularity.
    pub dist: Distribution,
    /// Whether state is WAL-backed.
    pub durability: DurabilityMode,
    /// Open-loop rate, requests/s.
    pub open_rps: f64,
    /// Closed-loop window, requests outstanding.
    pub window: usize,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ycsb_a_wal",
        spec: WorkloadSpec::A,
        dist: Distribution::Uniform,
        durability: DurabilityMode::Wal,
        open_rps: 20_000.0,
        window: 256,
    },
    Workload {
        name: "ycsbt_zipf",
        spec: WorkloadSpec::T,
        dist: Distribution::Zipfian,
        durability: DurabilityMode::Off,
        open_rps: 5_000.0,
        window: 256,
    },
    Workload {
        name: "spin_uniform",
        spec: WorkloadSpec::C,
        dist: Distribution::Uniform,
        durability: DurabilityMode::Off,
        open_rps: 5_000.0,
        window: 64,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

fn mix(mut z: u64) -> u64 {
    // splitmix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Starting balance of account `i` under `seed`: 1 000 000..=1 000 999.
///
/// High enough that no transfer (amounts 1..=9) finds its source short
/// within a run: every transfer stays a two-account, two-partition-capable
/// transaction. With balances near the amounts, the hottest Zipfian
/// accounts drain early and transfers out of them turn into single-account
/// `false` answers, so the mix (and the throughput) drifts during the run.
pub fn initial_balance(seed: u64, i: usize) -> i64 {
    1_000_000 + (mix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000) as i64
}

/// What `spin(iters)` returns on an account holding `balance`, computed
/// directly: `acc = (acc * 31 + i) % 1000003` for `i` in `0..iters`.
pub fn spin_closed_form(balance: i64, iters: i64) -> i64 {
    let mut acc = balance;
    for i in 0..iters {
        acc = (acc * 31 + i).rem_euclid(1_000_003);
    }
    acc
}

/// What the checker remembers about one outstanding request.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A read: the answer must be a uniform `PAYLOAD`-byte record.
    Read,
    /// An update of account `key` (the `seq`-th update issued): the answer
    /// must be `true`.
    Update {
        /// Account index.
        key: usize,
        /// Issue sequence number among updates.
        seq: u64,
    },
    /// A transfer: the answer must be a boolean.
    Transfer,
    /// A spin on account `key`: the answer must be its closed form.
    Spin(usize),
}

/// The workload's request stream: operations drawn from the seed, plus the
/// per-response checks and the facts the final-state check needs.
pub struct YcsbRequests {
    gen: OpGenerator,
    rng: StdRng,
    /// `spin` answer per account (spin workloads only).
    spin_expect: Vec<i64>,
    /// Per updated key, the updates that may legally be the last one
    /// applied: `(seq, fill byte, answered)`. See [`YcsbRequests::next`].
    may_be_last: HashMap<usize, Vec<(u64, u8, bool)>>,
    updates_issued: u64,
    /// Updates whose answer was checked and correct.
    pub updates_ok: u64,
}

impl YcsbRequests {
    /// The request stream of `w` under `seed`.
    pub fn new(w: &Workload, seed: u64) -> YcsbRequests {
        let gen =
            OpGenerator::new(w.spec, w.dist.chooser(ACCOUNTS), PAYLOAD).with_spin_iters(SPIN_ITERS);
        let spin_expect = if w.spec.spin_pct > 0 {
            (0..ACCOUNTS)
                .map(|i| spin_closed_form(initial_balance(seed, i), SPIN_ITERS))
                .collect()
        } else {
            Vec::new()
        };
        YcsbRequests {
            gen,
            rng: StdRng::seed_from_u64(seed),
            spin_expect,
            may_be_last: HashMap::new(),
            updates_issued: 0,
            updates_ok: 0,
        }
    }

    /// The next raw operation (also used to sample ops for the body replay).
    pub fn next_op(&mut self) -> Operation {
        self.gen.next_op(&mut self.rng)
    }
}

/// Prints the first few check violations of a run to stderr.
fn report_violation(what: &str) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 10 {
        eprintln!("rtbench: check failed: {what}");
    }
}

/// A short rendering of an answer (records summarized, not dumped).
fn brief(v: &Value) -> String {
    match v {
        Value::Bytes(b) => {
            let distinct: std::collections::BTreeSet<u8> = b.iter().copied().collect();
            format!(
                "{} bytes, values {:?}",
                b.len(),
                distinct.iter().take(8).collect::<Vec<_>>()
            )
        }
        other => format!("{other:?}"),
    }
}

fn uniform_record(v: &Value) -> bool {
    matches!(v, Value::Bytes(b) if b.len() == PAYLOAD && b.iter().all(|&x| x == b[0]))
}

impl Requests for YcsbRequests {
    type Tag = Expect;

    fn next(&mut self) -> Request<Expect> {
        let op = self.next_op();
        let tag = match &op {
            Operation::Read { .. } => Expect::Read,
            Operation::Update { key, value } => {
                // Strict serializability orders an update after every
                // update it did not overlap: those answered before it was
                // sent can no longer be last. Updates still in flight may
                // serialize either side of it. (Aria's deterministic
                // reordering does use that freedom: a write of the value a
                // key already holds is no write at all, so such an update
                // commits as read-only, ordered before a concurrent writer
                // of the same batch.)
                let seq = self.updates_issued;
                self.updates_issued += 1;
                let open = self.may_be_last.entry(*key).or_default();
                open.retain(|&(_, _, answered)| !answered);
                open.push((seq, value[0], false));
                Expect::Update { key: *key, seq }
            }
            Operation::Transfer { .. } => Expect::Transfer,
            Operation::Spin { key, .. } => Expect::Spin(*key),
        };
        let (key, method, args) = op.to_invocation();
        Request {
            target: EntityRef::new("Account", key_name(key)),
            method,
            args,
            tag,
        }
    }

    fn check(&mut self, tag: Expect, v: &Value) -> bool {
        let ok = self.judge(tag, v);
        if !ok {
            report_violation(&format!("{tag:?} answered {}", brief(v)));
        }
        ok
    }
}

impl YcsbRequests {
    fn judge(&mut self, tag: Expect, v: &Value) -> bool {
        match tag {
            Expect::Read => uniform_record(v),
            Expect::Update { key, seq } => {
                if let Some(u) = self
                    .may_be_last
                    .get_mut(&key)
                    .and_then(|open| open.iter_mut().find(|u| u.0 == seq))
                {
                    u.2 = true;
                }
                let ok = *v == Value::Bool(true);
                self.updates_ok += ok as u64;
                ok
            }
            Expect::Transfer => matches!(v, Value::Bool(_)),
            Expect::Spin(key) => *v == Value::Int(self.spin_expect[key]),
        }
    }
}

/// Creates the `ACCOUNTS` accounts (`PAYLOAD` zero bytes, seeded balance)
/// from 16 client threads, each blocking on its creates in turn.
pub fn load(rt: &dyn EntityRuntime, seed: u64) {
    const THREADS: usize = 16;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in (t..ACCOUNTS).step_by(THREADS) {
                    rt.create(
                        "Account",
                        &key_name(i),
                        vec![
                            ("balance".to_string(), Value::Int(initial_balance(seed, i))),
                            ("data".to_string(), Value::Bytes(vec![0u8; PAYLOAD])),
                        ],
                    )
                    .expect("create account");
                }
            });
        }
    });
}

/// Calls `method` on every listed account through a closed window and
/// returns the answers in key order (`None` for errors and for answers
/// missing when the 10 s budget of the whole read runs out).
fn read_all(rt: &dyn EntityRuntime, keys: &[usize], method: &str) -> Vec<Option<Value>> {
    const WINDOW: usize = 256;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(WINDOW) {
        let waiters: Vec<_> = chunk
            .iter()
            .map(|&k| rt.call_async(EntityRef::new("Account", key_name(k)), method, vec![]))
            .collect();
        for w in waiters {
            let left = deadline.saturating_duration_since(Instant::now());
            out.push(w.wait_timeout(left).and_then(|r| r.ok()));
        }
    }
    out
}

/// Checks the state the workload leaves behind, once every request has been
/// answered. Returns a tally with one attempted request per check and a
/// failed check per violation.
pub fn final_check(w: &Workload, reqs: &YcsbRequests, rt: &dyn EntityRuntime, seed: u64) -> Tally {
    let mut tally = Tally::default();
    let mut verdict = |ok: bool| {
        tally.issued += 1;
        if ok {
            tally.ok += 1;
        } else {
            tally.failed_checks += 1;
        }
    };
    if w.spec.transfer_pct > 0 {
        // Transfers conserve the total balance and never overdraw.
        let keys: Vec<usize> = (0..ACCOUNTS).collect();
        let balances = read_all(rt, &keys, "balance");
        let expected: i64 = keys.iter().map(|&i| initial_balance(seed, i)).sum();
        let mut total = 0i64;
        for b in &balances {
            match b {
                Some(Value::Int(b)) if *b >= 0 => total += b,
                other => {
                    report_violation(&format!("balance read {other:?}"));
                    verdict(false)
                }
            }
        }
        if total != expected {
            report_violation(&format!("total balance {total}, expected {expected}"));
        }
        verdict(total == expected);
    }
    if w.spec.update_pct > 0 {
        // Each updated key holds the fill byte of an update that may be
        // the last one under strict serializability.
        let mut keys: Vec<usize> = reqs.may_be_last.keys().copied().collect();
        keys.sort_unstable();
        for (k, v) in keys.iter().zip(read_all(rt, &keys, "read")) {
            let fills: Vec<u8> = reqs.may_be_last[k].iter().map(|u| u.1).collect();
            let ok = matches!(&v, Some(Value::Bytes(b))
                if b.len() == PAYLOAD && fills.iter().any(|&f| b.iter().all(|&x| x == f)));
            if !ok {
                let got = v.as_ref().map_or("no answer".to_string(), brief);
                report_violation(&format!(
                    "key {k} holds {got}, possible last fills {fills:?}"
                ));
            }
            verdict(ok);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve_by_name() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let w = Workload::by_name("ycsb_a_wal").unwrap();
        let ops = |seed| {
            let mut r = YcsbRequests::new(&w, seed);
            (0..200).map(|_| r.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        assert_eq!(initial_balance(3, 42), initial_balance(3, 42));
        assert!((0..ACCOUNTS).all(|i| (1_000_000..1_001_000).contains(&initial_balance(9, i))));
    }

    #[test]
    fn spin_closed_form_matches_the_entity_program() {
        let program = se_workloads::ycsb_program();
        let rt = se_core::deploy(&program, se_core::RuntimeChoice::Local).unwrap();
        let balance = initial_balance(1, 5);
        let acct = rt
            .create(
                "Account",
                "a",
                vec![("balance".into(), Value::Int(balance))],
            )
            .unwrap();
        let got = rt.call(acct, "spin", vec![Value::Int(SPIN_ITERS)]).unwrap();
        assert_eq!(got, Value::Int(spin_closed_form(balance, SPIN_ITERS)));
    }

    #[test]
    fn answered_updates_drop_out_of_the_last_writer_candidates() {
        let w = Workload::by_name("ycsb_a_wal").unwrap();
        let mut r = YcsbRequests::new(&w, 11);
        // Issue requests until some key has two updates; answer nothing in
        // between, so both stay candidates.
        let mut tags = Vec::new();
        let twice = loop {
            let req = r.next();
            if let Expect::Update { key, .. } = req.tag {
                tags.push(req.tag);
                if r.may_be_last[&key].len() == 2 {
                    break key;
                }
            }
        };
        assert_eq!(
            r.may_be_last[&twice].len(),
            2,
            "overlapping updates may both be last"
        );
        // Answer every update so far, then keep issuing until `twice` is
        // updated again: only that newest update can now be last.
        for t in tags {
            assert!(r.check(t, &Value::Bool(true)));
        }
        loop {
            let req = r.next();
            if let Expect::Update { key, seq } = req.tag {
                if key == twice {
                    assert_eq!(r.may_be_last[&twice].len(), 1);
                    assert_eq!(r.may_be_last[&twice][0].0, seq);
                    break;
                }
            }
        }
    }

    #[test]
    fn checks_reject_wrong_answers() {
        let w = Workload::by_name("spin_uniform").unwrap();
        let mut r = YcsbRequests::new(&w, 4);
        let good = Value::Int(r.spin_expect[3]);
        assert!(r.check(Expect::Spin(3), &good));
        assert!(!r.check(Expect::Spin(3), &Value::Int(r.spin_expect[3] + 1)));
        assert!(r.check(Expect::Read, &Value::Bytes(vec![7; PAYLOAD])));
        let mut torn = vec![7; PAYLOAD];
        torn[9] = 8;
        assert!(!r.check(Expect::Read, &Value::Bytes(torn)));
        assert!(!r.check(Expect::Read, &Value::Bytes(vec![7; PAYLOAD - 1])));
        assert!(!r.check(Expect::Update { key: 0, seq: 0 }, &Value::Bool(false)));
        assert!(!r.check(Expect::Transfer, &Value::Int(1)));
    }
}
