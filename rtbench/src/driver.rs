//! The single-threaded load driver: an open loop at a fixed rate, timed from
//! each request's *due* time, and a closed loop with a bounded window of
//! outstanding requests.
//!
//! Open-loop latency runs from when a request was due to be sent, not from
//! when it was actually sent: a stall in the driver or in the runtime's
//! ingress delays every request queued behind it, and that wait is part of
//! what a user sees. How late the generator ran is reported on its own.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use se_dataflow::{EntityRuntime, ResponseWaiter};
use se_lang::{EntityRef, LangError, Value};

use crate::trace::Spans;

/// One generated request plus what the checker needs to judge its answer.
#[derive(Debug)]
pub struct Request<T> {
    /// Entity the request targets.
    pub target: EntityRef,
    /// Method to invoke.
    pub method: &'static str,
    /// Arguments.
    pub args: Vec<Value>,
    /// Checker state carried to the response.
    pub tag: T,
}

/// A stream of requests and the check applied to each response.
pub trait Requests {
    /// What the checker remembers about an outstanding request.
    type Tag;
    /// The next request of the workload.
    fn next(&mut self) -> Request<Self::Tag>;
    /// Whether `result` is a correct answer to the request tagged `tag`.
    /// Only called for `Ok` results; errors always count as failures.
    fn check(&mut self, tag: Self::Tag, result: &Value) -> bool;
}

/// Request outcomes of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub issued: u64,
    /// Answered correctly.
    pub ok: u64,
    /// Answered with an error.
    pub errored: u64,
    /// Answered, but the answer failed its check.
    pub failed_checks: u64,
    /// Never answered before the drain deadline.
    pub timed_out: u64,
}

impl Tally {
    /// Requests answered (correctly or not).
    pub fn completed(&self) -> u64 {
        self.ok + self.errored + self.failed_checks
    }

    /// Requests that errored, timed out or failed their check.
    pub fn failures(&self) -> u64 {
        self.errored + self.failed_checks + self.timed_out
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Tally) {
        self.issued += other.issued;
        self.ok += other.ok;
        self.errored += other.errored;
        self.failed_checks += other.failed_checks;
        self.timed_out += other.timed_out;
    }

    fn settle<R: Requests>(&mut self, reqs: &mut R, tag: R::Tag, result: Result<Value, LangError>) {
        match result {
            Err(_) => self.errored += 1,
            Ok(v) if reqs.check(tag, &v) => self.ok += 1,
            Ok(_) => self.failed_checks += 1,
        }
    }
}

struct Pending<T> {
    seq: u64,
    /// Open loop: when the request was due. Closed loop: when it was sent.
    due: Instant,
    tag: T,
    waiter: ResponseWaiter,
}

/// Sends one request; returns the waiter and the time spent inside
/// `call_async` (the runtime's ingress).
fn issue<T>(rt: &dyn EntityRuntime, req: Request<T>) -> (ResponseWaiter, T, Instant, Instant) {
    let Request {
        target,
        method,
        args,
        tag,
    } = req;
    let t0 = Instant::now();
    let waiter = rt.call_async(target, method, args);
    (waiter, tag, t0, Instant::now())
}

/// Span context of a traced phase: recorder and phase id.
pub struct Traced<'a> {
    /// Where spans go.
    pub spans: &'a mut Spans,
    /// The phase span the request spans hang under.
    pub phase: u64,
}

impl Traced<'_> {
    fn request(&mut self, name: &'static str, seq: u64, start: Instant, end: Instant) {
        let id = Spans::request_id(self.phase, seq);
        self.spans.record(name, id, self.phase, start, end);
    }
}

/// Exact sample quantile (nearest rank) of unsorted data, 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Outcome of an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopReport {
    /// Request outcomes.
    pub tally: Tally,
    /// Per answered request: due time → answer observed, ns.
    pub latency_ns: Vec<u64>,
    /// Per request: due time → `call_async` entered, ns.
    pub lateness_ns: Vec<u64>,
}

impl OpenLoopReport {
    /// Latency quantile over every answered request, ns.
    pub fn latency_quantile(&mut self, q: f64) -> u64 {
        quantile(&mut self.latency_ns, q)
    }
}

/// Sends `rps × duration` requests on a fixed schedule, whatever the
/// responses do, then waits up to `drain` for the stragglers. Request `i` is
/// due at `start + i / rps`; when the driver falls behind it sends every
/// overdue request back to back.
pub fn open_loop<R: Requests>(
    rt: &dyn EntityRuntime,
    reqs: &mut R,
    rps: f64,
    duration: Duration,
    drain: Duration,
    mut traced: Option<Traced<'_>>,
) -> OpenLoopReport {
    let n = (rps * duration.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rps);
    let mut rep = OpenLoopReport {
        latency_ns: Vec::with_capacity(n as usize),
        lateness_ns: Vec::with_capacity(n as usize),
        ..OpenLoopReport::default()
    };
    let mut pending: VecDeque<Pending<R::Tag>> = VecDeque::new();
    let start = Instant::now();
    let due_of = |i: u64| start + interval.mul_f64(i as f64);
    let mut next = 0u64;
    while next < n {
        while next < n && due_of(next) <= Instant::now() {
            let due = due_of(next);
            let req = reqs.next();
            let (waiter, tag, t0, t1) = issue(rt, req);
            rep.lateness_ns
                .push(t0.saturating_duration_since(due).as_nanos() as u64);
            if let Some(t) = traced.as_mut() {
                t.request("issue", next, t0, t1);
            }
            pending.push_back(Pending {
                seq: next,
                due,
                tag,
                waiter,
            });
            rep.tally.issued += 1;
            next += 1;
        }
        sweep_open(&mut pending, reqs, &mut rep, &mut traced);
        if next < n {
            let wait = due_of(next).saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }
    let deadline = Instant::now() + drain;
    while !pending.is_empty() && Instant::now() < deadline {
        if let Some(result) = pending[0].waiter.wait_timeout(Duration::from_millis(1)) {
            let p = pending.pop_front().expect("front exists");
            finish_open(p, result, Instant::now(), reqs, &mut rep, &mut traced);
        }
        sweep_open(&mut pending, reqs, &mut rep, &mut traced);
    }
    rep.tally.timed_out += pending.len() as u64;
    rep
}

fn finish_open<R: Requests>(
    p: Pending<R::Tag>,
    result: Result<Value, LangError>,
    now: Instant,
    reqs: &mut R,
    rep: &mut OpenLoopReport,
    traced: &mut Option<Traced<'_>>,
) {
    rep.latency_ns
        .push(now.saturating_duration_since(p.due).as_nanos() as u64);
    if let Some(t) = traced.as_mut() {
        t.request("complete", p.seq, p.due, now);
    }
    rep.tally.settle(reqs, p.tag, result);
}

fn sweep_open<R: Requests>(
    pending: &mut VecDeque<Pending<R::Tag>>,
    reqs: &mut R,
    rep: &mut OpenLoopReport,
    traced: &mut Option<Traced<'_>>,
) {
    if pending.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut still = VecDeque::with_capacity(pending.len());
    for p in pending.drain(..) {
        match p.waiter.try_wait() {
            Some(result) => finish_open(p, result, now, reqs, rep, traced),
            None => still.push_back(p),
        }
    }
    *pending = still;
}

/// Outcome of one stretch of a closed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedSpan {
    /// Requests sent and answered within the stretch.
    pub tally: Tally,
    /// Total time inside `call_async`, ns.
    pub issue_ns: u64,
    /// Wall time of the stretch.
    pub elapsed: Duration,
}

impl ClosedSpan {
    /// Answered requests per second.
    pub fn throughput(&self) -> f64 {
        self.tally.completed() as f64 / self.elapsed.as_secs_f64()
    }
}

/// A closed loop that keeps at most `window` requests outstanding: a new
/// request goes out only when an earlier one has been answered. State
/// persists across [`ClosedLoop::run_for`] calls so a warm-up stretch flows
/// straight into the measured one.
pub struct ClosedLoop<T> {
    window: usize,
    outstanding: VecDeque<Pending<T>>,
    next_seq: u64,
    max_outstanding: usize,
}

impl<T> ClosedLoop<T> {
    /// A loop with at most `window` (≥ 1) requests in flight.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "a closed loop needs a window of at least 1");
        ClosedLoop {
            window,
            outstanding: VecDeque::with_capacity(window),
            next_seq: 0,
            max_outstanding: 0,
        }
    }

    /// The most requests ever outstanding at once.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Keeps the window full for `duration`.
    pub fn run_for<R: Requests<Tag = T>>(
        &mut self,
        rt: &dyn EntityRuntime,
        reqs: &mut R,
        duration: Duration,
        mut traced: Option<Traced<'_>>,
    ) -> ClosedSpan {
        let mut span = ClosedSpan::default();
        let start = Instant::now();
        let end = start + duration;
        loop {
            while self.outstanding.len() < self.window {
                let (waiter, tag, t0, t1) = issue(rt, reqs.next());
                span.issue_ns += (t1 - t0).as_nanos() as u64;
                if let Some(t) = traced.as_mut() {
                    t.request("issue", self.next_seq, t0, t1);
                }
                self.outstanding.push_back(Pending {
                    seq: self.next_seq,
                    due: t0,
                    tag,
                    waiter,
                });
                self.next_seq += 1;
                span.tally.issued += 1;
            }
            self.max_outstanding = self.max_outstanding.max(self.outstanding.len());
            let now = Instant::now();
            if now >= end {
                break;
            }
            self.wait_some(
                (end - now).min(Duration::from_millis(1)),
                reqs,
                &mut span.tally,
                &mut traced,
            );
        }
        span.elapsed = start.elapsed();
        span
    }

    /// Waits up to `timeout` for everything still outstanding.
    pub fn drain<R: Requests<Tag = T>>(&mut self, reqs: &mut R, timeout: Duration) -> Tally {
        let mut tally = Tally::default();
        let deadline = Instant::now() + timeout;
        while !self.outstanding.is_empty() && Instant::now() < deadline {
            self.wait_some(Duration::from_millis(1), reqs, &mut tally, &mut None);
        }
        tally.timed_out += self.outstanding.len() as u64;
        self.outstanding.clear();
        tally
    }

    /// Blocks up to `timeout` on the oldest request, then collects every
    /// request that has been answered meanwhile.
    fn wait_some<R: Requests<Tag = T>>(
        &mut self,
        timeout: Duration,
        reqs: &mut R,
        tally: &mut Tally,
        traced: &mut Option<Traced<'_>>,
    ) {
        let Some(front) = self.outstanding.front() else {
            return;
        };
        let first = front.waiter.wait_timeout(timeout);
        let now = Instant::now();
        let mut finish = |p: Pending<T>, result, tally: &mut Tally| {
            if let Some(t) = traced.as_mut() {
                t.request("complete", p.seq, p.due, now);
            }
            tally.settle(reqs, p.tag, result);
        };
        if let Some(result) = first {
            let p = self.outstanding.pop_front().expect("front exists");
            finish(p, result, tally);
        }
        let mut still = VecDeque::with_capacity(self.window);
        for p in self.outstanding.drain(..) {
            match p.waiter.try_wait() {
                Some(result) => finish(p, result, tally),
                None => still.push_back(p),
            }
        }
        self.outstanding = still;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Mutex;

    use se_dataflow::ResponseCompleter;

    /// Requests that all target one entity and accept any answer.
    struct Echo;

    impl Requests for Echo {
        type Tag = ();
        fn next(&mut self) -> Request<()> {
            Request {
                target: EntityRef::new("Account", "user0"),
                method: "read",
                args: vec![],
                tag: (),
            }
        }
        fn check(&mut self, _tag: (), _result: &Value) -> bool {
            true
        }
    }

    /// A runtime that answers instantly, except that the `stall_at`-th
    /// `call_async` blocks for `stall` first (an ingress stall).
    struct StallingRuntime {
        calls: AtomicU64,
        stall_at: u64,
        stall: Duration,
    }

    impl EntityRuntime for StallingRuntime {
        fn name(&self) -> &str {
            "stalling"
        }
        fn create(
            &self,
            class: &str,
            key: &str,
            _: Vec<(String, Value)>,
        ) -> Result<EntityRef, LangError> {
            Ok(EntityRef::new(class, key))
        }
        fn call_async(&self, _: EntityRef, _: &str, _: Vec<Value>) -> ResponseWaiter {
            if self.calls.fetch_add(1, Ordering::SeqCst) == self.stall_at {
                std::thread::sleep(self.stall);
            }
            ResponseWaiter::ready(Ok(Value::Unit))
        }
        fn supports_transactions(&self) -> bool {
            true
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn an_ingress_stall_shows_in_p99_and_lateness() {
        // 1000 req/s for 0.6 s; request 100 stalls ingress for 120 ms, so
        // the ~120 requests due during the stall go out late. Timed from
        // send time every latency would be ~0 and the stall invisible.
        let rt = StallingRuntime {
            calls: AtomicU64::new(0),
            stall_at: 100,
            stall: Duration::from_millis(120),
        };
        let mut rep = open_loop(
            &rt,
            &mut Echo,
            1000.0,
            Duration::from_millis(600),
            Duration::from_secs(1),
            None,
        );
        assert_eq!(rep.tally.issued, 600);
        assert_eq!(rep.tally.ok, 600);
        let p99 = rep.latency_quantile(0.99);
        let late_p99 = quantile(&mut rep.lateness_ns, 0.99);
        assert!(p99 >= 90_000_000, "p99 {p99} ns hides the stall");
        assert!(
            late_p99 >= 90_000_000,
            "lateness p99 {late_p99} ns hides the stall"
        );
        let p50 = rep.latency_quantile(0.5);
        assert!(
            p50 < 20_000_000,
            "the stall should hit a minority, p50 {p50} ns"
        );
    }

    #[test]
    fn no_stall_means_no_lateness_tail() {
        let rt = StallingRuntime {
            calls: AtomicU64::new(0),
            stall_at: u64::MAX,
            stall: Duration::ZERO,
        };
        let mut rep = open_loop(
            &rt,
            &mut Echo,
            1000.0,
            Duration::from_millis(300),
            Duration::from_secs(1),
            None,
        );
        let late_p99 = quantile(&mut rep.lateness_ns, 0.99);
        assert!(
            late_p99 < 50_000_000,
            "lateness p99 {late_p99} ns without a stall"
        );
    }

    /// A runtime that answers each call ~200 µs later from a helper thread
    /// and counts how many calls it holds unanswered.
    struct DelayedRuntime {
        tx: Mutex<mpsc::Sender<(Instant, ResponseCompleter)>>,
        in_flight: std::sync::Arc<AtomicUsize>,
        max_in_flight: AtomicUsize,
    }

    impl EntityRuntime for DelayedRuntime {
        fn name(&self) -> &str {
            "delayed"
        }
        fn create(
            &self,
            class: &str,
            key: &str,
            _: Vec<(String, Value)>,
        ) -> Result<EntityRef, LangError> {
            Ok(EntityRef::new(class, key))
        }
        fn call_async(&self, _: EntityRef, _: &str, _: Vec<Value>) -> ResponseWaiter {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            let (c, w) = ResponseWaiter::new();
            let due = Instant::now() + Duration::from_micros(200);
            self.tx.lock().unwrap().send((due, c)).unwrap();
            w
        }
        fn supports_transactions(&self) -> bool {
            true
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        let (tx, rx) = mpsc::channel::<(Instant, ResponseCompleter)>();
        let in_flight = std::sync::Arc::new(AtomicUsize::new(0));
        let rt = DelayedRuntime {
            tx: Mutex::new(tx),
            in_flight: in_flight.clone(),
            max_in_flight: AtomicUsize::new(0),
        };
        let answerer = std::thread::spawn(move || {
            for (due, c) in rx {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Count the answer before the driver can see it.
                in_flight.fetch_sub(1, Ordering::SeqCst);
                c.complete(Ok(Value::Unit));
            }
        });
        let window = 8;
        let mut cl = ClosedLoop::new(window);
        let span = cl.run_for(&rt, &mut Echo, Duration::from_millis(200), None);
        let rest = cl.drain(&mut Echo, Duration::from_secs(2));
        drop(rt.tx);
        answerer.join().unwrap();
        assert!(span.tally.completed() > 0);
        assert_eq!(rest.timed_out, 0);
        assert_eq!(
            span.tally.issued,
            span.tally.completed() + rest.completed(),
            "every request is answered exactly once"
        );
        assert_eq!(cl.max_outstanding(), window, "the window is used in full");
        let seen = rt.max_in_flight.load(Ordering::SeqCst);
        assert!(
            seen <= window,
            "runtime saw {seen} requests in flight, window {window}"
        );
        assert!(seen >= window / 2, "runtime saw only {seen} in flight");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut v, 0.5), 3);
        assert_eq!(quantile(&mut v, 0.99), 5);
        assert_eq!(quantile(&mut v, 0.0), 1);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }
}
