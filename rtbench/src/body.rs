//! Body execution measured on its own: a sample of the workload's own
//! operations replayed through `se_ir::process_invocation_with` with the VM
//! runner the runtime deploys, against one local entity state. No
//! coordinator, transport or commit is involved.

use std::time::{Duration, Instant};

use se_ir::{process_invocation_with, DataflowGraph, ExecBackend, Invocation, RequestId};
use se_lang::{EntityRef, Value};
use se_workloads::Operation;

use crate::workload::PAYLOAD;

/// Mean ns per `process_invocation_with` call over `ops`, replayed in
/// rounds until at least `budget` of timed work has run.
pub fn ns_per_call(graph: &DataflowGraph, ops: &[Operation], budget: Duration) -> f64 {
    assert!(!ops.is_empty(), "the replay needs at least one operation");
    let runner = se_vm::runner_for(ExecBackend::Vm, &graph.program);
    let class = &graph
        .program
        .class("Account")
        .expect("the YCSB program has an Account class")
        .class;
    let target = EntityRef::new("Account", "user0");
    let mut state = class.initial_state(
        "user0",
        [
            ("balance".to_string(), Value::Int(1_000_000_000)),
            ("data".to_string(), Value::Bytes(vec![0u8; PAYLOAD])),
        ],
    );
    let (mut calls, mut timed) = (0u64, Duration::ZERO);
    let mut request = 0u64;
    while timed < budget {
        // Build the round's invocations untimed; only the calls are timed.
        let round: Vec<Invocation> = ops
            .iter()
            .map(|op| {
                let (_, method, args) = op.to_invocation();
                request += 1;
                Invocation::root(RequestId(request), target, method, args)
            })
            .collect();
        let t0 = Instant::now();
        for inv in round {
            std::hint::black_box(process_invocation_with(
                &graph.program,
                runner.as_ref(),
                inv,
                &mut state,
            ));
        }
        timed += t0.elapsed();
        calls += ops.len() as u64;
    }
    timed.as_nanos() as f64 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_bodies_cost_more_than_reads() {
        let graph = se_core::compile(&se_workloads::ycsb_program()).unwrap();
        let reads = [Operation::Read { key: 1 }];
        let spins = [Operation::Spin {
            key: 1,
            iters: 1024,
        }];
        let budget = Duration::from_millis(20);
        let read_ns = ns_per_call(&graph, &reads, budget);
        let spin_ns = ns_per_call(&graph, &spins, budget);
        assert!(read_ns > 0.0);
        assert!(
            spin_ns > 4.0 * read_ns,
            "spin {spin_ns} ns vs read {read_ns} ns"
        );
    }
}
