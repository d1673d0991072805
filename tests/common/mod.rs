//! Helpers shared by the `serve_*` integration suites. Each suite
//! declares this module `pub mod common;`: a suite uses only some of the
//! helpers, and the unused items of a public module are not dead code.

use ttsv::serve::client::{trace_power_body, trace_register_body};
use ttsv::serve::protocol::{parse_power_update, parse_register};
use ttsv_chip::ChipEngine;

/// Side of the traced sessions' square floorplans.
pub const GRID: usize = 4;
/// Power-update rounds per traced session.
pub const ROUNDS: usize = 5;

/// Ground truth: traced session `session` (its register report plus one
/// report per power round) replayed directly against a fresh
/// single-worker engine — no sockets and no journal involved.
pub fn direct_session(session: usize) -> Vec<String> {
    let engine = ChipEngine::new().with_workers(1);
    let mut spec = parse_register(trace_register_body(GRID, session).as_bytes()).expect("register");
    let mut reports = vec![engine
        .evaluate_factored(&spec.plan, &spec.model)
        .expect("solvable")
        .to_json()];
    for round in 0..ROUNDS {
        let (plane, map) = parse_power_update(
            trace_power_body(GRID, session, round).as_bytes(),
            &spec.plan,
        )
        .expect("power update");
        spec.plan.update_power_map(plane, map).expect("same grid");
        reports.push(
            engine
                .evaluate_factored(&spec.plan, &spec.model)
                .expect("solvable")
                .to_json(),
        );
    }
    reports
}

/// The integer `/metrics` field `block.name`.
pub fn field(doc: &serde::json::Value, block: &str, name: &str) -> usize {
    doc.get(block)
        .and_then(|b| b.get(name))
        .and_then(serde::json::Value::as_usize)
        .unwrap_or_else(|| panic!("metrics field {block}.{name} missing"))
}
