//! Bitwise verification against in-process evaluation.
//!
//! A client-side mirror replays, per set-up session, the registration
//! and every update the server acknowledged, in the order the session's
//! connection sent them, and evaluates the result with
//! [`ChipEngine::evaluate_factored`]. The server's answers must be
//! byte-identical to the mirror's [`ChipReport::to_json`].

use ttsv_chip::ChipEngine;
use ttsv_serve::protocol::{apply_delta, parse_power_update, parse_register, SessionSpec};

use crate::gen::{Inputs, Kind, Request};
use crate::loadgen::Outcome;

/// The report JSON inside a `POST /sessions` response
/// (`{"session":N,"report":{…}}`).
#[must_use]
pub fn registered_report(body: &str) -> Option<&str> {
    let rest = body.strip_prefix("{\"session\":")?;
    let at = rest.find(",\"report\":")?;
    rest[at + ",\"report\":".len()..].strip_suffix('}')
}

/// Every update a session received, in order: `(request, response
/// status, response body if kept)`.
pub type SessionLog<'a> = Vec<(&'a Request, u16, Option<&'a str>)>;

/// Builds each set-up session's update log from the warm-up replies and
/// the two timed phases' outcomes.
#[must_use]
pub fn session_logs<'a>(
    inputs: &'a Inputs,
    warmup: &'a [(u16, String)],
    phases: &'a [[Vec<Outcome>; 2]; 2],
) -> Vec<SessionLog<'a>> {
    let mut logs: Vec<SessionLog<'a>> = vec![Vec::new(); inputs.registrations.len()];
    for (request, (status, body)) in inputs.warmup.iter().zip(warmup) {
        if request.kind == Kind::Update {
            logs[request.session].push((request, *status, Some(body.as_str())));
        }
    }
    let streams = [&inputs.latency, &inputs.throughput];
    for (phase, stream) in phases.iter().zip(streams) {
        for conn in 0..2 {
            for outcome in &phase[conn] {
                let request = &stream[conn][outcome.index];
                if request.kind == Kind::Update {
                    logs[request.session].push((request, outcome.status, outcome.body.as_deref()));
                }
            }
        }
    }
    logs
}

/// Replays a session's registration and acknowledged updates.
///
/// # Errors
///
/// Reports an update whose fate is unknown (the connection failed
/// mid-request) or a body the parsers reject.
pub fn mirror(registration: &Request, log: &SessionLog<'_>) -> Result<SessionSpec, String> {
    let mut spec = parse_register(&registration.body).map_err(|e| e.0)?;
    for (request, status, _) in log {
        match status {
            200 => {
                let (plane, map) =
                    parse_power_update(&request.body, &spec.plan).map_err(|e| e.0)?;
                spec.plan
                    .update_power_map(plane, map)
                    .map_err(|e| e.to_string())?;
            }
            0 => return Err("an update was lost mid-request; its effect is unknown".into()),
            // A refused or failed update leaves the session untouched.
            _ => {}
        }
    }
    Ok(spec)
}

/// The full report JSON the mirror expects for `spec`.
///
/// # Errors
///
/// Propagates an engine failure.
pub fn expected_json(engine: &ChipEngine, spec: &SessionSpec) -> Result<String, String> {
    engine
        .evaluate_factored(&spec.plan, &spec.model)
        .map(|r| r.to_json())
        .map_err(|e| e.to_string())
}

/// Folds a session's delta responses onto its registration report with
/// [`apply_delta`] and returns the final full report.
///
/// # Errors
///
/// Fails when a delta was not kept, or does not apply.
pub fn fold_deltas(registration_report: &str, log: &SessionLog<'_>) -> Result<String, String> {
    let mut report = registration_report.to_string();
    for (i, (_, status, body)) in log.iter().enumerate() {
        if *status != 200 {
            continue;
        }
        let delta = body.ok_or_else(|| format!("delta {i} was not kept"))?;
        report = apply_delta(&report, delta).map_err(|e| format!("delta {i}: {}", e.0))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_report_strips_the_envelope() {
        assert_eq!(
            registered_report("{\"session\":12,\"report\":{\"a\":1}}"),
            Some("{\"a\":1}")
        );
        assert_eq!(registered_report("{\"error\":\"x\"}"), None);
    }
}
