//! The wire protocol: JSON request bodies → validated floorplan moves.
//!
//! `docs/PROTOCOL.md` is the authoritative description; in short:
//!
//! * **Register** (`POST /sessions`): `{"nx", "ny", "planes": [[W…]…],
//!   "via_density": d | [d…], "segments": [first, others]?}` — the stack
//!   geometry is the paper's §IV-E case study
//!   ([`CaseStudy::paper`](ttsv_core::full_chip::CaseStudy::paper)); the
//!   maps and the Model B segment counts come from the request.
//! * **Power delta** (`POST /sessions/{id}/power`): `{"plane": j,
//!   "tiles": [W…]}` replaces plane `j`'s whole map, or `{"plane": j,
//!   "updates": [[ix, iy, W]…]}` patches individual tiles — the cheap
//!   serving move: [`parse_power_sparse`] yields just the named tiles,
//!   and only those re-solve.
//!
//! Every validation failure is a [`ProtocolError`] (HTTP 400 with the
//! message in an `{"error": …}` body) — malformed JSON, wrong shapes,
//! non-finite numbers, out-of-range indices, and floorplan constraint
//! violations all land here; nothing panics on client input.

use std::fmt::Write as _;

use serde::json::{usize_from_f64, Event, Reader, Value};
use serde::Serialize;
use ttsv_chip::{ChipReport, Floorplan, PowerMap, ViaDensityMap};
use ttsv_core::full_chip::CaseStudy;
use ttsv_core::model_b::ModelB;
use ttsv_units::Power;

/// A rejected request body: the message for the 400 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// A parsed registration: the floorplan and the Model B configuration.
/// The server moves both into the session's
/// [`LiveChip`](ttsv_chip::LiveChip) (via
/// [`ChipEngine::evaluate_live`](ttsv_chip::ChipEngine::evaluate_live)),
/// which owns them for the session's life; power updates parse against
/// the chip's [`plan`](ttsv_chip::LiveChip::plan).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The registered floorplan.
    pub plan: Floorplan,
    /// The Model B configuration every evaluation uses.
    pub model: ModelB,
}

fn field<'a>(obj: &'a Value, name: &str) -> Result<&'a Value, ProtocolError> {
    obj.get(name)
        .ok_or_else(|| err(format!("missing field {name:?}")))
}

fn usize_field(obj: &Value, name: &str) -> Result<usize, ProtocolError> {
    field(obj, name)?
        .as_usize()
        .ok_or_else(|| err(format!("field {name:?} must be a non-negative integer")))
}

/// A request member's value, as far as the decoders look into it.
#[derive(Debug)]
enum Member {
    Number(f64),
    /// An array's entries in order, with NaN for each entry that is not a
    /// number: the reader rejects non-finite numbers, so a body cannot
    /// spell a NaN itself.
    Array(Vec<f64>),
    Other,
}

impl Member {
    fn read<'a>(reader: &mut Reader<'a>, first: Event<'a>) -> Result<Self, String> {
        Ok(match first {
            Event::Number(v) => Member::Number(v),
            Event::BeginArray => {
                let mut entries = Vec::new();
                loop {
                    match reader.numbers(&mut entries)? {
                        Event::EndArray => break Member::Array(entries),
                        other => {
                            reader.skip(&other)?;
                            entries.push(f64::NAN);
                        }
                    }
                }
            }
            other => {
                reader.skip(&other)?;
                Member::Other
            }
        })
    }

    fn as_usize(&self) -> Option<usize> {
        match *self {
            Member::Number(v) => usize_from_f64(v),
            _ => None,
        }
    }
}

/// A member that must be an array of arrays (`planes`, `updates`): its
/// elements as [`Member`]s, or `None` when it is not an array.
fn read_nested<'a>(
    reader: &mut Reader<'a>,
    first: Event<'a>,
) -> Result<Option<Vec<Member>>, String> {
    if first != Event::BeginArray {
        reader.skip(&first)?;
        return Ok(None);
    }
    let mut elements = Vec::new();
    loop {
        match reader.next()? {
            Event::EndArray => return Ok(Some(elements)),
            event => elements.push(Member::read(reader, event)?),
        }
    }
}

/// Stores the value `first` begins in `slot` unless an earlier member of
/// the same key filled it (the first of duplicate keys wins); a later
/// duplicate is skipped, but still syntax-checked.
fn keep_first<'a, T>(
    slot: &mut Option<T>,
    reader: &mut Reader<'a>,
    first: Event<'a>,
    read: fn(&mut Reader<'a>, Event<'a>) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return reader.skip(&first);
    }
    *slot = Some(read(reader, first)?);
    Ok(())
}

/// Reads a whole request body in one pass, handing each top-level member
/// (key and first event) to `member`, which consumes its value. A body
/// that is not an object has no members. The whole body is read before
/// any member is judged, so a syntax error anywhere in it is reported
/// before any shape error, as the [`Value`] tree parse reports it.
fn decode_members<'a>(
    body: &'a [u8],
    mut member: impl FnMut(&mut Reader<'a>, &str, Event<'a>) -> Result<(), String>,
) -> Result<(), ProtocolError> {
    let text = std::str::from_utf8(body).map_err(|_| err("request body is not valid UTF-8"))?;
    let mut reader = Reader::new(text);
    let mut read = || -> Result<(), String> {
        match reader.next()? {
            Event::BeginObject => loop {
                match reader.next()? {
                    Event::EndObject => break,
                    Event::Key(key) => {
                        let first = reader.next()?;
                        member(&mut reader, &key, first)?;
                    }
                    event => unreachable!("{event:?} where the reader yields a key or `}}`"),
                }
            },
            other => reader.skip(&other)?,
        }
        Ok(())
    };
    read()
        .and_then(|()| reader.finish())
        .map_err(|e| err(format!("malformed JSON body: {e}")))
}

fn usize_member(slot: Option<&Member>, name: &str) -> Result<usize, ProtocolError> {
    slot.ok_or_else(|| err(format!("missing field {name:?}")))?
        .as_usize()
        .ok_or_else(|| err(format!("field {name:?} must be a non-negative integer")))
}

fn watts_array(member: Member, expected: usize, what: &str) -> Result<Vec<Power>, ProtocolError> {
    let Member::Array(entries) = member else {
        return Err(err(format!("{what} must be an array of watts")));
    };
    if entries.len() != expected {
        return Err(err(format!(
            "{what} holds {} tiles but the grid needs {expected}",
            entries.len()
        )));
    }
    if entries.iter().any(|v| v.is_nan()) {
        return Err(err(format!("{what} entries must be numbers")));
    }
    Ok(entries.into_iter().map(Power::from_watts).collect())
}

/// Parses a `POST /sessions` registration body.
///
/// One pass over the body writes every number straight into the plane
/// and density vectors; members may come in any order, the first of
/// duplicate keys wins, and unknown members are skipped (but still
/// syntax-checked).
///
/// # Errors
///
/// Returns a [`ProtocolError`] on malformed JSON, missing/ill-typed
/// fields, or maps the floorplan constructors reject.
pub fn parse_register(body: &[u8]) -> Result<SessionSpec, ProtocolError> {
    let (mut nx, mut ny, mut planes, mut via_density, mut segments) =
        (None, None, None, None, None);
    decode_members(body, |reader, key, first| match key {
        "nx" => keep_first(&mut nx, reader, first, Member::read),
        "ny" => keep_first(&mut ny, reader, first, Member::read),
        "planes" => keep_first(&mut planes, reader, first, read_nested),
        "via_density" => keep_first(&mut via_density, reader, first, Member::read),
        "segments" => keep_first(&mut segments, reader, first, Member::read),
        _ => reader.skip(&first),
    })?;

    let nx = usize_member(nx.as_ref(), "nx")?;
    let ny = usize_member(ny.as_ref(), "ny")?;
    let tiles = nx
        .checked_mul(ny)
        .ok_or_else(|| err("grid size overflows"))?;

    let planes = planes
        .ok_or_else(|| err("missing field \"planes\""))?
        .ok_or_else(|| err("field \"planes\" must be an array of per-plane tile arrays"))?;
    let plane_maps = planes
        .into_iter()
        .enumerate()
        .map(|(j, p)| {
            let watts = watts_array(p, tiles, &format!("plane {j}"))?;
            PowerMap::new(nx, ny, watts).map_err(|e| err(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let via_map = match via_density.ok_or_else(|| err("missing field \"via_density\""))? {
        Member::Array(entries) => {
            if entries.len() != tiles {
                return Err(err(format!(
                    "via_density holds {} tiles but the grid needs {tiles}",
                    entries.len()
                )));
            }
            if entries.iter().any(|v| v.is_nan()) {
                return Err(err("via_density entries must be numbers"));
            }
            ViaDensityMap::new(nx, ny, entries)
        }
        Member::Number(d) => ViaDensityMap::uniform(nx, ny, d),
        Member::Other => return Err(err("field \"via_density\" must be a number or array")),
    }
    .map_err(|e| err(e.to_string()))?;

    let model = match segments {
        None => ModelB::paper_b20(),
        Some(Member::Array(pair)) if pair.len() == 2 => {
            let count =
                |v: f64| usize_from_f64(v).ok_or_else(|| err("segment counts must be integers"));
            let (first, others) = (count(pair[0])?, count(pair[1])?);
            if first == 0 || others == 0 || first > 1_000 || others > 10_000 {
                return Err(err("segment counts must be in 1..=1000 / 1..=10000"));
            }
            ModelB::with_segments(first, others)
        }
        Some(_) => return Err(err("field \"segments\" must be [first, others]")),
    };

    let plan =
        Floorplan::new(&CaseStudy::paper(), plane_maps, via_map).map_err(|e| err(e.to_string()))?;
    Ok(SessionSpec { plan, model })
}

/// A parsed `POST /sessions/{id}/power` body (see [`parse_power_sparse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PowerUpdate {
    /// `"updates"`: the named tiles as `(row-major index, watts)` pairs in
    /// ascending tile order, a repeated tile resolved last-wins.
    Tiles(Vec<(usize, Power)>),
    /// `"tiles"`: the plane's whole replacement map.
    Map(PowerMap),
}

impl PowerUpdate {
    /// The update as ascending `(tile, watts)` pairs against the plane's
    /// `current` map: a whole-map replacement keeps only the tiles whose
    /// watts differ bitwise.
    #[must_use]
    pub fn into_entries(self, current: &PowerMap) -> Vec<(usize, Power)> {
        match self {
            Self::Tiles(entries) => entries,
            Self::Map(map) => map
                .tiles()
                .iter()
                .zip(current.tiles())
                .enumerate()
                .filter(|(_, (new, old))| new.as_watts().to_bits() != old.as_watts().to_bits())
                .map(|(tile, (new, _))| (tile, *new))
                .collect(),
        }
    }
}

/// Parses a `POST /sessions/{id}/power` body against the session's
/// current floorplan without copying its maps: the plane index plus
/// either the named tiles or the whole replacement map. The one
/// validator behind every power-update path.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on malformed JSON, a plane or tile index
/// outside the grid, or power values the map constructor rejects.
pub fn parse_power_sparse(
    body: &[u8],
    plan: &Floorplan,
) -> Result<(usize, PowerUpdate), ProtocolError> {
    let (mut plane, mut tiles, mut updates) = (None, None, None);
    decode_members(body, |reader, key, first| match key {
        "plane" => keep_first(&mut plane, reader, first, Member::read),
        "tiles" => keep_first(&mut tiles, reader, first, Member::read),
        "updates" => keep_first(&mut updates, reader, first, read_nested),
        _ => reader.skip(&first),
    })?;
    let plane = usize_member(plane.as_ref(), "plane")?;
    if plane >= plan.plane_count() {
        return Err(err(format!(
            "plane {plane} out of range for a {}-plane session",
            plan.plane_count()
        )));
    }
    let (nx, ny) = (plan.nx(), plan.ny());

    if let Some(tiles) = tiles {
        let watts = watts_array(tiles, nx * ny, "tiles")?;
        let map = PowerMap::new(nx, ny, watts).map_err(|e| err(e.to_string()))?;
        return Ok((plane, PowerUpdate::Map(map)));
    }

    let updates = updates
        .ok_or_else(|| err("missing field \"updates\""))?
        .ok_or_else(|| err("field \"updates\" must be an array of [ix, iy, watts]"))?;
    let mut entries: Vec<(usize, Power)> = Vec::with_capacity(updates.len());
    for u in updates {
        let [ix, iy, w] = match u {
            Member::Array(triple) => <[f64; 3]>::try_from(triple).ok(),
            _ => None,
        }
        .ok_or_else(|| err("each update must be [ix, iy, watts]"))?;
        let ix = usize_from_f64(ix).ok_or_else(|| err("update indices must be integers"))?;
        let iy = usize_from_f64(iy).ok_or_else(|| err("update indices must be integers"))?;
        if w.is_nan() {
            return Err(err("update watts must be a number"));
        }
        if ix >= nx || iy >= ny {
            return Err(err(format!(
                "update tile ({ix}, {iy}) outside the {nx}\u{d7}{ny} grid"
            )));
        }
        entries.push((iy * nx + ix, Power::from_watts(w)));
    }
    // The stable sort keeps a repeated tile's entries in body order, so
    // keeping the last of each run is last-wins.
    entries.sort_by_key(|&(tile, _)| tile);
    entries.dedup_by(|next, kept| {
        let repeat = next.0 == kept.0;
        if repeat {
            *kept = *next;
        }
        repeat
    });
    // Checked after repeats resolve and in tile order: the same first
    // offender the whole-map check would report.
    for &(_, w) in &entries {
        PowerMap::check_power(w).map_err(|e| err(e.to_string()))?;
    }
    Ok((plane, PowerUpdate::Tiles(entries)))
}

/// Parses a `POST /sessions/{id}/power` body against the session's
/// current floorplan, returning the plane index and its replacement map
/// (the [`parse_power_sparse`] result folded onto the current map).
///
/// # Errors
///
/// As [`parse_power_sparse`].
pub fn parse_power_update(
    body: &[u8],
    plan: &Floorplan,
) -> Result<(usize, PowerMap), ProtocolError> {
    let (plane, update) = parse_power_sparse(body, plan)?;
    let map = match update {
        PowerUpdate::Map(map) => map,
        PowerUpdate::Tiles(entries) => {
            let mut tiles = plan.plane_maps()[plane].tiles().to_vec();
            for (tile, watts) in entries {
                tiles[tile] = watts;
            }
            PowerMap::new(plan.nx(), plan.ny(), tiles).map_err(|e| err(e.to_string()))?
        }
    };
    Ok((plane, map))
}

/// Renders the delta-response body for a power update: only the tiles
/// whose `ΔT` changed bitwise between `prev` and `next`, plus `next`'s
/// full summary statistics — [`render_delta_tiles`] with the changed
/// list computed by a bitwise diff.
///
/// # Panics
///
/// Panics if the two reports cover different tile counts — a delta only
/// makes sense within one session, whose grid is fixed at registration.
#[must_use]
pub fn render_delta(prev: &ChipReport, next: &ChipReport) -> String {
    assert_eq!(
        prev.delta_t.len(),
        next.delta_t.len(),
        "delta responses require a fixed grid"
    );
    let changed: Vec<usize> = prev
        .delta_t
        .iter()
        .zip(&next.delta_t)
        .enumerate()
        .filter(|(_, (p, n))| p.to_bits() != n.to_bits())
        .map(|(i, _)| i)
        .collect();
    render_delta_tiles(next, &changed)
}

/// Renders the delta-response body for `next` listing the tiles in
/// `changed` (ascending row-major indices whose `ΔT` changed bitwise since
/// the previous report), plus `next`'s full summary statistics.
///
/// The wire format (`"delta":true` is the discriminator — full reports
/// never carry it):
///
/// ```json
/// {"delta":true,"model":…,"nx":…,"ny":…,"tiles":…,
///  "changed":[[index,delta_t]…],
///  "max_delta_t":…,"mean_delta_t":…,"p99_delta_t":…,
///  "argmax_ix":…,"argmax_iy":…,"total_vias":…,"distinct_cells":…}
/// ```
///
/// Every number is rendered exactly as [`ChipReport::to_json`] would
/// render it (shortest round-trip floats), so [`apply_delta`] can rebuild
/// the full report byte-for-byte.
///
/// # Panics
///
/// Panics if an index in `changed` is outside the report.
#[must_use]
pub fn render_delta_tiles(next: &ChipReport, changed: &[usize]) -> String {
    let mut body = String::with_capacity(320 + 32 * changed.len());
    body.push_str("{\"delta\":true");
    push_field(&mut body, "model", &next.model);
    push_field(&mut body, "nx", &next.nx);
    push_field(&mut body, "ny", &next.ny);
    push_field(&mut body, "tiles", &next.tiles);
    body.push_str(",\"changed\":[");
    for (k, &i) in changed.iter().enumerate() {
        if k > 0 {
            body.push(',');
        }
        write!(body, "[{i},").expect("writing to a String");
        serde::json::write_to(&mut body, &next.delta_t[i]);
        body.push(']');
    }
    body.push(']');
    push_field(&mut body, "max_delta_t", &next.max_delta_t);
    push_field(&mut body, "mean_delta_t", &next.mean_delta_t);
    push_field(&mut body, "p99_delta_t", &next.p99_delta_t);
    push_field(&mut body, "argmax_ix", &next.argmax_ix);
    push_field(&mut body, "argmax_iy", &next.argmax_iy);
    push_field(&mut body, "total_vias", &next.total_vias);
    push_field(&mut body, "distinct_cells", &next.distinct_cells);
    body.push('}');
    body
}

/// Appends `,"key":value` to an object being written into `body`.
fn push_field(body: &mut String, key: &str, value: &impl Serialize) {
    write!(body, ",\"{key}\":").expect("writing to a String");
    serde::json::write_to(body, value);
}

fn f64_at(doc: &Value, name: &str) -> Result<f64, ProtocolError> {
    field(doc, name)?
        .as_f64()
        .ok_or_else(|| err(format!("field {name:?} must be a number")))
}

/// Applies a [`render_delta`] body on top of the previous *full* report
/// JSON, reproducing the next full report exactly as the server would
/// have rendered it with `?full=1`.
///
/// Byte-exactness holds because both sides render floats in shortest
/// round-trip form: parsing a full report recovers every `f64` bit
/// pattern, and re-rendering a recovered `f64` reproduces its original
/// text.
///
/// # Errors
///
/// Returns a [`ProtocolError`] when either document is malformed, the
/// delta is not a delta (`"delta":true` missing), or a changed-tile index
/// falls outside the previous report's grid.
pub fn apply_delta(prev_full: &str, delta: &str) -> Result<String, ProtocolError> {
    let prev = serde::json::from_str(prev_full)
        .map_err(|e| err(format!("malformed previous report: {e}")))?;
    let doc =
        serde::json::from_str(delta).map_err(|e| err(format!("malformed delta response: {e}")))?;
    if !matches!(doc.get("delta"), Some(Value::Bool(true))) {
        return Err(err("not a delta response (missing \"delta\":true)"));
    }

    let mut delta_t: Vec<f64> = field(&prev, "delta_t")?
        .as_array()
        .ok_or_else(|| err("previous report field \"delta_t\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| err("previous report delta_t entries must be numbers"))
        })
        .collect::<Result<_, _>>()?;
    let changed = field(&doc, "changed")?
        .as_array()
        .ok_or_else(|| err("field \"changed\" must be an array of [index, delta_t]"))?;
    for entry in changed {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| err("each changed entry must be [index, delta_t]"))?;
        let i = pair[0]
            .as_usize()
            .ok_or_else(|| err("changed indices must be integers"))?;
        let v = pair[1]
            .as_f64()
            .ok_or_else(|| err("changed values must be numbers"))?;
        if i >= delta_t.len() {
            return Err(err(format!(
                "changed tile {i} outside the {}-tile grid",
                delta_t.len()
            )));
        }
        delta_t[i] = v;
    }

    // `to_json` writes the fields in `ChipReport`'s order: exactly the
    // full report the server renders.
    let next = ChipReport {
        model: field(&doc, "model")?
            .as_str()
            .ok_or_else(|| err("field \"model\" must be a string"))?
            .to_string(),
        nx: usize_field(&doc, "nx")?,
        ny: usize_field(&doc, "ny")?,
        delta_t,
        max_delta_t: f64_at(&doc, "max_delta_t")?,
        mean_delta_t: f64_at(&doc, "mean_delta_t")?,
        p99_delta_t: f64_at(&doc, "p99_delta_t")?,
        argmax_ix: usize_field(&doc, "argmax_ix")?,
        argmax_iy: usize_field(&doc, "argmax_iy")?,
        total_vias: f64_at(&doc, "total_vias")?,
        distinct_cells: usize_field(&doc, "distinct_cells")?,
        tiles: usize_field(&doc, "tiles")?,
    };
    Ok(next.to_json())
}

/// Renders a register body for `grid × grid` tiles with explicit
/// per-plane watt arrays — shared by the bench client, docs, and tests.
#[must_use]
pub fn render_register_body(nx: usize, ny: usize, planes: &[Vec<f64>], via_density: f64) -> String {
    let mut body = format!("{{\"nx\":{nx},\"ny\":{ny},\"planes\":[");
    for (j, plane) in planes.iter().enumerate() {
        if j > 0 {
            body.push(',');
        }
        body.push('[');
        for (i, w) in plane.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            write!(body, "{w}").expect("writing to a String");
        }
        body.push(']');
    }
    write!(body, "],\"via_density\":{via_density}}}").expect("writing to a String");
    body
}

/// Renders a full-replacement power body (`{"plane": j, "tiles": [W…]}`)
/// for an existing map — the journal's snapshot+compaction
/// ([`crate::persist`]) folds a session's whole update history into one
/// such record per touched plane. Watts are rendered with `Display`
/// (`{}`: shortest round-trip digits, never in exponent form, so `1e-7`
/// is `0.0000001`), not the reports' `{:?}` form: parsing the rendered
/// body recovers every `f64` bit pattern, the fold is bit-exact, and
/// compaction records keep the bytes they have always had.
#[must_use]
pub fn render_power_body_full(plane: usize, map: &PowerMap) -> String {
    let mut body = format!("{{\"plane\":{plane},\"tiles\":[");
    for (i, w) in map.tiles().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write!(body, "{}", w.as_watts()).expect("writing to a String");
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_core::scenario::ThermalModel;

    fn register_body(nx: usize, ny: usize) -> String {
        let tiles = nx * ny;
        #[allow(clippy::cast_precision_loss)]
        let planes: Vec<Vec<f64>> = (0..3)
            .map(|j| {
                (0..tiles)
                    .map(|i| 0.5 + 0.01 * (i as f64) + 0.1 * (j as f64))
                    .collect()
            })
            .collect();
        render_register_body(nx, ny, &planes, 0.005)
    }

    #[test]
    fn register_round_trips_grid_and_planes() {
        let spec = parse_register(register_body(3, 2).as_bytes()).unwrap();
        assert_eq!((spec.plan.nx(), spec.plan.ny()), (3, 2));
        assert_eq!(spec.plan.plane_count(), 3);
        assert_eq!(spec.model.name(), ModelB::paper_b20().name());
        assert!((spec.plan.plane_maps()[0].get(1, 0).as_watts() - 0.51).abs() < 1e-12);
    }

    #[test]
    fn register_accepts_density_arrays_and_segment_overrides() {
        let body = "{\"nx\":2,\"ny\":1,\"planes\":[[1,2],[0.1,0.2]],\
                    \"via_density\":[0.004,0.006],\"segments\":[3,30]}";
        let spec = parse_register(body.as_bytes()).unwrap();
        assert!((spec.plan.via_map().get(1, 0) - 0.006).abs() < 1e-12);
        assert_eq!(spec.model.name(), ModelB::with_segments(3, 30).name());
    }

    #[test]
    fn register_rejections_name_the_problem() {
        let cases: &[(&str, &str)] = &[
            ("not json", "malformed JSON"),
            ("{\"ny\":1,\"planes\":[],\"via_density\":0.005}", "missing field \"nx\""),
            ("{\"nx\":2,\"ny\":1,\"planes\":[[1,2]],\"via_density\":0.005}", "at least 2 plane"),
            ("{\"nx\":2,\"ny\":1,\"planes\":[[1],[2]],\"via_density\":0.005}", "grid needs 2"),
            ("{\"nx\":2,\"ny\":1,\"planes\":[[1,2],[-1,0]],\"via_density\":0.005}", "non-negative"),
            ("{\"nx\":2,\"ny\":1,\"planes\":[[1,2],[1,1]],\"via_density\":2.0}", "(0, 1)"),
            (
                "{\"nx\":2,\"ny\":1,\"planes\":[[1,2],[1,1]],\"via_density\":0.005,\"segments\":[0,5]}",
                "segment counts",
            ),
        ];
        for (body, needle) in cases {
            let got = parse_register(body.as_bytes()).unwrap_err();
            assert!(got.0.contains(needle), "{body} → {got}");
        }
    }

    #[test]
    fn power_updates_patch_tiles_in_place() {
        let spec = parse_register(register_body(2, 2).as_bytes()).unwrap();
        let (plane, map) =
            parse_power_update(b"{\"plane\":1,\"updates\":[[0,1,9.5]]}", &spec.plan).unwrap();
        assert_eq!(plane, 1);
        assert!((map.get(0, 1).as_watts() - 9.5).abs() < 1e-12);
        // Untouched tiles keep the registered values.
        assert_eq!(
            map.get(1, 0).as_watts(),
            spec.plan.plane_maps()[1].get(1, 0).as_watts()
        );
    }

    #[test]
    fn delta_render_and_apply_round_trip_bitwise() {
        use ttsv_chip::ChipEngine;

        let engine = ChipEngine::new().with_workers(1);
        let spec = parse_register(register_body(4, 4).as_bytes()).unwrap();
        let before = engine.evaluate_factored(&spec.plan, &spec.model).unwrap();

        let mut plan = spec.plan.clone();
        let (plane, map) =
            parse_power_update(b"{\"plane\":0,\"updates\":[[1,2,9.0],[3,0,4.5]]}", &plan).unwrap();
        plan.update_power_map(plane, map).unwrap();
        let after = engine.evaluate_factored(&plan, &spec.model).unwrap();

        let delta = render_delta(&before, &after);
        assert!(delta.starts_with("{\"delta\":true,"));
        assert!(delta.contains("\"max_delta_t\""));
        assert!(
            delta.len() < after.to_json().len(),
            "a two-tile update's delta ({} B) must undercut the full report ({} B)",
            delta.len(),
            after.to_json().len()
        );
        let rebuilt = apply_delta(&before.to_json(), &delta).unwrap();
        assert_eq!(rebuilt, after.to_json(), "byte-exact reconstruction");
    }

    #[test]
    fn delta_with_no_changes_still_reconstructs() {
        let engine = ttsv_chip::ChipEngine::new().with_workers(1);
        let spec = parse_register(register_body(3, 3).as_bytes()).unwrap();
        let report = engine.evaluate_factored(&spec.plan, &spec.model).unwrap();
        let delta = render_delta(&report, &report);
        assert!(delta.contains("\"changed\":[]"), "{delta}");
        assert_eq!(
            apply_delta(&report.to_json(), &delta).unwrap(),
            report.to_json()
        );
    }

    #[test]
    fn delta_bytes_of_a_literal_report_are_pinned() {
        let next = ChipReport {
            model: "B(10,1000)".to_string(),
            nx: 3,
            ny: 1,
            delta_t: vec![1.5, 0.1 + 0.2, 1e21],
            max_delta_t: 1e21,
            mean_delta_t: 0.9000000000000001,
            p99_delta_t: 1e21,
            argmax_ix: 2,
            argmax_iy: 0,
            total_vias: 1.25e-7,
            distinct_cells: 1,
            tiles: 3,
        };
        let delta = render_delta_tiles(&next, &[0, 2]);
        assert_eq!(
            delta,
            "{\"delta\":true,\"model\":\"B(10,1000)\",\"nx\":3,\"ny\":1,\"tiles\":3,\
             \"changed\":[[0,1.5],[2,1e21]],\"max_delta_t\":1e21,\
             \"mean_delta_t\":0.9000000000000001,\"p99_delta_t\":1e21,\"argmax_ix\":2,\
             \"argmax_iy\":0,\"total_vias\":1.25e-7,\"distinct_cells\":1}"
        );
        let prev = ChipReport {
            delta_t: vec![0.0, 0.1 + 0.2, 0.0],
            ..next.clone()
        };
        assert_eq!(
            apply_delta(&prev.to_json(), &delta).unwrap(),
            next.to_json()
        );
    }

    #[test]
    fn apply_delta_rejections_name_the_problem() {
        let engine = ttsv_chip::ChipEngine::new().with_workers(1);
        let spec = parse_register(register_body(2, 2).as_bytes()).unwrap();
        let full = engine
            .evaluate_factored(&spec.plan, &spec.model)
            .unwrap()
            .to_json();
        for (delta, needle) in [
            ("not json", "malformed delta"),
            (full.as_str(), "not a delta response"),
            ("{\"delta\":true}", "missing field \"changed\""),
            (
                "{\"delta\":true,\"changed\":[[99,1.0]],\"model\":\"m\",\"nx\":2,\"ny\":2,\
                 \"tiles\":4,\"max_delta_t\":1,\"mean_delta_t\":1,\"p99_delta_t\":1,\
                 \"argmax_ix\":0,\"argmax_iy\":0,\"total_vias\":1,\"distinct_cells\":1}",
                "outside the 4-tile grid",
            ),
        ] {
            let got = apply_delta(&full, delta).unwrap_err();
            assert!(got.0.contains(needle), "{delta} → {got}");
        }
        assert!(apply_delta("broken", "{\"delta\":true}")
            .unwrap_err()
            .0
            .contains("malformed previous report"));
    }

    #[test]
    fn full_power_body_render_round_trips_bitwise() {
        let spec = parse_register(register_body(3, 2).as_bytes()).unwrap();
        let (plane, map) = parse_power_update(
            b"{\"plane\":1,\"updates\":[[0,1,9.5],[2,0,0.125]]}",
            &spec.plan,
        )
        .unwrap();
        let body = render_power_body_full(plane, &map);
        let (plane2, map2) = parse_power_update(body.as_bytes(), &spec.plan).unwrap();
        assert_eq!(plane2, plane);
        let bits = |m: &PowerMap| -> Vec<u64> {
            m.tiles().iter().map(|w| w.as_watts().to_bits()).collect()
        };
        assert_eq!(bits(&map2), bits(&map), "render → parse is bit-exact");
    }

    #[test]
    fn power_update_full_replacement_and_rejections() {
        let spec = parse_register(register_body(2, 1).as_bytes()).unwrap();
        let (_, map) = parse_power_update(b"{\"plane\":0,\"tiles\":[4,5]}", &spec.plan).unwrap();
        assert_eq!(map.get(1, 0).as_watts(), 5.0);
        for (body, needle) in [
            (&b"{\"plane\":7,\"updates\":[]}"[..], "out of range"),
            (b"{\"plane\":0,\"updates\":[[5,0,1.0]]}", "outside the"),
            (b"{\"plane\":0,\"updates\":[[0,0,-3.0]]}", "non-negative"),
            (b"{\"plane\":0}", "missing field \"updates\""),
        ] {
            let got = parse_power_update(body, &spec.plan).unwrap_err();
            assert!(got.0.contains(needle), "{got}");
        }
    }

    #[test]
    fn a_tile_named_twice_resolves_last_wins() {
        let spec = parse_register(register_body(2, 2).as_bytes()).unwrap();
        let body = b"{\"plane\":0,\"updates\":[[1,0,5.0],[0,1,-1],[0,0,2.0],[1,0,7.5],[0,1,3]]}";
        let (plane, update) = parse_power_sparse(body, &spec.plan).unwrap();
        let w = Power::from_watts;
        assert_eq!(plane, 0);
        assert_eq!(
            update,
            PowerUpdate::Tiles(vec![(0, w(2.0)), (1, w(7.5)), (2, w(3.0))])
        );
        let (_, map) = parse_power_update(body, &spec.plan).unwrap();
        assert_eq!(map.get(1, 0).as_watts(), 7.5);
        assert_eq!(map.get(0, 1).as_watts(), 3.0);
        // Rejected watts name the first offending tile in row-major order,
        // as the whole-map check always has.
        let bad = b"{\"plane\":0,\"updates\":[[1,1,-2],[1,0,-1]]}";
        let got = parse_power_sparse(bad, &spec.plan).unwrap_err();
        assert_eq!(got, parse_power_update(bad, &spec.plan).unwrap_err());
        assert!(got.0.contains("non-negative, got -1"), "{got}");
    }

    #[test]
    fn a_whole_map_update_keeps_only_bitwise_changed_tiles() {
        let spec = parse_register(register_body(2, 1).as_bytes()).unwrap();
        let current = &spec.plan.plane_maps()[0];
        let same = current.tiles()[0].as_watts();
        let body = format!("{{\"plane\":0,\"tiles\":[{same},9]}}");
        let (_, update) = parse_power_sparse(body.as_bytes(), &spec.plan).unwrap();
        assert_eq!(update.into_entries(current), [(1, Power::from_watts(9.0))]);
    }

    #[test]
    fn a_same_watts_update_answers_an_empty_delta() {
        let engine = ttsv_chip::ChipEngine::new().with_workers(1);
        let spec = parse_register(register_body(3, 3).as_bytes()).unwrap();
        let mut live = engine.evaluate_live(spec.plan, &spec.model).unwrap();
        let before = live.report().to_json();
        let same = live.plan().plane_maps()[2].get(1, 2).as_watts();
        let body = format!("{{\"plane\":2,\"updates\":[[1,2,{same}]]}}");
        let (plane, update) = parse_power_sparse(body.as_bytes(), live.plan()).unwrap();
        let entries = update.into_entries(&live.plan().plane_maps()[plane]);
        let changed = live.apply(&engine, plane, &entries).unwrap();
        assert!(changed.is_empty());
        let delta = render_delta_tiles(live.report(), &changed);
        assert!(delta.contains("\"changed\":[]"), "{delta}");
        assert_eq!(apply_delta(&before, &delta).unwrap(), before);
    }

    #[test]
    fn display_rendered_bodies_keep_their_bytes() {
        // The journal's compaction records and the bench/test register
        // bodies stay on `Display`, which never switches to exponent form:
        // their bytes are what older journals hold.
        let map =
            PowerMap::new(2, 1, vec![Power::from_watts(1e-7), Power::from_watts(1e16)]).unwrap();
        assert_eq!(
            render_power_body_full(1, &map),
            "{\"plane\":1,\"tiles\":[0.0000001,10000000000000000]}"
        );
        assert_eq!(
            render_register_body(2, 1, &[vec![1e-7, 1e16], vec![0.5, 2.0]], 5e-5),
            "{\"nx\":2,\"ny\":1,\"planes\":[[0.0000001,10000000000000000],[0.5,2]],\
             \"via_density\":0.00005}"
        );
    }

    /// The `Value`-tree decoders the one-pass decoders replaced, kept as
    /// the reference [`decoders_match_the_value_tree_reference`] holds
    /// them to.
    mod tree {
        use super::*;

        fn parse_body(body: &[u8]) -> Result<Value, ProtocolError> {
            let text =
                std::str::from_utf8(body).map_err(|_| err("request body is not valid UTF-8"))?;
            serde::json::from_str(text).map_err(|e| err(format!("malformed JSON body: {e}")))
        }

        fn watts_array(
            value: &Value,
            expected: usize,
            what: &str,
        ) -> Result<Vec<Power>, ProtocolError> {
            let entries = value
                .as_array()
                .ok_or_else(|| err(format!("{what} must be an array of watts")))?;
            if entries.len() != expected {
                return Err(err(format!(
                    "{what} holds {} tiles but the grid needs {expected}",
                    entries.len()
                )));
            }
            entries
                .iter()
                .map(|v| {
                    v.as_f64()
                        .map(Power::from_watts)
                        .ok_or_else(|| err(format!("{what} entries must be numbers")))
                })
                .collect()
        }

        pub(super) fn parse_register(body: &[u8]) -> Result<SessionSpec, ProtocolError> {
            let doc = parse_body(body)?;
            let nx = usize_field(&doc, "nx")?;
            let ny = usize_field(&doc, "ny")?;
            let tiles = nx
                .checked_mul(ny)
                .ok_or_else(|| err("grid size overflows"))?;
            let planes = field(&doc, "planes")?
                .as_array()
                .ok_or_else(|| err("field \"planes\" must be an array of per-plane tile arrays"))?;
            let plane_maps = planes
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    let watts = watts_array(p, tiles, &format!("plane {j}"))?;
                    PowerMap::new(nx, ny, watts).map_err(|e| err(e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let via_map = match field(&doc, "via_density")? {
                Value::Array(entries) => {
                    if entries.len() != tiles {
                        return Err(err(format!(
                            "via_density holds {} tiles but the grid needs {tiles}",
                            entries.len()
                        )));
                    }
                    let densities = entries
                        .iter()
                        .map(|v| {
                            v.as_f64()
                                .ok_or_else(|| err("via_density entries must be numbers"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    ViaDensityMap::new(nx, ny, densities)
                }
                scalar => {
                    let d = scalar
                        .as_f64()
                        .ok_or_else(|| err("field \"via_density\" must be a number or array"))?;
                    ViaDensityMap::uniform(nx, ny, d)
                }
            }
            .map_err(|e| err(e.to_string()))?;
            let model = match doc.get("segments") {
                None => ModelB::paper_b20(),
                Some(v) => {
                    let pair = v
                        .as_array()
                        .ok_or_else(|| err("field \"segments\" must be [first, others]"))?;
                    let (first, others) = match (pair.first(), pair.get(1)) {
                        (Some(f), Some(o)) if pair.len() == 2 => (
                            f.as_usize()
                                .ok_or_else(|| err("segment counts must be integers"))?,
                            o.as_usize()
                                .ok_or_else(|| err("segment counts must be integers"))?,
                        ),
                        _ => return Err(err("field \"segments\" must be [first, others]")),
                    };
                    if first == 0 || others == 0 || first > 1_000 || others > 10_000 {
                        return Err(err("segment counts must be in 1..=1000 / 1..=10000"));
                    }
                    ModelB::with_segments(first, others)
                }
            };
            let plan = Floorplan::new(&CaseStudy::paper(), plane_maps, via_map)
                .map_err(|e| err(e.to_string()))?;
            Ok(SessionSpec { plan, model })
        }

        pub(super) fn parse_power_sparse(
            body: &[u8],
            plan: &Floorplan,
        ) -> Result<(usize, PowerUpdate), ProtocolError> {
            let doc = parse_body(body)?;
            let plane = usize_field(&doc, "plane")?;
            if plane >= plan.plane_count() {
                return Err(err(format!(
                    "plane {plane} out of range for a {}-plane session",
                    plan.plane_count()
                )));
            }
            let (nx, ny) = (plan.nx(), plan.ny());
            if let Some(tiles) = doc.get("tiles") {
                let watts = watts_array(tiles, nx * ny, "tiles")?;
                let map = PowerMap::new(nx, ny, watts).map_err(|e| err(e.to_string()))?;
                return Ok((plane, PowerUpdate::Map(map)));
            }
            let updates = field(&doc, "updates")?
                .as_array()
                .ok_or_else(|| err("field \"updates\" must be an array of [ix, iy, watts]"))?;
            let mut entries: Vec<(usize, Power)> = Vec::with_capacity(updates.len());
            for u in updates {
                let triple = u
                    .as_array()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| err("each update must be [ix, iy, watts]"))?;
                let ix = triple[0]
                    .as_usize()
                    .ok_or_else(|| err("update indices must be integers"))?;
                let iy = triple[1]
                    .as_usize()
                    .ok_or_else(|| err("update indices must be integers"))?;
                let w = triple[2]
                    .as_f64()
                    .ok_or_else(|| err("update watts must be a number"))?;
                if ix >= nx || iy >= ny {
                    return Err(err(format!(
                        "update tile ({ix}, {iy}) outside the {nx}\u{d7}{ny} grid"
                    )));
                }
                entries.push((iy * nx + ix, Power::from_watts(w)));
            }
            entries.sort_by_key(|&(tile, _)| tile);
            entries.dedup_by(|next, kept| {
                let repeat = next.0 == kept.0;
                if repeat {
                    *kept = *next;
                }
                repeat
            });
            for &(_, w) in &entries {
                PowerMap::check_power(w).map_err(|e| err(e.to_string()))?;
            }
            Ok((plane, PowerUpdate::Tiles(entries)))
        }
    }

    /// Seeded JSON text for the oracle test: well-formed documents with
    /// shuffled members, random whitespace, escaped and duplicate keys,
    /// nested unknown members and integers spelled as floats.
    struct Bodies(proptest::test_runner::TestRng);

    impl Bodies {
        fn below(&mut self, n: usize) -> usize {
            self.0.u64_in(0, n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn ws(&mut self) -> &'static str {
            [" ", "\n  ", "\t", "\r\n", "", "", "", ""][self.below(8)]
        }

        fn number(&mut self, v: f64) -> String {
            match self.below(4) {
                0 => format!("{v}"),
                1 => format!("{v:e}"),
                _ => format!("{v:?}"),
            }
        }

        fn watts(&mut self) -> f64 {
            match self.below(50) {
                0 => -0.5,
                1 => 0.0,
                2 => 1e-7,
                _ => self.0.next_f64() * 3.0,
            }
        }

        fn integer(&mut self, n: usize) -> String {
            match self.below(20) {
                0..=2 => format!("{n}.0"),
                3..=4 => format!("{n}e0"),
                5 => format!("{n}.5"),
                6 if n == 0 => "-0".to_string(),
                _ => n.to_string(),
            }
        }

        /// Any JSON value, nested at most `depth` more levels.
        fn junk(&mut self, depth: usize) -> String {
            let ws = self.ws();
            match self.below(if depth == 0 { 5 } else { 8 }) {
                0 => "null".to_string(),
                1 => ["true", "false"][self.below(2)].to_string(),
                2 => {
                    let v = self.watts();
                    self.number(v)
                }
                3 => "\"a\\\"b\\u00e9\\n\"".to_string(),
                4 => self.integer(3),
                5 | 6 => {
                    let items: Vec<String> =
                        (0..self.below(4)).map(|_| self.junk(depth - 1)).collect();
                    format!("[{ws}{}{ws}]", items.join(&format!("{ws},")))
                }
                _ => {
                    let members: Vec<String> = (0..self.below(3))
                        .map(|i| format!("\"k{i}\"{ws}:{}", self.junk(depth - 1)))
                        .collect();
                    format!("{{{}}}", members.join(","))
                }
            }
        }

        fn array(&mut self, items: Vec<String>) -> String {
            let ws = self.ws();
            format!("[{ws}{}{ws}]", items.join(&format!(",{ws}")))
        }

        fn numbers(&mut self, len: usize, value: impl Fn(&mut Self) -> f64) -> String {
            let items = (0..len)
                .map(|_| {
                    if self.chance(2) {
                        self.junk(1)
                    } else {
                        let v = value(self);
                        self.number(v)
                    }
                })
                .collect();
            self.array(items)
        }

        /// Shuffles `members`, adds unknown and duplicate ones, and
        /// renders the object.
        fn object(&mut self, mut members: Vec<(String, String)>) -> String {
            for _ in 0..self.below(3) {
                let value = self.junk(3);
                let key = [
                    "extra",
                    "n\\u0078",
                    "plane",
                    "segments",
                    "via_density",
                    "tiles",
                ][self.below(6)];
                members.push((key.to_string(), value));
            }
            if !members.is_empty() && self.chance(20) {
                let (key, _) = members[self.below(members.len())].clone();
                let value = self.junk(2);
                members.push((key, value));
            }
            if self.chance(5) {
                let depth = 62 + self.below(5);
                let deep = "[".repeat(depth) + &"]".repeat(depth);
                members.push(("deep".to_string(), deep));
            }
            for i in (1..members.len()).rev() {
                let j = self.below(i + 1);
                members.swap(i, j);
            }
            let body: Vec<String> = members
                .into_iter()
                .map(|(k, v)| {
                    let (a, b) = (self.ws(), self.ws());
                    format!("{a}\"{k}\"{b}:{a}{v}{b}")
                })
                .collect();
            format!("{{{}}}", body.join(","))
        }

        fn register(&mut self) -> String {
            let nx = 1 + self.below(3);
            let ny = 1 + self.below(3);
            let tiles = if self.chance(5) { nx * ny + 1 } else { nx * ny };
            let mut members = Vec::new();
            for (key, n) in [("nx", nx), ("ny", ny)] {
                if !self.chance(3) {
                    let v = if self.chance(5) {
                        self.junk(1)
                    } else {
                        self.integer(n)
                    };
                    members.push((key.to_string(), v));
                }
            }
            if !self.chance(3) {
                // The §IV-E stack needs at least two planes.
                let count = if self.chance(10) {
                    1
                } else {
                    2 + self.below(2)
                };
                let planes = (0..count)
                    .map(|_| {
                        if self.chance(3) {
                            self.junk(1)
                        } else {
                            self.numbers(tiles, Self::watts)
                        }
                    })
                    .collect();
                let planes = self.array(planes);
                members.push(("planes".to_string(), planes));
            }
            if !self.chance(3) {
                let density = match self.below(10) {
                    0 => self.junk(1),
                    1..=3 => self.numbers(tiles, |g| g.0.next_f64() * 0.02),
                    _ => {
                        let d = if self.chance(10) { 1.5 } else { 0.004 };
                        self.number(d)
                    }
                };
                members.push(("via_density".to_string(), density));
            }
            if self.chance(50) {
                let segments = if self.chance(10) {
                    self.junk(2)
                } else {
                    let counts: Vec<String> = (0..if self.chance(90) { 2 } else { 3 })
                        .map(|_| {
                            let n = self.below(12);
                            self.integer(n)
                        })
                        .collect();
                    self.array(counts)
                };
                members.push(("segments".to_string(), segments));
            }
            self.object(members)
        }

        fn power(&mut self) -> String {
            let mut members = Vec::new();
            if !self.chance(3) {
                let plane = self.below(4);
                let plane = self.integer(plane);
                members.push(("plane".to_string(), plane));
            }
            if self.chance(30) {
                let len = if self.chance(10) { 5 } else { 6 };
                let tiles = self.numbers(len, Self::watts);
                members.push(("tiles".to_string(), tiles));
            }
            if !self.chance(5) {
                let updates = (0..self.below(4))
                    .map(|_| {
                        if self.chance(5) {
                            return self.junk(1);
                        }
                        let (ix, iy) = (self.below(4), self.below(3));
                        let w = self.watts();
                        let mut triple = vec![self.integer(ix), self.integer(iy), self.number(w)];
                        if self.chance(5) {
                            triple.pop();
                        }
                        self.array(triple)
                    })
                    .collect();
                let updates = self.array(updates);
                members.push(("updates".to_string(), updates));
            }
            self.object(members)
        }

        /// `body` truncated, or with one byte replaced, inserted or
        /// deleted.
        fn mutate(&mut self, body: &str) -> Vec<u8> {
            const BYTES: &[u8] = b"{}[],:\"\\0123456789-+.eEtfnu \n\xff\xc3";
            let mut bytes = body.as_bytes().to_vec();
            let at = self.below(bytes.len());
            let byte = BYTES[self.below(BYTES.len())];
            match self.below(4) {
                0 => bytes.truncate(at),
                1 => bytes[at] = byte,
                2 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
            bytes
        }
    }

    type SpecBits = (usize, usize, Vec<Vec<u64>>, Vec<u64>, String);

    fn spec_bits(parsed: Result<SessionSpec, ProtocolError>) -> Result<SpecBits, String> {
        let spec = parsed.map_err(|e| e.0)?;
        let plan = &spec.plan;
        let planes = plan
            .plane_maps()
            .iter()
            .map(|m| m.tiles().iter().map(|w| w.as_watts().to_bits()).collect())
            .collect();
        let densities = (0..plan.tiles())
            .map(|t| plan.via_map().get(t % plan.nx(), t / plan.nx()).to_bits())
            .collect();
        Ok((plan.nx(), plan.ny(), planes, densities, spec.model.name()))
    }

    type UpdateBits = (usize, bool, Vec<(usize, u64)>);

    fn update_bits(
        parsed: Result<(usize, PowerUpdate), ProtocolError>,
    ) -> Result<UpdateBits, String> {
        let (plane, update) = parsed.map_err(|e| e.0)?;
        Ok(match update {
            PowerUpdate::Map(map) => (
                plane,
                true,
                map.tiles()
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i, w.as_watts().to_bits()))
                    .collect(),
            ),
            PowerUpdate::Tiles(entries) => (
                plane,
                false,
                entries
                    .into_iter()
                    .map(|(i, w)| (i, w.as_watts().to_bits()))
                    .collect(),
            ),
        })
    }

    #[test]
    fn decoders_match_the_value_tree_reference() {
        let mut bodies = Bodies(proptest::test_runner::TestRng::new(0x0d3c_0de5));
        let plan = parse_register(register_body(3, 2).as_bytes()).unwrap().plan;
        let (mut accepted, mut rejected) = (0, 0);
        let mut check = |body: &[u8], register: bool| {
            let same = if register {
                let ours = spec_bits(parse_register(body));
                let reference = spec_bits(tree::parse_register(body));
                let same = ours == reference;
                (same, ours.is_ok())
            } else {
                let ours = update_bits(parse_power_sparse(body, &plan));
                let reference = update_bits(tree::parse_power_sparse(body, &plan));
                (ours == reference, ours.is_ok())
            };
            assert!(
                same.0,
                "decoders disagree on {:?}",
                String::from_utf8_lossy(body)
            );
            if same.1 {
                accepted += 1;
            } else {
                rejected += 1;
            }
        };
        for case in 0..1_500 {
            let register = case % 2 == 0;
            let body = if register {
                bodies.register()
            } else {
                bodies.power()
            };
            check(body.as_bytes(), register);
            for _ in 0..4 {
                let mutated = bodies.mutate(&body);
                check(&mutated, register);
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(
            accepted > 500 && rejected > 5_000,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn decoders_keep_the_tree_rules_on_literal_bodies() {
        let plan = parse_register(register_body(3, 2).as_bytes()).unwrap().plan;
        for body in [
            // The first of duplicate keys wins, in either order.
            "{\"via_density\":0.004,\"nx\":2.0,\"ny\":1,\"planes\":[[1,2],[3,4]],\"nx\":\"x\"}",
            "{\"n\\u0078\":2,\"ny\":1,\"nx\":9,\"planes\":[[1,2],[3,4]],\"via_density\":[0.1,0.2]}",
            // A syntax error after a shape error is the one reported.
            "{\"nx\":\"two\",\"ny\":1,\"planes\":[[1,2],[3,4]],\"via_density\":0.004,\"x\":[1,]}",
            "{\"nx\":2,\"ny\":1,\"planes\":[[1,2],[3,4]],\"via_density\":0.004,\"x\":1e999}",
            // Nesting past the limit inside an unknown member.
            &format!("{{\"x\":{}{},\"nx\":2}}", "[".repeat(65), "]".repeat(65)),
            &format!("{{\"x\":{}{},\"nx\":2}}", "[".repeat(64), "]".repeat(64)),
            "[1,2]",
            "",
        ] {
            assert_eq!(
                spec_bits(parse_register(body.as_bytes())),
                spec_bits(tree::parse_register(body.as_bytes())),
                "{body}"
            );
        }
        for body in [
            "{\"updates\":[[0,0,1]],\"plane\":1,\"plane\":9}",
            "{\"plane\":0,\"updates\":[[0,0,1]],\"tiles\":{\"a\":[]}}",
            "{\"plane\":0,\"updates\":[[0,0,1,2]]}",
            "{\"plane\":0,\"updates\":[[2.0,1.0,\"w\"]]}",
        ] {
            assert_eq!(
                update_bits(parse_power_sparse(body.as_bytes(), &plan)),
                update_bits(tree::parse_power_sparse(body.as_bytes(), &plan)),
                "{body}"
            );
        }
    }
}
