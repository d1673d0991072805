//! The full-chip result: `ΔT` map plus hotspot statistics, serializable
//! for downstream serving, and the index that keeps those statistics
//! current when a few tiles change.
//!
//! # One reduction shape
//!
//! The max, argmax and mean reduce through a fixed tree over the
//! row-major tiles: leaves of 64 consecutive tiles, and each level above
//! holding 64 children. A fresh report reduces through that tree and
//! drops it; a live chip keeps it beside its report, and a patch
//! recomputes only the nodes above the changed tiles, so a patched report
//! is bit-identical to a fresh one. The p99 is kept as an order
//! statistic: a sorted buffer of the largest tiles, refilled from the
//! whole map only when it drains.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// Tiles per leaf of the statistics tree, and children per node above
/// the leaves.
const FANOUT: usize = 1 << FANOUT_BITS;
const FANOUT_BITS: u32 = 6;

/// The p99's quantile, by the nearest-rank method.
const P99: f64 = 0.99;

/// A full-chip evaluation result: per-tile `ΔT` (kelvin above the heat
/// sink) with hotspot statistics. Serde-serializable; [`ChipReport::to_json`]
/// renders it for downstream consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipReport {
    /// Display name of the model that produced the map.
    pub model: String,
    /// Grid width (tiles along x).
    pub nx: usize,
    /// Grid height (tiles along y).
    pub ny: usize,
    /// Row-major per-tile `ΔT_max` in kelvin (index `iy * nx + ix`).
    pub delta_t: Vec<f64>,
    /// Hottest tile's `ΔT` (K).
    pub max_delta_t: f64,
    /// Area-weighted mean `ΔT` over the tiles (K); tiles have equal area.
    /// Computed as `t₀ + S / n`, with `t₀` the first tile and `S` the sum
    /// of the offsets `tᵢ − t₀` through a fixed tree over the row-major
    /// tiles: each run of 64 tiles is summed, then each run of 64 of those
    /// sums, and so on up to one, every node folded left to right from
    /// `0.0` (see `docs/PROTOCOL.md`). A flat map's mean is
    /// bitwise its tile value. It differs from the plain `Σᵢ tᵢ / n` only
    /// by rounding.
    pub mean_delta_t: f64,
    /// 99th-percentile tile `ΔT` (K).
    pub p99_delta_t: f64,
    /// x-index of the hottest tile (first hit on ties, row-major order).
    pub argmax_ix: usize,
    /// y-index of the hottest tile.
    pub argmax_iy: usize,
    /// Total vias on the chip (fractional, per the density idealization).
    pub total_vias: f64,
    /// Distinct via-density geometries in the plan — tiles with
    /// bit-identical via density count once, whatever their powers. This
    /// is the number of factorizations a cold factored evaluation needs,
    /// and it is the same on every engine path. A power update never
    /// changes it.
    pub distinct_cells: usize,
    /// Total tile count, `nx · ny`.
    pub tiles: usize,
}

/// The partial statistics a [`ChipReport`] is patched from: the
/// reduction tree of its max, argmax and mean, and the buffer of its
/// largest tiles the p99 is read from. Built with the report by
/// [`ChipReport::with_index`]; it costs at most a byte per tile (552 B at
/// 32×32, 1,752 B at 64×64).
#[derive(Debug, Clone)]
pub(crate) struct ReportIndex {
    tree: StatsTree,
    top: TopTiles,
}

impl ReportIndex {
    /// Heap and inline bytes the index holds.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tree.sums.capacity() * std::mem::size_of::<f64>()
            + self.tree.maxes.capacity() * std::mem::size_of::<f64>()
            + self.tree.argmaxes.capacity() * std::mem::size_of::<u32>()
            + self.top.tiles.capacity() * std::mem::size_of::<u32>()
    }
}

impl ChipReport {
    /// Assembles a report from the scattered per-tile `ΔT` values.
    ///
    /// # Panics
    ///
    /// Panics if `delta_t.len() != nx * ny`, the grid is empty (the engine
    /// always satisfies both) or it has more than `u32::MAX` tiles.
    #[must_use]
    pub(crate) fn from_tiles(
        model: String,
        nx: usize,
        ny: usize,
        delta_t: Vec<f64>,
        distinct_cells: usize,
        total_vias: f64,
    ) -> Self {
        let mut report = Self::unsummarized(model, nx, ny, delta_t, distinct_cells, total_vias);
        report.summarize(&StatsTree::build(&report.delta_t));
        report.p99_delta_t = percentile(&mut report.delta_t.clone(), P99);
        report
    }

    /// [`ChipReport::from_tiles`] with the index that
    /// [`ChipReport::patch`] keeps it current through. The report is
    /// bit-identical to `from_tiles`'.
    ///
    /// # Panics
    ///
    /// As [`ChipReport::from_tiles`].
    pub(crate) fn with_index(
        model: String,
        nx: usize,
        ny: usize,
        delta_t: Vec<f64>,
        distinct_cells: usize,
        total_vias: f64,
    ) -> (Self, ReportIndex) {
        let mut report = Self::unsummarized(model, nx, ny, delta_t, distinct_cells, total_vias);
        let index = ReportIndex {
            tree: StatsTree::build(&report.delta_t),
            top: TopTiles::build(&report.delta_t),
        };
        report.summarize(&index.tree);
        report.p99_delta_t = index.top.p99(&report.delta_t);
        (report, index)
    }

    fn unsummarized(
        model: String,
        nx: usize,
        ny: usize,
        delta_t: Vec<f64>,
        distinct_cells: usize,
        total_vias: f64,
    ) -> Self {
        let tiles = nx * ny;
        assert!(tiles > 0, "a chip report needs at least one tile");
        assert_eq!(delta_t.len(), tiles, "ΔT map must cover every tile");
        Self {
            model,
            nx,
            ny,
            max_delta_t: f64::NAN,
            mean_delta_t: f64::NAN,
            p99_delta_t: f64::NAN,
            argmax_ix: 0,
            argmax_iy: 0,
            total_vias,
            distinct_cells,
            tiles,
            delta_t,
        }
    }

    /// Writes the new `ΔT` of each `(tile, ΔT)` in `solved` (row-major
    /// tiles, strictly ascending) in place and re-derives the summary
    /// statistics through `index`, which [`ChipReport::with_index`] built
    /// with this report. The result is bit-identical to a report
    /// assembled from scratch (a power update leaves `distinct_cells` and
    /// `total_vias` as they are). Returns the tiles whose value changed
    /// bitwise, in ascending order.
    ///
    /// The cost is the tree nodes above the changed tiles (64 reads a
    /// level), except that a change to tile 0 moves every offset and
    /// rebuilds the tree, and a p99 buffer that drains below its rank is
    /// refilled from the whole map.
    ///
    /// # Panics
    ///
    /// Panics if a tile is outside the map.
    pub(crate) fn patch(
        &mut self,
        index: &mut ReportIndex,
        solved: Vec<(usize, f64)>,
    ) -> Vec<usize> {
        let ReportIndex { tree, top } = index;
        let mut changed = Vec::with_capacity(solved.len());
        for (t, v) in solved {
            if self.delta_t[t].to_bits() != v.to_bits() {
                top.remove(&self.delta_t, t);
                self.delta_t[t] = v;
                top.insert(&self.delta_t, t);
                changed.push(t);
            }
        }
        if let Some(&first) = changed.first() {
            // Every leaf's offsets are taken from tile 0.
            tree.refresh(&self.delta_t, (first != 0).then_some(changed.as_slice()));
            self.summarize(tree);
            if top.tiles.len() < top.rank {
                top.refill(&self.delta_t);
            }
            self.p99_delta_t = top.p99(&self.delta_t);
        }
        changed
    }

    /// Max (first hit in row-major order), argmax and mean of the `ΔT`
    /// map, read from the root of its statistics tree.
    fn summarize(&mut self, tree: &StatsTree) {
        let (sum, max, argmax) = tree.root();
        self.max_delta_t = max;
        self.mean_delta_t = self.delta_t[0] + sum / self.tiles as f64;
        self.argmax_ix = argmax % self.nx;
        self.argmax_iy = argmax / self.nx;
    }

    /// The `ΔT` of tile `(ix, iy)` in kelvin.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    #[must_use]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.nx && iy < self.ny,
            "tile ({ix}, {iy}) outside the {}×{} report",
            self.nx,
            self.ny
        );
        self.delta_t[iy * self.nx + ix]
    }

    /// Renders the report as a JSON object (compact, one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// The statistics tree over a map's row-major tiles. Each node
/// summarizes a run of consecutive tiles: a leaf 64 tiles, a node above
/// its (at most) 64 children. Its fields are parallel per node, levels
/// stored leaves first and the root last.
#[derive(Debug, Clone)]
struct StatsTree {
    /// The node's offsets `tᵢ − t₀` (a leaf) or its children's sums (a
    /// node above), folded left to right from `0.0`.
    sums: Vec<f64>,
    /// The node's max, `NEG_INFINITY` if no tile exceeds it.
    maxes: Vec<f64>,
    /// The first tile holding the max, or the run's first tile if no tile
    /// exceeds `NEG_INFINITY`.
    argmaxes: Vec<u32>,
}

/// The node count of each level of the tree over `tiles` tiles, leaves
/// first, ending with the root's level of one.
fn level_lens(tiles: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(tiles.div_ceil(FANOUT)), |&len| {
        (len > 1).then(|| len.div_ceil(FANOUT))
    })
}

impl StatsTree {
    /// # Panics
    ///
    /// Panics if the map has more than `u32::MAX` tiles.
    fn build(delta_t: &[f64]) -> Self {
        assert!(
            u32::try_from(delta_t.len()).is_ok(),
            "a statistics tree indexes at most u32::MAX tiles"
        );
        let nodes = level_lens(delta_t.len()).sum();
        let mut tree = Self {
            sums: vec![0.0; nodes],
            maxes: vec![0.0; nodes],
            argmaxes: vec![0; nodes],
        };
        tree.refresh(delta_t, None);
        tree
    }

    /// The root's offset sum, max and argmax tile.
    fn root(&self) -> (f64, f64, usize) {
        let i = self.sums.len() - 1;
        (self.sums[i], self.maxes[i], self.argmaxes[i] as usize)
    }

    /// Recomputes the nodes above the tiles in `changed` (ascending), or
    /// every node when `None`.
    fn refresh(&mut self, delta_t: &[f64], changed: Option<&[usize]>) {
        let mut level = Level {
            below: 0,
            base: 0,
            shift: 0,
        };
        for len in level_lens(delta_t.len()) {
            match changed {
                None => (0..len).for_each(|j| self.set(delta_t, &level, j, None)),
                Some(changed) => {
                    let shift = level.shift + FANOUT_BITS;
                    for under in changed.chunk_by(|a, b| a >> shift == b >> shift) {
                        self.set(delta_t, &level, under[0] >> shift, Some(under));
                    }
                }
            }
            level = Level {
                below: level.base,
                base: level.base + len,
                shift: level.shift + FANOUT_BITS,
            };
        }
    }

    /// Recomputes node `j` of `level` from its inputs: the tiles at the
    /// leaves, the level below otherwise. The sum is refolded from every
    /// input. `changed` is the changed tiles under the node, or `None` to
    /// rescan it. While they leave the input holding the max alone, the
    /// max stays or moves to one of theirs, so only they are compared
    /// with it; a patch that changes the holder rescans the node.
    fn set(&mut self, delta_t: &[f64], level: &Level, j: usize, changed: Option<&[usize]>) {
        let start = j * FANOUT;
        let leaf = level.base == 0;
        let (sums, first, maxes) = if leaf {
            let tiles = &delta_t[start..(start + FANOUT).min(delta_t.len())];
            (tiles, delta_t[0], tiles)
        } else {
            let children = level.below + start..(level.below + start + FANOUT).min(level.base);
            (&self.sums[children.clone()], 0.0, &self.maxes[children])
        };
        let tile_of = |i: usize| {
            if leaf {
                start + i
            } else {
                self.argmaxes[level.below + start + i] as usize
            }
        };
        let node = level.base + j;
        let held = self.argmaxes[node] as usize >> level.shift;
        let changed = changed.filter(|changed| changed.iter().all(|&t| t >> level.shift != held));
        let (mut max, mut argmax) = match changed {
            Some(_) => (self.maxes[node], self.argmaxes[node] as usize),
            None => (f64::NEG_INFINITY, tile_of(0)),
        };
        // The first hit in row-major order wins a tie, as in a scan that
        // keeps the first strictly greater input (NaN never wins).
        let mut offer = |i: usize| {
            let (v, t) = (maxes[i], tile_of(i));
            if v > max || (v == max && t < argmax) {
                (max, argmax) = (v, t);
            }
        };
        match changed {
            Some(changed) => changed
                .iter()
                .for_each(|&t| offer((t >> level.shift) - start)),
            None => (0..maxes.len()).for_each(offer),
        }
        self.sums[node] = sums.iter().fold(0.0, |sum, &v| sum + (v - first));
        self.maxes[node] = max;
        #[allow(clippy::cast_possible_truncation)] // `build` bounds the tiles
        let argmax = argmax as u32;
        self.argmaxes[node] = argmax;
    }
}

/// Where a level of a [`StatsTree`] sits: its nodes start at `base`, the
/// level below at `below`, and each of its inputs covers `1 << shift`
/// tiles.
struct Level {
    below: usize,
    base: usize,
    shift: u32,
}

/// The nearest-rank p99 as an order statistic under sparse changes: the
/// p99 is the `rank`-th largest `ΔT`, and `tiles` holds the tiles of the
/// largest `(ΔT, tile)` keys (in `f64::total_cmp` order, ties by tile),
/// between `rank` and `min(2·rank, n)` of them.
#[derive(Debug, Clone)]
struct TopTiles {
    /// Ascending by key.
    tiles: Vec<u32>,
    /// Every tile in `tiles` keys at least `floor`, every other tile
    /// below it.
    floor: (f64, usize),
    /// `1 + n − ⌈0.99·n⌉`: 11 at 32×32, 41 at 64×64.
    rank: usize,
}

fn key(delta_t: &[f64], t: usize) -> (f64, usize) {
    (delta_t[t], t)
}

fn key_cmp(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TopTiles {
    fn build(delta_t: &[f64]) -> Self {
        let n = delta_t.len();
        assert!(
            u32::try_from(n).is_ok(),
            "a p99 index holds at most u32::MAX tiles"
        );
        let mut top = Self {
            tiles: Vec::new(),
            floor: (f64::NEG_INFINITY, 0),
            rank: n + 1 - nearest_rank(n, P99),
        };
        top.refill(delta_t);
        top
    }

    /// The most tiles the buffer holds.
    fn capacity(&self, n: usize) -> usize {
        (2 * self.rank).min(n)
    }

    /// Selects the largest keys from the whole map.
    fn refill(&mut self, delta_t: &[f64]) {
        let n = delta_t.len();
        let keep = self.capacity(n);
        let by_key =
            |&a: &u32, &b: &u32| key_cmp(key(delta_t, a as usize), key(delta_t, b as usize));
        #[allow(clippy::cast_possible_truncation)] // `build` bounds `n`
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.select_nth_unstable_by(n - keep, by_key);
        self.tiles.clear();
        self.tiles.reserve_exact(keep + 1);
        self.tiles.extend_from_slice(&all[n - keep..]);
        self.tiles.sort_unstable_by(by_key);
        self.floor = key(delta_t, self.tiles[0] as usize);
    }

    fn find(&self, delta_t: &[f64], at: (f64, usize)) -> Result<usize, usize> {
        self.tiles
            .binary_search_by(|&t| key_cmp(key(delta_t, t as usize), at))
    }

    /// Takes tile `t`, keyed by its current `ΔT`, out of the buffer if it
    /// is in it.
    fn remove(&mut self, delta_t: &[f64], t: usize) {
        let at = key(delta_t, t);
        if key_cmp(at, self.floor).is_ge() {
            let i = self
                .find(delta_t, at)
                .expect("a tile keyed at or above the floor is buffered");
            self.tiles.remove(i);
        }
    }

    /// Puts tile `t`, keyed by its current `ΔT`, into the buffer if it
    /// keys at least the floor; past capacity the smallest key leaves and
    /// the floor rises to the next.
    fn insert(&mut self, delta_t: &[f64], t: usize) {
        let at = key(delta_t, t);
        if key_cmp(at, self.floor).is_ge() {
            let i = self
                .find(delta_t, at)
                .expect_err("a tile being inserted is not buffered");
            #[allow(clippy::cast_possible_truncation)] // `build` bounds `t`
            self.tiles.insert(i, t as u32);
            if self.tiles.len() > self.capacity(delta_t.len()) {
                self.tiles.remove(0);
                self.floor = key(delta_t, self.tiles[0] as usize);
            }
        }
    }

    fn p99(&self, delta_t: &[f64]) -> f64 {
        delta_t[self.tiles[self.tiles.len() - self.rank] as usize]
    }
}

/// The 1-based ascending rank of the nearest-rank `q`-quantile of `n`
/// values.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile by the nearest-rank method, via `O(n)` selection
/// (`select_nth_unstable_by`) instead of a full sort — `values` is used
/// as selection scratch and left partially reordered.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    debug_assert!(!values.is_empty());
    let rank = nearest_rank(values.len(), q);
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_computed_from_the_map() {
        let report =
            ChipReport::from_tiles("test".into(), 2, 2, vec![1.0, 4.0, 2.0, 3.0], 3, 100.0);
        assert_eq!(report.max_delta_t, 4.0);
        assert_eq!((report.argmax_ix, report.argmax_iy), (1, 0));
        assert_eq!(report.mean_delta_t, 2.5);
        assert_eq!(report.p99_delta_t, 4.0);
        assert_eq!(report.get(0, 1), 2.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        // Selection must preserve the nearest-rank semantics the sorted
        // implementation had — including on unsorted input.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut values.clone(), 0.99), 99.0);
        assert_eq!(percentile(&mut values.clone(), 0.5), 50.0);
        assert_eq!(percentile(&mut values.clone(), 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        values.reverse();
        assert_eq!(percentile(&mut values.clone(), 0.99), 99.0);
        assert_eq!(percentile(&mut values, 0.5), 50.0);
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = ChipReport::from_tiles("Model A".into(), 2, 1, vec![1.5, 2.5], 2, 42.0);
        let json = report.to_json();
        assert!(json.contains("\"model\":\"Model A\""), "{json}");
        assert!(json.contains("\"delta_t\":[1.5,2.5]"), "{json}");
        assert!(json.contains("\"tiles\":2"), "{json}");
        // The serde stand-in's Content tree also round-trips the struct.
        let content = serde::Serialize::to_content(&report);
        let back: ChipReport = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(back, report);
    }

    fn indexed(nx: usize, ny: usize, delta_t: Vec<f64>) -> (ChipReport, ReportIndex) {
        ChipReport::with_index("test".into(), nx, ny, delta_t, 1, 0.0)
    }

    /// Bitwise (the JSON keeps a zero's sign), a patched report against
    /// one assembled from its map.
    fn assert_fresh(report: &ChipReport, what: &str) {
        let fresh = ChipReport::from_tiles(
            "test".into(),
            report.nx,
            report.ny,
            report.delta_t.clone(),
            1,
            0.0,
        );
        assert_eq!(report.to_json(), fresh.to_json(), "{what}");
    }

    /// A pseudo-random map of distinct values (a Weyl sequence).
    fn spread(tiles: usize) -> Vec<f64> {
        (0..tiles)
            .map(|i| 1.0 + (i as f64 * 0.618_033_988_749_895).fract())
            .collect()
    }

    #[test]
    fn the_tree_reduces_in_blocks_of_64() {
        // 130 tiles: leaves of 64, 64 and 2 under one root.
        let delta_t = spread(130);
        let report = ChipReport::from_tiles("test".into(), 13, 10, delta_t.clone(), 1, 0.0);
        let first = delta_t[0];
        let block = |tiles: &[f64]| tiles.iter().fold(0.0, |s, &t| s + (t - first));
        let sum = [&delta_t[..64], &delta_t[64..128], &delta_t[128..]]
            .iter()
            .fold(0.0, |s, b| s + block(b));
        assert_eq!(
            report.mean_delta_t.to_bits(),
            (first + sum / 130.0).to_bits()
        );
        let flat = [2.75; 130];
        let report = ChipReport::from_tiles("flat".into(), 13, 10, flat.to_vec(), 1, 0.0);
        assert_eq!(report.mean_delta_t.to_bits(), 2.75_f64.to_bits());
        assert_eq!((report.argmax_ix, report.argmax_iy), (0, 0), "first hit");
    }

    #[test]
    fn the_index_costs_at_most_a_byte_a_tile() {
        for (grid, bytes) in [(32, 552), (64, 1_752), (256, 26_192)] {
            let (_, index) = indexed(grid, grid, spread(grid * grid));
            assert_eq!(index.bytes(), bytes, "{grid}x{grid}");
            assert!(bytes <= grid * grid);
        }
    }

    #[test]
    fn a_patch_matches_a_fresh_report_at_every_tile() {
        // 72 tiles: two leaves, the second partial. Each tile in turn
        // jumps to the top, the bottom and back, tile 0 included.
        let (mut report, mut index) = indexed(9, 8, spread(72));
        assert_fresh(&report, "built");
        for t in 0..72 {
            let held = report.delta_t[t];
            for v in [9.0, 0.5, held] {
                assert_eq!(report.patch(&mut index, vec![(t, v)]), [t]);
                assert_fresh(&report, &format!("tile {t} at {v}"));
            }
        }
    }

    #[test]
    fn ties_signed_zeros_and_falling_maxima_patch_like_a_fresh_report() {
        // 70×70: 77 leaves, 2 nodes above them and the root. Values from a
        // small set with both zeros, so maxima tie across leaves and
        // nodes; every other patch names the current argmax, so maxima
        // fall through every level.
        let levels = [-0.0, 0.0, 0.25, 1.0, 1.0, 2.5];
        let mut seed = 7_u64;
        let mut draw = |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % n
        };
        let map = (0..4_900).map(|_| levels[draw(levels.len())]).collect();
        let (mut report, mut index) = indexed(70, 70, map);
        for step in 0..400 {
            let mut tiles: Vec<usize> = (0..1 + draw(3)).map(|_| draw(4_900)).collect();
            if step % 2 == 0 {
                tiles.push(report.argmax_iy * 70 + report.argmax_ix);
            }
            tiles.sort_unstable();
            tiles.dedup();
            let solved = tiles
                .iter()
                .map(|&t| (t, levels[draw(levels.len())]))
                .collect();
            report.patch(&mut index, solved);
            assert_fresh(&report, &format!("step {step}"));
            let held = report.argmax_iy * 70 + report.argmax_ix;
            assert_eq!(report.max_delta_t.to_bits(), report.delta_t[held].to_bits());
        }
    }

    #[test]
    fn a_drained_p99_buffer_is_refilled_from_the_map() {
        // 300 tiles: the p99 is the 4th largest, the buffer holds 8.
        let (mut report, mut index) = indexed(20, 15, spread(300));
        assert_eq!((index.top.rank, index.top.tiles.len()), (4, 8));
        let mut refills = 0;
        for _ in 0..15 {
            // Sink the hottest tile below every other.
            let hottest = *index.top.tiles.last().unwrap() as usize;
            report.patch(&mut index, vec![(hottest, 0.0)]);
            assert_fresh(&report, &format!("sank tile {hottest}"));
            if index.top.tiles.len() == 8 {
                refills += 1;
            }
            assert!(index.top.tiles.len() >= 4);
        }
        // Each sink drains one entry: a refill every fifth.
        assert_eq!(refills, 3);
    }
}
