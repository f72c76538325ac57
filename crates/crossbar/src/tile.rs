//! Tiling of large weight matrices across fixed-size crossbar arrays.
//!
//! Fabricated crossbars are bounded (e.g. 128×128 in the dot-product engine
//! of the paper's ref. [14]); a large layer is split into a grid of tiles
//! whose partial column currents are summed digitally. This module provides
//! that decomposition along with aggregate programming and read-back.

use memaging_device::{AgedWindow, ArrheniusAging, DeviceSpec};
use memaging_tensor::Tensor;

use crate::crossbar::{Crossbar, ProgramStats};
use crate::error::CrossbarError;
use crate::tracer::TracedEstimate;

/// Rough scalar-op cost of programming one device (iterative pulse/read
/// loop), used to size the parallel grain for tile programming.
const PROGRAM_OPS_PER_DEVICE: usize = 64;

/// A `rows × cols` logical matrix realized as a grid of crossbar tiles of at
/// most `tile_size × tile_size` devices each.
///
/// # Examples
///
/// ```
/// use memaging_crossbar::TiledMatrix;
/// use memaging_device::{ArrheniusAging, DeviceSpec};
/// use memaging_tensor::Tensor;
///
/// # fn main() -> Result<(), memaging_crossbar::CrossbarError> {
/// let mut tiled = TiledMatrix::new(5, 7, 3, DeviceSpec::default(), ArrheniusAging::default())?;
/// assert_eq!(tiled.tile_grid(), (2, 3));
/// tiled.program_conductances(&Tensor::full([5, 7], 5.0e-5))?;
/// assert_eq!(tiled.conductances().dims(), &[5, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    rows: usize,
    cols: usize,
    tile_size: usize,
    /// Tiles in row-major tile-grid order.
    tiles: Vec<Crossbar>,
    tile_rows: usize,
    tile_cols: usize,
}

impl TiledMatrix {
    /// Creates the tile grid for a `rows × cols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidMapping`] for zero dimensions or a
    /// zero tile size, plus device errors for an invalid spec.
    pub fn new(
        rows: usize,
        cols: usize,
        tile_size: usize,
        spec: DeviceSpec,
        aging: ArrheniusAging,
    ) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 || tile_size == 0 {
            return Err(CrossbarError::InvalidMapping {
                reason: format!("tiled matrix {rows}x{cols} tile {tile_size} must be nonzero"),
            });
        }
        let tile_rows = rows.div_ceil(tile_size);
        let tile_cols = cols.div_ceil(tile_size);
        let mut tiles = Vec::with_capacity(tile_rows * tile_cols);
        for tr in 0..tile_rows {
            for tc in 0..tile_cols {
                let h = (rows - tr * tile_size).min(tile_size);
                let w = (cols - tc * tile_size).min(tile_size);
                tiles.push(Crossbar::new(h, w, spec, aging)?);
            }
        }
        Ok(TiledMatrix { rows, cols, tile_size, tiles, tile_rows, tile_cols })
    }

    /// Logical matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(tile_rows, tile_cols)` grid dimensions.
    pub fn tile_grid(&self) -> (usize, usize) {
        (self.tile_rows, self.tile_cols)
    }

    /// The tiles, row-major over the tile grid.
    pub fn tiles(&self) -> &[Crossbar] {
        &self.tiles
    }

    /// Mutable tile access, row-major over the tile grid (fault injection,
    /// deterministic aging in tests).
    pub fn tiles_mut(&mut self) -> &mut [Crossbar] {
        &mut self.tiles
    }

    /// Programs the full logical matrix of conductance targets, tile by
    /// tile.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if `targets` is not
    /// `[rows, cols]`.
    pub fn program_conductances(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        self.program_tiles(targets, |tile, sub| tile.program_conductances(sub))
    }

    /// Delta programming of the full logical matrix, tile by tile: each tile
    /// runs [`Crossbar::program_conductances_delta`], skipping cells whose
    /// state already represents their target level (see the per-array
    /// documentation for the exact skip contract). The resulting device
    /// state is bitwise identical to [`TiledMatrix::program_conductances`]
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if `targets` is not
    /// `[rows, cols]`.
    pub fn program_conductances_delta(
        &mut self,
        targets: &Tensor,
    ) -> Result<ProgramStats, CrossbarError> {
        self.program_tiles(targets, Crossbar::program_conductances_delta)
    }

    /// Shared tile-parallel programming driver: slices `targets` per tile
    /// and applies `program` to every tile.
    fn program_tiles<F>(
        &mut self,
        targets: &Tensor,
        program: F,
    ) -> Result<ProgramStats, CrossbarError>
    where
        F: Fn(&mut Crossbar, &Tensor) -> Result<ProgramStats, CrossbarError> + Sync,
    {
        if targets.dims() != [self.rows, self.cols] {
            return Err(CrossbarError::DimensionMismatch {
                what: "tiled conductance targets",
                expected: (self.rows, self.cols),
                actual: if targets.rank() == 2 {
                    (targets.dims()[0], targets.dims()[1])
                } else {
                    (targets.len(), 0)
                },
            });
        }
        let src = targets.as_slice();
        let (tile_cols, tile_size, cols) = (self.tile_cols, self.tile_size, self.cols);
        // Tiles are physically independent arrays, so they program in
        // parallel; pulse counts per tile do not depend on scheduling, and
        // the stats fold below runs in tile order.
        let threads = memaging_par::parallelism_for(self.rows * self.cols * PROGRAM_OPS_PER_DEVICE);
        let results: std::sync::Mutex<Vec<Option<Result<ProgramStats, CrossbarError>>>> =
            std::sync::Mutex::new((0..self.tiles.len()).map(|_| None).collect());
        memaging_par::par_chunks_mut(&mut self.tiles, 1, threads, |ti, tile| {
            let (tr, tc) = (ti / tile_cols, ti % tile_cols);
            let tile = &mut tile[0];
            let (h, w) = (tile.rows(), tile.cols());
            let sub = Tensor::from_fn([h, w], |i| {
                let (r, c) = (i / w, i % w);
                src[(tr * tile_size + r) * cols + tc * tile_size + c]
            });
            let result = program(tile, &sub);
            if let Ok(mut slots) = results.lock() {
                slots[ti] = Some(result);
            }
        });
        let mut stats = ProgramStats::default();
        let slots = results.into_inner().unwrap_or_else(|poison| poison.into_inner());
        for result in slots {
            stats.merge(result.expect("every tile programmed")?);
        }
        Ok(stats)
    }

    /// Reads the full logical conductance matrix back.
    pub fn conductances(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for tr in 0..self.tile_rows {
            for tc in 0..self.tile_cols {
                let tile = &self.tiles[tr * self.tile_cols + tc];
                let g = tile.conductances();
                let (h, w) = (tile.rows(), tile.cols());
                for r in 0..h {
                    for c in 0..w {
                        out[(tr * self.tile_size + r) * self.cols + tc * self.tile_size + c] =
                            g.as_slice()[r * w + c];
                    }
                }
            }
        }
        Tensor::from_vec(out, [self.rows, self.cols]).expect("sized by construction")
    }

    /// Total programming pulses across all tiles.
    pub fn total_pulses(&self) -> u64 {
        self.tiles.iter().map(Crossbar::total_pulses).sum()
    }
}

/// Per-device aged-window estimates over the 3×3 tracing blocks of one
/// array, resolved into a dense grid.
///
/// The aging tracer consults one device per 3×3 block (paper §IV-B); every
/// untraced device inherits its block center's estimated window. This
/// structure resolves the whole `rows × cols` array once per sweep: each
/// block stores an index into a deduplicated window list, so
/// [`BlockMap::window_index`] is two array reads and the candidate-matrix
/// memoizer can key its per-window level tables by that index (arrays age
/// coherently, so the distinct-window count is far below the block count).
///
/// Resolution semantics (identical to the linear trace scan): the first
/// estimate inside a block wins, and a block with no traced device falls
/// back to the widest traced window (min `r_min`, max `r_max` over all
/// estimates).
#[derive(Debug, Clone)]
pub struct BlockMap {
    block_cols: usize,
    /// Deduplicated estimate windows; `grid` indexes into this.
    windows: Vec<AgedWindow>,
    /// Per block (row-major over the block grid): index into `windows`.
    grid: Vec<u32>,
}

impl BlockMap {
    /// Resolves the block grid of a `rows × cols` array from its traced
    /// estimates.
    pub fn new(rows: usize, cols: usize, estimates: &[TracedEstimate]) -> Self {
        let block_rows = rows.div_ceil(3).max(1);
        let block_cols = cols.div_ceil(3).max(1);
        let widest = estimates.iter().map(|e| e.window).fold(
            AgedWindow { r_min: f64::MAX, r_max: 0.0 },
            |acc, w| AgedWindow { r_min: acc.r_min.min(w.r_min), r_max: acc.r_max.max(w.r_max) },
        );
        let mut windows: Vec<AgedWindow> = Vec::new();
        let mut intern = |w: AgedWindow| -> u32 {
            match windows.iter().position(|&seen| {
                seen.r_min.to_bits() == w.r_min.to_bits()
                    && seen.r_max.to_bits() == w.r_max.to_bits()
            }) {
                Some(i) => i as u32,
                None => {
                    windows.push(w);
                    (windows.len() - 1) as u32
                }
            }
        };
        let fallback = intern(widest);
        let mut grid = vec![u32::MAX; block_rows * block_cols];
        for e in estimates {
            let (br, bc) = (e.row / 3, e.col / 3);
            if br >= block_rows || bc >= block_cols {
                continue;
            }
            let slot = &mut grid[br * block_cols + bc];
            // First estimate per block wins, matching the old linear scan.
            if *slot == u32::MAX {
                *slot = intern(e.window);
            }
        }
        for slot in &mut grid {
            if *slot == u32::MAX {
                *slot = fallback;
            }
        }
        BlockMap { block_cols, windows, grid }
    }

    /// The estimated aged window covering device `(row, col)`: the estimate
    /// of its 3×3 block center.
    pub fn at(&self, row: usize, col: usize) -> AgedWindow {
        self.windows[self.window_index(row, col) as usize]
    }

    /// Index (into [`BlockMap::windows`]) of the window covering device
    /// `(row, col)`.
    pub fn window_index(&self, row: usize, col: usize) -> u32 {
        self.grid[(row / 3) * self.block_cols + col / 3]
    }

    /// The deduplicated estimate windows.
    pub fn windows(&self) -> &[AgedWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(rows: usize, cols: usize) -> Tensor {
        let spec = DeviceSpec::default();
        let width = spec.level_width();
        Tensor::from_fn([rows, cols], |i| {
            (1.0 / (spec.r_min + (i % spec.levels) as f64 * width)) as f32
        })
    }

    fn tiled(rows: usize, cols: usize, tile: usize) -> TiledMatrix {
        TiledMatrix::new(rows, cols, tile, DeviceSpec::default(), ArrheniusAging::default())
            .unwrap()
    }

    #[test]
    fn grid_dimensions() {
        let t = tiled(10, 10, 4);
        assert_eq!(t.tile_grid(), (3, 3));
        assert_eq!(t.tiles().len(), 9);
        // Edge tiles are smaller.
        assert_eq!(t.tiles()[8].rows(), 2);
        assert_eq!(t.tiles()[8].cols(), 2);
    }

    #[test]
    fn validates_dimensions() {
        assert!(
            TiledMatrix::new(0, 3, 2, DeviceSpec::default(), ArrheniusAging::default()).is_err()
        );
        assert!(
            TiledMatrix::new(3, 3, 0, DeviceSpec::default(), ArrheniusAging::default()).is_err()
        );
    }

    #[test]
    fn program_read_round_trip_across_tiles() {
        let mut t = tiled(7, 5, 3);
        let tg = targets(7, 5);
        t.program_conductances(&tg).unwrap();
        let read = t.conductances();
        // Programming itself ages the devices a little, so top-level reads
        // sit just inside the (slightly) shrunken window: allow ~1% error.
        for (a, b) in tg.as_slice().iter().zip(read.as_slice()) {
            assert!((a - b).abs() / a < 1e-2, "target {a} read {b}");
        }
    }

    #[test]
    fn program_validates_shape() {
        let mut t = tiled(4, 4, 2);
        assert!(t.program_conductances(&targets(4, 5)).is_err());
    }

    #[test]
    fn block_map_resolves_first_estimate_per_block_with_widest_fallback() {
        let est = |row, col, r_min, r_max| TracedEstimate {
            row,
            col,
            window: AgedWindow { r_min, r_max },
        };
        // Two estimates in block (0,0): the first wins. Block (1,1) has no
        // estimate and falls back to the widest window.
        let estimates = vec![
            est(1, 1, 1e4, 6e4),
            est(2, 2, 1e4, 9e4),
            est(1, 4, 9e3, 8e4), // block (0,1)
        ];
        let map = BlockMap::new(6, 6, &estimates);
        assert_eq!(map.at(0, 0).r_max, 6e4, "first estimate in block wins");
        assert_eq!(map.at(2, 2).r_max, 6e4);
        assert_eq!(map.at(0, 5).r_max, 8e4);
        let fallback = map.at(4, 4);
        assert_eq!(fallback.r_min, 9e3, "fallback is the widest traced window");
        assert_eq!(fallback.r_max, 9e4);
        // Distinct windows deduplicate; same block index for same window.
        assert!(map.windows().len() <= 3);
        assert_eq!(map.window_index(0, 0), map.window_index(2, 1));
    }

    #[test]
    fn tiled_delta_matches_full_and_skips_second_pass() {
        let mut full = tiled(7, 5, 3);
        let mut delta = tiled(7, 5, 3);
        // Stay below the top levels: a target at the very top of the window
        // gets clipped by the aging of the first pass, which both paths
        // would then legitimately chase on the second pass.
        let spec = DeviceSpec::default();
        let tg = Tensor::from_fn([7, 5], |i| {
            (1.0 / (spec.r_min + (i % 20) as f64 * spec.level_width())) as f32
        });
        let s_full = full.program_conductances(&tg).unwrap();
        let s_delta = delta.program_conductances_delta(&tg).unwrap();
        assert_eq!(s_full.pulses, s_delta.pulses);
        // Second identical pass: everything skips on the delta path.
        let s2 = delta.program_conductances_delta(&tg).unwrap();
        assert_eq!(s2.pulses, 0);
        assert_eq!(s2.skipped_unchanged, 35);
        assert_eq!(delta.total_pulses(), full.total_pulses());
        full.program_conductances(&tg).unwrap();
        let bits = |t: &TiledMatrix| -> Vec<u32> {
            t.conductances().as_slice().iter().map(|g| g.to_bits()).collect()
        };
        assert_eq!(bits(&full), bits(&delta));
    }

    #[test]
    fn pulses_aggregate_over_tiles() {
        let mut t = tiled(6, 6, 2);
        assert_eq!(t.total_pulses(), 0);
        t.program_conductances(&Tensor::full([6, 6], 9.0e-5)).unwrap();
        assert!(t.total_pulses() > 0);
    }
}
