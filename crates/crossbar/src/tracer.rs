//! Representative aging tracing (paper §IV-B): the mapper may consult only
//! one memristor out of nine — the center of every 3×3 block — and estimates
//! the whole array's aged bounds from those traced devices via eqs. (6)–(7).

use memaging_device::AgedWindow;

use crate::crossbar::Crossbar;

/// The estimated aged window of one traced (block-center) device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEstimate {
    /// Row of the traced device.
    pub row: usize,
    /// Column of the traced device.
    pub col: usize,
    /// Aged window estimated from the traced programming history.
    pub window: AgedWindow,
}

/// Computes the traced positions of a `rows × cols` array: the centers of
/// the 3×3 blocks tiling the array (partial edge blocks use their clamped
/// center), i.e. one device out of nine as in the paper.
pub fn traced_positions(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut r = 0;
    while r < rows {
        let cr = (r + 1).min(rows - 1);
        let mut c = 0;
        while c < cols {
            let cc = (c + 1).min(cols - 1);
            out.push((cr, cc));
            c += 3;
        }
        r += 3;
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Estimates aged windows from the traced devices of `array`.
///
/// Only the block-center devices' programming histories are consulted; the
/// untraced 8-of-9 devices contribute nothing — that sparsity is the
/// approximation the paper's aging-aware mapping accepts to keep tracing
/// cheap.
pub fn trace_estimates(array: &Crossbar) -> Vec<TracedEstimate> {
    traced_positions(array.rows(), array.cols())
        .into_iter()
        .map(|(row, col)| TracedEstimate { row, col, window: array.aged_window(row, col) })
        .collect()
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
pub(crate) struct BlockMap {
    block_cols: usize,
    /// Deduplicated estimate windows; `grid` indexes into this.
    windows: Vec<AgedWindow>,
    /// Per block (row-major over the block grid): index into `windows`.
    grid: Vec<u32>,
}

impl BlockMap {
    /// Resolves the block grid of a `rows × cols` array from its traced
    /// estimates.
    pub(crate) fn new(rows: usize, cols: usize, estimates: &[TracedEstimate]) -> Self {
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
    #[cfg(test)]
    pub(crate) fn at(&self, row: usize, col: usize) -> AgedWindow {
        self.windows[self.window_index(row, col) as usize]
    }

    /// Index (into [`BlockMap::windows`]) of the window covering device
    /// `(row, col)`.
    pub(crate) fn window_index(&self, row: usize, col: usize) -> u32 {
        self.grid[(row / 3) * self.block_cols + col / 3]
    }

    /// The deduplicated estimate windows.
    pub(crate) fn windows(&self) -> &[AgedWindow] {
        &self.windows
    }
}

/// The range of traced aged upper bounds `[R^L_aged,max, R^U_aged,max]` of
/// paper Fig. 8 — the iteration interval for common-range selection.
pub fn traced_upper_bound_range(estimates: &[TracedEstimate]) -> Option<(f64, f64)> {
    if estimates.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for e in estimates {
        lo = lo.min(e.window.r_max);
        hi = hi.max(e.window.r_max);
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memaging_device::{DeviceModel, DeviceSpec};
    use memaging_tensor::Tensor;

    #[test]
    fn traced_positions_are_one_in_nine() {
        let pos = traced_positions(9, 9);
        assert_eq!(pos.len(), 9, "9x9 array has 9 block centers");
        assert!(pos.contains(&(1, 1)));
        assert!(pos.contains(&(4, 4)));
        assert!(pos.contains(&(7, 7)));
        // Roughly 1/9 of devices for a large array.
        let pos = traced_positions(30, 30);
        assert_eq!(pos.len(), 100);
    }

    #[test]
    fn traced_positions_handle_small_arrays() {
        assert_eq!(traced_positions(1, 1), vec![(0, 0)]);
        let pos = traced_positions(2, 2);
        assert_eq!(pos, vec![(1, 1)]);
        let pos = traced_positions(4, 7);
        assert!(!pos.is_empty());
        for (r, c) in pos {
            assert!(r < 4 && c < 7);
        }
    }

    #[test]
    fn estimates_reflect_per_device_history() {
        let mut x = Crossbar::new(3, 3, DeviceModel::default()).unwrap();
        // Age the center device only.
        let (m, d) = x.device_mut(1, 1);
        for _ in 0..500 {
            d.pulse(m, 1).unwrap();
            d.pulse(m, -1).unwrap();
        }
        let est = trace_estimates(&x);
        assert_eq!(est.len(), 1);
        assert_eq!((est[0].row, est[0].col), (1, 1));
        assert!(est[0].window.r_max < DeviceSpec::default().r_max);
    }

    #[test]
    fn untraced_devices_are_invisible() {
        let mut x = Crossbar::new(3, 3, DeviceModel::default()).unwrap();
        // Heavily age a corner device (untraced).
        let (m, d) = x.device_mut(0, 0);
        for _ in 0..2000 {
            if d.pulse(m, 1).is_err() {
                break;
            }
            let _ = d.pulse(m, -1);
        }
        let est = trace_estimates(&x);
        // The traced estimate still reports a fresh window.
        assert_eq!(est[0].window.r_max, DeviceSpec::default().r_max);
    }

    #[test]
    fn upper_bound_range_spans_estimates() {
        let mut x = Crossbar::new(6, 3, DeviceModel::default()).unwrap();
        // Age the two block centers differently.
        let (m, d) = x.device_mut(1, 1);
        for _ in 0..1500 {
            let _ = d.pulse(m, 1);
            let _ = d.pulse(m, -1);
        }
        let (m, d) = x.device_mut(4, 1);
        for _ in 0..300 {
            let _ = d.pulse(m, 1);
            let _ = d.pulse(m, -1);
        }
        let est = trace_estimates(&x);
        assert_eq!(est.len(), 2);
        let (lo, hi) = traced_upper_bound_range(&est).unwrap();
        assert!(lo < hi, "differently aged centers give a nonempty range");
        assert!(traced_upper_bound_range(&[]).is_none());
    }

    #[test]
    fn program_then_trace_smoke() {
        let mut x = Crossbar::new(5, 4, DeviceModel::default()).unwrap();
        x.program_conductances(&Tensor::full([5, 4], 5e-5)).unwrap();
        let est = trace_estimates(&x);
        assert_eq!(est.len(), traced_positions(5, 4).len());
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
}
