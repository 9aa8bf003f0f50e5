//! Map-splitting strategies.
//!
//! The paper uses "a simple 'split-to-left' splitting technique where each
//! map is split into two equal pieces with the left piece handed off to the
//! new server" (§3.2.3), and notes in §5 that smarter partitioning
//! algorithms (inter-server-communication-minimising, locality-preserving)
//! are complementary. This module implements the paper's strategy plus two
//! such alternatives so the split-strategy ablation
//! (`matrix-experiments ablation-split`, A1) can compare them.

use crate::{Axis, Point, Rect};
use serde::{Deserialize, Serialize};

/// Policy deciding where an overloaded partition is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// The paper's default: halve the partition and hand the *left* (lower-X)
    /// half to the new server. Vertical cuts only, matching the paper's
    /// one-dimensional "left piece" description.
    #[default]
    SplitToLeft,
    /// Halve along whichever axis is currently longest, keeping partitions
    /// close to square. The lower half goes to the new server.
    LongestAxis,
    /// Cut along the longest axis at the *median* client position, so each
    /// side inherits half the load. Falls back to halving when no client
    /// positions are known. This is the locality/load-aware family cited in
    /// §5 [Chen et al. 2005, Lui & Chan 2002].
    LoadAwareMedian,
}

impl SplitStrategy {
    /// Computes the cut for `rect`, returning `(given, kept)`:
    /// `given` is the piece handed to the new server, `kept` stays with the
    /// overloaded one.
    ///
    /// `clients` are the positions currently managed by the overloaded
    /// server; only [`SplitStrategy::LoadAwareMedian`] uses them.
    ///
    /// Returns `None` when the rectangle cannot be cut (degenerate, or the
    /// median coincides with a boundary and no valid cut exists).
    pub fn split(&self, rect: &Rect, clients: &[Point]) -> Option<(Rect, Rect)> {
        match self {
            SplitStrategy::SplitToLeft => {
                let (low, high) = rect.halve(Axis::X)?;
                Some((low, high))
            }
            SplitStrategy::LongestAxis => {
                let (low, high) = rect.halve(rect.longest_axis())?;
                Some((low, high))
            }
            SplitStrategy::LoadAwareMedian => {
                let axis = rect.longest_axis();
                match median_cut(rect, clients, axis) {
                    Some(cut) => rect.split_at(axis, cut),
                    None => {
                        let (low, high) = rect.halve(axis)?;
                        Some((low, high))
                    }
                }
            }
        }
    }
}

impl std::fmt::Display for SplitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SplitStrategy::SplitToLeft => "split-to-left",
            SplitStrategy::LongestAxis => "longest-axis",
            SplitStrategy::LoadAwareMedian => "load-aware-median",
        };
        f.write_str(name)
    }
}

/// Median coordinate of the in-rect clients along `axis`, nudged inside the
/// open interval so the cut is valid. `None` when there are no usable
/// clients or the median collapses onto a boundary.
fn median_cut(rect: &Rect, clients: &[Point], axis: Axis) -> Option<f64> {
    let mut coords: Vec<f64> = clients
        .iter()
        .filter(|p| rect.contains(**p))
        .map(|p| match axis {
            Axis::X => p.x,
            Axis::Y => p.y,
        })
        .collect();
    if coords.is_empty() {
        return None;
    }
    coords.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("client coordinates must not be NaN")
    });
    let median = coords[coords.len() / 2];
    let (lo, hi) = match axis {
        Axis::X => (rect.min().x, rect.max().x),
        Axis::Y => (rect.min().y, rect.max().y),
    };
    // A cut exactly on the boundary is invalid; so is one so close to it
    // that a partition of near-zero width would result.
    let eps = (hi - lo) * 1e-6;
    if median <= lo + eps || median >= hi - eps {
        None
    } else {
        Some(median)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::from_coords(0.0, 0.0, 100.0, 50.0)
    }

    #[test]
    fn split_to_left_halves_on_x() {
        let (given, kept) = SplitStrategy::SplitToLeft.split(&world(), &[]).unwrap();
        assert_eq!(given, Rect::from_coords(0.0, 0.0, 50.0, 50.0));
        assert_eq!(kept, Rect::from_coords(50.0, 0.0, 100.0, 50.0));
    }

    #[test]
    fn longest_axis_picks_y_for_tall_rects() {
        let tall = Rect::from_coords(0.0, 0.0, 10.0, 100.0);
        let (given, kept) = SplitStrategy::LongestAxis.split(&tall, &[]).unwrap();
        assert_eq!(given, Rect::from_coords(0.0, 0.0, 10.0, 50.0));
        assert_eq!(kept, Rect::from_coords(0.0, 50.0, 10.0, 100.0));
    }

    #[test]
    fn median_splits_load_evenly() {
        let clients: Vec<Point> = (0..10)
            .map(|i| Point::new(if i < 8 { 10.0 + i as f64 } else { 90.0 }, 25.0))
            .collect();
        let (given, kept) = SplitStrategy::LoadAwareMedian
            .split(&world(), &clients)
            .unwrap();
        // The median of {10..17, 90, 90} is 15: most clients land left.
        let left_count = clients.iter().filter(|p| given.contains(**p)).count();
        let right_count = clients.iter().filter(|p| kept.contains(**p)).count();
        assert_eq!(left_count + right_count, clients.len());
        assert!(
            (4..=6).contains(&left_count),
            "median cut should balance: {left_count}"
        );
    }

    #[test]
    fn median_without_clients_falls_back_to_halving() {
        let (given, kept) = SplitStrategy::LoadAwareMedian.split(&world(), &[]).unwrap();
        assert_eq!(given.area(), kept.area());
    }

    #[test]
    fn median_on_boundary_falls_back() {
        // All clients at the left edge: the median would produce an empty
        // partition, so we halve instead.
        let clients = vec![Point::new(0.0, 1.0); 5];
        let (given, kept) = SplitStrategy::LoadAwareMedian
            .split(&world(), &clients)
            .unwrap();
        assert!(!given.is_degenerate());
        assert!(!kept.is_degenerate());
    }

    #[test]
    fn split_pieces_tile_the_original() {
        for strategy in [
            SplitStrategy::SplitToLeft,
            SplitStrategy::LongestAxis,
            SplitStrategy::LoadAwareMedian,
        ] {
            let (given, kept) = strategy.split(&world(), &[]).unwrap();
            assert_eq!(given.merges_with(&kept), Some(world()), "{strategy}");
        }
    }

    #[test]
    fn degenerate_rect_cannot_split() {
        let line = Rect::from_coords(0.0, 0.0, 0.0, 10.0);
        assert!(SplitStrategy::SplitToLeft.split(&line, &[]).is_none());
    }
}
