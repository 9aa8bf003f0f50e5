//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench target measures one layer in isolation; the experiment
//! index is the `matrix-experiments` subcommand list, and README.md's
//! "Benchmarks" section records results.

use matrix_geometry::{PartitionMap, Point, Rect, ServerId};

/// A K-way static partition of the standard BzFlag-sized world.
pub fn grid(servers: u32) -> PartitionMap {
    let world = Rect::from_coords(0.0, 0.0, 800.0, 800.0);
    let ids: Vec<ServerId> = (1..=servers).map(ServerId).collect();
    PartitionMap::static_grid(world, &ids).expect("static grid")
}

/// Deterministic probe points spread over a rectangle (low-discrepancy).
pub fn probes(world: Rect, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let fx = (i as f64 * 0.7548776662466927) % 1.0;
            let fy = (i as f64 * 0.5698402909980532) % 1.0;
            Point::new(
                world.min().x + world.width() * fx,
                world.min().y + world.height() * fy,
            )
        })
        .collect()
}
