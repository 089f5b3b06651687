//! Structured block decomposition with closed-form layout queries.

use crate::Partitioner;
use hetero_mesh::{Index3, StructuredHexMesh};

/// Splits `n` items into `p` contiguous chunks as evenly as possible.
/// Chunk `a` covers `[start(a), start(a+1))` with `start(a) = floor(a*n/p)`.
#[inline]
fn chunk_start(a: usize, n: usize, p: usize) -> usize {
    a * n / p
}

/// Index of the chunk containing item `i` under [`chunk_start`] splitting.
#[inline]
fn chunk_of(i: usize, n: usize, p: usize) -> usize {
    // start(a) <= i  <=>  a*n <= i*p + (p-1) roughly; binary-search-free form:
    let a = (i * p + p - 1) / n;
    // Guard against rounding: the closed form can be off by one.
    let a = a.min(p - 1);
    if chunk_start(a, n, p) > i {
        a - 1
    } else if a + 1 < p && chunk_start(a + 1, n, p) <= i {
        a + 1
    } else {
        a
    }
}

/// Factors `p` into `(px, py, pz)` with `px*py*pz = p` and the factors as
/// close to `p^(1/3)` as possible (`px <= py <= pz`). Perfect cubes factor
/// into `(k, k, k)` — the paper's rank counts are all cubes.
pub fn near_cubic_factors(p: usize) -> (usize, usize, usize) {
    assert!(p > 0);
    let mut best = (1, 1, p);
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= p {
        if p.is_multiple_of(a) {
            let q = p / a;
            let mut b = a;
            while b * b <= q {
                if q.is_multiple_of(b) {
                    let c = q / b;
                    // Minimize surface of an a x b x c box: proxy for
                    // communication surface.
                    let score = a * b + b * c + a * c;
                    if score < best_score {
                        best_score = score;
                        best = (a, b, c);
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Closed-form description of a `px x py x pz` block decomposition of an
/// `nx x ny x nz` cell grid.
///
/// All queries are O(1) or O(neighbours) without materializing the
/// assignment vector — essential for the modeled engine's 1000-rank,
/// 8-million-cell configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    cells: (usize, usize, usize),
    parts: (usize, usize, usize),
}

impl BlockLayout {
    /// Creates a layout of the given cell grid into the given part grid.
    ///
    /// # Panics
    /// Panics if any part count is zero or exceeds the cell count along its
    /// axis.
    pub fn new(cells: (usize, usize, usize), parts: (usize, usize, usize)) -> Self {
        assert!(
            parts.0 > 0 && parts.1 > 0 && parts.2 > 0,
            "part counts must be positive"
        );
        assert!(
            parts.0 <= cells.0 && parts.1 <= cells.1 && parts.2 <= cells.2,
            "more parts than cells along an axis"
        );
        BlockLayout { cells, parts }
    }

    /// Layout for `num_parts` near-cubic blocks of `mesh`.
    pub fn for_mesh(mesh: &StructuredHexMesh, num_parts: usize) -> Self {
        BlockLayout::new(mesh.cell_dims(), near_cubic_factors(num_parts))
    }

    /// The part grid `(px, py, pz)`.
    #[inline]
    pub fn part_dims(&self) -> (usize, usize, usize) {
        self.parts
    }

    /// The cell grid `(nx, ny, nz)`.
    #[inline]
    pub fn cell_dims(&self) -> (usize, usize, usize) {
        self.cells
    }

    /// Total number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.parts.0 * self.parts.1 * self.parts.2
    }

    /// Block lattice index of `rank`.
    #[inline]
    pub fn block_of_rank(&self, rank: usize) -> Index3 {
        Index3::from_linear(rank, self.parts)
    }

    /// Rank of block `b`.
    #[inline]
    pub fn rank_of_block(&self, b: Index3) -> usize {
        b.linear(self.parts)
    }

    /// Rank owning cell `c`.
    #[inline]
    pub fn rank_of_cell(&self, c: Index3) -> usize {
        let b = Index3::new(
            chunk_of(c.i, self.cells.0, self.parts.0),
            chunk_of(c.j, self.cells.1, self.parts.1),
            chunk_of(c.k, self.cells.2, self.parts.2),
        );
        self.rank_of_block(b)
    }

    /// Half-open cell ranges `[lo, hi)` per axis of `rank`'s block.
    pub fn cell_ranges(&self, rank: usize) -> [(usize, usize); 3] {
        let b = self.block_of_rank(rank);
        [
            (
                chunk_start(b.i, self.cells.0, self.parts.0),
                chunk_start(b.i + 1, self.cells.0, self.parts.0),
            ),
            (
                chunk_start(b.j, self.cells.1, self.parts.1),
                chunk_start(b.j + 1, self.cells.1, self.parts.1),
            ),
            (
                chunk_start(b.k, self.cells.2, self.parts.2),
                chunk_start(b.k + 1, self.cells.2, self.parts.2),
            ),
        ]
    }

    /// Block extent (cells per axis) of `rank`.
    pub fn block_extent(&self, rank: usize) -> (usize, usize, usize) {
        let r = self.cell_ranges(rank);
        (r[0].1 - r[0].0, r[1].1 - r[1].0, r[2].1 - r[2].0)
    }

    /// Number of cells owned by `rank`.
    pub fn cells_in_rank(&self, rank: usize) -> usize {
        let (a, b, c) = self.block_extent(rank);
        a * b * c
    }

    /// All node-sharing neighbours of `rank` (the up-to-26 adjacent blocks),
    /// each with the number of *shared lattice nodes of order `q`* on the
    /// common interface — i.e. the per-neighbour halo-exchange footprint for
    /// a nodal discretization of order `q` (1 = Q1, 2 = Q2).
    ///
    /// Face neighbours share a 2-D plane of nodes, edge neighbours a 1-D
    /// line, corner neighbours a single node.
    pub fn node_neighbors(&self, rank: usize, q: usize) -> Vec<(usize, usize)> {
        assert!(q >= 1);
        let b = self.block_of_rank(rank);
        let ext = self.block_extent(rank);
        let mut out = Vec::new();
        for dk in -1i64..=1 {
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    if di == 0 && dj == 0 && dk == 0 {
                        continue;
                    }
                    let ni = b.i as i64 + di;
                    let nj = b.j as i64 + dj;
                    let nk = b.k as i64 + dk;
                    if ni < 0
                        || nj < 0
                        || nk < 0
                        || ni >= self.parts.0 as i64
                        || nj >= self.parts.1 as i64
                        || nk >= self.parts.2 as i64
                    {
                        continue;
                    }
                    // Shared node count: along each axis the overlap is the
                    // full node line (q*ext + 1) when the neighbour offset is
                    // zero, or a single interface node plane otherwise.
                    let shared_x = if di == 0 { q * ext.0 + 1 } else { 1 };
                    let shared_y = if dj == 0 { q * ext.1 + 1 } else { 1 };
                    let shared_z = if dk == 0 { q * ext.2 + 1 } else { 1 };
                    let neighbor =
                        self.rank_of_block(Index3::new(ni as usize, nj as usize, nk as usize));
                    out.push((neighbor, shared_x * shared_y * shared_z));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Total shared lattice nodes of order `q` over all of `rank`'s
    /// neighbours: the sum of the counts [`Self::node_neighbors`] lists, in
    /// closed form. Along each axis a block shares its full node line
    /// `q*ext + 1` with the neighbours at offset zero and one interface
    /// plane with each neighbour that exists at offset -1 or +1; the sum
    /// over all offset triples factorizes per axis, and the product of the
    /// full lines is the block itself, which is not a neighbour.
    pub fn halo_nodes(&self, rank: usize, q: usize) -> usize {
        assert!(q >= 1);
        let b = self.block_of_rank(rank);
        let ext = self.block_extent(rank);
        let axes = [
            (b.i, self.parts.0, ext.0),
            (b.j, self.parts.1, ext.1),
            (b.k, self.parts.2, ext.2),
        ];
        let mut with_faces = 1;
        let mut own = 1;
        for (at, parts, ext) in axes {
            let line = q * ext + 1;
            with_faces *= line + usize::from(at > 0) + usize::from(at + 1 < parts);
            own *= line;
        }
        with_faces - own
    }

    /// Materializes the full cell-to-rank assignment vector.
    pub fn assignment(&self) -> Vec<usize> {
        let (nx, ny, nz) = self.cells;
        let mut out = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    out.push(self.rank_of_cell(Index3::new(i, j, k)));
                }
            }
        }
        out
    }
}

/// [`Partitioner`] wrapper around [`BlockLayout`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPartitioner;

impl Partitioner for BlockPartitioner {
    fn partition(&self, mesh: &StructuredHexMesh, num_parts: usize) -> Vec<usize> {
        BlockLayout::for_mesh(mesh, num_parts).assignment()
    }

    fn name(&self) -> &'static str {
        "block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mesh::quality::load_imbalance;

    #[test]
    fn factors_of_cubes_are_cubic() {
        for k in 1..=10usize {
            assert_eq!(near_cubic_factors(k * k * k), (k, k, k));
        }
    }

    #[test]
    fn factors_of_non_cubes() {
        assert_eq!(near_cubic_factors(1), (1, 1, 1));
        let (a, b, c) = near_cubic_factors(12);
        assert_eq!(a * b * c, 12);
        assert_eq!((a, b, c), (2, 2, 3));
        let (a, b, c) = near_cubic_factors(7); // prime
        assert_eq!(a * b * c, 7);
    }

    #[test]
    fn chunk_of_inverts_chunk_start() {
        for n in [5usize, 7, 20, 21] {
            for p in 1..=n {
                for i in 0..n {
                    let a = chunk_of(i, n, p);
                    assert!(chunk_start(a, n, p) <= i && i < chunk_start(a + 1, n, p));
                }
            }
        }
    }

    #[test]
    fn ranges_tile_the_grid() {
        let l = BlockLayout::new((20, 20, 20), (3, 3, 3));
        let total: usize = (0..l.num_parts()).map(|r| l.cells_in_rank(r)).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn assignment_consistent_with_rank_of_cell() {
        let mesh = StructuredHexMesh::unit_cube(6);
        let l = BlockLayout::for_mesh(&mesh, 8);
        let asg = l.assignment();
        for cell in mesh.cells() {
            assert_eq!(asg[mesh.cell_id(cell)], l.rank_of_cell(cell));
        }
    }

    #[test]
    fn perfect_cube_partition_is_balanced() {
        let mesh = StructuredHexMesh::unit_cube(20);
        let asg = BlockPartitioner.partition(&mesh, 8);
        assert_eq!(load_imbalance(&asg, 8), 1.0);
        // Each rank owns a 10^3 block.
        let l = BlockLayout::for_mesh(&mesh, 8);
        for r in 0..8 {
            assert_eq!(l.cells_in_rank(r), 1000);
        }
    }

    #[test]
    fn uneven_partition_is_nearly_balanced() {
        let mesh = StructuredHexMesh::unit_cube(7);
        let asg = BlockPartitioner.partition(&mesh, 8);
        // 343 cells over 8 parts: block extents 3 or 4 per axis.
        assert!(load_imbalance(&asg, 8) < 1.55);
    }

    #[test]
    fn interior_block_has_26_node_neighbors() {
        let l = BlockLayout::new((9, 9, 9), (3, 3, 3));
        let center = l.rank_of_block(Index3::new(1, 1, 1));
        let n = l.node_neighbors(center, 1);
        assert_eq!(n.len(), 26);
        // Face neighbours share a (3*1+1)^2 = 16-node plane.
        let face = n
            .iter()
            .find(|&&(r, _)| r == l.rank_of_block(Index3::new(0, 1, 1)))
            .unwrap();
        assert_eq!(face.1, 16);
        // Corner neighbour shares exactly one node.
        let corner = n
            .iter()
            .find(|&&(r, _)| r == l.rank_of_block(Index3::new(0, 0, 0)))
            .unwrap();
        assert_eq!(corner.1, 1);
    }

    #[test]
    fn q2_interface_is_denser() {
        let l = BlockLayout::new((8, 8, 8), (2, 2, 2));
        let n1 = l.node_neighbors(0, 1);
        let n2 = l.node_neighbors(0, 2);
        let face1 = n1.iter().find(|&&(r, _)| r == 1).unwrap().1;
        let face2 = n2.iter().find(|&&(r, _)| r == 1).unwrap().1;
        assert_eq!(face1, 5 * 5);
        assert_eq!(face2, 9 * 9);
    }

    #[test]
    fn node_neighbor_relation_is_symmetric() {
        let l = BlockLayout::new((10, 12, 8), (2, 3, 2));
        for r in 0..l.num_parts() {
            for &(s, count) in &l.node_neighbors(r, 2) {
                let back = l.node_neighbors(s, 2);
                let found = back
                    .iter()
                    .find(|&&(t, _)| t == r)
                    .expect("symmetric neighbor");
                assert_eq!(found.1, count, "ranks {r} and {s} disagree on shared nodes");
            }
        }
    }

    #[test]
    fn corner_block_has_seven_neighbors() {
        let l = BlockLayout::new((4, 4, 4), (2, 2, 2));
        assert_eq!(l.node_neighbors(0, 1).len(), 7);
    }

    #[test]
    #[should_panic(expected = "more parts than cells")]
    fn too_many_parts_rejected() {
        BlockLayout::new((2, 2, 2), (3, 1, 1));
    }
}
