//! Compressed Sparse Row graph snapshots.
//!
//! The paper stores each graph snapshot in CSR (§3.3.1): `Offset_Array`
//! records, per vertex, the begin/end offsets of its outgoing neighbors in
//! `Neighbor_Array`. [`Csr`] is exactly that pair plus a parallel weight
//! array. The address layout of these arrays is what the simulator maps into
//! its address space, so the field order here is load-bearing for the memory
//! model.

use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};

/// An immutable CSR snapshot of a directed, weighted graph.
///
/// Built from an edge list via [`Csr::from_edges`] or materialized from a
/// [`crate::streaming::StreamingGraph`]. Neighbor lists are sorted by
/// destination id, which the paper's depth-first traversal relies on for
/// deterministic visit order.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`weights` for vertex `v`.
    offsets: Vec<u64>,
    /// Outgoing neighbor ids, grouped by source and sorted within a group.
    neighbors: Vec<VertexId>,
    /// Weight of the edge to the neighbor at the same index.
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds a CSR from `vertex_count` and an edge list.
    ///
    /// Duplicate `(src, dst)` pairs are kept (multigraph semantics are left
    /// to the caller; [`crate::streaming::StreamingGraph`] deduplicates).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint id is `>= vertex_count`.
    #[must_use]
    pub fn from_edges(vertex_count: VertexCount, edges: &[Edge]) -> Self {
        let mut degrees = vec![0u64; vertex_count];
        for e in edges {
            assert!(
                (e.src as usize) < vertex_count && (e.dst as usize) < vertex_count,
                "edge ({}, {}) out of bounds for {vertex_count} vertices",
                e.src,
                e.dst
            );
            degrees[e.src as usize] += 1;
        }
        let mut offsets = vec![0u64; vertex_count + 1];
        for v in 0..vertex_count {
            offsets[v + 1] = offsets[v] + degrees[v];
        }
        let mut neighbors = vec![0 as VertexId; edges.len()];
        let mut weights = vec![0.0 as Weight; edges.len()];
        let mut cursor = offsets.clone();
        for e in edges {
            let at = cursor[e.src as usize] as usize;
            neighbors[at] = e.dst;
            weights[at] = e.weight;
            cursor[e.src as usize] += 1;
        }
        // Sort each neighbor run by destination id for deterministic
        // traversal order.
        let mut csr = Self { offsets, neighbors, weights };
        csr.sort_neighbor_runs();
        csr
    }

    fn sort_neighbor_runs(&mut self) {
        for v in 0..self.vertex_count() {
            let (lo, hi) = self.neighbor_range(v as VertexId);
            let mut run: Vec<(VertexId, Weight)> =
                (lo..hi).map(|i| (self.neighbors[i], self.weights[i])).collect();
            run.sort_by_key(|&(n, _)| n);
            for (k, (n, w)) in run.into_iter().enumerate() {
                self.neighbors[lo + k] = n;
                self.weights[lo + k] = w;
            }
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> VertexCount {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> EdgeCount {
        self.neighbors.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.neighbor_range(v);
        hi - lo
    }

    /// Begin/end index of `v`'s neighbor run (the paper's
    /// `Offset_Array[v]` / `Offset_Array[v+1]` pair).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn neighbor_range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }

    /// Outgoing neighbors of `v`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.neighbor_range(v);
        &self.neighbors[lo..hi]
    }

    /// Weights parallel to [`Csr::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        let (lo, hi) = self.neighbor_range(v);
        &self.weights[lo..hi]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (lo, hi) = self.neighbor_range(v);
        self.neighbors[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// The neighbor/weight stored at flat edge index `i` (used by the
    /// simulator to translate edge indexes into `Neighbor_Array` addresses).
    ///
    /// # Panics
    ///
    /// Panics if `i >= edge_count()`.
    #[must_use]
    pub fn edge_at(&self, i: usize) -> (VertexId, Weight) {
        (self.neighbors[i], self.weights[i])
    }

    /// Iterates all edges as [`Edge`] values.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.vertex_count() as VertexId)
            .flat_map(move |v| self.out_edges(v).map(move |(n, w)| Edge::new(v, n, w)))
    }

    /// Returns the transposed graph (every edge reversed). Monotonic
    /// deletion handling gathers over incoming edges, which needs this.
    #[must_use]
    pub fn transpose(&self) -> Csr {
        let edges: Vec<Edge> = self.iter_edges().map(Edge::reversed).collect();
        Csr::from_edges(self.vertex_count(), &edges)
    }

    /// Raw offsets array (the flat `Offset_Array` layout, for
    /// layout-aware external tooling; the simulator sizes its regions from
    /// counts, not from this slice).
    #[must_use]
    pub fn offsets_raw(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw neighbors array (the flat `Neighbor_Array` layout; same use as
    /// [`Csr::offsets_raw`]).
    #[must_use]
    pub fn neighbors_raw(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Average out-degree.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// Approximate diameter via double-sweep BFS over the *undirected* view
    /// of the graph, starting from the highest-degree vertex (standard
    /// lower-bound heuristic; used only for the Table 2 dataset statistics,
    /// which SNAP also reports on the undirected view).
    #[must_use]
    pub fn approximate_diameter(&self) -> usize {
        if self.vertex_count() == 0 || self.edge_count() == 0 {
            return 0;
        }
        let transpose = self.transpose();
        let start = (0..self.vertex_count() as VertexId)
            .max_by_key(|&v| self.degree(v) + transpose.degree(v))
            .unwrap_or(0);
        let (far, _) = self.bfs_farthest_undirected(&transpose, start);
        let (_, dist) = self.bfs_farthest_undirected(&transpose, far);
        dist
    }

    fn bfs_farthest_undirected(&self, transpose: &Csr, start: VertexId) -> (VertexId, usize) {
        let mut dist = vec![usize::MAX; self.vertex_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[start as usize] = 0;
        queue.push_back(start);
        let mut far = (start, 0usize);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            if d > far.1 {
                far = (v, d);
            }
            for n in self.neighbors(v).iter().chain(transpose.neighbors(v)) {
                if dist[*n as usize] == usize::MAX {
                    dist[*n as usize] = d + 1;
                    queue.push_back(*n);
                }
            }
        }
        far
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(
            4,
            &[
                Edge::new(0, 2, 2.0),
                Edge::new(0, 1, 1.0),
                Edge::new(1, 3, 3.0),
                Edge::new(2, 3, 4.0),
            ],
        )
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn neighbor_runs_are_sorted() {
        let g = diamond();
        assert_eq!(g.neighbors(0), &[1, 2]);
        // Weights move with their neighbor during the sort.
        assert_eq!(g.weights(0), &[1.0, 2.0]);
    }

    #[test]
    fn out_edges_pairs_neighbors_with_weights() {
        let g = diamond();
        let pairs: Vec<_> = g.out_edges(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edge_count(), g.edge_count());
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Transposing twice recovers the original.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let g = diamond();
        let edges: Vec<Edge> = g.iter_edges().collect();
        let rebuilt = Csr::from_edges(4, &edges);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.approximate_diameter(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        let _ = Csr::from_edges(2, &[Edge::new(0, 5, 1.0)]);
    }

    #[test]
    fn diameter_of_path_graph() {
        let edges: Vec<Edge> = (0..9).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let g = Csr::from_edges(10, &edges);
        assert_eq!(g.approximate_diameter(), 9);
    }

    #[test]
    fn edge_at_flat_indexing() {
        let g = diamond();
        let (lo, _) = g.neighbor_range(1);
        assert_eq!(g.edge_at(lo), (3, 3.0));
    }
}
