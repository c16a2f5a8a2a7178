//! Mutable streaming-graph store.
//!
//! [`StreamingGraph`] owns the evolving adjacency structure, applies
//! [`UpdateBatch`]es atomically, and materializes immutable [`Csr`]
//! snapshots for the engines (the paper regenerates a CSR snapshot per
//! batch, §2.1/§3.3.1). Applying a batch reports the *affected vertices* —
//! the destination endpoints of added/deleted edges — which seed the
//! incremental computation as the initial active set (§3.2.1).

use std::error::Error;
use std::fmt;

use crate::csr::Csr;
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::types::{Edge, EdgeCount, VertexCount, VertexId, Weight};
use crate::update::{UpdateBatch, UpdateKind};

/// Error applying a batch to a [`StreamingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// An endpoint id is outside the graph's vertex range.
    VertexOutOfBounds {
        /// Offending vertex id.
        vertex: VertexId,
        /// Current vertex count.
        vertex_count: VertexCount,
    },
    /// A deletion referenced an edge that is not present.
    MissingEdge {
        /// Source of the missing edge.
        src: VertexId,
        /// Destination of the missing edge.
        dst: VertexId,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::VertexOutOfBounds { vertex, vertex_count } => {
                write!(f, "vertex {vertex} out of bounds for graph with {vertex_count} vertices")
            }
            ApplyError::MissingEdge { src, dst } => {
                write!(f, "deletion of absent edge ({src}, {dst})")
            }
        }
    }
}

impl Error for ApplyError {}

/// The outcome of applying one batch: which updates took effect and which
/// vertices the incremental computation must treat as affected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppliedBatch {
    added: Vec<Edge>,
    deleted: Vec<Edge>,
    reweighted: Vec<(Edge, Weight)>,
    affected: Vec<VertexId>,
}

impl AppliedBatch {
    /// Edges inserted by the batch (edges that did not exist before).
    #[must_use]
    pub fn added_edges(&self) -> &[Edge] {
        &self.added
    }

    /// Additions that hit an existing edge and overwrote its weight:
    /// `(edge with new weight, old weight)`. Incremental engines treat these
    /// as a deletion of the old-weight edge plus an addition.
    #[must_use]
    pub fn reweighted_edges(&self) -> &[(Edge, Weight)] {
        &self.reweighted
    }

    /// Edges removed by the batch (with the weight they had).
    #[must_use]
    pub fn deleted_edges(&self) -> &[Edge] {
        &self.deleted
    }

    /// Vertices affected by the updates (destinations of added and deleted
    /// edges), deduplicated and sorted. These seed `Active_Vertices`.
    #[must_use]
    pub fn affected_vertices(&self) -> &[VertexId] {
        &self.affected
    }
}

/// A directed, weighted streaming graph.
///
/// Duplicate `(src, dst)` edges are collapsed: re-adding an existing edge
/// overwrites its weight (documented normalization policy; the engines treat
/// it as a weight change, i.e., a deletion followed by an addition).
#[derive(Debug, Clone, Default)]
pub struct StreamingGraph {
    adjacency: Vec<Vec<(VertexId, Weight)>>,
    edge_count: EdgeCount,
}

impl StreamingGraph {
    /// Creates an empty graph with `vertex_count` vertices.
    #[must_use]
    pub fn with_capacity(vertex_count: VertexCount) -> Self {
        Self { adjacency: vec![Vec::new(); vertex_count], edge_count: 0 }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> VertexCount {
        self.adjacency.len()
    }

    /// Number of directed edges currently present.
    #[must_use]
    pub fn edge_count(&self) -> EdgeCount {
        self.edge_count
    }

    /// Whether edge `(src, dst)` is present.
    #[must_use]
    pub fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.adjacency.get(src as usize).is_some_and(|row| row.iter().any(|&(n, _)| n == dst))
    }

    /// Grows the vertex set so `vertex` is addressable.
    pub fn ensure_vertex(&mut self, vertex: VertexId) {
        if (vertex as usize) >= self.adjacency.len() {
            self.adjacency.resize(vertex as usize + 1, Vec::new());
        }
    }

    /// Inserts edges in bulk (initial 50 % load of §4.1). Re-inserted edges
    /// overwrite their weight. Self-loops are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError::VertexOutOfBounds`] for endpoints outside the
    /// current vertex range (use [`StreamingGraph::ensure_vertex`] first when
    /// loading into a pre-sized graph).
    pub fn insert_edges<I: IntoIterator<Item = Edge>>(
        &mut self,
        edges: I,
    ) -> Result<(), ApplyError> {
        for e in edges {
            self.check_bounds(e.src)?;
            self.check_bounds(e.dst)?;
            if e.is_self_loop() {
                continue;
            }
            self.insert_edge_unchecked(e);
        }
        Ok(())
    }

    fn check_bounds(&self, v: VertexId) -> Result<(), ApplyError> {
        if (v as usize) < self.adjacency.len() {
            Ok(())
        } else {
            Err(ApplyError::VertexOutOfBounds { vertex: v, vertex_count: self.adjacency.len() })
        }
    }

    /// Inserts or overwrites; returns the previous weight if the edge
    /// already existed.
    fn insert_edge_unchecked(&mut self, e: Edge) -> Option<Weight> {
        let row = &mut self.adjacency[e.src as usize];
        if let Some(slot) = row.iter_mut().find(|(n, _)| *n == e.dst) {
            let old = slot.1;
            slot.1 = e.weight;
            Some(old)
        } else {
            row.push((e.dst, e.weight));
            self.edge_count += 1;
            None
        }
    }

    fn remove_edge_unchecked(&mut self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let row = &mut self.adjacency[src as usize];
        let at = row.iter().position(|&(n, _)| n == dst)?;
        let (_, w) = row.swap_remove(at);
        self.edge_count -= 1;
        Some(w)
    }

    /// Applies a validated batch atomically.
    ///
    /// Additions of already-present edges update the weight; deletions of
    /// absent edges fail. On error the graph is left unchanged.
    ///
    /// # Errors
    ///
    /// [`ApplyError::VertexOutOfBounds`] or [`ApplyError::MissingEdge`].
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch, ApplyError> {
        // Validate first so failure cannot leave a half-applied batch.
        for u in batch.updates() {
            self.check_bounds(u.src)?;
            self.check_bounds(u.dst)?;
            if u.kind == UpdateKind::Deletion && !self.contains_edge(u.src, u.dst) {
                return Err(ApplyError::MissingEdge { src: u.src, dst: u.dst });
            }
        }
        let mut applied = AppliedBatch::default();
        for u in batch.updates() {
            match u.kind {
                UpdateKind::Addition => {
                    match self.insert_edge_unchecked(u.edge()) {
                        None => applied.added.push(u.edge()),
                        Some(old) => applied.reweighted.push((u.edge(), old)),
                    }
                    applied.affected.push(u.dst);
                }
                UpdateKind::Deletion => {
                    // Presence was validated above; `None` here would mean
                    // the batch self-conflicted, which `UpdateBatch`
                    // construction already rules out.
                    let w = self.remove_edge_unchecked(u.src, u.dst);
                    debug_assert!(w.is_some(), "deletion validated as present above");
                    if let Some(w) = w {
                        applied.deleted.push(Edge::new(u.src, u.dst, w));
                        applied.affected.push(u.dst);
                    }
                }
            }
        }
        applied.affected.sort_unstable();
        applied.affected.dedup();
        Ok(applied)
    }

    /// Applies a batch leniently: updates that strict
    /// [`StreamingGraph::apply_batch`] would reject are skipped and
    /// accounted in `quarantine` instead of failing the batch.
    ///
    /// Skipped records: updates with an endpoint outside the vertex range
    /// ([`QuarantineReason::VertexOutOfBounds`]) and deletions of absent
    /// edges ([`QuarantineReason::AbsentDeletion`]). Skipped updates do not
    /// mark any vertex affected. When nothing is quarantined the result is
    /// identical to strict application.
    pub fn apply_batch_lenient(
        &mut self,
        batch: &UpdateBatch,
        quarantine: &mut QuarantineReport,
    ) -> AppliedBatch {
        let mut applied = AppliedBatch::default();
        for u in batch.updates() {
            if self.check_bounds(u.src).is_err() || self.check_bounds(u.dst).is_err() {
                quarantine.record(
                    QuarantineReason::VertexOutOfBounds,
                    None,
                    &format!("({}, {})", u.src, u.dst),
                );
                continue;
            }
            match u.kind {
                UpdateKind::Addition => {
                    match self.insert_edge_unchecked(u.edge()) {
                        None => applied.added.push(u.edge()),
                        Some(old) => applied.reweighted.push((u.edge(), old)),
                    }
                    applied.affected.push(u.dst);
                }
                UpdateKind::Deletion => match self.remove_edge_unchecked(u.src, u.dst) {
                    Some(w) => {
                        applied.deleted.push(Edge::new(u.src, u.dst, w));
                        applied.affected.push(u.dst);
                    }
                    None => {
                        quarantine.record(
                            QuarantineReason::AbsentDeletion,
                            None,
                            &format!("({}, {})", u.src, u.dst),
                        );
                    }
                },
            }
        }
        applied.affected.sort_unstable();
        applied.affected.dedup();
        applied
    }

    /// Materializes an immutable CSR snapshot of the current graph.
    #[must_use]
    pub fn snapshot(&self) -> Csr {
        let edges: Vec<Edge> = self.iter_edges().collect();
        Csr::from_edges(self.vertex_count(), &edges)
    }

    /// Iterates all currently present edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(v, row)| row.iter().map(move |&(n, w)| Edge::new(v as VertexId, n, w)))
    }

    /// All present edges as a vector (deletion sampling pool for
    /// [`crate::update::BatchComposer`]).
    #[must_use]
    pub fn edges_vec(&self) -> Vec<Edge> {
        self.iter_edges().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::EdgeUpdate;

    fn base() -> StreamingGraph {
        let mut g = StreamingGraph::with_capacity(6);
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)]).unwrap();
        g
    }

    #[test]
    fn insert_counts_edges_and_skips_self_loops() {
        let mut g = StreamingGraph::with_capacity(3);
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(1, 1, 9.0)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.contains_edge(1, 1));
    }

    #[test]
    fn reinsert_overwrites_weight() {
        let mut g = StreamingGraph::with_capacity(3);
        g.insert_edges([Edge::new(0, 1, 1.0), Edge::new(0, 1, 5.0)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        let snap = g.snapshot();
        assert_eq!(snap.weights(0), &[5.0]);
    }

    #[test]
    fn apply_batch_adds_and_deletes() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::deletion(0, 1),
        ])
        .unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        assert!(g.contains_edge(3, 4));
        assert!(!g.contains_edge(0, 1));
        assert_eq!(applied.affected_vertices(), &[1, 4]);
        assert_eq!(applied.deleted_edges(), &[Edge::new(0, 1, 1.0)]);
    }

    #[test]
    fn apply_batch_missing_deletion_is_atomic() {
        let mut g = base();
        let before = g.edges_vec();
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(4, 5, 1.0),
            EdgeUpdate::deletion(5, 0),
        ])
        .unwrap();
        let err = g.apply_batch(&batch).unwrap_err();
        assert_eq!(err, ApplyError::MissingEdge { src: 5, dst: 0 });
        assert_eq!(g.edges_vec(), before, "failed batch must not mutate the graph");
    }

    #[test]
    fn apply_batch_out_of_bounds() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 99, 1.0)]).unwrap();
        assert!(matches!(
            g.apply_batch(&batch),
            Err(ApplyError::VertexOutOfBounds { vertex: 99, .. })
        ));
    }

    #[test]
    fn apply_batch_records_reweights_separately() {
        let mut g = base();
        let batch = UpdateBatch::from_updates(vec![EdgeUpdate::addition(0, 1, 9.0)]).unwrap();
        let applied = g.apply_batch(&batch).unwrap();
        assert!(applied.added_edges().is_empty());
        assert_eq!(applied.reweighted_edges(), &[(Edge::new(0, 1, 9.0), 1.0)]);
        assert_eq!(applied.affected_vertices(), &[1]);
        assert_eq!(g.snapshot().weights(0), &[9.0]);
    }

    #[test]
    fn snapshot_matches_adjacency() {
        let g = base();
        let s = g.snapshot();
        assert_eq!(s.vertex_count(), 6);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.neighbors(1), &[2]);
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut g = StreamingGraph::with_capacity(1);
        g.ensure_vertex(10);
        assert_eq!(g.vertex_count(), 11);
        g.insert_edges([Edge::new(10, 0, 1.0)]).unwrap();
        assert!(g.contains_edge(10, 0));
    }

    #[test]
    fn error_display_messages() {
        let a = ApplyError::MissingEdge { src: 1, dst: 2 };
        assert_eq!(a.to_string(), "deletion of absent edge (1, 2)");
        let b = ApplyError::VertexOutOfBounds { vertex: 9, vertex_count: 3 };
        assert!(b.to_string().contains("out of bounds"));
    }

    #[test]
    fn lenient_apply_quarantines_what_strict_rejects() {
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::deletion(5, 0),       // absent
            EdgeUpdate::addition(0, 99, 1.0), // out of bounds
            EdgeUpdate::deletion(1, 2),       // fine
        ])
        .unwrap();

        let mut strict = base();
        assert!(strict.apply_batch(&batch).is_err());

        let mut lenient = base();
        let mut q = QuarantineReport::new();
        let applied = lenient.apply_batch_lenient(&batch, &mut q);
        assert_eq!(q.total(), 2);
        assert_eq!(q.count(QuarantineReason::AbsentDeletion), 1);
        assert_eq!(q.count(QuarantineReason::VertexOutOfBounds), 1);
        assert!(lenient.contains_edge(3, 4));
        assert!(!lenient.contains_edge(1, 2));
        assert_eq!(applied.affected_vertices(), &[2, 4], "skipped updates mark nothing affected");
    }

    #[test]
    fn lenient_apply_of_clean_batch_matches_strict() {
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::addition(3, 4, 2.0),
            EdgeUpdate::addition(0, 1, 7.0), // reweight
            EdgeUpdate::deletion(1, 2),
        ])
        .unwrap();
        let mut strict = base();
        let want = strict.apply_batch(&batch).unwrap();
        let mut lenient = base();
        let mut q = QuarantineReport::new();
        let got = lenient.apply_batch_lenient(&batch, &mut q);
        assert!(q.is_empty());
        assert_eq!(got, want);
        assert_eq!(lenient.edges_vec(), strict.edges_vec());
    }
}
