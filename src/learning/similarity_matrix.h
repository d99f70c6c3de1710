// Dense symmetric similarity (edge-weight) matrix for a pool of instances,
// with an optional compact (CSR) neighbor view for sparse iteration.
//
// Pools in the risk pipeline are small (tens to a few thousand strangers),
// so a dense lower-triangular store is the simplest write target while the
// matrix is being built. Zhu's harmonic classifier consumes this as the
// weighted graph over labeled + unlabeled nodes. An optional top-k
// sparsification keeps only the strongest edges per node, which both
// denoises and speeds up propagation for larger pools — and Compact()
// materializes per-row (index, weight) adjacency lists so solvers iterate
// O(degree) neighbors per node instead of O(n) dense scans.

#ifndef SIGHT_LEARNING_SIMILARITY_MATRIX_H_
#define SIGHT_LEARNING_SIMILARITY_MATRIX_H_

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace sight {

/// One directed CSR entry: the neighbor's pool index and the edge weight.
struct Neighbor {
  size_t index;
  double weight;
};

/// Symmetric n x n matrix with a zero diagonal (no self-edges).
class SimilarityMatrix {
 public:
  explicit SimilarityMatrix(size_t n) : n_(n), data_(n * (n + 1) / 2, 0.0) {}

  size_t size() const { return n_; }

  /// Sets w(i, j) = w(j, i) = value. Diagonal writes are ignored.
  /// On a compacted matrix, a pair touching a row appended after
  /// Compact() is staged into the overlay (the view stays valid and
  /// Neighbors() reflects the write); a pair between two pre-Compact()
  /// rows invalidates the view as before.
  void Set(size_t i, size_t j, double value);

  /// Grows the matrix by `count` rows (initially all-zero). The packed
  /// lower-triangle store appends in place, so existing entries are
  /// untouched. A compact view stays valid: writes into the new rows are
  /// staged (see Set()) until MergeCompact() folds them in. This is the
  /// stranger-arrival path of the RiskService crawler flow.
  void AppendRows(size_t count);

  /// Folds staged rows/edges into the compact view with one O(entries)
  /// offset rebuild and row copies — no per-row sorts, no O(n^2) dense
  /// rescan. No-op when nothing is staged; falls back to Compact() when
  /// no view exists yet.
  void MergeCompact();

  /// Rows appended since the compact view was built (0 when not
  /// compacted).
  size_t num_staged_rows() const {
    return compacted_ ? n_ - base_rows_ : 0;
  }

  /// Positive-weight pairs staged in the overlay, not yet merged.
  size_t num_staged_edges() const { return staged_edges_; }

  /// Sets w(i, j0 + k) = values[k] for k in [0, count). Requires
  /// j0 + count <= i (a strictly-lower-triangle span), which makes the
  /// destination one contiguous run of the packed store — this is the
  /// write path of the tiled PS matrix-build kernels
  /// (similarity/ps_kernels.h), one bounds check and one compact-view
  /// invalidation per span instead of per pair. Concurrent SetRowSpan
  /// calls on disjoint spans of a never-compacted matrix are safe.
  void SetRowSpan(size_t i, size_t j0, const double* values, size_t count);

  double Get(size_t i, size_t j) const;

  /// Sum of row i (node degree in the weighted graph).
  double RowSum(size_t i) const;

  /// Keeps, for every node, only its k strongest incident edges (an edge
  /// survives if it is in the top-k of either endpoint). k = 0 clears all.
  /// Invalidates a previously built compact view.
  void SparsifyTopK(size_t k);

  /// Number of non-zero off-diagonal entries (each unordered pair once).
  size_t NumEdges() const;

  /// Materializes per-row (index, weight) adjacency lists over the
  /// positive-weight entries so Neighbors(i) is available. Rows are sorted
  /// by neighbor index. Equivalent to MergeCompact() if already
  /// compacted; a later SparsifyTopK() (or a Set() between two
  /// pre-Compact() rows) invalidates the view.
  void Compact();

  bool compacted() const { return compacted_; }

  /// Row i of the compact view (staged appends overlaid). Requires a
  /// prior Compact().
  std::span<const Neighbor> Neighbors(size_t i) const;

  /// Writes the CSR arrays for the current contents into the outputs
  /// (same layout Compact() caches: `offsets` has n + 1 entries, row i of
  /// `neighbors` is [offsets[i], offsets[i+1]) sorted by index). Lets a
  /// reader of a const, non-compacted matrix build its own view with a
  /// single O(n^2) pass.
  void BuildCsr(std::vector<size_t>* offsets,
                std::vector<Neighbor>* neighbors) const;

 private:
  size_t Index(size_t i, size_t j) const {
    if (i < j) std::swap(i, j);
    return i * (i + 1) / 2 + j;  // lower triangle, i >= j
  }

  void InvalidateCompact();

  /// Stages w(i, j) = value into the overlay rows of both endpoints.
  /// Requires compacted_ and max(i, j) >= base_rows_ (the pair involves
  /// an appended row, so it cannot already exist in the base view).
  void StageEdge(size_t i, size_t j, double value);

  /// Mutable overlay row for i: the tail row when i was appended, else
  /// the patched copy of base row i (created on first touch).
  std::vector<Neighbor>& MutableOverlayRow(size_t i);

  size_t n_;
  std::vector<double> data_;

  // Compact (CSR) view; valid iff compacted_. Base arrays cover rows
  // [0, base_rows_); rows appended later live in tail_rows_, and base
  // rows that gained a staged neighbor are shadowed whole (sorted, fully
  // merged) in patched_rows_, so Neighbors() always returns one
  // contiguous span.
  bool compacted_ = false;
  std::vector<size_t> row_offsets_;  // base_rows_ + 1 entries
  std::vector<Neighbor> neighbors_;  // both directions of every edge
  size_t base_rows_ = 0;             // rows covered by the base view
  size_t staged_edges_ = 0;          // staged positive pairs, not merged
  std::vector<std::vector<Neighbor>> tail_rows_;  // row base_rows_ + k
  std::unordered_map<size_t, std::vector<Neighbor>> patched_rows_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_SIMILARITY_MATRIX_H_
