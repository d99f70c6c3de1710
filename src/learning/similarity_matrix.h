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
  /// Invalidates a previously built compact view.
  void Set(size_t i, size_t j, double value);

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
  /// by neighbor index. No-op if already compacted; a later Set(),
  /// SetRowSpan() or SparsifyTopK() invalidates the view.
  void Compact();

  bool compacted() const { return compacted_; }

  /// Row i of the compact view: one contiguous span of the CSR arrays.
  /// Requires a prior Compact().
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

  size_t n_;
  std::vector<double> data_;

  // Compact (CSR) view; valid iff compacted_.
  bool compacted_ = false;
  std::vector<size_t> row_offsets_;  // n_ + 1 entries
  std::vector<Neighbor> neighbors_;  // both directions of every edge
};

}  // namespace sight

#endif  // SIGHT_LEARNING_SIMILARITY_MATRIX_H_
