// Dense symmetric similarity (edge-weight) matrix for a pool of instances,
// with an optional compact (CSR) neighbor view for sparse iteration.
//
// Pools in the risk pipeline are small (tens to a few thousand strangers),
// so a dense lower-triangular store is the simplest write target while the
// matrix is being built. Zhu's harmonic classifier consumes this as the
// weighted graph over labeled + unlabeled nodes. An optional top-k
// sparsification keeps only the strongest edges per node, which both
// denoises and speeds up propagation for larger pools. The harmonic solver
// walks the packed triangle directly unless the matrix is sparse enough
// that its CSR view (Compact()) is smaller than the triangle
// (CsrIsSmaller()); then it iterates O(degree) neighbor lists instead.
// Weights are finite and non-negative; zero means "no edge".

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
  /// `value` must be finite and >= 0 (checked). Invalidates a previously
  /// built compact view.
  void Set(size_t i, size_t j, double value);

  /// Sets w(i, j0 + k) = values[k] for k in [0, count). Requires
  /// j0 + count <= i (a strictly-lower-triangle span), which makes the
  /// destination one contiguous run of the packed store — this is the
  /// write path of the tiled PS matrix-build kernels
  /// (similarity/ps_kernels.h), one bounds check and one compact-view
  /// invalidation per span instead of per pair. Every value must be
  /// finite and >= 0 (checked). Concurrent SetRowSpan calls on disjoint
  /// spans of a never-compacted matrix are safe.
  void SetRowSpan(size_t i, size_t j0, const double* values, size_t count);

  double Get(size_t i, size_t j) const;

  /// Sum of row i (node degree in the weighted graph), added in ascending
  /// column order; bitwise the same before and after Compact().
  double RowSum(size_t i) const;

  /// Row i of the packed lower triangle: entries w(i, 0..i), the last one
  /// the zero diagonal. Row j's entries at columns [c, c + k) with
  /// c + k <= j + 1 are contiguous, which is what lets the harmonic
  /// solver read w(j, r0..r0+3) for a block of rows in one stream.
  const double* PackedRow(size_t i) const {
    return data_.data() + i * (i + 1) / 2;
  }

  /// Keeps, for every node, only its k strongest incident edges (an edge
  /// survives if it is in the top-k of either endpoint). k = 0 clears all.
  /// Invalidates a previously built compact view.
  void SparsifyTopK(size_t k);

  /// Number of non-zero off-diagonal entries (each unordered pair once).
  size_t NumEdges() const;

  /// True when the CSR view takes fewer bytes than the packed triangle:
  /// 2 * NumEdges() * sizeof(Neighbor) + (n + 1) * sizeof(size_t) <
  /// sizeof(double) * n * (n + 1) / 2. Only then is Compact() worth its
  /// memory and does the harmonic solver iterate the CSR; dense pools
  /// (every PS pair positive) are solved off the triangle. O(n^2) on a
  /// matrix that is not compacted.
  bool CsrIsSmaller() const;

  /// Materializes per-row (index, weight) adjacency lists over the
  /// positive-weight entries so Neighbors(i) is available. Rows are sorted
  /// by neighbor index. No-op if already compacted; a later Set(),
  /// SetRowSpan() or SparsifyTopK() invalidates the view. The packed
  /// triangle is kept either way.
  void Compact();

  bool compacted() const { return compacted_; }

  /// Row i of the compact view: one contiguous span of the CSR arrays.
  /// Requires a prior Compact().
  std::span<const Neighbor> Neighbors(size_t i) const;

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
