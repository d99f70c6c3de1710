#include "learning/similarity_matrix.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace sight {
namespace {

// A weight is finite and >= 0. Written so that NaN, which fails every
// comparison, fails the check. The CSR view keeps only w > 0, and the
// triangle walk in the harmonic solver adds every entry; they agree
// bitwise only because a zero weight contributes an exact +-0.0 term.
bool ValidWeight(double value) {
  return value >= 0.0 && value <= std::numeric_limits<double>::max();
}

}  // namespace

void SimilarityMatrix::Set(size_t i, size_t j, double value) {
  SIGHT_CHECK(i < n_ && j < n_);
  SIGHT_CHECK(ValidWeight(value));
  if (i == j) return;
  data_[Index(i, j)] = value;
  InvalidateCompact();
}

void SimilarityMatrix::SetRowSpan(size_t i, size_t j0, const double* values,
                                  size_t count) {
  if (count == 0) return;
  SIGHT_CHECK(i < n_ && j0 + count <= i);
  for (size_t k = 0; k < count; ++k) SIGHT_CHECK(ValidWeight(values[k]));
  // Index(i, j) = i * (i + 1) / 2 + j for j < i, so the span is
  // contiguous in the packed lower-triangle store.
  std::copy(values, values + count, data_.begin() +
                                        static_cast<ptrdiff_t>(Index(i, j0)));
  InvalidateCompact();
}

double SimilarityMatrix::Get(size_t i, size_t j) const {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  return data_[Index(i, j)];
}

double SimilarityMatrix::RowSum(size_t i) const {
  if (compacted_) {
    double sum = 0.0;
    for (const Neighbor& nb : Neighbors(i)) sum += nb.weight;
    return sum;
  }
  double sum = 0.0;
  for (size_t j = 0; j < n_; ++j) {
    if (j != i) sum += Get(i, j);
  }
  return sum;
}

void SimilarityMatrix::SparsifyTopK(size_t k) {
  if (n_ == 0) return;
  InvalidateCompact();
  // Mark, per node, its k strongest neighbors.
  std::vector<std::vector<bool>> keep(n_, std::vector<bool>(n_, false));
  std::vector<std::pair<double, size_t>> row;
  for (size_t i = 0; i < n_; ++i) {
    row.clear();
    for (size_t j = 0; j < n_; ++j) {
      if (j == i) continue;
      double w = Get(i, j);
      if (w > 0.0) row.emplace_back(w, j);
    }
    size_t take = std::min(k, row.size());
    std::partial_sort(row.begin(), row.begin() + static_cast<ptrdiff_t>(take),
                      row.end(), std::greater<>());
    for (size_t t = 0; t < take; ++t) keep[i][row[t].second] = true;
  }
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (!keep[i][j] && !keep[j][i]) data_[Index(i, j)] = 0.0;
    }
  }
}

size_t SimilarityMatrix::NumEdges() const {
  if (compacted_) return neighbors_.size() / 2;
  size_t count = 0;
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (data_[Index(i, j)] > 0.0) ++count;
    }
  }
  return count;
}

bool SimilarityMatrix::CsrIsSmaller() const {
  size_t csr_bytes = 2 * NumEdges() * sizeof(Neighbor) +
                     (n_ + 1) * sizeof(size_t);
  return csr_bytes < sizeof(double) * data_.size();
}

void SimilarityMatrix::Compact() {
  if (compacted_) return;
  row_offsets_.assign(n_ + 1, 0);
  // Degree pass over the lower triangle (each edge counts at both ends),
  // shifted by one so the prefix sum lands directly in CSR offsets. The
  // scan order (i, j < i) is exactly the packed layout, so a linear
  // pointer walk replaces the per-entry Index() multiply; the extra ++
  // after each inner loop steps over the unused diagonal slot.
  const double* entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      if (*entry > 0.0) {
        ++row_offsets_[i + 1];
        ++row_offsets_[j + 1];
      }
    }
  }
  for (size_t i = 0; i < n_; ++i) row_offsets_[i + 1] += row_offsets_[i];
  neighbors_.resize(row_offsets_.back());
  // Fill pass. Scanning (i, j<i) in ascending order appends ascending j
  // into row i and ascending i into row j, so every row ends up sorted by
  // neighbor index with no per-row sort.
  std::vector<size_t> cursor(row_offsets_.begin(), row_offsets_.end() - 1);
  entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      double w = *entry;
      if (w > 0.0) {
        neighbors_[cursor[i]++] = Neighbor{j, w};
        neighbors_[cursor[j]++] = Neighbor{i, w};
      }
    }
  }
  compacted_ = true;
}

std::span<const Neighbor> SimilarityMatrix::Neighbors(size_t i) const {
  SIGHT_CHECK(compacted_);
  SIGHT_CHECK(i < n_);
  return std::span<const Neighbor>(neighbors_.data() + row_offsets_[i],
                                   row_offsets_[i + 1] - row_offsets_[i]);
}

void SimilarityMatrix::InvalidateCompact() {
  if (!compacted_) return;
  compacted_ = false;
  row_offsets_.clear();
  row_offsets_.shrink_to_fit();
  neighbors_.clear();
  neighbors_.shrink_to_fit();
}

}  // namespace sight
