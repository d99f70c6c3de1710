#include "learning/harmonic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "util/logging.h"
#include "util/string_util.h"

namespace sight {
namespace {

// kAuto switches to conjugate gradient above this many unlabeled nodes.
constexpr size_t kAutoCgThreshold = 128;

template <bool kSubtract>
inline void Accumulate(double& acc, double weight, double x) {
  if constexpr (kSubtract) {
    acc -= weight * x;
  } else {
    acc += weight * x;
  }
}

inline bool IsNegativeZero(double v) { return v == 0.0 && std::signbit(v); }

// Row i with CSR semantics: only columns with w > 0 and active[j] add a
// term, in ascending j. The reference the triangle walk reproduces; run
// only for a row whose accumulator starts at -0.0 (see TriangleRowWalk).
template <bool kSubtract>
double ExactRow(const SimilarityMatrix& w, size_t i, double start,
                const double* x, const std::vector<bool>& active) {
  double acc = start;
  const double* row = w.PackedRow(i);
  for (size_t j = 0; j < i; ++j) {
    if (row[j] > 0.0 && active[j]) Accumulate<kSubtract>(acc, row[j], x[j]);
  }
  for (size_t j = i + 1; j < w.size(); ++j) {
    double weight = w.PackedRow(j)[i];
    if (weight > 0.0 && active[j]) Accumulate<kSubtract>(acc, weight, x[j]);
  }
  return acc;
}

// Rows per block of the triangle walk. Eight independent add chains keep
// the FP adder busy, and the right-hand part of a block reads one 64-byte
// group per packed row; at n = 2000 a dense CG solve runs 1.2-1.3x
// faster than with four rows (perf_components BM_HarmonicCgWalk on a
// 4-core x86-64 Xeon host).
constexpr size_t kBlockRows = 8;

// out[i] = start[i] -/+ sum_j w(i, j) * x[j] for every pool row i, each
// row summed in ascending j, the order the CSR walk uses. `x` must hold
// +0.0 at every column the CSR walk would skip (!active[j]). Every term
// the CSR walk skips is then w * (+0.0) or 0 * x[j], an exact +-0.0, and
// adding or subtracting +-0.0 leaves any accumulator other than -0.0
// unchanged; an accumulator can only be -0.0 if it starts there, so
// those (rare) rows take ExactRow instead. Weights and x are finite.
// DESIGN.md §12 has the full argument.
//
// kBlockRows rows at a time, one accumulator each: columns left of the
// block (j < r0) stream the block's packed rows; columns right of it
// (j >= r0 + kBlockRows) read w(j, r0..r0+kBlockRows), one contiguous
// group in packed row j; the diagonal block is scalar. Each triangle
// entry is read once per walk.
template <bool kSubtract>
void TriangleRowWalk(const SimilarityMatrix& w, const double* start,
                     const double* x, const std::vector<bool>& active,
                     double* out) {
  constexpr size_t R = kBlockRows;
  const size_t n = w.size();
  size_t r0 = 0;
  for (; r0 + R <= n; r0 += R) {
    bool exact = false;
    for (size_t k = 0; k < R; ++k) exact |= IsNegativeZero(start[r0 + k]);
    if (exact) {
      for (size_t i = r0; i < r0 + R; ++i) {
        out[i] = ExactRow<kSubtract>(w, i, start[i], x, active);
      }
      continue;
    }
    const double* row[R];
    double acc[R];
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
      row[k] = w.PackedRow(r0 + k);
      acc[k] = start[r0 + k];
    }
    for (size_t j = 0; j < r0; ++j) {
      const double xj = x[j];
#pragma GCC unroll 8
      for (size_t k = 0; k < R; ++k) {
        Accumulate<kSubtract>(acc[k], row[k][j], xj);
      }
    }
    // Diagonal block: row r0 + k against columns r0 + c, ascending c,
    // skipping c == k; w(r0 + k, r0 + c) sits in the later row's store.
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
#pragma GCC unroll 8
      for (size_t c = 0; c < R; ++c) {
        if (c == k) continue;
        double weight = c < k ? row[k][r0 + c] : row[c][r0 + k];
        Accumulate<kSubtract>(acc[k], weight, x[r0 + c]);
      }
    }
    for (size_t j = r0 + R; j < n; ++j) {
      const double* group = w.PackedRow(j) + r0;
      const double xj = x[j];
#pragma GCC unroll 8
      for (size_t k = 0; k < R; ++k) {
        Accumulate<kSubtract>(acc[k], group[k], xj);
      }
    }
    for (size_t k = 0; k < R; ++k) out[r0 + k] = acc[k];
  }
  // Fewer than kBlockRows rows remain, the last of the matrix, so their
  // strided right-hand columns are few.
  for (; r0 < n; ++r0) {
    if (IsNegativeZero(start[r0])) {
      out[r0] = ExactRow<kSubtract>(w, r0, start[r0], x, active);
      continue;
    }
    double acc = start[r0];
    const double* row = w.PackedRow(r0);
    for (size_t j = 0; j < r0; ++j) Accumulate<kSubtract>(acc, row[j], x[j]);
    for (size_t j = r0 + 1; j < n; ++j) {
      Accumulate<kSubtract>(acc, w.PackedRow(j)[r0], x[j]);
    }
    out[r0] = acc;
  }
}

// Full rows w(rows[a], 0..n) of the matrix, one contiguous n-entry row per
// a (zero diagonal included), gathered off the triangle in one pass that
// reads each packed row once: the left part of a row is a copy, its right
// part one entry of every later packed row.
std::vector<double> GatherRows(const SimilarityMatrix& w,
                               const std::vector<size_t>& rows) {
  const size_t n = w.size();
  std::vector<double> block(rows.size() * n, 0.0);
  for (size_t a = 0; a < rows.size(); ++a) {
    const double* left = w.PackedRow(rows[a]);
    std::copy(left, left + rows[a], block.begin() +
                                        static_cast<ptrdiff_t>(a * n));
  }
  size_t below = 0;  // rows[0..below) are < j; `rows` is ascending
  for (size_t j = 0; j < n; ++j) {
    while (below < rows.size() && rows[below] < j) ++below;
    const double* packed = w.PackedRow(j);
    for (size_t a = 0; a < below; ++a) block[a * n + j] = packed[rows[a]];
  }
  return block;
}

// The new labeled set must extend the state's fingerprint append-only:
// same indices with bit-identical values as a prefix. Anything else means
// the caller is reusing state across unrelated solves, where a warm start
// would silently change the chained-solve semantics.
Status ValidateStateExtends(const LabeledSet& prev, const LabeledSet& now) {
  if (prev.size() > now.size()) {
    return Status::InvalidArgument(
        "labeled set shrank since the last solve");
  }
  for (size_t i = 0; i < prev.size(); ++i) {
    if (prev.indices[i] != now.indices[i] ||
        prev.values[i] != now.values[i]) {
      return Status::InvalidArgument(
          StrFormat("labeled entry %zu changed since the last solve "
                    "(incremental state requires append-only labels)",
                    i));
    }
  }
  return Status::OK();
}

}  // namespace

void HarmonicSolveState::SeedSolution(std::vector<double> f) {
  f_ = std::move(f);
  labeled_ = LabeledSet{};
  has_solution_ = true;
}

Result<HarmonicFunctionClassifier> HarmonicFunctionClassifier::Create(
    HarmonicConfig config) {
  if (config.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!(config.tolerance > 0.0)) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  return HarmonicFunctionClassifier(config);
}

Result<std::vector<double>> HarmonicFunctionClassifier::Predict(
    const SimilarityMatrix& weights, const LabeledSet& labeled) const {
  SolveStats stats;
  return Solve(weights, labeled, nullptr, &stats,
               internal::WeightWalk::kByShape);
}

Result<std::vector<double>> HarmonicFunctionClassifier::PredictWithState(
    const SimilarityMatrix& weights, const LabeledSet& labeled,
    ClassifierState* state, SolveStats* stats) const {
  return internal::PredictWithWalk(*this, weights, labeled, state, stats,
                                   internal::WeightWalk::kByShape);
}

namespace internal {

Result<std::vector<double>> PredictWithWalk(
    const HarmonicFunctionClassifier& classifier,
    const SimilarityMatrix& weights, const LabeledSet& labeled,
    ClassifierState* state, SolveStats* stats, WeightWalk walk) {
  SolveStats local_stats;
  SIGHT_ASSIGN_OR_RETURN(
      std::vector<double> f,
      classifier.Solve(weights, labeled, state, &local_stats, walk));
  if (stats != nullptr) *stats = local_stats;
  return f;
}

}  // namespace internal

std::unique_ptr<ClassifierState> HarmonicFunctionClassifier::MakeState()
    const {
  return std::make_unique<HarmonicSolveState>();
}

Result<std::vector<double>> HarmonicFunctionClassifier::Solve(
    const SimilarityMatrix& weights, const LabeledSet& labeled,
    ClassifierState* any_state, SolveStats* stats,
    internal::WeightWalk walk) const {
  HarmonicSolveState* state = nullptr;
  if (any_state != nullptr) {
    state = dynamic_cast<HarmonicSolveState*>(any_state);
    if (state == nullptr) {
      return Status::InvalidArgument(
          "state was not created by HarmonicFunctionClassifier::MakeState");
    }
  }
  if (walk == internal::WeightWalk::kCsr && !weights.compacted()) {
    return Status::InvalidArgument("the CSR walk needs a compacted matrix");
  }
  const bool csr = walk == internal::WeightWalk::kCsr ||
                   (walk == internal::WeightWalk::kByShape &&
                    weights.compacted() && weights.CsrIsSmaller());
  size_t n = weights.size();
  SIGHT_RETURN_IF_ERROR(internal::ValidateLabeledSet(n, labeled));

  double label_mean =
      std::accumulate(labeled.values.begin(), labeled.values.end(), 0.0) /
      static_cast<double>(labeled.size());

  const bool warm = state != nullptr && state->has_solution_;
  if (warm) {
    if (state->f_.size() != n) {
      return Status::InvalidArgument(
          StrFormat("solve state size %zu != pool size %zu",
                    state->f_.size(), n));
    }
    SIGHT_RETURN_IF_ERROR(ValidateStateExtends(state->labeled_, labeled));
    // Both matvec walks are exact only over finite operands (0 * inf is
    // NaN where the CSR walk skips the term).
    for (double v : state->f_) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "solve state holds a non-finite starting value");
      }
    }
  }

  std::vector<bool> is_labeled(n, false);
  // Start vector: the prior solution when warm, the label mean when cold;
  // labeled nodes clamp to their given values either way.
  std::vector<double> f =
      warm ? state->f_ : std::vector<double>(n, label_mean);
  for (size_t i = 0; i < labeled.size(); ++i) {
    is_labeled[labeled.indices[i]] = true;
    f[labeled.indices[i]] = labeled.values[i];
  }

  HarmonicSolver solver = config_.solver;
  if (solver == HarmonicSolver::kAuto) {
    size_t unlabeled = n - labeled.size();
    solver = unlabeled > kAutoCgThreshold
                 ? HarmonicSolver::kConjugateGradient
                 : HarmonicSolver::kGaussSeidel;
  }
  stats->warm = warm;
  std::vector<double> result;
  switch (solver) {
    case HarmonicSolver::kGaussSeidel:
      result = SolveGaussSeidel(weights, csr, is_labeled, std::move(f),
                                label_mean, stats);
      break;
    case HarmonicSolver::kConjugateGradient:
      result = SolveConjugateGradient(weights, csr, is_labeled, std::move(f),
                                      label_mean, stats);
      break;
    case HarmonicSolver::kAuto:
      return Status::Internal("unknown harmonic solver");
  }
  if (state != nullptr) {
    state->f_ = result;
    state->labeled_ = labeled;
    state->has_solution_ = true;
    state->total_iterations_ += stats->iterations;
    state->last_residual_ = stats->residual;
  }
  return result;
}

std::vector<double> HarmonicFunctionClassifier::SolveGaussSeidel(
    const SimilarityMatrix& w, bool csr, const std::vector<bool>& is_labeled,
    std::vector<double> f, double label_mean, SolveStats* stats) const {
  size_t n = w.size();
  std::vector<size_t> unlabeled;
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) unlabeled.push_back(i);
  }
  // Off the triangle, the unlabeled rows are gathered once per solve into
  // one contiguous block, so every sweep streams 8 bytes per entry instead
  // of walking the strided upper half of each row. A row sums every
  // column in ascending order; the terms the CSR walk skips are exact
  // +-0.0 additions to an accumulator that starts at +0.0.
  std::vector<double> block;
  if (!csr) block = GatherRows(w, unlabeled);
  auto row_dot = [&](size_t a, const std::vector<double>& v) {
    double acc = 0.0;
    if (csr) {
      for (const Neighbor& nb : w.Neighbors(unlabeled[a])) {
        acc += nb.weight * v[nb.index];
      }
    } else {
      const double* row = block.data() + a * n;
      for (size_t j = 0; j < n; ++j) acc += row[j] * v[j];
    }
    return acc;
  };

  // w * 1.0 == w exactly, so this is the plain weight sum.
  const std::vector<double> ones(n, 1.0);
  std::vector<double> row_sums(unlabeled.size());
  for (size_t a = 0; a < unlabeled.size(); ++a) {
    row_sums[a] = row_dot(a, ones);
    // Isolated nodes take the mean of the current labels. On a cold
    // start f[u] is already the mean, so this only moves values when a
    // warm start carried in a stale mean from an earlier labeled set.
    if (row_sums[a] <= 0.0) f[unlabeled[a]] = label_mean;
  }

  stats->solver = "gauss-seidel";
  stats->iterations = 0;
  stats->residual = 0.0;
  for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (size_t a = 0; a < unlabeled.size(); ++a) {
      if (row_sums[a] <= 0.0) continue;  // isolated: stays at label mean
      size_t u = unlabeled[a];
      double next = row_dot(a, f) / row_sums[a];
      max_delta = std::max(max_delta, std::fabs(next - f[u]));
      f[u] = next;
    }
    ++stats->iterations;
    stats->residual = max_delta;
    if (max_delta < config_.tolerance) break;
  }
  return f;
}

std::vector<double> HarmonicFunctionClassifier::SolveConjugateGradient(
    const SimilarityMatrix& w, bool csr, const std::vector<bool>& is_labeled,
    std::vector<double> f, double label_mean, SolveStats* stats) const {
  stats->solver = "conjugate-gradient";
  stats->iterations = 0;
  stats->residual = 0.0;
  size_t n = w.size();
  std::vector<size_t> unlabeled;
  // Position of node v in the unlabeled block, or SIZE_MAX for labeled
  // nodes, so the sparse matvec can map neighbor indices in O(1).
  constexpr size_t kLabeled = static_cast<size_t>(-1);
  std::vector<size_t> position(n, kLabeled);
  std::vector<bool> is_unlabeled(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) {
      position[i] = unlabeled.size();
      unlabeled.push_back(i);
      is_unlabeled[i] = true;
    }
  }
  size_t m = unlabeled.size();
  if (m == 0) return f;

  // System (D_uu - W_uu + eps I) x = W_ul f_l + eps * mean.
  // The tiny ridge keeps the system SPD even when an unlabeled component
  // has no labeled attachment (which would otherwise make the Laplacian
  // block singular); such components settle at the initialization mean.
  constexpr double kRidge = 1e-8;

  // Two walks compute the same sums in the same order: the CSR rows, or
  // the packed triangle (TriangleRowWalk) over every pool row in pool
  // order with the rows of labeled nodes computed and discarded.
  std::vector<double> diag(m, kRidge);
  std::vector<double> b(m, kRidge * label_mean);
  // Pool-ordered scratch for the triangle walk.
  std::vector<double> start, xs, ys;
  if (csr) {
    for (size_t a = 0; a < m; ++a) {
      for (const Neighbor& nb : w.Neighbors(unlabeled[a])) {
        diag[a] += nb.weight;
        if (position[nb.index] == kLabeled) b[a] += nb.weight * f[nb.index];
      }
    }
  } else {
    start.assign(n, kRidge);
    xs.assign(n, 1.0);  // w * 1.0 == w: the diagonal is a weight sum
    ys.resize(n);
    const std::vector<bool> every(n, true);
    TriangleRowWalk<false>(w, start.data(), xs.data(), every, ys.data());
    for (size_t a = 0; a < m; ++a) diag[a] = ys[unlabeled[a]];
    std::fill(start.begin(), start.end(), kRidge * label_mean);
    for (size_t i = 0; i < n; ++i) xs[i] = is_labeled[i] ? f[i] : 0.0;
    TriangleRowWalk<false>(w, start.data(), xs.data(), is_labeled,
                           ys.data());
    for (size_t a = 0; a < m; ++a) b[a] = ys[unlabeled[a]];
    // From here xs and start hold the matvec operand and the diagonal
    // term; both stay +0.0 at labeled nodes.
    std::fill(xs.begin(), xs.end(), 0.0);
    std::fill(start.begin(), start.end(), 0.0);
  }

  auto matvec = [&](const std::vector<double>& x, std::vector<double>* out) {
    if (csr) {
      for (size_t a = 0; a < m; ++a) {
        double acc = diag[a] * x[a];
        for (const Neighbor& nb : w.Neighbors(unlabeled[a])) {
          size_t c = position[nb.index];
          if (c != kLabeled) acc -= nb.weight * x[c];
        }
        (*out)[a] = acc;
      }
      return;
    }
    for (size_t a = 0; a < m; ++a) {
      xs[unlabeled[a]] = x[a];
      start[unlabeled[a]] = diag[a] * x[a];
    }
    TriangleRowWalk<true>(w, start.data(), xs.data(), is_unlabeled,
                          ys.data());
    for (size_t a = 0; a < m; ++a) (*out)[a] = ys[unlabeled[a]];
  };

  // Start from the incoming f (cold: the label mean everywhere; warm: the
  // prior solution) so the initial residual measures distance from it.
  std::vector<double> x(m);
  for (size_t a = 0; a < m; ++a) x[a] = f[unlabeled[a]];
  std::vector<double> ax(m);
  matvec(x, &ax);
  std::vector<double> r(m);
  for (size_t a = 0; a < m; ++a) r[a] = b[a] - ax[a];
  std::vector<double> p = r;
  std::vector<double> ap(m);

  // Converge on the residual relative to ||b|| so the stopping point does
  // not drift with pool size or label scale; the max(1, ...) floor keeps
  // near-zero right-hand sides (no labeled attachment anywhere) from
  // demanding impossible absolute accuracy.
  double b_norm = std::sqrt(std::inner_product(b.begin(), b.end(), b.begin(),
                                               0.0));
  const double stop_threshold = config_.tolerance * std::max(1.0, b_norm);

  double rs_old = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
  for (size_t iter = 0; iter < config_.max_iterations && iter < m + 8;
       ++iter) {
    if (std::sqrt(rs_old) < stop_threshold) break;
    matvec(p, &ap);
    double p_ap = std::inner_product(p.begin(), p.end(), ap.begin(), 0.0);
    if (p_ap <= 0.0) break;  // numerical safety
    double alpha = rs_old / p_ap;
    for (size_t a = 0; a < m; ++a) {
      x[a] += alpha * p[a];
      r[a] -= alpha * ap[a];
    }
    double rs_new = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
    double beta = rs_new / rs_old;
    for (size_t a = 0; a < m; ++a) p[a] = r[a] + beta * p[a];
    rs_old = rs_new;
    ++stats->iterations;
  }
  stats->residual = std::sqrt(rs_old);

  for (size_t a = 0; a < m; ++a) f[unlabeled[a]] = x[a];
  return f;
}

}  // namespace sight
