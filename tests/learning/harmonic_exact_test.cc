// Correctness of the harmonic solve beyond self-consistency:
//
// * Oracle: on random small pools, Gauss-Seidel and conjugate gradient
//   (walking either view of the weights) agree with a dense Cholesky
//   solve of Zhu's system (D_uu - W_uu + eps I) f_u = W_ul f_l + eps mean.
// * Kernel equivalence: the packed-triangle walk and the CSR walk give
//   bitwise-identical predictions, solver names and iteration counts,
//   cold and warm, on dense, sparse, top-k and degenerate pools.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "learning/harmonic.h"
#include "learning/similarity_matrix.h"

namespace sight {
namespace {

using internal::WeightWalk;

// The ridge the conjugate-gradient solve adds (harmonic.cc).
constexpr double kRidge = 1e-8;

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  double Unit() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }
  size_t Below(size_t bound) {
    return static_cast<size_t>(Unit() * static_cast<double>(bound));
  }

 private:
  uint64_t state_;
};

struct Pool {
  SimilarityMatrix weights{0};
  LabeledSet labeled;
};

// A random pool of n nodes: `density` of the pairs get a positive weight
// (the rest stay zero), optionally one node is cut off from everything,
// optionally top-k sparsified; `labeled_count` distinct nodes carry
// labels in [1, 3].
Pool MakePool(size_t n, double density, bool isolate, size_t top_k,
              size_t labeled_count, uint64_t seed) {
  Lcg rng(seed);
  Pool pool;
  pool.weights = SimilarityMatrix(n);
  size_t isolated = isolate ? rng.Below(n) : n;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (i == isolated || j == isolated) continue;
      if (rng.Unit() < density) pool.weights.Set(i, j, 0.05 + rng.Unit());
    }
  }
  if (top_k > 0) pool.weights.SparsifyTopK(top_k);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  for (size_t k = 0; k < labeled_count && k < n; ++k) {
    pool.labeled.Add(order[k], 1.0 + 2.0 * rng.Unit());
  }
  return pool;
}

// f_u from a dense Cholesky solve of the ridged harmonic system.
std::vector<double> ExactSolve(const SimilarityMatrix& w,
                               const LabeledSet& labeled) {
  const size_t n = w.size();
  std::vector<bool> is_labeled(n, false);
  std::vector<double> f(n, 0.0);
  double mean = 0.0;
  for (size_t k = 0; k < labeled.size(); ++k) {
    is_labeled[labeled.indices[k]] = true;
    f[labeled.indices[k]] = labeled.values[k];
    mean += labeled.values[k];
  }
  mean /= static_cast<double>(labeled.size());
  std::vector<size_t> u;
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) u.push_back(i);
  }
  const size_t m = u.size();
  std::vector<double> a(m * m, 0.0);
  std::vector<double> b(m, kRidge * mean);
  for (size_t r = 0; r < m; ++r) {
    a[r * m + r] = kRidge;
    for (size_t j = 0; j < n; ++j) {
      double wij = w.Get(u[r], j);
      a[r * m + r] += wij;
      if (is_labeled[j]) b[r] += wij * f[j];
    }
    for (size_t c = 0; c < m; ++c) {
      if (c != r) a[r * m + c] -= w.Get(u[r], u[c]);
    }
  }
  // A = L L^T in place (lower triangle), then two triangular solves.
  for (size_t c = 0; c < m; ++c) {
    double d = a[c * m + c];
    for (size_t k = 0; k < c; ++k) d -= a[c * m + k] * a[c * m + k];
    EXPECT_GT(d, 0.0);
    a[c * m + c] = std::sqrt(d);
    for (size_t r = c + 1; r < m; ++r) {
      double s = a[r * m + c];
      for (size_t k = 0; k < c; ++k) s -= a[r * m + k] * a[c * m + k];
      a[r * m + c] = s / a[c * m + c];
    }
  }
  std::vector<double> y(m);
  for (size_t r = 0; r < m; ++r) {
    double s = b[r];
    for (size_t k = 0; k < r; ++k) s -= a[r * m + k] * y[k];
    y[r] = s / a[r * m + r];
  }
  for (size_t r = m; r-- > 0;) {
    double s = y[r];
    for (size_t k = r + 1; k < m; ++k) s -= a[k * m + r] * f[u[k]];
    f[u[r]] = s / a[r * m + r];
  }
  return f;
}

HarmonicFunctionClassifier Make(HarmonicSolver solver, double tolerance,
                                size_t max_iterations) {
  HarmonicConfig config;
  config.solver = solver;
  config.tolerance = tolerance;
  config.max_iterations = max_iterations;
  return HarmonicFunctionClassifier::Create(config).value();
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Pool shapes swept by both suites: sizes below, at and off multiples of
// the triangle walk's row block, every density regime, isolated nodes,
// top-k, and labeled counts from one node to all of them.
std::vector<Pool> PoolSweep() {
  std::vector<Pool> pools;
  const double densities[] = {1.0, 0.5, 0.1};
  uint64_t seed = 1;
  for (size_t n = 1; n <= 40; ++n) {
    for (double density : densities) {
      size_t labeled = 1 + (n * 3 + static_cast<size_t>(density * 7)) % n;
      pools.push_back(MakePool(n, density, n % 3 == 0, 0, labeled, seed++));
    }
    pools.push_back(MakePool(n, 0.8, false, 3, 1 + n / 4, seed++));
  }
  pools.push_back(MakePool(17, 1.0, false, 0, 17, seed++));  // all labeled
  return pools;
}

TEST(HarmonicOracleTest, SolversMatchDenseCholesky) {
  // Stopping rules: Gauss-Seidel on the max change per sweep, CG on the
  // residual relative to max(1, ||b||). At 1e-12 both leave an error far
  // below the 1e-6 checked here on pools this small.
  constexpr double kTolerance = 1e-12;
  constexpr double kAgree = 1e-6;
  for (const Pool& pool : PoolSweep()) {
    SimilarityMatrix compacted = pool.weights;
    compacted.Compact();
    std::vector<double> exact = ExactSolve(pool.weights, pool.labeled);
    for (HarmonicSolver solver : {HarmonicSolver::kGaussSeidel,
                                  HarmonicSolver::kConjugateGradient}) {
      auto classifier = Make(solver, kTolerance, 200000);
      auto triangle = internal::PredictWithWalk(
          classifier, pool.weights, pool.labeled, nullptr, nullptr,
          WeightWalk::kTriangle);
      auto csr = internal::PredictWithWalk(classifier, compacted,
                                           pool.labeled, nullptr, nullptr,
                                           WeightWalk::kCsr);
      ASSERT_TRUE(triangle.ok()) << triangle.status().ToString();
      ASSERT_TRUE(csr.ok()) << csr.status().ToString();
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_NEAR(triangle.value()[i], exact[i], kAgree)
            << "n=" << exact.size() << " node " << i;
        EXPECT_NEAR(csr.value()[i], exact[i], kAgree)
            << "n=" << exact.size() << " node " << i;
      }
    }
  }
}

// Solves `labeled` on both walks (optionally warm from `seed`) and
// expects every observable bit to match.
void ExpectWalksIdentical(const HarmonicFunctionClassifier& classifier,
                          const SimilarityMatrix& weights,
                          const LabeledSet& labeled,
                          const std::vector<double>* seed) {
  SimilarityMatrix compacted = weights;
  compacted.Compact();
  auto triangle_state = classifier.MakeState();
  auto csr_state = classifier.MakeState();
  if (seed != nullptr) {
    triangle_state->SeedSolution(*seed);
    csr_state->SeedSolution(*seed);
  }
  // A cold-or-seeded solve on a prefix of the labels, then a warm one on
  // all of them: the round-to-round chain the learner runs.
  LabeledSet prefix;
  for (size_t k = 0; k < (labeled.size() + 1) / 2; ++k) {
    prefix.Add(labeled.indices[k], labeled.values[k]);
  }
  const LabeledSet* steps[] = {&prefix, &labeled};
  for (const LabeledSet* step : steps) {
    SolveStats triangle_stats;
    SolveStats csr_stats;
    auto triangle = internal::PredictWithWalk(
        classifier, weights, *step, triangle_state.get(), &triangle_stats,
        WeightWalk::kTriangle);
    auto csr = internal::PredictWithWalk(classifier, compacted, *step,
                                         csr_state.get(), &csr_stats,
                                         WeightWalk::kCsr);
    ASSERT_TRUE(triangle.ok()) << triangle.status().ToString();
    ASSERT_TRUE(csr.ok()) << csr.status().ToString();
    EXPECT_TRUE(BitwiseEqual(triangle.value(), csr.value()))
        << "n=" << weights.size() << " labeled=" << step->size();
    EXPECT_EQ(triangle_stats.solver, csr_stats.solver);
    EXPECT_EQ(triangle_stats.iterations, csr_stats.iterations);
    EXPECT_EQ(std::memcmp(&triangle_stats.residual, &csr_stats.residual,
                          sizeof(double)),
              0);
  }
}

TEST(HarmonicKernelEquivalenceTest, TriangleMatchesCsrBitwise) {
  std::vector<HarmonicFunctionClassifier> classifiers = {
      Make(HarmonicSolver::kGaussSeidel, 1e-7, 1000),
      Make(HarmonicSolver::kConjugateGradient, 1e-7, 1000),
      Make(HarmonicSolver::kAuto, 1e-7, 1000),
  };
  uint64_t seed_stream = 7;
  for (const Pool& pool : PoolSweep()) {
    // Warm seeds with signed values and signed zeros, so operands of
    // both signs (and -0.0 accumulators) reach the kernel.
    Lcg rng(seed_stream++);
    std::vector<double> seed(pool.weights.size());
    for (double& v : seed) {
      double r = rng.Unit();
      v = r < 0.1 ? -0.0 : r < 0.2 ? 0.0 : 4.0 * r - 2.0;
    }
    for (const auto& classifier : classifiers) {
      ExpectWalksIdentical(classifier, pool.weights, pool.labeled, nullptr);
      ExpectWalksIdentical(classifier, pool.weights, pool.labeled, &seed);
    }
  }
}

TEST(HarmonicKernelEquivalenceTest, LargerPoolsAcrossTheAutoSwitch) {
  // 130 and 300 unlabeled nodes put kAuto on conjugate gradient; the
  // 1-label pools leave m = n - 1, the all-labeled one m = 0.
  auto classifier = Make(HarmonicSolver::kAuto, 1e-7, 1000);
  uint64_t seed = 1000;
  for (size_t n : {131, 203, 301}) {
    for (double density : {1.0, 0.3}) {
      for (size_t labeled : {size_t{1}, n / 20, n}) {
        Pool pool = MakePool(n, density, n % 2 == 1, 0, labeled, seed++);
        ExpectWalksIdentical(classifier, pool.weights, pool.labeled, nullptr);
      }
    }
  }
}

TEST(HarmonicKernelEquivalenceTest, CsrWalkNeedsACompactedMatrix) {
  Pool pool = MakePool(6, 1.0, false, 0, 2, 3);
  auto classifier = Make(HarmonicSolver::kAuto, 1e-7, 1000);
  auto result = internal::PredictWithWalk(classifier, pool.weights,
                                          pool.labeled, nullptr, nullptr,
                                          WeightWalk::kCsr);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(HarmonicKernelEquivalenceTest, ByShapeWalksTheSmallerView) {
  // A compacted dense pool is still solved off the triangle, a compacted
  // sparse one off its CSR; both agree bitwise with the pinned walk.
  auto classifier = Make(HarmonicSolver::kConjugateGradient, 1e-7, 1000);
  for (double density : {1.0, 0.05}) {
    Pool pool = MakePool(200, density, false, 0, 10, 11);
    pool.weights.Compact();
    EXPECT_EQ(pool.weights.CsrIsSmaller(), density < 0.5);
    auto by_shape = classifier.Predict(pool.weights, pool.labeled).value();
    auto pinned =
        internal::PredictWithWalk(classifier, pool.weights, pool.labeled,
                                  nullptr, nullptr,
                                  density < 0.5 ? WeightWalk::kCsr
                                                : WeightWalk::kTriangle)
            .value();
    EXPECT_TRUE(BitwiseEqual(by_shape, pinned));
  }
}

}  // namespace
}  // namespace sight
