// Warm-start vs cold-replay equivalence over full active-learning runs:
// a PoolLearner carries its solve state across rounds, and every round's
// predictions must match, bit for bit, a cold replay of the same label
// chain through a fresh HarmonicSolveState — including the solver used
// and its iteration count.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/active_learner.h"
#include "learning/harmonic.h"
#include "learning/sampling.h"

namespace sight {
namespace {

constexpr UserId kFirstMember = 100;

// Deterministic oracle: label depends only on the stranger id. Records
// every query in order so the test can rebuild the label chain.
class IdOracle : public LabelOracle {
 public:
  static RiskLabel LabelOf(UserId stranger) {
    return static_cast<RiskLabel>(1 + stranger % 3);
  }

  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    (void)similarity;
    (void)benefit;
    queries.push_back(stranger);
    return LabelOf(stranger);
  }

  std::vector<UserId> queries;
};

SimilarityMatrix RandomWeights(size_t n, uint64_t seed) {
  SimilarityMatrix m(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < 0.2) m.Set(i, j, 0.1 + next_unit());
    }
  }
  return m;
}

StrangerPool MakePool(size_t n) {
  StrangerPool pool;
  for (size_t i = 0; i < n; ++i) {
    pool.members.push_back(static_cast<UserId>(i) + kFirstMember);
  }
  return pool;
}

HarmonicFunctionClassifier MakeClassifier(HarmonicSolver solver) {
  HarmonicConfig harmonic_config;
  harmonic_config.solver = solver;
  return HarmonicFunctionClassifier::Create(harmonic_config).value();
}

struct RunResult {
  std::vector<RoundRecord> rounds;
  // Predictions after each round, parallel to `rounds`.
  std::vector<std::vector<double>> predictions;
  // Oracle queries in the order they were asked.
  std::vector<UserId> queries;
};

// Runs one pool to completion on the learner's carried solve state.
RunResult RunWarm(HarmonicSolver solver, size_t n, size_t top_k,
                  const PoolLearner::KnownLabels* known_labels,
                  const PoolLearner::KnownLabels* prior_scores) {
  HarmonicFunctionClassifier classifier = MakeClassifier(solver);
  RandomSampler sampler;
  ActiveLearnerConfig config;
  config.sparsify_top_k = top_k;

  StrangerPool pool = MakePool(n);
  PoolLearner learner =
      PoolLearner::Create(pool, RandomWeights(n, 77),
                          std::vector<double>(n, 0.5),
                          std::vector<double>(n, 0.5), config, &classifier,
                          &sampler, known_labels, prior_scores)
          .value();
  IdOracle oracle;
  Rng rng(1234);
  RunResult result;
  while (!learner.finished()) {
    result.rounds.push_back(learner.RunRound(&oracle, &rng).value());
    result.predictions.push_back(learner.predictions());
  }
  result.queries = oracle.queries;
  return result;
}

// Cold reference: rebuilds the label chain the learner solved (seeded
// labels in member order, then each round's queries) and replays it
// through PredictWithState on one fresh state, seeded with the prior
// scores when given. Step k of the replay is exactly what a from-scratch
// replay truncated after round k computes, so every round of the warm
// run is checked against its own cold solve.
void ExpectMatchesColdReplay(const RunResult& warm, HarmonicSolver solver,
                             size_t n, size_t top_k,
                             const PoolLearner::KnownLabels* known_labels,
                             const PoolLearner::KnownLabels* prior_scores) {
  HarmonicFunctionClassifier classifier = MakeClassifier(solver);
  SimilarityMatrix weights = RandomWeights(n, 77);
  if (top_k > 0) weights.SparsifyTopK(top_k);
  weights.Compact();
  StrangerPool pool = MakePool(n);

  std::unique_ptr<ClassifierState> state = classifier.MakeState();
  ASSERT_NE(state, nullptr);
  if (prior_scores != nullptr) {
    // Every member carries a prior score in these cases, so the seed is
    // the prior itself (no mean fill for missing members).
    std::vector<double> seed;
    for (UserId member : pool.members) seed.push_back(prior_scores->at(member));
    state->SeedSolution(std::move(seed));
  }

  LabeledSet chain;
  if (known_labels != nullptr) {
    for (size_t i = 0; i < pool.members.size(); ++i) {
      auto it = known_labels->find(pool.members[i]);
      if (it != known_labels->end()) chain.Add(i, it->second);
    }
  }
  SolveStats stats;
  if (chain.size() > 0) {
    // The learner solves the seeded labels before its first query.
    ASSERT_TRUE(classifier.PredictWithState(weights, chain, state.get(),
                                            &stats)
                    .ok());
  }

  size_t next_query = 0;
  for (size_t r = 0; r < warm.rounds.size(); ++r) {
    const RoundRecord& record = warm.rounds[r];
    ASSERT_LE(next_query + record.newly_labeled, warm.queries.size());
    for (size_t q = 0; q < record.newly_labeled; ++q) {
      UserId stranger = warm.queries[next_query++];
      chain.Add(stranger - kFirstMember,
                RiskLabelValue(IdOracle::LabelOf(stranger)));
    }
    std::vector<double> cold =
        classifier.PredictWithState(weights, chain, state.get(), &stats)
            .value();
    EXPECT_EQ(record.solver, stats.solver) << "round " << r;
    EXPECT_EQ(record.solve_iterations, stats.iterations) << "round " << r;
    EXPECT_EQ(warm.predictions[r], cold) << "round " << r;
  }
  EXPECT_EQ(next_query, warm.queries.size());
}

struct EquivalenceCase {
  HarmonicSolver solver;
  size_t n;
  size_t top_k;
  const char* name;
};

class WarmColdEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(WarmColdEquivalenceTest, FullRunHistoriesMatch) {
  const EquivalenceCase& c = GetParam();
  RunResult warm = RunWarm(c.solver, c.n, c.top_k, nullptr, nullptr);
  ASSERT_GT(warm.rounds.size(), 1u);
  ExpectMatchesColdReplay(warm, c.solver, c.n, c.top_k, nullptr, nullptr);
}

TEST_P(WarmColdEquivalenceTest, SeededRunHistoriesMatch) {
  const EquivalenceCase& c = GetParam();
  // Carry-over owner labels plus previous-tick scores, like a RiskService
  // second tick.
  PoolLearner::KnownLabels known_labels;
  known_labels[100] = 1.0;
  known_labels[101] = 3.0;
  known_labels[102] = 2.0;
  PoolLearner::KnownLabels prior_scores;
  for (size_t i = 0; i < c.n; ++i) {
    prior_scores[static_cast<UserId>(i) + kFirstMember] =
        1.0 + static_cast<double>((i * 13) % 200) / 100.0;
  }
  RunResult warm =
      RunWarm(c.solver, c.n, c.top_k, &known_labels, &prior_scores);
  ASSERT_GT(warm.rounds.size(), 1u);
  ExpectMatchesColdReplay(warm, c.solver, c.n, c.top_k, &known_labels,
                          &prior_scores);
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndGraphs, WarmColdEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{HarmonicSolver::kGaussSeidel, 60, 0, "GsDense"},
        EquivalenceCase{HarmonicSolver::kGaussSeidel, 60, 8, "GsTopK8"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, 60, 0,
                        "CgDense"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, 60, 8,
                        "CgTopK8"},
        EquivalenceCase{HarmonicSolver::kAuto, 160, 8, "AutoTopK8"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(WarmColdRecordTest, RoundRecordsNameTheSolverUsed) {
  // kAuto on a large pool starts on CG and may hand over to GS as the
  // unlabeled set shrinks below the threshold; every record must name a
  // concrete solver either way.
  RunResult run = RunWarm(HarmonicSolver::kAuto, 160, 8, nullptr, nullptr);
  ASSERT_FALSE(run.rounds.empty());
  EXPECT_EQ(run.rounds.front().solver, "conjugate-gradient");
  for (const RoundRecord& record : run.rounds) {
    EXPECT_TRUE(record.solver == "gauss-seidel" ||
                record.solver == "conjugate-gradient")
        << record.solver;
  }
}

}  // namespace
}  // namespace sight
