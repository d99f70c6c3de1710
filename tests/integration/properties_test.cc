// Parameterized property sweeps over seeds and the paper's alpha/beta
// parameters: invariants that must hold for any configuration.

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/pool_builder.h"
#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"

namespace sight {
namespace {

using sim::FacebookGenerator;
using sim::Gender;
using sim::GeneratorConfig;
using sim::Locale;
using sim::OwnerAttitude;
using sim::OwnerDataset;
using sim::OwnerModel;
using sim::SampleOwnerAttitude;

OwnerDataset MakeDataset(uint64_t seed) {
  GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = 150;
  config.num_communities = 4;
  auto gen = FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({Gender::kMale, Locale::kTR}, &rng).value();
}

// ---------------------------------------------------------------------------
// Pool partition invariants over (alpha, beta, seed).

class PoolPartitionProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

TEST_P(PoolPartitionProperty, PoolsAreADisjointCover) {
  auto [alpha, beta, seed] = GetParam();
  OwnerDataset ds = MakeDataset(seed);

  PoolBuilderConfig config;
  config.alpha = alpha;
  config.beta = beta;
  auto builder = PoolBuilder::Create(config).value();
  auto pools = builder.Build(ds.graph, ds.profiles, ds.owner).value();

  EXPECT_EQ(pools.TotalStrangers(), ds.strangers.size());
  std::set<UserId> seen;
  for (const StrangerPool& pool : pools.pools) {
    EXPECT_FALSE(pool.members.empty());
    EXPECT_LT(pool.nsg_index, alpha);
    for (UserId s : pool.members) {
      EXPECT_TRUE(seen.insert(s).second);
    }
  }
  EXPECT_EQ(seen.size(), ds.strangers.size());
}

TEST_P(PoolPartitionProperty, NetworkSimilaritiesWithinGroupBounds) {
  auto [alpha, beta, seed] = GetParam();
  OwnerDataset ds = MakeDataset(seed);

  PoolBuilderConfig config;
  config.alpha = alpha;
  config.beta = beta;
  auto builder = PoolBuilder::Create(config).value();
  auto pools = builder.Build(ds.graph, ds.profiles, ds.owner).value();

  // Map stranger -> ns.
  std::map<UserId, double> ns;
  for (size_t i = 0; i < pools.strangers.size(); ++i) {
    ns[pools.strangers[i]] = pools.network_similarities[i];
  }
  double width = 1.0 / static_cast<double>(alpha);
  for (const StrangerPool& pool : pools.pools) {
    double lo = width * static_cast<double>(pool.nsg_index);
    double hi = pool.nsg_index + 1 == alpha
                    ? 1.0 + 1e-12
                    : width * static_cast<double>(pool.nsg_index + 1);
    for (UserId s : pool.members) {
      EXPECT_GE(ns[s], lo - 1e-12);
      EXPECT_LT(ns[s], hi + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBetaSeeds, PoolPartitionProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 5, 10, 20),
                       ::testing::Values(0.2, 0.4, 0.8),
                       ::testing::Values<uint64_t>(1, 2)));

// ---------------------------------------------------------------------------
// End-to-end invariants over seeds.

class EngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineProperty, AssessmentCoversAllStrangersWithValidLabels) {
  uint64_t seed = GetParam();
  OwnerDataset ds = MakeDataset(seed);
  Rng attitude_rng(seed ^ 0xa77);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(seed ^ 0xbee);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();

  EXPECT_EQ(report.assessment.strangers.size(), ds.strangers.size());
  size_t owner_labeled = 0;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
    EXPECT_GE(sa.network_similarity, 0.0);
    EXPECT_LE(sa.network_similarity, 1.0);
    EXPECT_GE(sa.benefit, 0.0);
    if (sa.owner_labeled) ++owner_labeled;
  }
  EXPECT_EQ(owner_labeled, report.assessment.total_queries);
  EXPECT_EQ(owner_labeled, oracle.num_queries());
}

TEST_P(EngineProperty, OwnerLabeledStrangersKeepTheirExactLabel) {
  uint64_t seed = GetParam();
  OwnerDataset ds = MakeDataset(seed);
  Rng attitude_rng(seed ^ 0x123);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(seed ^ 0x456);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    if (!sa.owner_labeled) continue;
    RiskLabel expected =
        oracle.TrueLabel(sa.stranger, sa.network_similarity, sa.benefit);
    EXPECT_EQ(sa.predicted_label, expected);
  }
}

TEST_P(EngineProperty, RoundRecordsAreWellFormed) {
  uint64_t seed = GetParam();
  OwnerDataset ds = MakeDataset(seed);
  Rng attitude_rng(seed ^ 0x789);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(seed ^ 0xabc);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();
  std::map<size_t, size_t> last_round_of_pool;
  for (const RoundRecord& r : report.assessment.rounds) {
    EXPECT_GE(r.round, 1u);
    EXPECT_LE(r.newly_labeled, RiskEngineConfig{}.learner.labels_per_round);
    if (r.rmse_valid) {
      EXPECT_GE(r.rmse, 0.0);
      EXPECT_LE(r.rmse, 2.0);  // label range is [1, 3]
    } else {
      EXPECT_EQ(r.round, 1u);  // only the first round lacks RMSE
    }
    // Rounds within a pool are consecutive.
    size_t& last = last_round_of_pool[r.pool_index];
    EXPECT_EQ(r.round, last + 1);
    last = r.round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values<uint64_t>(11, 22, 33, 44, 55));

}  // namespace
}  // namespace sight
