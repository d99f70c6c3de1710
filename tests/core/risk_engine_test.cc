#include "core/risk_engine.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"

namespace sight {
namespace {

// Deterministic oracle: labels depend only on the displayed similarity.
class SimilarityOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId, double similarity, double) override {
    ++queries_;
    if (similarity < 0.15) return RiskLabel::kVeryRisky;
    if (similarity < 0.4) return RiskLabel::kRisky;
    return RiskLabel::kNotRisky;
  }
  size_t queries() const { return queries_; }

 private:
  size_t queries_ = 0;
};

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

// Owner 0, 8 friends in two squares, 40 strangers with varying mutuals.
struct World {
  SocialGraph graph;
  ProfileTable profiles{TestSchema()};
  VisibilityTable visibility;
  UserId owner;

  World() {
    graph.AddUsers(9);
    owner = 0;
    auto edge = [&](UserId a, UserId b) {
      EXPECT_TRUE(graph.AddEdge(a, b).ok());
    };
    for (UserId f = 1; f <= 8; ++f) edge(0, f);
    // Friend communities 1-4 and 5-8 are cliques.
    for (UserId a = 1; a <= 4; ++a) {
      for (UserId b = a + 1; b <= 4; ++b) edge(a, b);
    }
    for (UserId a = 5; a <= 8; ++a) {
      for (UserId b = a + 1; b <= 8; ++b) edge(a, b);
    }
    // 40 strangers: stranger i attaches to (i % 4) + 1 friends of one
    // community.
    for (int i = 0; i < 40; ++i) {
      UserId s = graph.AddUser();
      UserId base = i % 2 == 0 ? 1 : 5;
      int mutuals = (i % 4) + 1;
      for (int m = 0; m < mutuals; ++m) {
        edge(s, base + static_cast<UserId>(m));
      }
      Profile p;
      p.values = i % 2 == 0 ? std::vector<std::string>{"male", "tr_TR"}
                            : std::vector<std::string>{"female", "en_US"};
      EXPECT_TRUE(profiles.Set(s, p).ok());
      visibility.SetMask(s, static_cast<uint8_t>(i % 128));
    }
    for (UserId u = 0; u <= 8; ++u) {
      Profile p;
      p.values = {"male", "tr_TR"};
      EXPECT_TRUE(profiles.Set(u, p).ok());
    }
  }
};

TEST(RiskEngineTest, CreateValidatesConfig) {
  RiskEngineConfig config;
  config.learner.labels_per_round = 0;
  EXPECT_FALSE(RiskEngine::Create(config).ok());
  config = {};
  config.theta.values.fill(0.0);
  EXPECT_FALSE(RiskEngine::Create(config).ok());
  EXPECT_TRUE(RiskEngine::Create(RiskEngineConfig{}).ok());
}

TEST(RiskEngineTest, AssessLabelsEveryTwoHopStranger) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(42);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.num_strangers, 40u);
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  std::set<UserId> covered;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    covered.insert(sa.stranger);
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
  }
  EXPECT_EQ(covered.size(), 40u);
  EXPECT_EQ(report.assessment.total_queries, oracle.queries());
  EXPECT_GT(report.num_pools, 0u);
  EXPECT_EQ(report.pool_sizes.size(), report.num_pools);
}

TEST(RiskEngineTest, QueriesFewerThanAllStrangersOnSeparablePools) {
  World world;
  RiskEngineConfig config;
  config.learner.confidence = 80.0;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(7);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  // The oracle depends only on NS, which is constant within a pool (same
  // mutual structure), so pools converge fast.
  EXPECT_LT(report.assessment.total_queries, 40u);
}

TEST(RiskEngineTest, DeterministicGivenSeed) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  auto run = [&](uint64_t seed) {
    SimilarityOracle oracle;
    Rng rng(seed);
    return engine
        .Assess(world.graph, world.profiles, world.visibility, world.owner,
                TwoHopStrangers(world.graph, world.owner).value(), &oracle,
                &rng)
        .value();
  };
  auto r1 = run(3);
  auto r2 = run(3);
  ASSERT_EQ(r1.assessment.strangers.size(), r2.assessment.strangers.size());
  for (size_t i = 0; i < r1.assessment.strangers.size(); ++i) {
    EXPECT_EQ(r1.assessment.strangers[i].predicted_label,
              r2.assessment.strangers[i].predicted_label);
  }
  EXPECT_EQ(r1.assessment.total_queries, r2.assessment.total_queries);
}

TEST(RiskEngineTest, BaselineClassifiersRunEndToEnd) {
  World world;
  for (ClassifierKind kind :
       {ClassifierKind::kKnn, ClassifierKind::kMajority}) {
    RiskEngineConfig config;
    config.classifier = kind;
    auto engine = RiskEngine::Create(config).value();
    SimilarityOracle oracle;
    Rng rng(11);
    auto report =
        engine
            .Assess(world.graph, world.profiles, world.visibility, world.owner,
                    TwoHopStrangers(world.graph, world.owner).value(), &oracle,
                    &rng)
            .value();
    EXPECT_EQ(report.assessment.strangers.size(), 40u);
  }
}

TEST(RiskEngineTest, CmnClassifierRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.classifier = ClassifierKind::kHarmonicCmn;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(29);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
  }
}

TEST(RiskEngineTest, SparsifiedClassifierGraphRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.learner.sparsify_top_k = 3;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(31);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
}

TEST(RiskEngineTest, UncertaintySamplerRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.sampler = SamplerKind::kUncertainty;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(13);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
}

TEST(RiskEngineTest, NetworkOnlyPoolsRunEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.pools.strategy = PoolStrategy::kNetworkOnly;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(37);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner,
                            TwoHopStrangers(world.graph, world.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  // NSP pools: one per occupied NSG, hence no more than alpha pools.
  EXPECT_LE(report.num_pools, config.pools.alpha);
}

TEST(RiskEngineTest, AssessSubsetOfStrangers) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(17);
  auto all = TwoHopStrangers(world.graph, world.owner).value();
  std::vector<UserId> subset(all.begin(), all.begin() + 10);
  auto report = engine
                    .Assess(world.graph, world.profiles, world.visibility,
                            world.owner, subset, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.num_strangers, 10u);
  EXPECT_EQ(report.assessment.strangers.size(), 10u);
}

TEST(RiskEngineTest, UnknownOwnerFails) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(19);
  EXPECT_FALSE(TwoHopStrangers(world.graph, 9999).ok());
  auto strangers = TwoHopStrangers(world.graph, world.owner).value();
  EXPECT_EQ(engine
                .Assess(world.graph, world.profiles, world.visibility, 9999,
                        strangers, &oracle, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RiskEngineTest, NullOracleFails) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(23);
  EXPECT_FALSE(engine
                   .Assess(world.graph, world.profiles, world.visibility,
                           world.owner,
                           TwoHopStrangers(world.graph, world.owner).value(),
                           nullptr, &rng)
                   .ok());
}

TEST(RiskEngineTest, AssessWithoutCarryReportsZeroTelemetry) {
  // The cold path runs on a local carry, but the telemetry describes the
  // caller's carry: with none, every field stays zero and no pool is
  // carried, however often the engine runs.
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  auto strangers = TwoHopStrangers(world.graph, world.owner).value();
  auto run = [&](AssessCarry* carry) {
    SimilarityOracle oracle;
    Rng rng(5);
    return engine
        .Assess(world.graph, world.profiles, world.visibility, world.owner,
                strangers, &oracle, &rng, nullptr, nullptr, carry)
        .value();
  };
  for (int repeat = 0; repeat < 2; ++repeat) {
    RiskReport cold = run(nullptr);
    EXPECT_FALSE(cold.carry.partition_reused);
    EXPECT_EQ(cold.carry.partition_new_strangers, 0u);
    EXPECT_FALSE(cold.carry.encode_reused);
    EXPECT_EQ(cold.carry.encode_rows_appended, 0u);
    EXPECT_EQ(cold.assessment.pools_carried, 0u);
  }
  // A fresh caller carry reports the work it absorbed.
  AssessCarry carry;
  RiskReport first = run(&carry);
  EXPECT_FALSE(first.carry.partition_reused);
  EXPECT_EQ(first.carry.partition_new_strangers, strangers.size());
  EXPECT_EQ(first.carry.encode_rows_appended, strangers.size());
  EXPECT_EQ(first.assessment.pools_carried, 0u);
}

// Exact (bitwise for the doubles) equality of two reports, carry
// telemetry aside.
void ExpectReportsIdentical(const RiskReport& a, const RiskReport& b) {
  EXPECT_EQ(a.num_strangers, b.num_strangers);
  EXPECT_EQ(a.num_pools, b.num_pools);
  EXPECT_EQ(a.pool_sizes, b.pool_sizes);
  const AssessmentResult& x = a.assessment;
  const AssessmentResult& y = b.assessment;
  EXPECT_EQ(x.total_queries, y.total_queries);
  EXPECT_EQ(x.pools_total, y.pools_total);
  EXPECT_EQ(x.pools_converged, y.pools_converged);
  EXPECT_EQ(x.pools_exhausted, y.pools_exhausted);
  EXPECT_EQ(x.pools_round_limit, y.pools_round_limit);
  EXPECT_EQ(x.pools_carried, y.pools_carried);
  EXPECT_EQ(x.mean_rounds, y.mean_rounds);
  EXPECT_EQ(x.validation_matches, y.validation_matches);
  EXPECT_EQ(x.validation_total, y.validation_total);
  ASSERT_EQ(x.rounds.size(), y.rounds.size());
  for (size_t i = 0; i < x.rounds.size(); ++i) {
    EXPECT_EQ(x.rounds[i].pool_index, y.rounds[i].pool_index);
    EXPECT_EQ(x.rounds[i].newly_labeled, y.rounds[i].newly_labeled);
    EXPECT_EQ(x.rounds[i].rmse, y.rounds[i].rmse);
    EXPECT_EQ(x.rounds[i].solve_iterations, y.rounds[i].solve_iterations);
  }
  ASSERT_EQ(x.strangers.size(), y.strangers.size());
  for (size_t i = 0; i < x.strangers.size(); ++i) {
    const StrangerAssessment& sa = x.strangers[i];
    const StrangerAssessment& sb = y.strangers[i];
    EXPECT_EQ(sa.stranger, sb.stranger);
    EXPECT_EQ(sa.pool_index, sb.pool_index);
    EXPECT_EQ(sa.network_similarity, sb.network_similarity);
    EXPECT_EQ(sa.benefit, sb.benefit);
    EXPECT_EQ(sa.predicted_score, sb.predicted_score);
    EXPECT_EQ(sa.predicted_label, sb.predicted_label);
    EXPECT_EQ(sa.owner_labeled, sb.owner_labeled);
  }
}

// One owner's warm state as RiskService keeps it: the carry, every
// answer given so far, and the previous tick's scores.
struct WarmArm {
  AssessCarry carry;
  PoolLearner::KnownLabels known;
  PoolLearner::KnownLabels last_scores;
  Rng rng{73};

  RiskReport Tick(const RiskEngine& engine, const sim::OwnerDataset& ds,
                  const std::vector<UserId>& strangers,
                  sim::OwnerModel* model) {
    class Recording : public LabelOracle {
     public:
      Recording(sim::OwnerModel* model, PoolLearner::KnownLabels* known)
          : model_(model), known_(known) {}
      RiskLabel QueryLabel(UserId s, double similarity,
                           double benefit) override {
        RiskLabel label = model_->QueryLabel(s, similarity, benefit);
        (*known_)[s] = RiskLabelValue(label);
        return label;
      }

     private:
      sim::OwnerModel* model_;
      PoolLearner::KnownLabels* known_;
    } oracle(model, &known);
    RiskReport report =
        engine
            .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner, strangers,
                    &oracle, &rng, &known,
                    last_scores.empty() ? nullptr : &last_scores, &carry)
            .value();
    last_scores.clear();
    for (const StrangerAssessment& sa : report.assessment.strangers) {
      last_scores[sa.stranger] = sa.predicted_score;
    }
    return report;
  }
};

TEST(RiskEngineTest, ResidentCachesAreBitwiseNeutral) {
  // The partition and encode carries are pure memoization: a trace of
  // warm ticks (learners carried in both arms) gives bitwise the same
  // report every tick whether those two layers are carried or cleared
  // before each tick, including across an upstream profile edit that
  // invalidates every fingerprint. Both arms see identical table state.
  sim::GeneratorConfig gen_config;
  gen_config.num_friends = 40;
  gen_config.num_strangers = 200;
  gen_config.num_communities = 4;
  auto gen = sim::FacebookGenerator::Create(gen_config).value();
  Rng gen_rng(18);
  sim::OwnerDataset ds =
      gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &gen_rng).value();
  RiskEngineConfig config;
  config.pools.attribute_weights = sim::PaperAttributeWeights();
  auto engine = RiskEngine::Create(config).value();
  Rng attitude_rng(71);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto cached_model =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();
  auto cleared_model =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();

  WarmArm cached;
  WarmArm cleared;
  size_t half = ds.strangers.size() / 2;
  std::vector<UserId> strangers;
  size_t carried_pools = 0;
  auto tick = [&](size_t upto, bool expect_reuse) {
    strangers.assign(ds.strangers.begin(),
                     ds.strangers.begin() + static_cast<ptrdiff_t>(upto));
    cleared.carry.partition.Clear();
    cleared.carry.encode.Clear();
    RiskReport a = cached.Tick(engine, ds, strangers, &cached_model);
    RiskReport b = cleared.Tick(engine, ds, strangers, &cleared_model);
    ExpectReportsIdentical(a, b);
    EXPECT_EQ(a.carry.partition_reused, expect_reuse);
    EXPECT_EQ(a.carry.encode_reused, expect_reuse);
    EXPECT_FALSE(b.carry.partition_reused);
    EXPECT_FALSE(b.carry.encode_reused);
    EXPECT_EQ(b.carry.encode_rows_appended, upto);
    carried_pools += a.assessment.pools_carried;
  };
  tick(half, false);                // cold start
  tick(ds.strangers.size(), true);  // grown set: suffix-only reuse
  tick(ds.strangers.size(), true);  // unchanged set: full reuse
  EXPECT_GT(carried_pools, 0u);
  // Upstream edit: every fingerprint breaks, and both arms still agree.
  ASSERT_TRUE(ds.profiles.SetValue(ds.strangers[0], 0, "female").ok());
  tick(ds.strangers.size(), false);
  tick(ds.strangers.size(), true);
}

}  // namespace
}  // namespace sight
