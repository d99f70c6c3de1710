// Full-pipeline integration tests: generated Facebook-like dataset ->
// RiskEngine with a simulated owner -> assessment, checked against the
// owner model's ground truth.

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "learning/metrics.h"
#include "sim/crawler.h"
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

OwnerDataset MakeDataset(uint64_t seed, size_t strangers = 300) {
  GeneratorConfig config;
  config.num_friends = 60;
  config.num_strangers = strangers;
  config.num_communities = 5;
  auto gen = FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({Gender::kMale, Locale::kTR}, &rng).value();
}

TEST(EndToEndTest, FullPipelineProducesAccuratePredictions) {
  OwnerDataset ds = MakeDataset(101);
  Rng attitude_rng(5);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  attitude.label_noise = 0.03;
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  RiskEngineConfig config;
  config.pools.attribute_weights = sim::PaperAttributeWeights();
  config.learner.confidence = attitude.confidence;
  config.theta = attitude.theta;
  auto engine = RiskEngine::Create(config).value();
  Rng rng(202);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();

  ASSERT_EQ(report.assessment.strangers.size(), ds.strangers.size());

  // Compare predictions against the oracle's ground truth on strangers the
  // owner never labeled.
  std::vector<int> predicted;
  std::vector<int> truth;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    if (sa.owner_labeled) continue;
    predicted.push_back(static_cast<int>(sa.predicted_label));
    truth.push_back(static_cast<int>(
        oracle.TrueLabel(sa.stranger, sa.network_similarity, sa.benefit)));
  }
  ASSERT_GT(predicted.size(), 50u);
  double accuracy = ExactMatchRate(predicted, truth).value();
  // The paper reports 83.36% on its own validation queries; we demand a
  // healthy band on held-out ground truth.
  EXPECT_GT(accuracy, 0.6);

  // The whole point of active learning: far fewer queries than strangers.
  EXPECT_LT(report.assessment.total_queries, ds.strangers.size());
}

TEST(EndToEndTest, ValidationAccuracyIsTracked) {
  OwnerDataset ds = MakeDataset(103);
  Rng attitude_rng(7);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  RiskEngineConfig config;
  auto engine = RiskEngine::Create(config).value();
  Rng rng(11);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_GT(report.assessment.validation_total, 0u);
  EXPECT_LE(report.assessment.validation_matches,
            report.assessment.validation_total);
  EXPECT_GE(report.assessment.ValidationAccuracy(), 0.0);
  EXPECT_LE(report.assessment.ValidationAccuracy(), 1.0);
}

TEST(EndToEndTest, NppPoolsDoNotUnderperformNspOnQueries) {
  // Sanity: both pool strategies complete, produce full coverage, and NPP
  // yields at least as many (more homogeneous) pools.
  OwnerDataset ds = MakeDataset(107, 200);
  Rng attitude_rng(13);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);

  auto run = [&](PoolStrategy strategy) {
    auto oracle =
        OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value();
    RiskEngineConfig config;
    config.pools.strategy = strategy;
    auto engine = RiskEngine::Create(config).value();
    Rng rng(17);
    return engine
        .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                TwoHopStrangers(ds.graph, ds.owner).value(), &oracle, &rng)
        .value();
  };
  auto npp = run(PoolStrategy::kNetworkAndProfile);
  auto nsp = run(PoolStrategy::kNetworkOnly);
  EXPECT_GE(npp.num_pools, nsp.num_pools);
  EXPECT_EQ(npp.assessment.strangers.size(), nsp.assessment.strangers.size());
}

TEST(EndToEndTest, IncrementalCrawlMatchesPoolRebuild) {
  // The crawler flow: assess after each discovery batch; the final batch
  // assessment covers everything discovered so far.
  OwnerDataset ds = MakeDataset(109, 150);
  Rng attitude_rng(19);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  Rng crawl_rng(23);
  sim::CrawlerConfig crawl_config;
  crawl_config.batch_size = 50;
  auto crawler =
      sim::Crawler::Create(ds.graph, ds.owner, crawl_config, &crawl_rng)
          .value();

  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(29);
  size_t last_covered = 0;
  while (!crawler.done()) {
    crawler.Tick();
    auto report = engine
                      .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                              crawler.discovered(), &oracle, &rng)
                      .value();
    EXPECT_EQ(report.assessment.strangers.size(),
              crawler.discovered().size());
    EXPECT_GE(report.assessment.strangers.size(), last_covered);
    last_covered = report.assessment.strangers.size();
  }
  EXPECT_EQ(last_covered, ds.strangers.size());
}

TEST(EndToEndTest, HigherConfidenceCostsMoreQueries) {
  OwnerDataset ds = MakeDataset(113, 200);
  Rng attitude_rng(31);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  attitude.label_noise = 0.0;

  auto run = [&](double confidence) {
    auto oracle =
        OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value();
    RiskEngineConfig config;
    config.learner.confidence = confidence;
    auto engine = RiskEngine::Create(config).value();
    Rng rng(37);
    auto report = engine
                      .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                              TwoHopStrangers(ds.graph, ds.owner).value(),
                              &oracle, &rng)
                      .value();
    return report.assessment.total_queries;
  };
  size_t low = run(60.0);
  size_t high = run(99.9);
  EXPECT_LE(low, high);
}

TEST(EndToEndTest, ConfidenceHundredLabelsEveryStranger) {
  OwnerDataset ds = MakeDataset(127, 80);
  Rng attitude_rng(41);
  OwnerAttitude attitude = SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();
  RiskEngineConfig config;
  config.learner.confidence = 100.0;
  config.learner.max_rounds = 10000;
  auto engine = RiskEngine::Create(config).value();
  Rng rng(43);
  auto report = engine
                    .Assess(ds.graph, ds.profiles, ds.visibility, ds.owner,
                            TwoHopStrangers(ds.graph, ds.owner).value(),
                            &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.total_queries, ds.strangers.size());
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    EXPECT_TRUE(sa.owner_labeled);
  }
}

}  // namespace
}  // namespace sight
