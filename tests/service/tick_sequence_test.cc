// One owner driven through the serving event sequence — cold tick,
// steady ticks, a grown stranger set, an imported label inside a carried
// pool, a visibility edit and a profile edit between Flush() calls — with
// every published report compared field by field against a reference
// replay through RiskEngine::Assess. The reference keeps the previous
// tick's scores in an id-keyed map rewritten from the whole report, and
// recomputes every benefit each tick, so a carried layer that serves a
// stale value (a benefit after a visibility edit, a score of a rebuilt
// pool) shows up as a field mismatch here.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "service/risk_service.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"

namespace sight {
namespace {

constexpr uint64_t kRngSeed = 73;

sim::OwnerDataset MakeDataset() {
  sim::GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = 200;
  config.num_communities = 4;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(29);
  return gen.Generate({sim::Gender::kFemale, sim::Locale::kTR}, &rng).value();
}

void ExpectRoundsIdentical(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.pool_index, b.pool_index);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.newly_labeled, b.newly_labeled);
  EXPECT_EQ(a.rmse_valid, b.rmse_valid);
  EXPECT_EQ(a.rmse, b.rmse);
  EXPECT_EQ(a.unstabilized, b.unstabilized);
  EXPECT_EQ(a.stabilized, b.stabilized);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.solve_iterations, b.solve_iterations);
}

// Every field of two reports, doubles compared exactly.
void ExpectReportsIdentical(const RiskReport& a, const RiskReport& b) {
  EXPECT_EQ(a.num_strangers, b.num_strangers);
  EXPECT_EQ(a.num_pools, b.num_pools);
  EXPECT_EQ(a.pool_sizes, b.pool_sizes);
  EXPECT_EQ(a.carry.partition_reused, b.carry.partition_reused);
  EXPECT_EQ(a.carry.partition_new_strangers, b.carry.partition_new_strangers);
  EXPECT_EQ(a.carry.encode_reused, b.carry.encode_reused);
  EXPECT_EQ(a.carry.encode_rows_appended, b.carry.encode_rows_appended);
  const AssessmentResult& x = a.assessment;
  const AssessmentResult& y = b.assessment;
  EXPECT_EQ(x.total_queries, y.total_queries);
  EXPECT_EQ(x.pools_total, y.pools_total);
  EXPECT_EQ(x.pools_converged, y.pools_converged);
  EXPECT_EQ(x.pools_exhausted, y.pools_exhausted);
  EXPECT_EQ(x.pools_round_limit, y.pools_round_limit);
  EXPECT_EQ(x.pools_carried, y.pools_carried);
  EXPECT_EQ(x.pool_carried, y.pool_carried);
  EXPECT_EQ(x.mean_rounds, y.mean_rounds);
  EXPECT_EQ(x.validation_matches, y.validation_matches);
  EXPECT_EQ(x.validation_total, y.validation_total);
  ASSERT_EQ(x.rounds.size(), y.rounds.size());
  for (size_t i = 0; i < x.rounds.size(); ++i) {
    ExpectRoundsIdentical(x.rounds[i], y.rounds[i]);
  }
  ASSERT_EQ(x.strangers.size(), y.strangers.size());
  for (size_t i = 0; i < x.strangers.size(); ++i) {
    const StrangerAssessment& sa = x.strangers[i];
    const StrangerAssessment& sb = y.strangers[i];
    EXPECT_EQ(sa.stranger, sb.stranger) << "stranger " << i;
    EXPECT_EQ(sa.pool_index, sb.pool_index) << "stranger " << i;
    EXPECT_EQ(sa.network_similarity, sb.network_similarity)
        << "stranger " << i;
    EXPECT_EQ(sa.benefit, sb.benefit) << "stranger " << i;
    EXPECT_EQ(sa.predicted_score, sb.predicted_score) << "stranger " << i;
    EXPECT_EQ(sa.predicted_label, sb.predicted_label) << "stranger " << i;
    EXPECT_EQ(sa.owner_labeled, sb.owner_labeled) << "stranger " << i;
  }
}

// The owner's warm state replayed outside the service: a carry, every
// answer so far, and the previous tick's scores by stranger id.
struct Reference {
  AssessCarry carry;
  PoolLearner::KnownLabels known;
  PoolLearner::KnownLabels last_scores;
  Rng rng{kRngSeed};

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
    carry.benefits.Clear();
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

TEST(TickSequenceTest, ServiceTicksMatchAnIdKeyedReplayBitwise) {
  sim::OwnerDataset ds = MakeDataset();
  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  Rng attitude_rng(31);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto service_model =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();
  auto reference_model =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();
  auto engine = RiskEngine::Create(config.engine).value();
  auto service = RiskService::Create(config).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  registration.oracle = &service_model;
  registration.rng_seed = kRngSeed;
  ASSERT_TRUE(service->RegisterOwner(registration).ok());

  Reference reference;
  std::vector<UserId> strangers;
  // Submits `event`, drains it, and checks the published report against
  // the reference tick over the same stranger list and labels.
  auto tick = [&](OwnerEvent event) {
    event.owner = ds.owner;
    strangers.insert(strangers.end(), event.discovered.begin(),
                     event.discovered.end());
    for (const auto& [stranger, value] : event.imported_labels) {
      reference.known[stranger] = value;
    }
    EXPECT_TRUE(service->Submit(std::move(event)).ok());
    EXPECT_TRUE(service->Flush().ok());
    std::shared_ptr<const AssessmentSnapshot> snapshot =
        service->Poll(ds.owner);
    EXPECT_NE(snapshot, nullptr);
    if (snapshot == nullptr) return RiskReport{};
    EXPECT_TRUE(snapshot->status.ok()) << snapshot->status.ToString();
    RiskReport want =
        reference.Tick(engine, ds, strangers, &reference_model);
    ExpectReportsIdentical(snapshot->report, want);
    return snapshot->report;
  };
  auto steady = [&] { return tick(OwnerEvent{}); };

  size_t half = ds.strangers.size() / 2;
  OwnerEvent cold;
  cold.discovered.assign(ds.strangers.begin(),
                         ds.strangers.begin() + static_cast<ptrdiff_t>(half));
  RiskReport report = tick(std::move(cold));
  EXPECT_EQ(report.assessment.pools_carried, 0u);

  report = steady();
  EXPECT_GT(report.assessment.pools_carried, 0u);
  EXPECT_TRUE(report.carry.partition_reused);
  report = steady();
  EXPECT_GT(report.assessment.pools_carried, 0u);

  OwnerEvent grown;
  grown.discovered.assign(ds.strangers.begin() + static_cast<ptrdiff_t>(half),
                          ds.strangers.end());
  report = tick(std::move(grown));
  EXPECT_EQ(report.carry.partition_new_strangers,
            ds.strangers.size() - half);
  report = steady();

  // Import a label for a not-yet-labeled member of a carried pool: that
  // pool alone is rebuilt, seeded from the scores carried so far.
  const StrangerAssessment* target = nullptr;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    if (report.assessment.pool_carried[sa.pool_index] && !sa.owner_labeled) {
      target = &sa;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  size_t target_pool = target->pool_index;
  OwnerEvent imported;
  imported.imported_labels[target->stranger] =
      static_cast<double>(kRiskLabelMax);
  report = tick(std::move(imported));
  EXPECT_FALSE(report.assessment.pool_carried[target_pool]);
  EXPECT_GT(report.assessment.pools_carried, 0u);

  // Visibility edit between Flush() calls: every benefit of the edited
  // stranger must move with it.
  UserId edited = strangers.front();
  bool visible = ds.visibility.IsVisible(edited, ProfileItem::kPhoto);
  ds.visibility.SetVisible(edited, ProfileItem::kPhoto, !visible);
  report = steady();
  EXPECT_EQ(report.assessment.pools_carried, 0u);
  report = steady();
  EXPECT_GT(report.assessment.pools_carried, 0u);

  // Profile edit: every fingerprint breaks, then the carry resumes.
  const std::string& gender = ds.profiles.Get(strangers[1]).values[0];
  ASSERT_TRUE(ds.profiles
                  .SetValue(strangers[1], 0,
                            gender == "male" ? "female" : "male")
                  .ok());
  report = steady();
  EXPECT_FALSE(report.carry.partition_reused);
  EXPECT_EQ(report.assessment.pools_carried, 0u);
  report = steady();
  EXPECT_GT(report.assessment.pools_carried, 0u);

  // The label store the service recorded is the reference's.
  EXPECT_EQ(service->KnownLabels(ds.owner).value(), reference.known);
}

}  // namespace
}  // namespace sight
