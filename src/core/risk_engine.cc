#include "core/risk_engine.h"

#include "util/string_util.h"

namespace sight {

void AssessCarry::Clear() {
  learners.Clear();
  partition.Clear();
  encode.Clear();
  benefits.Clear();
  graph_ = nullptr;
  profiles_ = nullptr;
  visibility_ = nullptr;
}

void AssessCarry::InvalidateOnUpstreamChange(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility) {
  // Carried learners bake in profile-similarity matrices (profiles),
  // display similarities (graph) and display benefits (visibility);
  // their CanResume fingerprint only sees pool membership and labels, so
  // any upstream edit drops them here. The partition and encode caches
  // re-check their own fingerprints per build and need no help.
  bool changed = graph_ != &graph || graph_epoch_ != graph.mutation_epoch() ||
                 profiles_ != &profiles ||
                 profile_epoch_ != profiles.mutation_epoch() ||
                 visibility_ != &visibility ||
                 visibility_epoch_ != visibility.mutation_epoch();
  if (changed) learners.Clear();
  graph_ = &graph;
  graph_epoch_ = graph.mutation_epoch();
  profiles_ = &profiles;
  profile_epoch_ = profiles.mutation_epoch();
  visibility_ = &visibility;
  visibility_epoch_ = visibility.mutation_epoch();
}

RiskEngine::RiskEngine(RiskEngineConfig config)
    : config_(std::move(config)) {}

Result<RiskEngine> RiskEngine::Create(RiskEngineConfig config) {
  SIGHT_RETURN_IF_ERROR(config.learner.Validate());
  SIGHT_RETURN_IF_ERROR(config.theta.Validate());
  RiskEngine engine(std::move(config));

  // The pool must exist before the classifiers so kHarmonicCmn can run
  // its per-class solves on it.
  if (engine.config_.thread_pool == nullptr &&
      engine.config_.num_threads != 1) {
    engine.owned_pool_ =
        std::make_unique<ThreadPool>(engine.config_.num_threads);
  }

  switch (engine.config_.classifier) {
    case ClassifierKind::kHarmonic: {
      SIGHT_ASSIGN_OR_RETURN(
          HarmonicFunctionClassifier harmonic,
          HarmonicFunctionClassifier::Create(engine.config_.harmonic));
      engine.classifier_ =
          std::make_unique<HarmonicFunctionClassifier>(std::move(harmonic));
      break;
    }
    case ClassifierKind::kHarmonicCmn: {
      MulticlassHarmonicConfig mc_config;
      mc_config.solver = engine.config_.harmonic;
      mc_config.label_min = kRiskLabelMin;
      mc_config.label_max = kRiskLabelMax;
      mc_config.thread_pool = engine.effective_pool();
      SIGHT_ASSIGN_OR_RETURN(
          MulticlassHarmonicClassifier multiclass,
          MulticlassHarmonicClassifier::Create(mc_config));
      engine.classifier_ = std::make_unique<MulticlassHarmonicClassifier>(
          std::move(multiclass));
      break;
    }
    case ClassifierKind::kKnn: {
      SIGHT_ASSIGN_OR_RETURN(KnnClassifier knn,
                             KnnClassifier::Create(engine.config_.knn_k));
      engine.classifier_ = std::make_unique<KnnClassifier>(std::move(knn));
      break;
    }
    case ClassifierKind::kMajority:
      engine.classifier_ = std::make_unique<MajorityClassifier>();
      break;
  }

  switch (engine.config_.sampler) {
    case SamplerKind::kRandom:
      engine.sampler_ = std::make_unique<RandomSampler>();
      break;
    case SamplerKind::kUncertainty:
      engine.sampler_ = std::make_unique<UncertaintySampler>();
      break;
  }
  return engine;
}

Result<RiskReport> RiskEngine::Assess(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility, UserId owner,
    std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores, AssessCarry* carry) const {
  if (!graph.HasUser(owner)) {
    return Status::InvalidArgument(StrFormat("unknown owner %u", owner));
  }
  // A cold assessment is a warm one with an empty carry.
  AssessCarry local;
  AssessCarry* active = carry != nullptr ? carry : &local;
  active->InvalidateOnUpstreamChange(graph, profiles, visibility);
  RiskReport report;

  PoolBuilderConfig pool_config = config_.pools;
  pool_config.thread_pool = effective_pool();
  SIGHT_ASSIGN_OR_RETURN(PoolBuilder builder,
                         PoolBuilder::Create(std::move(pool_config)));
  size_t known = active->partition.num_strangers();
  size_t total = strangers.size();
  size_t misses_before = active->partition.stats().misses;
  SIGHT_ASSIGN_OR_RETURN(
      PoolSet pools, builder.BuildForStrangers(graph, profiles, owner,
                                               std::move(strangers),
                                               &active->partition));

  SIGHT_ASSIGN_OR_RETURN(BenefitModel benefit,
                         BenefitModel::Create(config_.theta));
  const std::vector<double>& benefits =
      active->benefits.Refresh(benefit, visibility, pools.strangers);

  StrangerEncodeCache::RefreshResult refreshed =
      active->encode.Refresh(profiles, pools.strangers);
  if (carry != nullptr) {
    // The cache's own counters are the ground truth: a cold rebuild of
    // an already-full cache leaves num_strangers() unchanged and would
    // otherwise masquerade as a reuse.
    report.carry.partition_reused =
        active->partition.stats().misses == misses_before;
    report.carry.partition_new_strangers =
        report.carry.partition_reused ? total - known : total;
    report.carry.encode_reused = refreshed.reused;
    report.carry.encode_rows_appended = refreshed.rows_appended;
  }

  ActiveLearnerConfig learner_config = config_.learner;
  learner_config.thread_pool = effective_pool();
  SIGHT_ASSIGN_OR_RETURN(
      ActiveLearner learner,
      ActiveLearner::Create(pools, profiles, active->encode, benefits,
                            learner_config, classifier_.get(), sampler_.get(),
                            known_labels, prior_scores, &active->learners));

  SIGHT_ASSIGN_OR_RETURN(report.assessment, learner.Run(oracle, rng));
  learner.HarvestInto(&active->learners);
  report.num_strangers = pools.TotalStrangers();
  report.num_pools = pools.pools.size();
  report.pool_sizes.reserve(pools.pools.size());
  for (const StrangerPool& pool : pools.pools) {
    report.pool_sizes.push_back(pool.members.size());
  }
  return report;
}

}  // namespace sight
