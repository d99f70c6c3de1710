// RiskEngine: the assessment core of the Sight library.
//
// Wires together the full pipeline of the paper: network similarity ->
// Definition 1/3 pools -> benefit computation -> active learning with a
// graph-based classifier -> a risk label for every stranger of the
// owner. The resident `RiskService` (service/risk_service.h) is the
// front door: it shards owner state, keeps each owner's AssessCarry
// across crawler ticks, and exposes async Submit/Poll as well as the
// synchronous AssessNow/AssessSync. See DESIGN.md §13.
//
//   RiskEngineConfig config;                    // paper defaults
//   auto engine = RiskEngine::Create(config).value();
//   auto strangers = TwoHopStrangers(graph, owner).value();
//   auto report = engine.Assess(graph, profiles, visibility, owner,
//                               strangers, &oracle, &rng).value();
//   for (const auto& sa : report.assessment.strangers) { ... }

#ifndef SIGHT_CORE_RISK_ENGINE_H_
#define SIGHT_CORE_RISK_ENGINE_H_

#include <memory>
#include <vector>

#include "core/active_learner.h"
#include "core/benefit.h"
#include "core/pool_builder.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "learning/baselines.h"
#include "learning/harmonic.h"
#include "learning/multiclass_harmonic.h"
#include "learning/sampling.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sight {

enum class ClassifierKind {
  /// Zhu et al. harmonic functions, ordinal embedding (the paper's
  /// choice, compact form).
  kHarmonic,
  /// Zhu et al.'s full multiclass formulation with Class Mass
  /// Normalization (one harmonic solve per risk class).
  kHarmonicCmn,
  /// Weighted kNN baseline.
  kKnn,
  /// Majority-label baseline.
  kMajority,
};

enum class SamplerKind {
  /// Uniform pool sampling (the paper's choice).
  kRandom,
  /// Maximum-ambiguity sampling (extension).
  kUncertainty,
};

struct RiskEngineConfig {
  PoolBuilderConfig pools;
  ActiveLearnerConfig learner;
  /// Owner-assigned benefit coefficients (paper Table III averages by
  /// default).
  ThetaWeights theta = ThetaWeights::PaperTable3();
  ClassifierKind classifier = ClassifierKind::kHarmonic;
  HarmonicConfig harmonic;
  size_t knn_k = 5;
  SamplerKind sampler = SamplerKind::kRandom;
  /// Worker threads for the parallel pipeline phases (NS batches,
  /// similarity-matrix construction, per-pool learner setup, per-class
  /// harmonic solves). 1 = fully serial, no pool at all (the default);
  /// 0 = hardware concurrency. Ignored when `thread_pool` is set.
  /// Assessments are deterministic and identical at every setting.
  size_t num_threads = 1;
  /// Optional caller-owned pool shared across engines/owners (non-owning;
  /// must outlive the engine). Overrides `num_threads`.
  ThreadPool* thread_pool = nullptr;
};

/// What the caller's carry did for one assessment (all zero/false when
/// Assess runs without one).
struct CarryTelemetry {
  /// The carried pool partition was reused (identical or grown set).
  bool partition_reused = false;
  /// Strangers routed through the carried squeezers this tick (the
  /// whole list on a partition rebuild).
  size_t partition_new_strangers = 0;
  /// The carried owner-level encode was reused (rows appended, not
  /// rebuilt).
  bool encode_reused = false;
  /// Rows the encode stage actually encoded this tick.
  size_t encode_rows_appended = 0;
};

/// Everything produced by one owner assessment.
struct RiskReport {
  AssessmentResult assessment;
  /// Sizes of the pools the learner ran on.
  std::vector<size_t> pool_sizes;
  size_t num_strangers = 0;
  size_t num_pools = 0;
  CarryTelemetry carry;
};

/// Cross-tick carry bundle for one owner (the resident-service flow,
/// DESIGN.md §14): the finished PoolLearners of the previous tick, the
/// carried NS/NSG/Squeezer pool partition, the owner-level encoded
/// profile table, and the benefit vector. Each layer fingerprints its
/// own inputs and falls back to a cold rebuild independently; on top of
/// that, the engine drops the learner carry whenever the graph, profile,
/// or visibility tables mutated since the carry was filled (their
/// fingerprints cannot see upstream edits that keep pool membership
/// stable). The partition, encode and benefit layers are pure
/// memoization: an empty carry, a warm one, or a cleared one give
/// bitwise the same report. Only the learner layer changes what is
/// asked — a carried pool asks the owner nothing new — so callers that
/// want rebuild-per-tick semantics clear `learners`.
struct AssessCarry {
  LearnerCarry learners;
  PoolPartitionCache partition;
  StrangerEncodeCache encode;
  BenefitCache benefits;

  /// Drops all carried state (fingerprints re-arm on the next tick).
  void Clear();

  /// Drops the learner carry when any upstream table's identity or
  /// mutation epoch changed since the last call; records the current
  /// epochs either way. Called by the engine at the top of every
  /// assessment.
  void InvalidateOnUpstreamChange(const SocialGraph& graph,
                                  const ProfileTable& profiles,
                                  const VisibilityTable& visibility);

 private:
  const SocialGraph* graph_ = nullptr;
  uint64_t graph_epoch_ = 0;
  const ProfileTable* profiles_ = nullptr;
  uint64_t profile_epoch_ = 0;
  const VisibilityTable* visibility_ = nullptr;
  uint64_t visibility_epoch_ = 0;
};

class RiskEngine {
 public:
  /// Validates the configuration and instantiates classifier + sampler.
  [[nodiscard]] static Result<RiskEngine> Create(RiskEngineConfig config);

  RiskEngine(RiskEngine&&) = default;
  RiskEngine& operator=(RiskEngine&&) = default;

  /// Runs the full pipeline for `owner` over `strangers` (in discovery
  /// order). The oracle is queried labels_per_round strangers per pool
  /// per round until every pool meets the Section III-D stopping
  /// condition. Strangers in `known_labels` (optional) start out
  /// owner-labeled; the oracle is only queried for the rest. Strangers
  /// in `prior_scores` (optional) seed the pools' first solves with the
  /// previous tick's predicted scores (warm start across ticks).
  ///
  /// `carry` (optional) is the owner's cross-tick state: finished
  /// PoolLearners stashed by a previous call are resumed when their
  /// pool's member list and owner labels are unchanged, the pool
  /// partition is carried so an unchanged/grown stranger set skips the
  /// NS/NSG/Squeezer rebuild, and the owner-level encode is carried so
  /// only newly discovered strangers are re-encoded; afterwards the new
  /// learners are harvested back into `carry`. Pass distinct carries for
  /// distinct owners. Without one the call runs on a local, empty carry
  /// — the same code path — and reports all-zero CarryTelemetry.
  [[nodiscard]]
  Result<RiskReport> Assess(
      const SocialGraph& graph, const ProfileTable& profiles,
      const VisibilityTable& visibility, UserId owner,
      std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
      const PoolLearner::KnownLabels* known_labels = nullptr,
      const PoolLearner::KnownLabels* prior_scores = nullptr,
      AssessCarry* carry = nullptr) const;

  const RiskEngineConfig& config() const { return config_; }

 private:
  explicit RiskEngine(RiskEngineConfig config);

  /// The pool the pipeline phases run on: the caller's, else the engine's
  /// own (num_threads != 1), else null (serial).
  ThreadPool* effective_pool() const {
    return config_.thread_pool != nullptr ? config_.thread_pool
                                          : owned_pool_.get();
  }

  RiskEngineConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<GraphClassifier> classifier_;
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace sight

#endif  // SIGHT_CORE_RISK_ENGINE_H_
