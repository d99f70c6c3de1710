// Stage-by-stage recomposition of one assessment from the library's
// public calls, with a span around every call into a layer.
//
// RecomposeCold rebuilds RiskService::AssessNow (the engine's cold path);
// WarmOwner::Tick rebuilds RiskService::AssessSync (the warm path with
// the partition, encode and learner carries). Both must produce reports
// bitwise-equal to the service's; the benchmark checks that on every
// traced assessment, since otherwise the trace would time a different
// program. Decorators around the classifier, sampler and oracle time the
// calls PoolLearner makes into them.

#ifndef SIGHT_PERFBENCH_RECOMPOSE_H_
#define SIGHT_PERFBENCH_RECOMPOSE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "clustering/squeezer.h"
#include "core/active_learner.h"
#include "core/risk_engine.h"
#include "graph/profile_codec.h"
#include "learning/harmonic.h"
#include "learning/sampling.h"
#include "trace.h"

namespace perfbench {

/// Span names, one per public call the recomposition times.
namespace span {
inline constexpr const char kAssess[] = "core.RiskEngine::Assess";
inline constexpr const char kPoolBuild[] =
    "core.PoolBuilder::BuildForStrangers";
inline constexpr const char kPoolBuildCached[] =
    "core.PoolBuilder::BuildForStrangersCached";
inline constexpr const char kBenefit[] = "core.BenefitModel::ComputeBatch";
inline constexpr const char kLearnerCreate[] = "core.ActiveLearner::Create";
inline constexpr const char kLearnerRun[] = "core.ActiveLearner::Run";
inline constexpr const char kOracle[] = "core.LabelOracle::QueryLabel";
inline constexpr const char kNs[] =
    "similarity.NetworkSimilarity::ComputeBatch";
inline constexpr const char kPsFill[] = "similarity.ps_kernels::FillTile";
inline constexpr const char kSqueeze[] = "clustering.Squeezer::Cluster";
inline constexpr const char kSqueezeAdd[] =
    "clustering.IncrementalSqueezer::AddBatch";
inline constexpr const char kEncodeBuild[] =
    "graph.EncodedProfileTable::Build";
inline constexpr const char kEncodeRefresh[] =
    "graph.StrangerEncodeCache::Refresh";
inline constexpr const char kTwoHop[] = "graph.TwoHopStrangers";
inline constexpr const char kCsr[] = "learning.SimilarityMatrix::Compact";
inline constexpr const char kSolve[] =
    "learning.GraphClassifier::PredictWithState";
inline constexpr const char kSample[] = "learning.Sampler::Select";
/// Not a library call: the service's record of a warm tick's scores,
/// which seeds the next tick's solves (RiskService::AssessSync).
inline constexpr const char kSeedScores[] = "service.next_tick_seed";
}  // namespace span

/// Forwards to the engine's harmonic classifier and records solve time,
/// solves, iterations and computed CSR bytes streamed (iterations x CSR
/// footprint) into `log`.
class TimedClassifier : public sight::GraphClassifier {
 public:
  TimedClassifier(sight::HarmonicFunctionClassifier inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  sight::Result<std::vector<double>> Predict(
      const sight::SimilarityMatrix& weights,
      const sight::LabeledSet& labeled) const override;
  sight::Result<std::vector<double>> PredictWithState(
      const sight::SimilarityMatrix& weights, const sight::LabeledSet& labeled,
      sight::ClassifierState* state,
      sight::SolveStats* stats = nullptr) const override;
  std::unique_ptr<sight::ClassifierState> MakeState() const override {
    return inner_.MakeState();
  }
  std::string name() const override { return inner_.name(); }
  void set_log(SpanLog* log) { log_ = log; }

 private:
  sight::HarmonicFunctionClassifier inner_;
  SpanLog* log_;
};

class TimedSampler : public sight::Sampler {
 public:
  explicit TimedSampler(SpanLog* log) : log_(log) {}
  std::vector<size_t> Select(const sight::SamplingContext& context, size_t k,
                             sight::Rng* rng) const override;
  std::string name() const override { return inner_.name(); }
  void set_log(SpanLog* log) { log_ = log; }

 private:
  sight::RandomSampler inner_;
  SpanLog* log_;
};

/// Times the owner's answers; counts fresh questions.
class TimedOracle : public sight::LabelOracle {
 public:
  TimedOracle(sight::LabelOracle* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  sight::RiskLabel QueryLabel(sight::UserId stranger, double similarity,
                              double benefit) override;

 private:
  sight::LabelOracle* inner_;
  SpanLog* log_;
};

/// Computed (not measured) size of a compacted matrix's CSR view.
double CsrBytes(const sight::SimilarityMatrix& weights);

/// The engine configuration the benchmark supports: harmonic classifier,
/// random sampler, serial engine. Anything else is an error.
sight::Status CheckRecomposable(const sight::RiskEngineConfig& config);

/// Rebuilds RiskService::AssessNow for `owner` over `strangers` (the
/// owner's known labels are empty in this benchmark).
sight::Result<sight::RiskReport> RecomposeCold(
    const sight::RiskEngineConfig& config, const sight::SocialGraph& graph,
    const sight::ProfileTable& profiles,
    const sight::VisibilityTable& visibility, sight::UserId owner,
    const std::vector<sight::UserId>& strangers, sight::LabelOracle* oracle,
    sight::Rng* rng, SpanLog* log);

/// Bench-side mirror of one registered owner's resident state, ticked
/// through the warm path exactly as RiskService::AssessSync ticks it.
class WarmOwner {
 public:
  WarmOwner(sight::RiskEngineConfig config, const sight::SocialGraph* graph,
            const sight::ProfileTable* profiles,
            const sight::VisibilityTable* visibility, sight::UserId owner,
            SpanLog* log);
  WarmOwner(const WarmOwner&) = delete;
  WarmOwner& operator=(const WarmOwner&) = delete;

  /// Where later ticks record spans (null: record nothing).
  void set_log(SpanLog* log);
  void AddStrangers(const std::vector<sight::UserId>& discovered);
  sight::Result<sight::RiskReport> Tick(sight::LabelOracle* oracle,
                                        sight::Rng* rng);

 private:
  struct Partition {
    bool valid = false;
    uint64_t graph_epoch = 0;
    uint64_t profile_epoch = 0;
    std::vector<sight::UserId> strangers;
    std::vector<double> ns;
    std::vector<std::vector<sight::UserId>> group_members;
    std::vector<std::optional<sight::IncrementalSqueezer>> squeezers;
  };

  sight::Result<sight::PoolSet> BuildPools(bool* reused);

  sight::RiskEngineConfig config_;
  const sight::SocialGraph* graph_;
  const sight::ProfileTable* profiles_;
  const sight::VisibilityTable* visibility_;
  sight::UserId owner_;
  SpanLog* log_;
  TimedClassifier classifier_;
  TimedSampler sampler_;

  std::vector<sight::UserId> strangers_;
  std::unordered_set<sight::UserId> discovered_;
  sight::PoolLearner::KnownLabels known_labels_;
  sight::PoolLearner::KnownLabels last_scores_;
  Partition partition_;
  sight::StrangerEncodeCache encode_;
  std::vector<sight::PoolLearner> retained_;
  bool epochs_seen_ = false;
  uint64_t graph_epoch_ = 0;
  uint64_t profile_epoch_ = 0;
  uint64_t visibility_epoch_ = 0;
};

/// 64-bit FNV-1a digest over every field of a report (doubles by bit
/// pattern), so equal digests mean bitwise-equal reports.
uint64_t ReportDigest(const sight::RiskReport& report);

}  // namespace perfbench

#endif  // SIGHT_PERFBENCH_RECOMPOSE_H_
