#include "recompose.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "core/benefit.h"
#include "core/nsg.h"
#include "core/pool_builder.h"
#include "similarity/network_similarity.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"

namespace perfbench {

using sight::PoolLearner;
using sight::Result;
using sight::RiskReport;
using sight::Status;
using sight::UserId;

sight::Result<std::vector<double>> TimedClassifier::Predict(
    const sight::SimilarityMatrix& weights,
    const sight::LabeledSet& labeled) const {
  return PredictWithState(weights, labeled, nullptr, nullptr);
}

sight::Result<std::vector<double>> TimedClassifier::PredictWithState(
    const sight::SimilarityMatrix& weights, const sight::LabeledSet& labeled,
    sight::ClassifierState* state, sight::SolveStats* stats) const {
  sight::SolveStats local;
  sight::SolveStats* out = stats != nullptr ? stats : &local;
  Result<std::vector<double>> result = [&] {
    ScopedSpan timed(log_, span::kSolve);
    return inner_.PredictWithState(weights, labeled, state, out);
  }();
  if (log_ != nullptr) {
    auto iterations = static_cast<double>(out->iterations);
    log_->Count("learning.solves", 1);
    log_->Count("learning.solve_iters", iterations);
    log_->Count("learning.solve_bytes", iterations * CsrBytes(weights));
  }
  return result;
}

std::vector<size_t> TimedSampler::Select(const sight::SamplingContext& context,
                                         size_t k, sight::Rng* rng) const {
  ScopedSpan timed(log_, span::kSample);
  return inner_.Select(context, k, rng);
}

sight::RiskLabel TimedOracle::QueryLabel(UserId stranger, double similarity,
                                         double benefit) {
  ScopedSpan timed(log_, span::kOracle);
  if (log_ != nullptr) log_->Count("core.oracle_queries", 1);
  return inner_->QueryLabel(stranger, similarity, benefit);
}

double CsrBytes(const sight::SimilarityMatrix& weights) {
  // Both directions of every edge as Neighbor entries plus row offsets.
  return static_cast<double>(2 * weights.NumEdges() * sizeof(sight::Neighbor) +
                             (weights.size() + 1) * sizeof(size_t));
}

Status CheckRecomposable(const sight::RiskEngineConfig& config) {
  if (config.classifier != sight::ClassifierKind::kHarmonic ||
      config.sampler != sight::SamplerKind::kRandom) {
    return Status::InvalidArgument(
        "the recomposition supports the harmonic classifier and random "
        "sampler only");
  }
  if (config.thread_pool != nullptr || config.num_threads != 1) {
    return Status::InvalidArgument("the recomposition runs a serial engine");
  }
  return Status::OK();
}

namespace {

sight::HarmonicFunctionClassifier MakeHarmonic(
    const sight::RiskEngineConfig& config) {
  return sight::HarmonicFunctionClassifier::Create(config.harmonic).value();
}

struct LearnerInputs {
  std::vector<double> sims;
  std::vector<double> bens;
};

// Display vectors of one pool, parallel to its members (the engine looks
// each member up in the pool set's stranger list).
Result<LearnerInputs> GatherDisplay(
    const sight::StrangerPool& pool,
    const std::unordered_map<UserId, size_t>& position,
    const sight::PoolSet& pools, const std::vector<double>& benefits) {
  LearnerInputs inputs;
  inputs.sims.assign(pool.members.size(), 0.0);
  inputs.bens.assign(pool.members.size(), 0.0);
  for (size_t i = 0; i < pool.members.size(); ++i) {
    auto it = position.find(pool.members[i]);
    if (it == position.end()) {
      return Status::InvalidArgument("pool member missing from stranger list");
    }
    inputs.sims[i] = pools.network_similarities[it->second];
    inputs.bens[i] = benefits[it->second];
  }
  return inputs;
}

std::unordered_map<UserId, size_t> PositionOf(
    const std::vector<UserId>& strangers) {
  std::unordered_map<UserId, size_t> position;
  position.reserve(strangers.size());
  for (size_t i = 0; i < strangers.size(); ++i) position[strangers[i]] = i;
  return position;
}

// Fills one pool's matrix tile by tile, compacts it, then hands it to
// PoolLearner::Create, whose own Compact() is then a no-op: the PS fill
// and the CSR build are timed apart.
Result<PoolLearner> CreatePoolLearner(
    const sight::StrangerPool& pool, const uint32_t* rows,
    size_t num_attributes, const sight::ValueFrequencyTable& freqs,
    const sight::ProfileSimilarity& ps, LearnerInputs inputs,
    const sight::ActiveLearnerConfig& config,
    const sight::GraphClassifier* classifier, const sight::Sampler* sampler,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores, SpanLog* log) {
  size_t n = pool.members.size();
  sight::SimilarityMatrix weights(n);
  {
    ScopedSpan timed(log, span::kPsFill);
    const sight::ps_kernels::TileShape shape =
        sight::ps_kernels::DefaultTileShape(num_attributes);
    for (const sight::ps_kernels::PairTile& tile :
         sight::ps_kernels::MakeTiles(n, shape)) {
      sight::ps_kernels::FillTile(rows, n, num_attributes, ps, freqs, tile,
                                  &weights);
    }
  }
  {
    ScopedSpan timed(log, span::kCsr);
    weights.Compact();
  }
  if (log != nullptr) {
    log->Count("similarity.ps_pairs", static_cast<double>(n * (n - 1) / 2));
    log->Count("learning.csr_bytes", CsrBytes(weights));
  }
  return PoolLearner::Create(pool, std::move(weights), std::move(inputs.sims),
                             std::move(inputs.bens), config, classifier,
                             sampler, known_labels, prior_scores);
}

// ActiveLearner::Run over already-created learners (pool order).
Result<sight::AssessmentResult> RunLearners(
    std::vector<PoolLearner>* learners, size_t pools_carried,
    const sight::PoolSet& pools, const std::vector<double>& benefits,
    sight::LabelOracle* oracle, sight::Rng* rng, SpanLog* log) {
  ScopedSpan timed(log, span::kLearnerRun);
  sight::AssessmentResult result;
  result.pools_total = learners->size();
  result.pools_carried = pools_carried;
  double rounds_sum = 0.0;
  for (size_t li = 0; li < learners->size(); ++li) {
    PoolLearner& learner = (*learners)[li];
    SIGHT_ASSIGN_OR_RETURN(std::vector<sight::RoundRecord> records,
                           learner.RunToCompletion(oracle, rng));
    for (sight::RoundRecord& record : records) {
      record.pool_index = li;
      result.rounds.push_back(record);
    }
    rounds_sum += static_cast<double>(learner.rounds_run());
    result.total_queries += learner.num_queries();
    result.validation_matches += learner.validation_matches();
    result.validation_total += learner.validation_total();
    switch (learner.outcome()) {
      case sight::PoolOutcome::kConverged:
        ++result.pools_converged;
        break;
      case sight::PoolOutcome::kExhausted:
        ++result.pools_exhausted;
        break;
      case sight::PoolOutcome::kRoundLimit:
        ++result.pools_round_limit;
        break;
    }
    const std::vector<UserId>& members = learner.members();
    for (size_t i = 0; i < members.size(); ++i) {
      sight::StrangerAssessment sa;
      sa.stranger = members[i];
      sa.pool_index = li;
      sa.predicted_score = learner.predictions()[i];
      sa.predicted_label = learner.PredictedLabel(i);
      sa.owner_labeled = learner.IsOwnerLabeled(i);
      result.strangers.push_back(sa);
    }
  }
  if (!learners->empty()) {
    result.mean_rounds = rounds_sum / static_cast<double>(learners->size());
  }
  std::unordered_map<UserId, size_t> position = PositionOf(pools.strangers);
  for (sight::StrangerAssessment& sa : result.strangers) {
    auto it = position.find(sa.stranger);
    if (it != position.end()) {
      sa.network_similarity = pools.network_similarities[it->second];
      sa.benefit = benefits[it->second];
    }
  }
  return result;
}

void FillShape(const sight::PoolSet& pools, RiskReport* report) {
  report->num_strangers = pools.TotalStrangers();
  report->num_pools = pools.pools.size();
  report->pool_sizes.reserve(pools.pools.size());
  for (const sight::StrangerPool& pool : pools.pools) {
    report->pool_sizes.push_back(pool.members.size());
  }
}

Result<std::vector<double>> Benefits(const sight::RiskEngineConfig& config,
                                     const sight::VisibilityTable& visibility,
                                     const sight::PoolSet& pools,
                                     SpanLog* log) {
  SIGHT_ASSIGN_OR_RETURN(sight::BenefitModel benefit,
                         sight::BenefitModel::Create(config.theta));
  ScopedSpan timed(log, span::kBenefit);
  return benefit.ComputeBatch(visibility, pools.strangers);
}

sight::SqueezerConfig SqueezerConfigOf(const sight::RiskEngineConfig& config) {
  sight::SqueezerConfig sq;
  sq.threshold = config.pools.beta;
  sq.weights = config.pools.attribute_weights;
  return sq;
}

}  // namespace

Result<RiskReport> RecomposeCold(const sight::RiskEngineConfig& config,
                                 const sight::SocialGraph& graph,
                                 const sight::ProfileTable& profiles,
                                 const sight::VisibilityTable& visibility,
                                 UserId owner,
                                 const std::vector<UserId>& strangers,
                                 sight::LabelOracle* oracle, sight::Rng* rng,
                                 SpanLog* log) {
  SIGHT_RETURN_IF_ERROR(CheckRecomposable(config));
  if (config.pools.strategy != sight::PoolStrategy::kNetworkAndProfile) {
    return Status::InvalidArgument("the recomposition builds NPP pools only");
  }
  TimedClassifier classifier(MakeHarmonic(config), log);
  TimedSampler sampler(log);
  TimedOracle timed_oracle(oracle, log);
  ScopedSpan assess(log, span::kAssess);
  RiskReport report;

  // PoolBuilder::BuildForStrangers: NS, Definition-1 groups, Squeezer.
  sight::PoolSet pools;
  {
    ScopedSpan timed(log, span::kPoolBuild);
    pools.strangers = strangers;
    SIGHT_ASSIGN_OR_RETURN(
        sight::NetworkSimilarity ns,
        sight::NetworkSimilarity::Create(config.pools.ns_config));
    {
      ScopedSpan timed_ns(log, span::kNs);
      pools.network_similarities =
          ns.ComputeBatch(graph, owner, pools.strangers, nullptr);
    }
    if (log != nullptr) {
      log->Count("similarity.ns_calls", static_cast<double>(strangers.size()));
    }
    SIGHT_ASSIGN_OR_RETURN(
        sight::NetworkSimilarityGroups nsg,
        sight::NetworkSimilarityGroups::Build(config.pools.alpha,
                                              pools.strangers,
                                              pools.network_similarities));
    SIGHT_ASSIGN_OR_RETURN(
        sight::Squeezer squeezer,
        sight::Squeezer::Create(profiles.schema(), SqueezerConfigOf(config)));
    for (size_t x = 0; x < nsg.alpha(); ++x) {
      if (nsg.group(x).empty()) continue;
      Result<sight::Clustering> clustering = [&] {
        ScopedSpan timed_sq(log, span::kSqueeze);
        return squeezer.Cluster(profiles, nsg.group(x));
      }();
      SIGHT_RETURN_IF_ERROR(clustering.status());
      for (size_t c = 0; c < clustering->num_clusters(); ++c) {
        sight::StrangerPool pool;
        pool.members = clustering->clusters[c];
        pool.nsg_index = x;
        pool.cluster_index = c;
        pools.pools.push_back(std::move(pool));
      }
      if (log != nullptr) {
        log->Count("clustering.clusters",
                   static_cast<double>(clustering->num_clusters()));
      }
    }
  }

  SIGHT_ASSIGN_OR_RETURN(std::vector<double> benefits,
                         Benefits(config, visibility, pools, log));

  // ActiveLearner::Create without carries: each pool encodes its own rows.
  std::vector<PoolLearner> learners;
  {
    ScopedSpan timed(log, span::kLearnerCreate);
    sight::ActiveLearnerConfig learner_config = config.learner;
    learner_config.thread_pool = nullptr;
    SIGHT_RETURN_IF_ERROR(learner_config.Validate());
    SIGHT_ASSIGN_OR_RETURN(sight::ProfileSimilarity ps,
                           sight::ProfileSimilarity::Create(profiles.schema()));
    std::unordered_map<UserId, size_t> position = PositionOf(pools.strangers);
    for (const sight::StrangerPool& pool : pools.pools) {
      std::optional<sight::EncodedProfileTable> encoded;
      {
        ScopedSpan timed_enc(log, span::kEncodeBuild);
        encoded.emplace(sight::EncodedProfileTable::Build(profiles,
                                                          pool.members));
      }
      if (log != nullptr) {
        log->Count("graph.encode_rows",
                   static_cast<double>(pool.members.size()));
      }
      sight::ValueFrequencyTable freqs =
          sight::ValueFrequencyTable::Build(*encoded);
      SIGHT_ASSIGN_OR_RETURN(LearnerInputs inputs,
                             GatherDisplay(pool, position, pools, benefits));
      SIGHT_ASSIGN_OR_RETURN(
          PoolLearner learner,
          CreatePoolLearner(pool, encoded->row(0), encoded->num_attributes(),
                            freqs, ps, std::move(inputs), learner_config,
                            &classifier, &sampler, nullptr, nullptr, log));
      learners.push_back(std::move(learner));
    }
  }

  SIGHT_ASSIGN_OR_RETURN(report.assessment,
                         RunLearners(&learners, 0, pools, benefits,
                                     &timed_oracle, rng, log));
  FillShape(pools, &report);
  return report;
}

WarmOwner::WarmOwner(sight::RiskEngineConfig config,
                     const sight::SocialGraph* graph,
                     const sight::ProfileTable* profiles,
                     const sight::VisibilityTable* visibility, UserId owner,
                     SpanLog* log)
    : config_(std::move(config)), graph_(graph), profiles_(profiles),
      visibility_(visibility), owner_(owner), log_(log),
      classifier_(MakeHarmonic(config_), log), sampler_(log) {}

void WarmOwner::set_log(SpanLog* log) {
  log_ = log;
  classifier_.set_log(log);
  sampler_.set_log(log);
}

void WarmOwner::AddStrangers(const std::vector<UserId>& discovered) {
  for (UserId s : discovered) {
    if (discovered_.insert(s).second) strangers_.push_back(s);
  }
}

// PoolBuilder::BuildForStrangersCached over the bench-side partition:
// an unchanged prefix is reused and only the new suffix is NS-scored,
// binned and routed through the carried per-group squeezers (grouped by
// bin, which keeps each squeezer's insertion order).
Result<sight::PoolSet> WarmOwner::BuildPools(bool* reused) {
  ScopedSpan timed(log_, span::kPoolBuildCached);
  const sight::PoolBuilderConfig& pc = config_.pools;
  Partition& cache = partition_;
  bool reuse = cache.valid &&
               cache.graph_epoch == graph_->mutation_epoch() &&
               cache.profile_epoch == profiles_->mutation_epoch() &&
               cache.strangers.size() <= strangers_.size();
  for (size_t i = 0; reuse && i < cache.strangers.size(); ++i) {
    reuse = cache.strangers[i] == strangers_[i];
  }
  size_t start = 0;
  if (!reuse) {
    cache = Partition();
    cache.group_members.assign(pc.alpha, {});
    cache.squeezers.resize(pc.alpha);
    cache.graph_epoch = graph_->mutation_epoch();
    cache.profile_epoch = profiles_->mutation_epoch();
  } else {
    start = cache.strangers.size();
  }
  cache.valid = false;
  *reused = reuse;

  if (start < strangers_.size()) {
    std::vector<UserId> suffix(
        strangers_.begin() + static_cast<std::ptrdiff_t>(start),
        strangers_.end());
    SIGHT_ASSIGN_OR_RETURN(sight::NetworkSimilarity ns,
                           sight::NetworkSimilarity::Create(pc.ns_config));
    std::vector<double> suffix_ns;
    {
      ScopedSpan timed_ns(log_, span::kNs);
      suffix_ns = ns.ComputeBatch(*graph_, owner_, suffix, nullptr);
    }
    if (log_ != nullptr) {
      log_->Count("similarity.ns_calls", static_cast<double>(suffix.size()));
    }
    SIGHT_ASSIGN_OR_RETURN(
        sight::Squeezer squeezer,
        sight::Squeezer::Create(profiles_->schema(),
                                SqueezerConfigOf(config_)));
    std::vector<std::vector<UserId>> routed(pc.alpha);
    for (size_t k = 0; k < suffix.size(); ++k) {
      double value = suffix_ns[k];
      if (value < 0.0 || value > 1.0) {
        return Status::OutOfRange("network similarity outside [0, 1]");
      }
      auto x = static_cast<size_t>(value * static_cast<double>(pc.alpha));
      if (x >= pc.alpha) x = pc.alpha - 1;
      cache.group_members[x].push_back(suffix[k]);
      routed[x].push_back(suffix[k]);
      cache.strangers.push_back(suffix[k]);
      cache.ns.push_back(value);
    }
    for (size_t x = 0; x < pc.alpha; ++x) {
      if (routed[x].empty()) continue;
      if (!cache.squeezers[x].has_value()) {
        SIGHT_ASSIGN_OR_RETURN(sight::IncrementalSqueezer incremental,
                               squeezer.MakeIncremental(profiles_->schema()));
        cache.squeezers[x].emplace(std::move(incremental));
      }
      size_t before = cache.squeezers[x]->num_clusters();
      Status added = [&] {
        ScopedSpan timed_sq(log_, span::kSqueezeAdd);
        return cache.squeezers[x]->AddBatch(*profiles_, routed[x]).status();
      }();
      SIGHT_RETURN_IF_ERROR(added);
      if (log_ != nullptr) {
        log_->Count("clustering.clusters",
                    static_cast<double>(cache.squeezers[x]->num_clusters() -
                                        before));
      }
    }
  }
  cache.valid = true;

  sight::PoolSet result;
  result.strangers = cache.strangers;
  result.network_similarities = cache.ns;
  for (size_t x = 0; x < pc.alpha; ++x) {
    if (!cache.squeezers[x].has_value()) continue;
    const sight::Clustering& clustering = cache.squeezers[x]->clustering();
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      sight::StrangerPool pool;
      pool.members = clustering.clusters[c];
      pool.nsg_index = x;
      pool.cluster_index = c;
      result.pools.push_back(std::move(pool));
    }
  }
  return result;
}

Result<RiskReport> WarmOwner::Tick(sight::LabelOracle* oracle,
                                   sight::Rng* rng) {
  SIGHT_RETURN_IF_ERROR(CheckRecomposable(config_));
  if (config_.pools.strategy != sight::PoolStrategy::kNetworkAndProfile) {
    return Status::InvalidArgument("the recomposition builds NPP pools only");
  }
  // RiskService records every answer into the owner's label store.
  class Recording : public sight::LabelOracle {
   public:
    Recording(sight::LabelOracle* inner, PoolLearner::KnownLabels* store)
        : inner_(inner), store_(store) {}
    sight::RiskLabel QueryLabel(UserId stranger, double similarity,
                                double benefit) override {
      sight::RiskLabel label =
          inner_->QueryLabel(stranger, similarity, benefit);
      (*store_)[stranger] = sight::RiskLabelValue(label);
      return label;
    }

   private:
    sight::LabelOracle* inner_;
    PoolLearner::KnownLabels* store_;
  };
  Recording recording(oracle, &known_labels_);
  TimedOracle timed_oracle(&recording, log_);
  const PoolLearner::KnownLabels* prior =
      last_scores_.empty() ? nullptr : &last_scores_;

  ScopedSpan assess(log_, span::kAssess);
  RiskReport report;
  // AssessCarry::InvalidateOnUpstreamChange.
  bool changed = !epochs_seen_ ||
                 graph_epoch_ != graph_->mutation_epoch() ||
                 profile_epoch_ != profiles_->mutation_epoch() ||
                 visibility_epoch_ != visibility_->mutation_epoch();
  if (changed) retained_.clear();
  epochs_seen_ = true;
  graph_epoch_ = graph_->mutation_epoch();
  profile_epoch_ = profiles_->mutation_epoch();
  visibility_epoch_ = visibility_->mutation_epoch();

  size_t known_before = partition_.valid ? partition_.strangers.size() : 0;
  bool partition_reused = false;
  SIGHT_ASSIGN_OR_RETURN(sight::PoolSet pools, BuildPools(&partition_reused));
  report.carry.partition_reused = partition_reused;
  report.carry.partition_new_strangers =
      partition_reused ? pools.strangers.size() - known_before
                       : pools.strangers.size();

  SIGHT_ASSIGN_OR_RETURN(std::vector<double> benefits,
                         Benefits(config_, *visibility_, pools, log_));

  sight::StrangerEncodeCache::RefreshResult refreshed;
  {
    ScopedSpan timed(log_, span::kEncodeRefresh);
    refreshed = encode_.Refresh(*profiles_, pools.strangers);
  }
  if (log_ != nullptr) {
    log_->Count("graph.encode_rows",
                static_cast<double>(refreshed.rows_appended));
  }
  report.carry.encode_reused = refreshed.reused;
  report.carry.encode_rows_appended = refreshed.rows_appended;

  std::vector<PoolLearner> learners;
  size_t pools_carried = 0;
  {
    ScopedSpan timed(log_, span::kLearnerCreate);
    sight::ActiveLearnerConfig learner_config = config_.learner;
    learner_config.thread_pool = nullptr;
    SIGHT_RETURN_IF_ERROR(learner_config.Validate());
    SIGHT_ASSIGN_OR_RETURN(
        sight::ProfileSimilarity ps,
        sight::ProfileSimilarity::Create(profiles_->schema()));
    size_t num_pools = pools.pools.size();
    // LearnerCarry matching: first unconsumed retained learner that can
    // resume the pool; unmatched retained learners are dropped.
    std::vector<std::optional<PoolLearner>> carried(num_pools);
    std::vector<bool> consumed(retained_.size(), false);
    for (size_t p = 0; p < num_pools; ++p) {
      for (size_t r = 0; r < retained_.size(); ++r) {
        if (consumed[r] ||
            !retained_[r].CanResume(pools.pools[p], &known_labels_)) {
          continue;
        }
        carried[p].emplace(std::move(retained_[r]));
        consumed[r] = true;
        ++pools_carried;
        break;
      }
    }
    retained_.clear();
    std::unordered_map<UserId, size_t> position = PositionOf(pools.strangers);
    std::vector<uint32_t> gathered;
    for (size_t p = 0; p < num_pools; ++p) {
      if (carried[p].has_value()) {
        carried[p]->MarkCarried();
        learners.push_back(std::move(*carried[p]));
        continue;
      }
      const sight::StrangerPool& pool = pools.pools[p];
      size_t n = pool.members.size();
      std::optional<sight::EncodedProfileTable> encoded;
      const uint32_t* rows = nullptr;
      size_t num_attributes = 0;
      std::optional<sight::ValueFrequencyTable> freqs;
      if (!encode_.empty() && encode_.GatherRows(pool.members, &gathered)) {
        rows = gathered.data();
        num_attributes = encode_.num_attributes();
        freqs.emplace(sight::ValueFrequencyTable::BuildFromCodes(
            rows, n, num_attributes));
      } else {
        {
          ScopedSpan timed_enc(log_, span::kEncodeBuild);
          encoded.emplace(sight::EncodedProfileTable::Build(*profiles_,
                                                            pool.members));
        }
        if (log_ != nullptr) {
          log_->Count("graph.encode_rows", static_cast<double>(n));
        }
        rows = encoded->row(0);
        num_attributes = encoded->num_attributes();
        freqs.emplace(sight::ValueFrequencyTable::Build(*encoded));
      }
      SIGHT_ASSIGN_OR_RETURN(LearnerInputs inputs,
                             GatherDisplay(pool, position, pools, benefits));
      SIGHT_ASSIGN_OR_RETURN(
          PoolLearner learner,
          CreatePoolLearner(pool, rows, num_attributes, *freqs, ps,
                            std::move(inputs), learner_config, &classifier_,
                            &sampler_, &known_labels_, prior, log_));
      learners.push_back(std::move(learner));
    }
  }

  SIGHT_ASSIGN_OR_RETURN(report.assessment,
                         RunLearners(&learners, pools_carried, pools, benefits,
                                     &timed_oracle, rng, log_));
  retained_ = std::move(learners);
  FillShape(pools, &report);
  ScopedSpan seed(log_, span::kSeedScores);
  last_scores_.clear();
  for (const sight::StrangerAssessment& sa : report.assessment.strangers) {
    last_scores_[sa.stranger] = sa.predicted_score;
  }
  return report;
}

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace

uint64_t ReportDigest(const RiskReport& report) {
  Fnv h;
  h.U64(report.num_strangers);
  h.U64(report.num_pools);
  for (size_t size : report.pool_sizes) h.U64(size);
  h.U64(report.carry.partition_reused);
  h.U64(report.carry.partition_new_strangers);
  h.U64(report.carry.encode_reused);
  h.U64(report.carry.encode_rows_appended);
  const sight::AssessmentResult& a = report.assessment;
  h.U64(a.total_queries);
  h.U64(a.pools_total);
  h.U64(a.pools_converged);
  h.U64(a.pools_exhausted);
  h.U64(a.pools_round_limit);
  h.U64(a.pools_carried);
  h.F64(a.mean_rounds);
  h.U64(a.validation_matches);
  h.U64(a.validation_total);
  for (const sight::StrangerAssessment& sa : a.strangers) {
    h.U64(sa.stranger);
    h.F64(sa.network_similarity);
    h.F64(sa.benefit);
    h.U64(sa.pool_index);
    h.F64(sa.predicted_score);
    h.U64(static_cast<uint64_t>(sa.predicted_label));
    h.U64(sa.owner_labeled);
  }
  for (const sight::RoundRecord& r : a.rounds) {
    h.U64(r.pool_index);
    h.U64(r.round);
    h.U64(r.newly_labeled);
    h.U64(r.rmse_valid);
    h.F64(r.rmse);
    h.U64(r.unstabilized);
    h.U64(r.stabilized);
    h.Str(r.solver);
    h.U64(r.solve_iterations);
  }
  return h.value();
}

}  // namespace perfbench
