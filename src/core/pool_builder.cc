#include "core/pool_builder.h"

#include "graph/algorithms.h"
#include "util/string_util.h"

namespace sight {

void PoolPartitionCache::Clear() {
  valid_ = false;
  graph_ = nullptr;
  profiles_ = nullptr;
  owner_ = kInvalidUser;
  strangers_.clear();
  ns_.clear();
  group_members_.clear();
  squeezers_.clear();
  positions_.clear();
}

Result<PoolBuilder> PoolBuilder::Create(PoolBuilderConfig config) {
  if (config.alpha == 0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  if (config.beta < 0.0 || config.beta > 1.0) {
    return Status::InvalidArgument(
        StrFormat("beta %f not in [0, 1]", config.beta));
  }
  SIGHT_RETURN_IF_ERROR(config.ns_config.Validate());
  return PoolBuilder(std::move(config));
}

Result<PoolSet> PoolBuilder::Build(const SocialGraph& graph,
                                   const ProfileTable& profiles,
                                   UserId owner) const {
  SIGHT_ASSIGN_OR_RETURN(std::vector<UserId> strangers,
                         TwoHopStrangers(graph, owner));
  return BuildForStrangers(graph, profiles, owner, std::move(strangers));
}

Result<PoolSet> PoolBuilder::BuildForStrangers(
    const SocialGraph& graph, const ProfileTable& profiles, UserId owner,
    std::vector<UserId> strangers, PoolPartitionCache* cache) const {
  // A build without a carried partition is a build into an empty one.
  PoolPartitionCache local;
  if (cache == nullptr) cache = &local;
  bool reuse =
      cache->valid_ && cache->graph_ == &graph &&
      cache->graph_epoch_ == graph.mutation_epoch() &&
      cache->profiles_ == &profiles &&
      cache->profile_epoch_ == profiles.mutation_epoch() &&
      cache->owner_ == owner && cache->alpha_ == config_.alpha &&
      cache->beta_ == config_.beta && cache->strategy_ == config_.strategy &&
      cache->attribute_weights_ == config_.attribute_weights &&
      cache->ns_config_.mutual_weight == config_.ns_config.mutual_weight &&
      cache->ns_config_.saturation == config_.ns_config.saturation &&
      cache->strangers_.size() <= strangers.size();
  if (reuse) {
    // Discovery is append-only in the serving flow; any reordering or
    // removal breaks the prefix and rebuilds cold.
    for (size_t i = 0; i < cache->strangers_.size(); ++i) {
      if (cache->strangers_[i] != strangers[i]) {
        reuse = false;
        break;
      }
    }
  }

  size_t start = 0;
  if (!reuse) {
    cache->Clear();
    cache->group_members_.assign(config_.alpha, {});
    cache->squeezers_.resize(config_.alpha);
    cache->positions_.assign(config_.alpha, {});
    cache->graph_ = &graph;
    cache->graph_epoch_ = graph.mutation_epoch();
    cache->profiles_ = &profiles;
    cache->profile_epoch_ = profiles.mutation_epoch();
    cache->owner_ = owner;
    cache->alpha_ = config_.alpha;
    cache->beta_ = config_.beta;
    cache->strategy_ = config_.strategy;
    cache->attribute_weights_ = config_.attribute_weights;
    cache->ns_config_ = config_.ns_config;
    ++cache->stats_.misses;
  } else {
    // Invalid until the suffix lands: an error below must not leave a
    // half-applied partition marked reusable.
    cache->valid_ = false;
    start = cache->strangers_.size();
    if (start == strangers.size()) {
      ++cache->stats_.hits_identical;
    } else {
      ++cache->stats_.hits_grown;
    }
  }

  if (start < strangers.size()) {
    std::vector<UserId> suffix(
        strangers.begin() + static_cast<ptrdiff_t>(start), strangers.end());
    SIGHT_ASSIGN_OR_RETURN(NetworkSimilarity ns,
                           NetworkSimilarity::Create(config_.ns_config));
    std::vector<double> suffix_ns =
        ns.ComputeBatch(graph, owner, suffix, config_.thread_pool);
    // Definition 1 binning of the suffix, then each touched group takes
    // its new members in discovery order. Squeezer is one-pass, so a
    // carried prefix plus this suffix clusters exactly like the whole
    // list at once.
    std::vector<std::vector<UserId>> routed(config_.alpha);
    std::vector<std::vector<size_t>> routed_positions(config_.alpha);
    for (size_t k = 0; k < suffix.size(); ++k) {
      SIGHT_ASSIGN_OR_RETURN(
          size_t x, NetworkSimilarityGroups::GroupOf(suffix_ns[k],
                                                     config_.alpha));
      routed[x].push_back(suffix[k]);
      routed_positions[x].push_back(start + k);
    }
    cache->strangers_.insert(cache->strangers_.end(), suffix.begin(),
                             suffix.end());
    cache->ns_.insert(cache->ns_.end(), suffix_ns.begin(), suffix_ns.end());
    if (config_.strategy == PoolStrategy::kNetworkOnly) {
      for (size_t x = 0; x < config_.alpha; ++x) {
        if (routed[x].empty()) continue;
        cache->group_members_[x].insert(cache->group_members_[x].end(),
                                        routed[x].begin(), routed[x].end());
        cache->positions_[x].resize(1);
        cache->positions_[x][0].insert(cache->positions_[x][0].end(),
                                       routed_positions[x].begin(),
                                       routed_positions[x].end());
      }
    } else {
      SqueezerConfig sq_config;
      sq_config.threshold = config_.beta;
      sq_config.weights = config_.attribute_weights;
      SIGHT_ASSIGN_OR_RETURN(Squeezer squeezer,
                             Squeezer::Create(profiles.schema(), sq_config));
      for (size_t x = 0; x < config_.alpha; ++x) {
        if (routed[x].empty()) continue;
        if (!cache->squeezers_[x].has_value()) {
          SIGHT_ASSIGN_OR_RETURN(IncrementalSqueezer incremental,
                                 squeezer.MakeIncremental(profiles.schema()));
          cache->squeezers_[x].emplace(std::move(incremental));
        }
        SIGHT_ASSIGN_OR_RETURN(std::vector<size_t> assigned,
                               cache->squeezers_[x]->AddBatch(profiles,
                                                              routed[x]));
        // Each new member's discovery index follows it into the cluster
        // the squeezer chose, in the same insertion order.
        std::vector<std::vector<size_t>>& clusters = cache->positions_[x];
        clusters.resize(cache->squeezers_[x]->num_clusters());
        for (size_t j = 0; j < assigned.size(); ++j) {
          clusters[assigned[j]].push_back(routed_positions[x][j]);
        }
      }
    }
  }
  cache->valid_ = true;

  // Materialize the pool set: groups in ascending NSG order, clusters in
  // creation order, members in insertion order — report ordering and
  // the shared learner Rng stream depend on it.
  PoolSet result;
  result.strangers = std::move(strangers);
  result.network_similarities = cache->ns_;
  for (size_t x = 0; x < config_.alpha; ++x) {
    if (config_.strategy == PoolStrategy::kNetworkOnly) {
      if (cache->group_members_[x].empty()) continue;
      StrangerPool pool;
      pool.members = cache->group_members_[x];
      pool.positions = cache->positions_[x][0];
      pool.nsg_index = x;
      pool.cluster_index = 0;
      result.pools.push_back(std::move(pool));
      continue;
    }
    if (!cache->squeezers_[x].has_value()) continue;
    const Clustering& clustering = cache->squeezers_[x]->clustering();
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      StrangerPool pool;
      pool.members = clustering.clusters[c];
      pool.positions = cache->positions_[x][c];
      pool.nsg_index = x;
      pool.cluster_index = c;
      result.pools.push_back(std::move(pool));
    }
  }
  return result;
}

}  // namespace sight
