// Benchmark inputs: the paper's Section IV study population, generated
// from the workload seed and merged into one social network so that all
// owners can register on a single RiskService (each ego network keeps
// its own block of user ids).

#ifndef SIGHT_PERFBENCH_WORLD_H_
#define SIGHT_PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/risk_engine.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "sim/owner_model.h"
#include "util/status.h"

namespace perfbench {

/// Paper scale (Section IV): 47 owners, 3,661 strangers per owner on
/// average; the study harness's 60 friends and 5 communities.
inline constexpr size_t kOwners = 47;
inline constexpr size_t kStrangers = 3661;
inline constexpr size_t kFriends = 60;
inline constexpr size_t kCommunities = 5;

struct World {
  sight::SocialGraph graph;
  std::unique_ptr<sight::ProfileTable> profiles;
  sight::VisibilityTable visibility;
  std::vector<sight::UserId> owners;
  std::vector<sight::sim::OwnerAttitude> attitudes;
};

/// Generates `num_owners` ego networks (owner i gets the paper
/// population's i-th gender/locale) and merges them. Deterministic in
/// `seed`.
sight::Result<std::unique_ptr<World>> GenerateWorld(uint64_t seed,
                                                    size_t num_owners);

/// Paper defaults: NPP pools, alpha 10, beta 0.4, harmonic classifier,
/// random sampler, Table-I Squeezer weights, serial engine. With an
/// attitude, the owner's own theta and confidence (the study harness's
/// per-owner engine); without, the shared serving configuration.
sight::RiskEngineConfig PaperEngineConfig(
    const sight::sim::OwnerAttitude* attitude);

}  // namespace perfbench

#endif  // SIGHT_PERFBENCH_WORLD_H_
