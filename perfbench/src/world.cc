#include "world.h"

#include "sim/facebook_generator.h"
#include "sim/schema.h"
#include "util/random.h"

namespace perfbench {

sight::Result<std::unique_ptr<World>> GenerateWorld(uint64_t seed,
                                                    size_t num_owners) {
  sight::sim::GeneratorConfig gen_config;
  gen_config.num_friends = kFriends;
  gen_config.num_strangers = kStrangers;
  gen_config.num_communities = kCommunities;
  SIGHT_ASSIGN_OR_RETURN(sight::sim::FacebookGenerator generator,
                         sight::sim::FacebookGenerator::Create(gen_config));
  std::vector<sight::sim::OwnerSpec> population =
      sight::sim::PaperOwnerPopulation();

  auto world = std::make_unique<World>();
  world->profiles =
      std::make_unique<sight::ProfileTable>(sight::sim::FacebookSchema());
  sight::Rng master(seed);
  for (size_t i = 0; i < num_owners; ++i) {
    sight::Rng gen_rng = master.Fork();
    SIGHT_ASSIGN_OR_RETURN(
        sight::sim::OwnerDataset ds,
        generator.Generate(population[i % population.size()], &gen_rng));
    sight::Rng attitude_rng = master.Fork();
    world->attitudes.push_back(sight::sim::SampleOwnerAttitude(&attitude_rng));

    auto offset = static_cast<sight::UserId>(world->graph.NumUsers());
    size_t n = ds.graph.NumUsers();
    world->graph.AddUsers(n);
    for (sight::UserId u = 0; u < n; ++u) {
      for (sight::UserId v : ds.graph.Neighbors(u)) {
        if (u < v) {
          SIGHT_RETURN_IF_ERROR(world->graph.AddEdge(u + offset, v + offset));
        }
      }
      // Every user must carry a profile: ProfileTable::Get on a missing
      // one writes shared state, which concurrent owners would race on.
      if (!ds.profiles.Has(u)) {
        return sight::Status::Internal("generated user without a profile");
      }
      SIGHT_RETURN_IF_ERROR(
          world->profiles->Set(u + offset, ds.profiles.Get(u)));
      world->visibility.SetMask(u + offset, ds.visibility.Mask(u));
    }
    world->owners.push_back(ds.owner + offset);
  }
  return world;
}

sight::RiskEngineConfig PaperEngineConfig(
    const sight::sim::OwnerAttitude* attitude) {
  sight::RiskEngineConfig config;
  config.pools.strategy = sight::PoolStrategy::kNetworkAndProfile;
  config.pools.alpha = 10;
  config.pools.beta = 0.4;
  config.pools.attribute_weights = sight::sim::PaperAttributeWeights();
  config.classifier = sight::ClassifierKind::kHarmonic;
  config.sampler = sight::SamplerKind::kRandom;
  config.num_threads = 1;
  if (attitude != nullptr) {
    config.theta = attitude->theta;
    config.learner.confidence = attitude->confidence;
  }
  return config;
}

}  // namespace perfbench
