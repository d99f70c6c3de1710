#include "bench/common/study.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace sight::bench {

std::vector<OwnerStudy> GenerateStudy(const StudyConfig& config) {
  sim::GeneratorConfig gen_config;
  gen_config.num_friends = config.num_friends;
  gen_config.num_strangers = config.num_strangers;
  gen_config.num_communities = config.num_communities;
  auto generator = sim::FacebookGenerator::Create(gen_config);
  SIGHT_CHECK(generator.ok());

  std::vector<sim::OwnerSpec> population = sim::PaperOwnerPopulation();
  Rng master(config.seed);

  std::vector<OwnerStudy> study;
  study.reserve(config.num_owners);
  for (size_t i = 0; i < config.num_owners; ++i) {
    OwnerStudy owner;
    owner.spec = population[i % population.size()];
    Rng gen_rng = master.Fork();
    auto dataset = generator->Generate(owner.spec, &gen_rng);
    SIGHT_CHECK(dataset.ok());
    owner.dataset = std::move(dataset).value();
    Rng attitude_rng = master.Fork();
    owner.attitude = sim::SampleOwnerAttitude(&attitude_rng);
    study.push_back(std::move(owner));
  }
  return study;
}

RiskEngineConfig EngineConfigFor(const StudyConfig& config,
                                 const OwnerStudy& owner) {
  RiskEngineConfig engine_config;
  engine_config.pools.strategy = config.strategy;
  engine_config.pools.alpha = config.alpha;
  engine_config.pools.beta = config.beta;
  engine_config.pools.ns_config = config.ns;
  if (config.paper_attribute_weights) {
    engine_config.pools.attribute_weights = sim::PaperAttributeWeights();
  }
  engine_config.classifier = config.classifier;
  engine_config.sampler = config.sampler;
  engine_config.theta = owner.attitude.theta;
  engine_config.learner.confidence = config.confidence_override >= 0.0
                                         ? config.confidence_override
                                         : owner.attitude.confidence;
  engine_config.learner.count_all_unstabilized =
      config.count_all_unstabilized;
  return engine_config;
}

OwnerRunResult RunOwner(const StudyConfig& config, const OwnerStudy& owner,
                        uint64_t run_seed) {
  RiskServiceConfig service_config;
  service_config.engine = EngineConfigFor(config, owner);
  service_config.num_shards = 1;
  auto service = RiskService::Create(std::move(service_config));
  SIGHT_CHECK(service.ok());
  auto oracle = sim::OwnerModel::Create(owner.attitude, &owner.dataset.profiles,
                                &owner.dataset.visibility);
  SIGHT_CHECK(oracle.ok());

  OwnerRegistration registration;
  registration.owner = owner.dataset.owner;
  registration.graph = &owner.dataset.graph;
  registration.profiles = &owner.dataset.profiles;
  registration.visibility = &owner.dataset.visibility;
  SIGHT_CHECK((*service)->RegisterOwner(registration).ok());
  SIGHT_CHECK((*service)->DiscoverAllStrangers(owner.dataset.owner).ok());

  // AssessNow over the freshly discovered two-hop set is
  // RiskEngine::Assess with no carry over the owner's two-hop strangers.
  Rng rng(run_seed);
  auto report =
      (*service)->AssessNow(owner.dataset.owner, &*oracle, &rng);
  SIGHT_CHECK(report.ok());

  OwnerRunResult result;
  result.report = std::move(report).value();
  result.owner_queries = oracle->num_queries();
  return result;
}

std::vector<OwnerRunResult> RunStudy(const StudyConfig& config,
                                     const std::vector<OwnerStudy>& study,
                                     uint64_t run_seed_base) {
  std::vector<OwnerRunResult> results(study.size());
  ThreadPool pool;
  ParallelFor(&pool, study.size(), [&](size_t i) {
    results[i] = RunOwner(config, study[i],
                          run_seed_base + static_cast<uint64_t>(i));
  });
  return results;
}

StudyConfig ParseArgs(int argc, char** argv, StudyConfig defaults) {
  StudyConfig config = defaults;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto parse = [&](const char* prefix, size_t* out) {
      size_t len = std::strlen(prefix);
      if (std::strncmp(arg, prefix, len) == 0) {
        *out = static_cast<size_t>(std::strtoull(arg + len, nullptr, 10));
        return true;
      }
      return false;
    };
    size_t seed_value = 0;
    if (parse("--strangers=", &config.num_strangers)) continue;
    if (parse("--owners=", &config.num_owners)) continue;
    if (parse("--friends=", &config.num_friends)) continue;
    if (parse("--seed=", &seed_value)) {
      config.seed = seed_value;
      continue;
    }
    std::fprintf(stderr,
                 "note: ignoring unknown argument '%s' "
                 "(supported: --strangers= --owners= --friends= --seed=)\n",
                 arg);
  }
  return config;
}

}  // namespace sight::bench
