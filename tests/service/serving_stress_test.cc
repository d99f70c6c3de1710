// Concurrency stress for RiskService: several submitter threads push
// discovery events for owners spread across shards while readers Poll
// and WaitFor concurrently. Run under TSan via the `serving` ctest
// label (tools/check.sh tsan leg).

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "service/risk_service.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "util/thread_pool.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(uint64_t seed) {
  sim::GeneratorConfig config;
  config.num_friends = 30;
  config.num_strangers = 100;
  config.num_communities = 4;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kFemale, sim::Locale::kIT}, &rng)
      .value();
}

TEST(ServingStressTest, ConcurrentSubmitAndPollAcrossShards) {
  // One shared network; the ego owner plus three of their friends each
  // register as service owners (distinct user ids -> distinct shards).
  sim::OwnerDataset ds = MakeDataset(2012);
  std::vector<UserId> owners = {ds.owner, ds.friends[0], ds.friends[1],
                                ds.friends[2]};

  Rng attitude_rng(3);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  std::vector<std::unique_ptr<sim::OwnerModel>> oracles;
  for (size_t i = 0; i < owners.size(); ++i) {
    oracles.push_back(std::make_unique<sim::OwnerModel>(
        sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value()));
  }

  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.num_shards = 4;
  config.num_threads = 3;
  auto service = RiskService::Create(std::move(config)).value();

  std::vector<std::vector<UserId>> stranger_sets;
  for (size_t i = 0; i < owners.size(); ++i) {
    OwnerRegistration registration;
    registration.owner = owners[i];
    registration.graph = &ds.graph;
    registration.profiles = &ds.profiles;
    registration.visibility = &ds.visibility;
    registration.oracle = oracles[i].get();
    registration.rng_seed = 100 + i;
    ASSERT_TRUE(service->RegisterOwner(registration).ok());
    stranger_sets.push_back(TwoHopStrangers(ds.graph, owners[i]).value());
    ASSERT_FALSE(stranger_sets.back().empty());
  }

  // Two submitter threads interleave two discovery waves per owner.
  constexpr size_t kWaves = 2;
  ThreadPool submitters(2);
  for (size_t i = 0; i < owners.size(); ++i) {
    submitters.Submit([&, i] {
      const std::vector<UserId>& strangers = stranger_sets[i];
      size_t half = strangers.size() / 2;
      for (size_t wave = 0; wave < kWaves; ++wave) {
        OwnerEvent event;
        event.owner = owners[i];
        size_t begin = wave == 0 ? 0 : half;
        size_t end = wave == 0 ? half : strangers.size();
        event.discovered.assign(strangers.begin() + begin,
                                strangers.begin() + end);
        Status submitted = service->Submit(std::move(event));
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
      }
    });
  }

  // Concurrent readers: Poll is non-blocking and safe mid-drain.
  for (size_t spin = 0; spin < 50; ++spin) {
    for (UserId owner : owners) {
      auto snapshot = service->Poll(owner);
      if (snapshot != nullptr) {
        EXPECT_GE(snapshot->version, 1u);
        EXPECT_TRUE(snapshot->status.ok());
      }
    }
  }

  submitters.Wait();
  // Every owner eventually publishes at least one snapshot...
  for (UserId owner : owners) {
    auto snapshot = service->WaitFor(owner, 1);
    ASSERT_TRUE(snapshot.ok());
  }
  ASSERT_TRUE(service->Flush().ok());
  // ...and after the flush the latest snapshot covers the full set
  // (events may have been coalesced, so only the final state is pinned).
  for (size_t i = 0; i < owners.size(); ++i) {
    auto snapshot = service->Poll(owners[i]);
    ASSERT_NE(snapshot, nullptr);
    EXPECT_TRUE(snapshot->status.ok());
    EXPECT_EQ(snapshot->report.assessment.strangers.size(),
              stranger_sets[i].size());
    EXPECT_LE(snapshot->version, kWaves);
  }
  EXPECT_EQ(service->stats().events_submitted, owners.size() * kWaves);
  service->Shutdown();
}

TEST(ServingStressTest, ShutdownRacesWithSubmitters) {
  sim::OwnerDataset ds = MakeDataset(77);
  Rng attitude_rng(5);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.num_shards = 2;
  config.num_threads = 2;
  auto service = RiskService::Create(std::move(config)).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  registration.oracle = &oracle;
  ASSERT_TRUE(service->RegisterOwner(registration).ok());

  ThreadPool submitters(2);
  for (size_t t = 0; t < 2; ++t) {
    submitters.Submit([&, t] {
      for (size_t i = 0; i < 5; ++i) {
        OwnerEvent event;
        event.owner = ds.owner;
        size_t at = (t * 5 + i) % ds.strangers.size();
        event.discovered = {ds.strangers[at]};
        event.assess = (i % 2 == 0);
        // Shutdown may win the race; both outcomes are legal.
        Status submitted = service->Submit(std::move(event));
        EXPECT_TRUE(submitted.ok() ||
                    submitted.code() == StatusCode::kFailedPrecondition)
            << submitted.ToString();
      }
    });
  }
  service->Shutdown();
  submitters.Wait();
  // Whatever was accepted before shutdown was fully drained.
  size_t strangers = service->NumStrangers(ds.owner).value();
  EXPECT_LE(strangers, 10u);
}

TEST(ServingStressTest, KnownLabelsReadWhileDrainsRecordAnswers) {
  // Background drains record every oracle answer into the owner's label
  // store while a reader thread copies it through KnownLabels(). The
  // copy is taken under the owner lock, so under TSan this runs clean,
  // and every copy is a consistent store that only ever grows.
  sim::OwnerDataset ds = MakeDataset(41);
  Rng attitude_rng(17);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();
  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.num_shards = 2;
  config.num_threads = 2;
  auto service = RiskService::Create(std::move(config)).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  registration.oracle = &oracle;
  ASSERT_TRUE(service->RegisterOwner(registration).ok());

  std::atomic<bool> done{false};
  size_t reads = 0;
  std::thread reader([&] {
    size_t last_size = 0;
    while (!done.load()) {
      PoolLearner::KnownLabels labels =
          service->KnownLabels(ds.owner).value();
      EXPECT_GE(labels.size(), last_size);
      last_size = labels.size();
      for (const auto& [stranger, value] : labels) {
        EXPECT_TRUE(value >= kRiskLabelMin && value <= kRiskLabelMax)
            << stranger;
      }
      ++reads;
    }
  });
  // Each wave discovers new strangers, so each drained tick asks (and
  // records) fresh questions.
  constexpr size_t kWaves = 5;
  size_t wave_size = (ds.strangers.size() + kWaves - 1) / kWaves;
  for (size_t begin = 0; begin < ds.strangers.size(); begin += wave_size) {
    size_t end = std::min(begin + wave_size, ds.strangers.size());
    OwnerEvent event;
    event.owner = ds.owner;
    event.discovered.assign(ds.strangers.begin() + begin,
                            ds.strangers.begin() + end);
    ASSERT_TRUE(service->Submit(std::move(event)).ok());
  }
  ASSERT_TRUE(service->Flush().ok());
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(service->KnownLabels(ds.owner).value().size(),
            service->NumKnownLabels(ds.owner).value());
  EXPECT_GT(service->NumKnownLabels(ds.owner).value(), 0u);
}

TEST(ServingStressTest, SharedProfileTableWithMissingProfiles) {
  // Two owners share one ProfileTable, and some of their strangers have
  // no profile, so both shard drains read the table's all-missing
  // profile at the same time. Reads of a shared table must not write
  // to it; under TSan this test catches any lazy write.
  sim::OwnerDataset ds = MakeDataset(91);
  std::vector<UserId> profileless;
  for (size_t i = 0; i < 12; ++i) {
    UserId user = ds.graph.AddUser();
    ASSERT_TRUE(ds.graph.AddEdge(user, ds.friends[i % 3]).ok());
    profileless.push_back(user);
  }
  ASSERT_FALSE(ds.profiles.Has(profileless[0]));

  // Owners on distinct shards (2 shards, id modulo 2), so the two drains
  // run concurrently.
  UserId second = kInvalidUser;
  for (UserId f : ds.friends) {
    if (f % 2 != ds.owner % 2) {
      second = f;
      break;
    }
  }
  ASSERT_NE(second, kInvalidUser);
  std::vector<UserId> owners = {ds.owner, second};
  Rng attitude_rng(13);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  std::vector<std::unique_ptr<sim::OwnerModel>> oracles;
  for (size_t i = 0; i < owners.size(); ++i) {
    oracles.push_back(std::make_unique<sim::OwnerModel>(
        sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value()));
  }

  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.num_shards = 2;
  config.num_threads = 2;
  auto service = RiskService::Create(std::move(config)).value();
  std::vector<OwnerEvent> events;
  for (size_t i = 0; i < owners.size(); ++i) {
    OwnerRegistration registration;
    registration.owner = owners[i];
    registration.graph = &ds.graph;
    registration.profiles = &ds.profiles;
    registration.visibility = &ds.visibility;
    registration.oracle = oracles[i].get();
    registration.rng_seed = 200 + i;
    ASSERT_TRUE(service->RegisterOwner(registration).ok());
    OwnerEvent event;
    event.owner = owners[i];
    event.discovered = profileless;
    for (UserId s : ds.strangers) {
      if (s != owners[i]) event.discovered.push_back(s);
    }
    events.push_back(std::move(event));
  }
  for (OwnerEvent& event : events) {
    ASSERT_TRUE(service->Submit(std::move(event)).ok());
  }
  ASSERT_TRUE(service->Flush().ok());
  for (UserId owner : owners) {
    auto snapshot = service->Poll(owner);
    ASSERT_NE(snapshot, nullptr);
    EXPECT_TRUE(snapshot->status.ok()) << snapshot->status.ToString();
    EXPECT_EQ(snapshot->report.num_strangers,
              service->NumStrangers(owner).value());
  }
  service->Shutdown();
}

}  // namespace
}  // namespace sight
