#include "core/pool_builder.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "clustering/squeezer.h"
#include "core/nsg.h"
#include "graph/algorithms.h"
#include "graph/profile.h"
#include "graph/social_graph.h"

namespace sight {
namespace {

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

// Owner 0 with friends 1-4 (friends 1-2 and 3-4 are connected pairs);
// strangers 5-10: 5,6 attach to friends 1+2 (2 mutuals), 7-10 attach to
// one friend each. Profiles: strangers alternate male/tr and female/us.
struct Fixture {
  SocialGraph graph{11};
  ProfileTable profiles{TestSchema()};
  UserId owner = 0;

  Fixture() {
    auto edge = [&](UserId a, UserId b) {
      EXPECT_TRUE(graph.AddEdge(a, b).ok());
    };
    for (UserId f = 1; f <= 4; ++f) edge(0, f);
    edge(1, 2);
    edge(3, 4);
    edge(5, 1);
    edge(5, 2);
    edge(6, 1);
    edge(6, 2);
    edge(7, 1);
    edge(8, 2);
    edge(9, 3);
    edge(10, 4);
    for (UserId u = 0; u <= 10; ++u) {
      Profile p;
      p.values = u % 2 == 0 ? std::vector<std::string>{"male", "tr_TR"}
                            : std::vector<std::string>{"female", "en_US"};
      EXPECT_TRUE(profiles.Set(u, p).ok());
    }
  }
};

PoolBuilderConfig DefaultConfig(PoolStrategy strategy) {
  PoolBuilderConfig config;
  config.alpha = 10;
  config.beta = 0.4;
  config.strategy = strategy;
  return config;
}

TEST(PoolBuilderTest, CreateValidates) {
  PoolBuilderConfig config;
  config.alpha = 0;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config = {};
  config.beta = 1.5;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config = {};
  config.ns_config.saturation = -1.0;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  EXPECT_TRUE(PoolBuilder::Create(PoolBuilderConfig{}).ok());
}

TEST(PoolBuilderTest, PoolsPartitionAllStrangers) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  EXPECT_EQ(pools.TotalStrangers(), 6u);

  std::set<UserId> seen;
  for (const StrangerPool& pool : pools.pools) {
    EXPECT_FALSE(pool.members.empty());
    for (UserId s : pool.members) {
      EXPECT_TRUE(seen.insert(s).second) << "stranger in two pools";
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PoolBuilderTest, NetworkSimilaritiesParallelToStrangers) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  ASSERT_EQ(pools.network_similarities.size(), pools.strangers.size());
  for (double ns : pools.network_similarities) {
    EXPECT_GT(ns, 0.0);  // every stranger has >= 1 mutual friend
    EXPECT_LE(ns, 1.0);
  }
}

TEST(PoolBuilderTest, TwoMutualStrangersInHigherNsgThanOneMutual) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly)).value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  // Find the nsg index of stranger 5 (2 mutuals) and 7 (1 mutual).
  auto nsg_of = [&](UserId target) {
    for (const StrangerPool& pool : pools.pools) {
      if (std::find(pool.members.begin(), pool.members.end(), target) !=
          pool.members.end()) {
        return pool.nsg_index;
      }
    }
    return SIZE_MAX;
  };
  EXPECT_GT(nsg_of(5), nsg_of(7));
}

TEST(PoolBuilderTest, NetworkOnlyHasOnePoolPerNonEmptyGroup) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly)).value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  std::set<size_t> nsg_indices;
  for (const StrangerPool& pool : pools.pools) {
    EXPECT_TRUE(nsg_indices.insert(pool.nsg_index).second)
        << "two NSP pools share an nsg";
    EXPECT_EQ(pool.cluster_index, 0u);
  }
}

TEST(PoolBuilderTest, NppRefinesNspByProfile) {
  Fixture fx;
  auto npp =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value()
          .Build(fx.graph, fx.profiles, fx.owner)
          .value();
  auto nsp = PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly))
                 .value()
                 .Build(fx.graph, fx.profiles, fx.owner)
                 .value();
  EXPECT_GE(npp.pools.size(), nsp.pools.size());
  // Every NPP pool lies within one NSG group, so within one NSP pool.
  for (const StrangerPool& pool : npp.pools) {
    std::set<size_t> nsgs;
    nsgs.insert(pool.nsg_index);
    EXPECT_EQ(nsgs.size(), 1u);
  }
}

TEST(PoolBuilderTest, NppPoolsAreProfileHomogeneousHere) {
  // With two clearly distinct profile groups and beta = 0.4, no pool mixes
  // the male/tr and female/us strangers.
  Fixture fx;
  auto pools =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value()
          .Build(fx.graph, fx.profiles, fx.owner)
          .value();
  for (const StrangerPool& pool : pools.pools) {
    std::set<std::string> genders;
    for (UserId s : pool.members) {
      genders.insert(fx.profiles.Value(s, 0));
    }
    EXPECT_EQ(genders.size(), 1u);
  }
}

TEST(PoolBuilderTest, UnknownOwnerFails) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  EXPECT_FALSE(builder.Build(fx.graph, fx.profiles, 99).ok());
}

TEST(PoolBuilderTest, OwnerWithoutStrangersYieldsEmptyPoolSet) {
  SocialGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ProfileTable profiles(TestSchema());
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(g, profiles, 0).value();
  EXPECT_TRUE(pools.pools.empty());
  EXPECT_EQ(pools.TotalStrangers(), 0u);
}

// Bitwise equality of two pool sets: same stranger order, exact-equal NS
// doubles, identical pools in identical order.
void ExpectSamePoolSet(const PoolSet& got, const PoolSet& want) {
  EXPECT_EQ(got.strangers, want.strangers);
  ASSERT_EQ(got.network_similarities.size(),
            want.network_similarities.size());
  for (size_t i = 0; i < got.network_similarities.size(); ++i) {
    EXPECT_EQ(got.network_similarities[i], want.network_similarities[i]);
  }
  ASSERT_EQ(got.pools.size(), want.pools.size());
  for (size_t p = 0; p < got.pools.size(); ++p) {
    EXPECT_EQ(got.pools[p].members, want.pools[p].members) << "pool " << p;
    EXPECT_EQ(got.pools[p].positions, want.pools[p].positions) << "pool " << p;
    EXPECT_EQ(got.pools[p].nsg_index, want.pools[p].nsg_index);
    EXPECT_EQ(got.pools[p].cluster_index, want.pools[p].cluster_index);
  }
}

// Index of every member in `strangers` (which holds no duplicates),
// found by search rather than carried through the build.
std::vector<size_t> PositionsBySearch(const std::vector<UserId>& strangers,
                                      const std::vector<UserId>& members) {
  std::vector<size_t> positions;
  for (UserId member : members) {
    auto it = std::find(strangers.begin(), strangers.end(), member);
    positions.push_back(static_cast<size_t>(it - strangers.begin()));
  }
  return positions;
}

// Definition 3 assembled from its parts — NS, NetworkSimilarityGroups,
// and one Squeezer::Cluster per group — independently of the builder's
// carried partition.
PoolSet ReferencePools(const PoolBuilderConfig& config, const Fixture& fx,
                       const std::vector<UserId>& strangers) {
  PoolSet result;
  result.strangers = strangers;
  auto ns = NetworkSimilarity::Create(config.ns_config).value();
  result.network_similarities =
      ns.ComputeBatch(fx.graph, fx.owner, strangers, nullptr);
  auto nsg = NetworkSimilarityGroups::Build(config.alpha, strangers,
                                            result.network_similarities)
                 .value();
  SqueezerConfig sq_config;
  sq_config.threshold = config.beta;
  sq_config.weights = config.attribute_weights;
  auto squeezer = Squeezer::Create(fx.profiles.schema(), sq_config).value();
  for (size_t x = 0; x < nsg.alpha(); ++x) {
    if (nsg.group(x).empty()) continue;
    if (config.strategy == PoolStrategy::kNetworkOnly) {
      result.pools.push_back({nsg.group(x), x, 0,
                              PositionsBySearch(strangers, nsg.group(x))});
      continue;
    }
    Clustering clustering =
        squeezer.Cluster(fx.profiles, nsg.group(x)).value();
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      result.pools.push_back(
          {clustering.clusters[c], x, c,
           PositionsBySearch(strangers, clustering.clusters[c])});
    }
  }
  return result;
}

TEST(PoolBuilderTest, CachedBuildMatchesColdOnEveryPath) {
  // Identical set, grown set, and cold rebuild must all be bitwise-equal
  // to a build without a cache over the same list, and both to the
  // reference assembled from NSG + Squeezer, for both strategies.
  for (PoolStrategy strategy :
       {PoolStrategy::kNetworkAndProfile, PoolStrategy::kNetworkOnly}) {
    Fixture fx;
    auto builder = PoolBuilder::Create(DefaultConfig(strategy)).value();
    PoolPartitionCache cache;

    std::vector<UserId> first = {5, 6, 7};
    auto cold1 =
        builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, first)
            .value();
    auto warm1 = builder
                     .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                        first, &cache)
                     .value();
    ExpectSamePoolSet(cold1,
                      ReferencePools(DefaultConfig(strategy), fx, first));
    ExpectSamePoolSet(warm1, cold1);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Identical set: reused outright.
    auto warm2 = builder
                     .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                        first, &cache)
                     .value();
    ExpectSamePoolSet(warm2, cold1);
    EXPECT_EQ(cache.stats().hits_identical, 1u);

    // Grown set: only the suffix routes through the carried squeezers.
    std::vector<UserId> grown = {5, 6, 7, 8, 9, 10};
    auto cold2 =
        builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, grown)
            .value();
    auto warm3 = builder
                     .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                        grown, &cache)
                     .value();
    ExpectSamePoolSet(cold2,
                      ReferencePools(DefaultConfig(strategy), fx, grown));
    ExpectSamePoolSet(warm3, cold2);
    EXPECT_EQ(cache.stats().hits_grown, 1u);
    EXPECT_EQ(cache.num_strangers(), 6u);
  }
}

TEST(PoolBuilderTest, CachedBuildRebuildsOnInvalidation) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  PoolPartitionCache cache;
  std::vector<UserId> strangers = {5, 6, 7, 8};
  (void)builder
      .BuildForStrangers(fx.graph, fx.profiles, fx.owner, strangers, &cache)
      .value();

  // A graph edit bumps the epoch: next build is a cold rebuild that sees
  // the new edge (stranger 7 gains a second mutual friend).
  ASSERT_TRUE(fx.graph.AddEdge(7, 2).ok());
  auto cold =
      builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, strangers)
          .value();
  auto warm = builder
                  .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                     strangers, &cache)
                  .value();
  ExpectSamePoolSet(cold, ReferencePools(builder.config(), fx, strangers));
  ExpectSamePoolSet(warm, cold);
  EXPECT_EQ(cache.stats().misses, 2u);

  // A profile edit invalidates too.
  ASSERT_TRUE(fx.profiles.SetValue(5, 0, "female").ok());
  auto cold2 =
      builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, strangers)
          .value();
  auto warm2 = builder
                   .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                      strangers, &cache)
                   .value();
  ExpectSamePoolSet(cold2, ReferencePools(builder.config(), fx, strangers));
  ExpectSamePoolSet(warm2, cold2);
  EXPECT_EQ(cache.stats().misses, 3u);

  // A reordered (non-prefix) list breaks the prefix and rebuilds.
  std::vector<UserId> reordered = {6, 5, 7, 8};
  auto cold3 =
      builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, reordered)
          .value();
  auto warm3 = builder
                   .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                      reordered, &cache)
                   .value();
  ExpectSamePoolSet(warm3, cold3);
  EXPECT_EQ(cache.stats().misses, 4u);

  // A different builder configuration never reuses another's partition.
  PoolBuilderConfig other = DefaultConfig(PoolStrategy::kNetworkAndProfile);
  other.alpha = 5;
  auto other_builder = PoolBuilder::Create(other).value();
  auto cold4 = other_builder
                   .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                      reordered)
                   .value();
  auto warm4 = other_builder
                   .BuildForStrangers(fx.graph, fx.profiles, fx.owner,
                                      reordered, &cache)
                   .value();
  ExpectSamePoolSet(warm4, cold4);
  EXPECT_EQ(cache.stats().misses, 5u);
}

// strangers[positions[i]] == members[i] for every member of every pool.
void ExpectPositionsIndexStrangers(const PoolSet& pools) {
  for (size_t p = 0; p < pools.pools.size(); ++p) {
    const StrangerPool& pool = pools.pools[p];
    ASSERT_EQ(pool.positions.size(), pool.members.size()) << "pool " << p;
    for (size_t i = 0; i < pool.members.size(); ++i) {
      ASSERT_LT(pool.positions[i], pools.strangers.size());
      EXPECT_EQ(pools.strangers[pool.positions[i]], pool.members[i])
          << "pool " << p << " member " << i;
    }
  }
}

TEST(PoolBuilderTest, PositionsIndexTheStrangerList) {
  for (PoolStrategy strategy :
       {PoolStrategy::kNetworkAndProfile, PoolStrategy::kNetworkOnly}) {
    Fixture fx;
    auto builder = PoolBuilder::Create(DefaultConfig(strategy)).value();
    PoolPartitionCache cache;
    auto build = [&](const std::vector<UserId>& strangers) {
      return builder
          .BuildForStrangers(fx.graph, fx.profiles, fx.owner, strangers,
                             &cache)
          .value();
    };
    // Cold build.
    ExpectPositionsIndexStrangers(build({7, 5, 9}));
    EXPECT_EQ(cache.stats().misses, 1u);
    // Identical reuse.
    ExpectPositionsIndexStrangers(build({7, 5, 9}));
    EXPECT_EQ(cache.stats().hits_identical, 1u);
    // Grown reuse: the suffix's indices continue after the prefix.
    ExpectPositionsIndexStrangers(build({7, 5, 9, 10, 6, 8}));
    EXPECT_EQ(cache.stats().hits_grown, 1u);
    // Broken prefix: a cold rebuild re-indexes everything.
    ExpectPositionsIndexStrangers(build({8, 6, 10, 9, 5, 7}));
    EXPECT_EQ(cache.stats().misses, 2u);
    // And the stand-alone build (no carried partition).
    ExpectPositionsIndexStrangers(
        builder.Build(fx.graph, fx.profiles, fx.owner).value());
  }
}

TEST(PoolBuilderTest, BuildForStrangersHonorsSubset) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools =
      builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, {5, 7})
          .value();
  EXPECT_EQ(pools.TotalStrangers(), 2u);
  size_t members = 0;
  for (const StrangerPool& pool : pools.pools) members += pool.members.size();
  EXPECT_EQ(members, 2u);
}

}  // namespace
}  // namespace sight
