// The content-addressed result cache (service/result_cache.hpp): key
// derivation sensitivity, the strict LRU memory bound, the disk tier's
// persistence across cache instances, and corruption handling (a damaged
// artifact is a miss, never an exception).
#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "crowd/vote.hpp"
#include "service/artifact.hpp"
#include "util/metrics.hpp"

namespace crowdrank::service {
namespace {

namespace fs = std::filesystem;

VoteBatch sample_votes() {
  VoteBatch votes;
  votes.push_back({0, 0, 1, true});
  votes.push_back({1, 1, 2, false});
  votes.push_back({2, 0, 2, true});
  return votes;
}

const HardeningPolicy kPolicy{};

CacheKey key_for(const VoteBatch& votes, std::uint64_t seed = 1) {
  return compute_cache_key(votes, 3, 3, seed, InferenceConfig{},
                           /*repair=*/true, &kPolicy);
}

CachedResult result_with(double log_probability) {
  CachedResult result;
  result.outcome = JobOutcome::Completed;
  result.stage = PipelineStage::Done;
  result.ranking.order = {2, 0, 1};
  result.log_probability = log_probability;
  return result;
}

/// RAII temp dir for disk-tier tests.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("crowdrank_cache_test_" +
            std::to_string(
                reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// -- key derivation ------------------------------------------------------

TEST(CacheKey, IsDeterministic) {
  EXPECT_EQ(key_for(sample_votes()), key_for(sample_votes()));
}

TEST(CacheKey, VoteOrderMatters) {
  // The engine consumes votes in batch order, so a reordered batch is
  // different work — the key must not canonicalize it away.
  VoteBatch reordered = sample_votes();
  std::swap(reordered[0], reordered[2]);
  EXPECT_NE(key_for(sample_votes()), key_for(reordered));
}

TEST(CacheKey, EveryOutputAffectingInputPerturbsTheKey) {
  const VoteBatch votes = sample_votes();
  const CacheKey base = key_for(votes);
  EXPECT_NE(key_for(votes, /*seed=*/2), base);
  EXPECT_NE(compute_cache_key(votes, 4, 3, 1, InferenceConfig{}, true,
                              &kPolicy),
            base);
  EXPECT_NE(compute_cache_key(votes, 3, 4, 1, InferenceConfig{}, true,
                              &kPolicy),
            base);
  EXPECT_NE(compute_cache_key(votes, 3, 3, 1, InferenceConfig{}, false,
                              &kPolicy),
            base);
  InferenceConfig taps;
  taps.search = RankSearchMethod::Taps;
  EXPECT_NE(compute_cache_key(votes, 3, 3, 1, taps, true, &kPolicy),
            base);
  InferenceConfig iterations;
  iterations.saps.iterations += 1;
  EXPECT_NE(compute_cache_key(votes, 3, 3, 1, iterations, true, &kPolicy),
            base);
  HardeningPolicy lenient;
  lenient.drop_conflicting = false;
  EXPECT_NE(compute_cache_key(votes, 3, 3, 1, InferenceConfig{}, true,
                              &lenient),
            base);
}

TEST(CacheKey, KnownAnswers) {
  // Keys name artifacts on disk, so their values are a format: a faster
  // hasher or serializer must reproduce these exactly. Batches of 0, 1, 3
  // and 1,485 votes cover every tail length of a 16-byte block, and ids
  // use all eight bytes.
  const auto batch = [](std::size_t size) {
    VoteBatch votes;
    for (std::uint64_t k = 0; k < size; ++k) {
      votes.push_back({k % 7 == 0 ? ~k : k * 0x9E3779B97F4A7C15ULL % 31,
                       k % 100, (k * 37 + 1) % 100, k % 3 != 0});
    }
    return votes;
  };
  HardeningPolicy lenient;
  lenient.drop_conflicting = false;
  lenient.restrict_to_largest_component = false;
  struct Pin {
    std::size_t votes;
    bool repair;
    const HardeningPolicy* policy;
    const char* key;
  };
  const Pin pins[] = {
      {0, false, nullptr, "ff3b9571c0c2b67f45268c3e5d2d256e"},
      {1, false, nullptr, "99b6f74b4bdf390b140f81d9caf01fd9"},
      {3, false, nullptr, "138fc3ea3a4849182a5934cb301d518e"},
      {1485, false, nullptr, "79736d42119a053b7cc19cad1432765c"},
      {0, true, &kPolicy, "346273fe5dadc44c0be1abe9050b5344"},
      {1, true, &kPolicy, "075ea94a85b0074f999c5e0a131f7a51"},
      {3, true, &kPolicy, "4e6bb44b8d762a580abc3071f3d72d58"},
      {1485, true, &kPolicy, "b6eb8e8e84bdd9b7025cc2e12b418a72"},
      {1485, true, &lenient, "c56d21bf514276f43f5591e7d2306885"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(compute_cache_key(batch(pin.votes), 100, 31, 7,
                                InferenceConfig{}, pin.repair, pin.policy)
                  .hex(),
              pin.key)
        << pin.votes << " votes, repair " << pin.repair;
  }
}

TEST(CacheKey, StrictPathIgnoresTheHardeningPolicy) {
  // Hardening never runs when repair is false, so the policy is not
  // content there: any policy — or none at all, which is all RankParams
  // requires of strict-path callers — derives the same key.
  const VoteBatch votes = sample_votes();
  const CacheKey strict = compute_cache_key(
      votes, 3, 3, 1, InferenceConfig{}, /*repair=*/false, nullptr);
  HardeningPolicy lenient;
  lenient.drop_conflicting = false;
  EXPECT_EQ(compute_cache_key(votes, 3, 3, 1, InferenceConfig{}, false,
                              &lenient),
            strict);
  EXPECT_EQ(compute_cache_key(votes, 3, 3, 1, InferenceConfig{}, false,
                              &kPolicy),
            strict);
}

TEST(CacheKey, ObserveOnlyKnobsDoNotPerturbTheKey) {
  // Observability hooks are not content.
  const VoteBatch votes = sample_votes();
  InferenceConfig checked;
  checked.check_invariants = true;
  EXPECT_EQ(compute_cache_key(votes, 3, 3, 1, checked, true, &kPolicy),
            key_for(votes));
}

// -- memory tier ---------------------------------------------------------

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  const CacheKey key = key_for(sample_votes());
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, result_with(-1.5));
  const std::optional<CachedResult> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, result_with(-1.5));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCache, InsertOverwritesExistingKey) {
  ResultCache cache;
  const CacheKey key = key_for(sample_votes());
  cache.insert(key, result_with(-1.0));
  cache.insert(key, result_with(-2.0));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->log_probability, -2.0);
}

TEST(ResultCache, CapacityIsAStrictBound) {
  ResultCacheConfig config;
  config.capacity = 3;
  ResultCache cache(config);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    cache.insert(key_for(sample_votes(), seed), result_with(-1.0));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(ResultCache, EvictionIsLeastRecentlyUsed) {
  ResultCacheConfig config;
  config.capacity = 2;
  ResultCache cache(config);
  const CacheKey a = key_for(sample_votes(), 1);
  const CacheKey b = key_for(sample_votes(), 2);
  const CacheKey c = key_for(sample_votes(), 3);
  cache.insert(a, result_with(-1.0));
  cache.insert(b, result_with(-2.0));
  // Touch a so b becomes the LRU entry; inserting c must evict b.
  EXPECT_TRUE(cache.lookup(a).has_value());
  cache.insert(c, result_with(-3.0));
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST(ResultCache, MetricsLandOnTheConfiguredRegistry) {
  metrics::Registry registry;
  ResultCacheConfig config;
  config.capacity = 1;
  config.metrics = &registry;
  ResultCache cache(config);
  const CacheKey a = key_for(sample_votes(), 1);
  const CacheKey b = key_for(sample_votes(), 2);
  cache.lookup(a);                      // miss
  cache.insert(a, result_with(-1.0));   // insert
  cache.lookup(a);                      // hit
  cache.insert(b, result_with(-2.0));   // insert + eviction
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [counter_name, value] : registry.counters()) {
      if (counter_name == name) return value;
    }
    return 0;
  };
  EXPECT_EQ(counter("service.cache.miss"), 1u);
  EXPECT_EQ(counter("service.cache.hit"), 1u);
  EXPECT_EQ(counter("service.cache.insert"), 2u);
  EXPECT_EQ(counter("service.cache.eviction"), 1u);
}

// -- disk tier -----------------------------------------------------------

TEST(ResultCacheDisk, PersistsAcrossCacheInstances) {
  const TempDir dir;
  const CacheKey key = key_for(sample_votes());
  {
    ResultCacheConfig config;
    config.disk_dir = dir.str();
    ResultCache writer(config);
    writer.insert(key, result_with(-4.0));
    EXPECT_EQ(writer.stats().disk_writes, 1u);
  }
  // A fresh cache (fresh process, conceptually) finds the artifact.
  ResultCacheConfig config;
  config.disk_dir = dir.str();
  ResultCache reader(config);
  const std::optional<CachedResult> hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, result_with(-4.0));
  const CacheStats stats = reader.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  // The disk hit was promoted: the next lookup is a memory hit.
  reader.lookup(key);
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(ResultCacheDisk, ArtifactPathIsKeyHex) {
  const TempDir dir;
  const CacheKey key = key_for(sample_votes());
  ResultCacheConfig config;
  config.disk_dir = dir.str();
  ResultCache cache(config);
  cache.insert(key, result_with(-1.0));
  const std::string path = ResultCache::artifact_path(dir.str(), key);
  EXPECT_TRUE(fs::exists(path)) << path;
  EXPECT_NE(path.find(key.hex() + ".crart"), std::string::npos);
  // And it is a well-formed RankedResult artifact.
  const auto bytes = artifact::read_file(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(artifact::decode_result(*bytes.value).ok());
}

TEST(ResultCacheDisk, CorruptedArtifactIsAMissNotAnError) {
  const TempDir dir;
  const CacheKey key = key_for(sample_votes());
  {
    ResultCacheConfig config;
    config.disk_dir = dir.str();
    ResultCache writer(config);
    writer.insert(key, result_with(-4.0));
  }
  // Flip one byte in the stored artifact.
  const std::string path = ResultCache::artifact_path(dir.str(), key);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(30);
    const char byte = static_cast<char>(file.get() ^ 0x01);
    file.seekp(30);
    file.put(byte);
  }
  ResultCacheConfig config;
  config.disk_dir = dir.str();
  ResultCache reader(config);
  EXPECT_FALSE(reader.lookup(key).has_value());
  const CacheStats stats = reader.stats();
  EXPECT_EQ(stats.disk_errors, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheDisk, EvictionNeverDeletesArtifacts) {
  const TempDir dir;
  ResultCacheConfig config;
  config.capacity = 1;
  config.disk_dir = dir.str();
  ResultCache cache(config);
  const CacheKey a = key_for(sample_votes(), 1);
  const CacheKey b = key_for(sample_votes(), 2);
  cache.insert(a, result_with(-1.0));
  cache.insert(b, result_with(-2.0));  // evicts a from memory
  EXPECT_EQ(cache.size(), 1u);
  // a still lives on disk and can be served (as a disk hit).
  EXPECT_TRUE(fs::exists(ResultCache::artifact_path(dir.str(), a)));
  ASSERT_TRUE(cache.lookup(a).has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

}  // namespace
}  // namespace crowdrank::service
