// Tests for the mini MapReduce extension (pregel/mapreduce.h).
#include "pregel/mapreduce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

namespace ppa {
namespace {

// Definitional reference for the engine's contract (the paper's "sorted by
// key" group-by): run map_fn on each source in source order, route every
// pair to destination MrKeyHash % W, stable-sort each destination by key
// (equal keys keep (source, emit) order) and reduce each group. RunMapReduce
// must match it partition for partition, bit for bit.
template <typename In, typename K, typename V, typename Out, typename MapFn,
          typename ReduceFn>
Partitioned<Out> ReferenceMapReduce(const Partitioned<In>& input,
                                    MapFn map_fn, ReduceFn reduce_fn) {
  using Pairs = std::vector<std::pair<K, V>>;
  struct Router {
    std::vector<Pairs>* routed;
    void Emit(K key, V value) {
      const size_t d = MrKeyHash<K>{}(key) % routed->size();
      (*routed)[d].emplace_back(std::move(key), std::move(value));
    }
  };
  std::vector<Pairs> routed(input.size());
  Router router{&routed};
  for (const auto& part : input) {
    for (const In& record : part) map_fn(record, router);
  }
  Partitioned<Out> output(input.size());
  for (size_t d = 0; d < routed.size(); ++d) {
    Pairs& pairs = routed[d];
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<V> group;
    for (size_t i = 0, j = 0; i < pairs.size(); i = j) {
      group.clear();
      for (; j < pairs.size() && pairs[j].first == pairs[i].first; ++j) {
        group.push_back(std::move(pairs[j].second));
      }
      reduce_fn(pairs[i].first, std::span<V>(group), output[d]);
    }
  }
  return output;
}

TEST(MapReduceTest, WordCountStyle) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back(i % 37);
  auto input = Scatter(data, 8);

  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  MapReduceConfig config;
  config.num_workers = 8;
  config.num_threads = 2;
  RunStats stats;
  auto result = RunMapReduce<uint64_t, uint64_t, uint32_t,
                             std::pair<uint64_t, uint32_t>>(
      input, map_fn, reduce_fn, config, &stats);

  std::map<uint64_t, uint32_t> merged;
  for (const auto& part : result) {
    for (const auto& [k, v] : part) merged[k] = v;
  }
  ASSERT_EQ(merged.size(), 37u);
  for (uint64_t k = 0; k < 37; ++k) {
    uint32_t expected = 1000 / 37 + (k < 1000 % 37 ? 1 : 0);
    EXPECT_EQ(merged[k], expected) << k;
  }
  // Stats: 1000 shuffled pairs over two recorded phases.
  EXPECT_EQ(stats.num_supersteps(), 2u);
  EXPECT_EQ(stats.total_messages(), 1000u);
}

TEST(MapReduceTest, OutputLandsOnKeyPartition) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 256; ++i) data.push_back(i);
  auto input = Scatter(data, 4);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x * 7, x);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(key); };
  MapReduceConfig config;
  config.num_workers = 4;
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  for (uint32_t p = 0; p < 4; ++p) {
    for (uint64_t key : result[p]) {
      EXPECT_EQ(Mix64(key) % 4, p);
    }
  }
}

TEST(MapReduceTest, GroupsAreSortedAndComplete) {
  // Keys interleaved across input partitions; every value must reach the
  // single group of its key.
  std::vector<std::pair<uint64_t, uint64_t>> data;
  for (uint64_t i = 0; i < 300; ++i) data.push_back({i % 3, i});
  auto input = Scatter(data, 5);
  auto map_fn = [](const std::pair<uint64_t, uint64_t>& kv, auto& emitter) {
    emitter.Emit(kv.first, kv.second);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t> values,
                      std::vector<std::pair<uint64_t, size_t>>& out) {
    out.emplace_back(key, values.size());
  };
  MapReduceConfig config;
  config.num_workers = 5;
  auto result =
      RunMapReduce<std::pair<uint64_t, uint64_t>, uint64_t, uint64_t,
                   std::pair<uint64_t, size_t>>(input, map_fn, reduce_fn,
                                                config);
  auto flat = Flatten(result);
  ASSERT_EQ(flat.size(), 3u);
  for (const auto& [key, count] : flat) EXPECT_EQ(count, 100u) << key;
}

TEST(MapReduceTest, PairKeysWork) {
  using Key = std::pair<uint64_t, uint64_t>;
  std::vector<uint64_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto input = Scatter(data, 3);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(Key{x % 2, x % 3}, x);
  };
  auto reduce_fn = [](const Key& key, std::span<uint64_t> values,
                      std::vector<std::pair<Key, uint64_t>>& out) {
    uint64_t sum = 0;
    for (uint64_t v : values) sum += v;
    out.emplace_back(key, sum);
  };
  MapReduceConfig config;
  config.num_workers = 3;
  auto flat = Flatten(RunMapReduce<uint64_t, Key, uint64_t,
                                   std::pair<Key, uint64_t>>(
      input, map_fn, reduce_fn, config));
  uint64_t total = 0;
  for (const auto& [key, sum] : flat) total += sum;
  EXPECT_EQ(total, 36u);
  EXPECT_EQ(flat.size(), 6u);  // (0|1) x (0|1|2)
}

TEST(MapReduceTest, EmptyInput) {
  Partitioned<uint64_t> input(4);
  auto map_fn = [](const uint64_t& x, auto& emitter) { emitter.Emit(x, x); };
  auto reduce_fn = [](const uint64_t&, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(1); };
  MapReduceConfig config;
  config.num_workers = 4;
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  EXPECT_TRUE(Flatten(result).empty());
}

// Word count under several thread counts: outputs must equal the reference
// partition by partition (the engine's determinism and ordering contract),
// not merely as multisets.
TEST(MapReduceTest, MatchesReferenceAtAnyThreadCount) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back((i * 2654435761u) % 911);
  auto input = Scatter(data, 8);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  const auto reference =
      ReferenceMapReduce<uint64_t, uint64_t, uint32_t,
                         std::pair<uint64_t, uint32_t>>(input, map_fn,
                                                        reduce_fn);
  for (unsigned threads : {1u, 2u, 8u}) {
    MapReduceConfig config;
    config.num_workers = 8;
    config.num_threads = threads;
    EXPECT_EQ((RunMapReduce<uint64_t, uint64_t, uint32_t,
                            std::pair<uint64_t, uint32_t>>(
                  input, map_fn, reduce_fn, config)),
              reference)
        << "threads=" << threads;
  }
}

// Each group's values arrive in (source, emit) order and reduce runs in
// ascending key order.
TEST(MapReduceTest, GroupValuesArriveInSourceEmitOrder) {
  // Source s emits (key, s * 100 + j) for its j-th emission of each key.
  Partitioned<uint64_t> input(4);
  for (uint64_t s = 0; s < 4; ++s) {
    for (uint64_t j = 0; j < 3; ++j) input[s].push_back(s * 100 + j);
  }
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(uint64_t{7}, x);  // single group
    emitter.Emit(uint64_t{3}, x);  // second group, smaller key
  };
  std::vector<std::vector<uint64_t>> groups_seen;
  auto reduce_fn = [&groups_seen](const uint64_t& key,
                                  std::span<uint64_t> values,
                                  std::vector<uint64_t>& out) {
    groups_seen.emplace_back(values.begin(), values.end());
    out.push_back(key);
  };
  MapReduceConfig config;
  config.num_workers = 4;
  config.num_threads = 1;  // shared groups_seen
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  const std::vector<uint64_t> expected = {0,   1,   2,   100, 101, 102,
                                          200, 201, 202, 300, 301, 302};
  // Both keys hash to some destination; each group saw source-major,
  // emit-ordered values.
  ASSERT_EQ(groups_seen.size(), 2u);
  EXPECT_EQ(groups_seen[0], expected);
  EXPECT_EQ(groups_seen[1], expected);
  // Ascending key order within each destination.
  auto flat = Flatten(result);
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, (std::vector<uint64_t>{3, 7}));
}

// The map-side combiner pre-aggregates per source: results are unchanged,
// and the recorded shuffle volume drops to one pair per (source, key).
TEST(MapReduceTest, CombinerReducesShuffleVolume) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back(i % 37);
  auto input = Scatter(data, 8);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto combine_fn = [](uint32_t& acc, uint32_t&& v) { acc += v; };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  MapReduceConfig config;
  config.num_workers = 8;
  config.num_threads = 2;
  RunStats stats;
  auto result = RunMapReduce<uint64_t, uint64_t, uint32_t,
                             std::pair<uint64_t, uint32_t>>(
      input, map_fn, combine_fn, reduce_fn, config, &stats);

  std::map<uint64_t, uint32_t> merged;
  for (const auto& part : result) {
    for (const auto& [k, v] : part) merged[k] = v;
  }
  ASSERT_EQ(merged.size(), 37u);
  for (uint64_t k = 0; k < 37; ++k) {
    EXPECT_EQ(merged[k], 1000 / 37 + (k < 1000 % 37 ? 1 : 0)) << k;
  }
  // 1000 emissions collapse to at most 8 sources x 37 keys pairs.
  EXPECT_EQ(stats.pairs_emitted, 1000u);
  EXPECT_LE(stats.pairs_shuffled, 8u * 37u);
  EXPECT_GT(stats.pairs_shuffled, 0u);
  // The recorded message volume is the post-combine one.
  EXPECT_EQ(stats.supersteps[0].messages_sent, stats.pairs_shuffled);
}

// Without a combiner the two volumes are equal (nothing combined away).
TEST(MapReduceTest, NoCombinerShufflesEveryEmission) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 300; ++i) data.push_back(i % 5);
  auto input = Scatter(data, 4);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, x);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(key); };
  MapReduceConfig config;
  config.num_workers = 4;
  RunStats stats;
  RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(input, map_fn,
                                                       reduce_fn, config,
                                                       &stats);
  EXPECT_EQ(stats.pairs_emitted, 300u);
  EXPECT_EQ(stats.pairs_shuffled, 300u);
}

// More pairs than one chunk holds, forcing sealed-chunk handoff, under
// composite (pair) keys.
TEST(MapReduceTest, MultiChunkPairKeysMatchReference) {
  using Key = std::pair<uint64_t, uint64_t>;
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 20000; ++i) data.push_back(i);
  auto input = Scatter(data, 3);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(Key{x % 17, x % 13}, x);
  };
  auto reduce_fn = [](const Key& key, std::span<uint64_t> values,
                      std::vector<std::pair<Key, uint64_t>>& out) {
    uint64_t sum = 0;
    for (uint64_t v : values) sum += v;
    out.emplace_back(key, sum);
  };
  MapReduceConfig config;
  config.num_workers = 3;
  config.num_threads = 2;
  const auto hashed =
      RunMapReduce<uint64_t, Key, uint64_t, std::pair<Key, uint64_t>>(
          input, map_fn, reduce_fn, config);
  EXPECT_EQ(hashed,
            (ReferenceMapReduce<uint64_t, Key, uint64_t,
                                std::pair<Key, uint64_t>>(input, map_fn,
                                                          reduce_fn)));
  EXPECT_EQ(Flatten(hashed).size(), 17u * 13u);
}

// Sixteen destinations (the pipeline's default), where every key reaching
// one destination shares MrKeyHash % 16, i.e. its low hash bits. 3000
// distinct keys per destination, each emitted twice by the same source.
// Without a combiner the order-sensitive reduce must equal the reference;
// with a summing combiner each source's combiner index grows from 64 slots
// through seven rehashes, and the sums must still equal the reference's.
TEST(MapReduceTest, ManyKeysPerDestinationMatchReference) {
  constexpr uint32_t kWorkers = 16;
  constexpr uint64_t kKeys = 48000;
  std::vector<uint64_t> data;  // (key << 8) | value
  for (uint64_t i = 0; i < 2 * kKeys; ++i) {
    const uint64_t key = (i % kKeys) * 0x9E3779B97F4A7C15ull;
    data.push_back(key << 8 | ((key * 31 + i / kKeys) & 0xFF));
  }
  auto input = Scatter(data, kWorkers);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x >> 8, x & 0xFF);
  };
  using Out = std::pair<uint64_t, uint64_t>;
  auto fold_fn = [](const uint64_t& key, std::span<uint64_t> values,
                    std::vector<Out>& out) {
    uint64_t folded = 0;
    for (uint64_t v : values) folded = folded * 257 + v + 1;
    out.emplace_back(key, folded);
  };
  auto sum_fn = [](const uint64_t& key, std::span<uint64_t> values,
                   std::vector<Out>& out) {
    uint64_t sum = 0;
    for (uint64_t v : values) sum += v;
    out.emplace_back(key, sum);
  };
  auto combine_fn = [](uint64_t& acc, uint64_t&& v) { acc += v; };

  MapReduceConfig config;
  config.num_workers = kWorkers;
  config.num_threads = 2;
  RunStats stats;
  const auto folded = RunMapReduce<uint64_t, uint64_t, uint64_t, Out>(
      input, map_fn, fold_fn, config, &stats);
  EXPECT_EQ(folded, (ReferenceMapReduce<uint64_t, uint64_t, uint64_t, Out>(
                        input, map_fn, fold_fn)));
  EXPECT_EQ(Flatten(folded).size(), kKeys);
  EXPECT_EQ(stats.pairs_shuffled, 2 * kKeys);

  RunStats combined_stats;
  EXPECT_EQ((RunMapReduce<uint64_t, uint64_t, uint64_t, Out>(
                input, map_fn, combine_fn, sum_fn, config, &combined_stats)),
            (ReferenceMapReduce<uint64_t, uint64_t, uint64_t, Out>(
                input, map_fn, sum_fn)));
  EXPECT_EQ(combined_stats.pairs_shuffled, kKeys);
}

// One destination's keys (MrKeyHash % 16 all equal) through a KeyIndex that
// starts at 64 slots and rehashes seven times: ids stay dense and
// insertion-ordered, and every key finds its id again afterwards.
TEST(KeyIndexTest, OneDestinationsKeysSurviveRehashes) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 3000; ++k) {
    if (MrKeyHash<uint64_t>{}(k) % 16 == 0) keys.push_back(k);
  }
  mr_internal::KeyIndex<uint64_t> index;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.FindOrAdd(keys[i]), i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.FindOrAdd(keys[i]), i);
  }
  EXPECT_EQ(index.size(), keys.size());
  EXPECT_EQ(index.keys(), keys);
}

TEST(ScatterTest, RoundRobinPreservesAll) {
  std::vector<int> data(103);
  for (int i = 0; i < 103; ++i) data[i] = i;
  auto parts = Scatter(data, 7);
  EXPECT_EQ(parts.size(), 7u);
  auto flat = Flatten(parts);
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, data);
}

}  // namespace
}  // namespace ppa
