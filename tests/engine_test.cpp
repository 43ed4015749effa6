// Tests for the Pregel engine: supersteps, vote-to-halt/reactivation,
// aggregators, combiners, graph mutation and statistics; the message-path
// contract (per-receiver order, dropped messages, mid-job additions) at one
// and four threads; and the partitioned graph's id index.
#include "pregel/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "dbg/ids.h"
#include "pregel/convert.h"
#include "pregel/graph.h"

namespace ppa {
namespace {

// Propagates the maximum vertex id through the graph (classic Pregel demo).
struct MaxVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<uint64_t> nbrs;
  uint64_t value = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    uint64_t best = (ctx.superstep() == 0) ? id : value;
    for (uint64_t m : msgs) best = std::max(best, m);
    if (best > value || ctx.superstep() == 0) {
      value = best;
      for (uint64_t n : nbrs) ctx.SendTo(n, value);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, MaxValuePropagation) {
  PartitionedGraph<MaxVertex> graph(4);
  // A path 1-2-3-4-5 plus isolated vertex 9.
  for (uint64_t id : {1, 2, 3, 4, 5, 9}) {
    MaxVertex v;
    v.id = id;
    if (id >= 2 && id <= 5) v.nbrs.push_back(id - 1);
    if (id >= 1 && id <= 4) v.nbrs.push_back(id + 1);
    graph.Add(std::move(v));
  }
  Engine<MaxVertex> engine({.num_threads = 2, .job_name = "max"});
  RunStats stats = engine.Run(graph);
  for (uint64_t id : {1, 2, 3, 4, 5}) {
    EXPECT_EQ(graph.Find(id)->value, 5u) << id;
  }
  EXPECT_EQ(graph.Find(9)->value, 9u);
  EXPECT_GT(stats.num_supersteps(), 3u);  // Path diameter forces rounds.
  EXPECT_GT(stats.total_messages(), 0u);
}

// Counts active vertices via an aggregator and reads it back next step.
struct AggVertex {
  using Message = uint8_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t seen_at_step1 = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint8_t>) {
    if (ctx.superstep() == 0) {
      ctx.Aggregate(0, 1);
      ctx.Aggregate(1, id);
      return;  // Stay active for one more superstep.
    }
    if (ctx.superstep() == 1) {
      seen_at_step1 = ctx.PrevAggregate(0) * 1000 + ctx.PrevAggregate(1);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, AggregatorSumsAcrossWorkers) {
  PartitionedGraph<AggVertex> graph(4);
  for (uint64_t id : {10, 20, 30}) {
    AggVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  Engine<AggVertex> engine({.num_threads = 2, .job_name = "agg"});
  engine.Run(graph);
  // Each vertex saw count=3 and sum=60 from the previous superstep.
  for (uint64_t id : {10, 20, 30}) {
    EXPECT_EQ(graph.Find(id)->seen_at_step1, 3u * 1000 + 60u);
  }
}

// Message combiner: sums messages to the same destination at the sender.
struct CombVertex {
  using Message = uint64_t;
  struct Combiner {
    static void Combine(uint64_t& into, const uint64_t& msg) { into += msg; }
  };
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t received = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    if (ctx.superstep() == 0) {
      if (id != 0) {
        // Everyone sends 3 messages to vertex 0.
        for (int i = 0; i < 3; ++i) ctx.SendTo(0, id);
      }
      ctx.VoteToHalt();
      return;
    }
    for (uint64_t m : msgs) received += m;
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, CombinerReducesMessageCount) {
  PartitionedGraph<CombVertex> graph(2);
  for (uint64_t id : {0, 1, 2, 3, 4}) {
    CombVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  Engine<CombVertex> engine({.num_threads = 1, .job_name = "combine"});
  RunStats stats = engine.Run(graph);
  // Sum preserved: 3*(1+2+3+4) = 30.
  EXPECT_EQ(graph.Find(0)->received, 30u);
  // Without combining: 12 messages; with sender-side combining, at most one
  // per (source partition, destination vertex): <= 2.
  EXPECT_LE(stats.supersteps[0].messages_sent, 2u);
}

// Mutation: vertex 1 spawns vertex 100 and removes itself; messages to the
// removed vertex are dropped.
struct MutVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t got = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    for (uint64_t m : msgs) got += m;
    if (ctx.superstep() == 0 && id == 1) {
      MutVertex spawned;
      spawned.id = 100;
      ctx.AddVertex(spawned);
      ctx.RemoveSelf();
      return;
    }
    if (ctx.superstep() == 0 && id == 2) {
      return;  // Stay active to send in superstep 1.
    }
    if (ctx.superstep() == 1 && id == 2) {
      ctx.SendTo(1, 7);    // Dropped: vertex 1 is removed.
      ctx.SendTo(100, 9);  // Delivered to the new vertex.
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, MutationAndDroppedMessages) {
  for (unsigned threads : {1u, 4u}) {
    PartitionedGraph<MutVertex> graph(16);
    for (uint64_t id : {1, 2}) {
      MutVertex v;
      v.id = id;
      graph.Add(std::move(v));
    }
    Engine<MutVertex> engine({.num_threads = threads, .job_name = "mutate"});
    engine.Run(graph);
    EXPECT_EQ(graph.Find(1), nullptr) << "threads=" << threads;
    ASSERT_NE(graph.Find(100), nullptr) << "threads=" << threads;
    EXPECT_EQ(graph.Find(100)->got, 9u) << "threads=" << threads;
  }
}

// The message-path contract, checked at one and four threads over 16
// logical workers (the benchmarks' configuration).
constexpr uint32_t kContractWorkers = 16;
constexpr unsigned kContractThreads[] = {1, 4};

// Superstep 0: every sender sends kPerSender tagged messages to each of
// three receivers. Receivers record what they got, in delivery order.
struct OrderVertex {
  static constexpr uint64_t kReceivers[] = {1ull << 40, (1ull << 40) + 1,
                                            (1ull << 40) + 2};
  static constexpr uint64_t kPerSender = 3;
  using Message = uint64_t;  // sender id * 16 + sequence number
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<uint64_t> got;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    got.insert(got.end(), msgs.begin(), msgs.end());
    if (ctx.superstep() == 0 && id < kReceivers[0]) {
      for (uint64_t seq = 0; seq < kPerSender; ++seq) {
        for (uint64_t r : kReceivers) ctx.SendTo(r, id * 16 + seq);
      }
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineContractTest, ReceiverSeesSourcePartitionThenSendOrder) {
  for (unsigned threads : kContractThreads) {
    PartitionedGraph<OrderVertex> graph(kContractWorkers);
    for (uint64_t id = 0; id < 500; ++id) {
      OrderVertex v;
      v.id = id * 7919;  // scattered over the partitions
      graph.Add(std::move(v));
    }
    for (uint64_t r : OrderVertex::kReceivers) {
      OrderVertex v;
      v.id = r;
      graph.Add(std::move(v));
    }
    // Expected: source partitions ascending; within one, its vertices in
    // compute (slot) order; per sender, sequence numbers ascending.
    std::vector<uint64_t> expected;
    for (uint32_t p = 0; p < kContractWorkers; ++p) {
      for (const OrderVertex& v : graph.partition(p).vertices) {
        if (v.id >= OrderVertex::kReceivers[0]) continue;
        for (uint64_t seq = 0; seq < OrderVertex::kPerSender; ++seq) {
          expected.push_back(v.id * 16 + seq);
        }
      }
    }
    Engine<OrderVertex> engine({.num_threads = threads, .job_name = "order"});
    RunStats stats = engine.Run(graph);
    EXPECT_EQ(stats.supersteps[0].messages_sent,
              500 * OrderVertex::kPerSender * 3);
    for (uint64_t r : OrderVertex::kReceivers) {
      EXPECT_EQ(graph.Find(r)->got, expected)
          << "threads=" << threads << " receiver=" << r;
    }
  }
}

// Superstep 0: vertex 1 removes itself while vertex 4 sends to it.
// Superstep 1: vertex 2 sends to removed vertex 1, to an id that never
// existed, and to live vertex 3.
struct DropVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t received = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    received += msgs.size();
    if (ctx.superstep() == 0 && id == 1) {
      ctx.RemoveSelf();
      return;
    }
    if (ctx.superstep() == 0 && id == 4) ctx.SendTo(1, 1);
    if (ctx.superstep() == 0 && id == 2) return;  // active into superstep 1
    if (ctx.superstep() == 1 && id == 2) {
      ctx.SendTo(1, 1);
      ctx.SendTo(123456789, 1);
      ctx.SendTo(3, 1);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineContractTest, DroppedMessagesStillCountAsSent) {
  for (unsigned threads : kContractThreads) {
    PartitionedGraph<DropVertex> graph(kContractWorkers);
    for (uint64_t id : {1, 2, 3, 4}) {
      DropVertex v;
      v.id = id;
      graph.Add(std::move(v));
    }
    Engine<DropVertex> engine({.num_threads = threads, .job_name = "drop"});
    RunStats stats = engine.Run(graph);
    ASSERT_GE(stats.num_supersteps(), 2u) << "threads=" << threads;
    EXPECT_EQ(stats.supersteps[0].messages_sent, 1u);
    EXPECT_EQ(stats.supersteps[1].messages_sent, 3u);
    EXPECT_EQ(stats.total_messages(), 4u);
    EXPECT_EQ(graph.Find(1), nullptr);
    EXPECT_EQ(graph.Find(3)->received, 1u) << "threads=" << threads;
  }
}

// Vertex 2 adds vertex 100 in superstep 1 and messages it in supersteps 1,
// 2 and 3; vertex 100 logs (superstep, message) pairs.
struct SpawnVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<std::pair<uint32_t, uint64_t>> log;
  uint32_t first_compute = UINT32_MAX;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    const uint32_t step = ctx.superstep();
    first_compute = std::min(first_compute, step);
    for (uint64_t m : msgs) log.emplace_back(step, m);
    if (id == 2 && step >= 1 && step <= 3) {
      if (step == 1) {
        SpawnVertex spawned;
        spawned.id = 100;
        ctx.AddVertex(std::move(spawned));
      }
      ctx.SendTo(100, 10 + step);
    }
    if (id == 2 && step < 3) return;  // active through superstep 3
    ctx.VoteToHalt();
  }
};

TEST(EngineContractTest, AddedVertexReceivesFromNextSuperstepOn) {
  for (unsigned threads : kContractThreads) {
    PartitionedGraph<SpawnVertex> graph(kContractWorkers);
    for (uint64_t id : {2, 3}) {
      SpawnVertex v;
      v.id = id;
      graph.Add(std::move(v));
    }
    Engine<SpawnVertex> engine({.num_threads = threads, .job_name = "add"});
    engine.Run(graph);
    const SpawnVertex* added = graph.Find(100);
    ASSERT_NE(added, nullptr) << "threads=" << threads;
    // Added at the barrier of superstep 1, it first computes in superstep
    // 2, already holding the message sent to it in superstep 1.
    EXPECT_EQ(added->first_compute, 2u) << "threads=" << threads;
    const std::vector<std::pair<uint32_t, uint64_t>> expected = {
        {2, 11}, {3, 12}, {4, 13}};
    EXPECT_EQ(added->log, expected) << "threads=" << threads;
  }
}

// Per-superstep phase timing adds up to the job totals.
TEST(EngineContractTest, PhaseTimesSumToJobTotals) {
  PartitionedGraph<MaxVertex> graph(kContractWorkers);
  for (uint64_t id = 0; id < 256; ++id) {
    MaxVertex v;
    v.id = id;
    v.nbrs.push_back((id + 1) % 256);
    graph.Add(std::move(v));
  }
  Engine<MaxVertex> engine({.num_threads = 4, .job_name = "timing"});
  RunStats stats = engine.Run(graph);
  double compute = 0;
  double deliver = 0;
  for (const SuperstepStats& ss : stats.supersteps) {
    EXPECT_GE(ss.compute_seconds, 0.0);
    EXPECT_GE(ss.deliver_seconds, 0.0);
    compute += ss.compute_seconds;
    deliver += ss.deliver_seconds;
  }
  EXPECT_DOUBLE_EQ(stats.compute_seconds, compute);
  EXPECT_DOUBLE_EQ(stats.deliver_seconds, deliver);
  EXPECT_GT(stats.compute_seconds + stats.deliver_seconds, 0.0);
  EXPECT_LE(stats.compute_seconds + stats.deliver_seconds,
            stats.wall_seconds);
}

TEST(EngineTest, StatsTrackPerWorkerLoads) {
  PartitionedGraph<MaxVertex> graph(4);
  for (uint64_t id = 0; id < 64; ++id) {
    MaxVertex v;
    v.id = id;
    v.nbrs.push_back((id + 1) % 64);
    graph.Add(std::move(v));
  }
  Engine<MaxVertex> engine({.num_threads = 2, .job_name = "stats"});
  RunStats stats = engine.Run(graph);
  ASSERT_FALSE(stats.supersteps.empty());
  const SuperstepStats& first = stats.supersteps[0];
  EXPECT_EQ(first.active_vertices, 64u);
  ASSERT_EQ(first.worker_messages.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t m : first.worker_messages) sum += m;
  EXPECT_EQ(sum, first.messages_sent);
  EXPECT_EQ(first.message_bytes, first.messages_sent * sizeof(uint64_t));
}

// Aggregator sums must be deterministic regardless of how many OS threads
// execute the logical workers: slot totals are summed per worker at the
// barrier, never concurrently mutated.
TEST(EngineTest, AggregatorDeterministicUnderConcurrency) {
  constexpr uint64_t kVertices = 257;  // prime-ish: uneven partitions
  uint64_t expected_id_sum = 0;
  for (uint64_t id = 1; id <= kVertices; ++id) expected_id_sum += id * 3;

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    PartitionedGraph<AggVertex> graph(8);
    for (uint64_t id = 1; id <= kVertices; ++id) {
      AggVertex v;
      v.id = id * 3;
      graph.Add(std::move(v));
    }
    Engine<AggVertex> engine({.num_threads = threads, .job_name = "agg-mt"});
    engine.Run(graph);
    const uint64_t expected = kVertices * 1000 + expected_id_sum;
    for (uint64_t id = 1; id <= kVertices; ++id) {
      ASSERT_EQ(graph.Find(id * 3)->seen_at_step1, expected)
          << "threads=" << threads << " id=" << id * 3;
    }
  }
}

// Combiner correctness with num_threads > 1: message sums are preserved
// exactly, and sender-side combining still bounds the shuffle volume at one
// message per (source partition, destination).
TEST(EngineTest, CombinerCorrectUnderConcurrency) {
  constexpr uint64_t kSenders = 96;
  constexpr uint32_t kWorkers = 8;
  PartitionedGraph<CombVertex> graph(kWorkers);
  for (uint64_t id = 0; id <= kSenders; ++id) {
    CombVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  Engine<CombVertex> engine({.num_threads = 4, .job_name = "combine-mt"});
  RunStats stats = engine.Run(graph);
  // Sum preserved exactly: every sender id in [1, kSenders] sends id thrice.
  EXPECT_EQ(graph.Find(0)->received, 3 * kSenders * (kSenders + 1) / 2);
  // At most one combined message per source partition reaches vertex 0.
  EXPECT_LE(stats.supersteps[0].messages_sent, kWorkers);
}

TEST(GraphIndexTest, FindHidesRemovedVertices) {
  PartitionedGraph<MaxVertex> graph(kContractWorkers);
  for (uint64_t id : {uint64_t{0}, uint64_t{5}, kNullId}) {
    MaxVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  ASSERT_NE(graph.Find(5), nullptr);
  graph.Find(5)->removed = true;
  EXPECT_EQ(graph.Find(5), nullptr);
  EXPECT_NE(graph.Find(0), nullptr);  // id 0 is an ordinary key
  EXPECT_NE(graph.Find(kNullId), nullptr);
  EXPECT_EQ(graph.Find(6), nullptr);
  EXPECT_EQ(graph.live_size(), 2u);
}

TEST(GraphIndexTest, DuplicateIdKeepsFirstVertex) {
  PartitionedGraph<MaxVertex> graph(4);
  for (uint64_t value : {1, 2}) {
    MaxVertex v;
    v.id = 77;
    v.value = value;
    graph.Add(std::move(v));
  }
  ASSERT_NE(graph.Find(77), nullptr);
  EXPECT_EQ(graph.Find(77)->value, 1u);
}

TEST(GraphIndexTest, LookupsSurviveCompact) {
  PartitionedGraph<MaxVertex> graph(kContractWorkers);
  for (uint64_t id = 0; id < 1000; ++id) {
    MaxVertex v;
    v.id = id;
    v.value = id * 3;
    graph.Add(std::move(v));
  }
  for (uint64_t id = 0; id < 1000; id += 2) graph.Find(id)->removed = true;
  graph.Compact();
  EXPECT_EQ(graph.size(), 500u);
  for (uint64_t id = 0; id < 1000; ++id) {
    const MaxVertex* v = graph.Find(id);
    if (id % 2 == 0) {
      EXPECT_EQ(v, nullptr) << id;
    } else {
      ASSERT_NE(v, nullptr) << id;
      EXPECT_EQ(v->value, id * 3);
    }
  }
}

TEST(ConvertTest, ReshufflesByNewIds) {
  PartitionedGraph<MaxVertex> src(4);
  for (uint64_t id = 0; id < 20; ++id) {
    MaxVertex v;
    v.id = id;
    v.value = id * 10;
    src.Add(std::move(v));
  }
  // Each vertex becomes two vertices with remapped ids.
  auto dst = ConvertGraph<AggVertex>(
      std::move(src),
      [](MaxVertex&& v, std::vector<AggVertex>& out) {
        AggVertex a;
        a.id = v.id + 1000;
        out.push_back(a);
        a.id = v.id + 2000;
        out.push_back(a);
      },
      /*num_threads=*/2);
  EXPECT_EQ(dst.size(), 40u);
  for (uint64_t id = 0; id < 20; ++id) {
    EXPECT_NE(dst.Find(id + 1000), nullptr);
    EXPECT_NE(dst.Find(id + 2000), nullptr);
    EXPECT_EQ(src.Find(id), nullptr);  // consumed: index released
  }
  // Vertices landed on their hash partitions.
  for (uint32_t p = 0; p < dst.num_workers(); ++p) {
    for (const AggVertex& v : dst.partition(p).vertices) {
      EXPECT_EQ(PartitionOf(v.id, dst.num_workers()), p);
    }
  }
}

}  // namespace
}  // namespace ppa
