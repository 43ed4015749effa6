// The Pregel execution engine (in-process Pregel+ stand-in).
//
// Executes a vertex program in supersteps over a PartitionedGraph:
//   * each active vertex v gets Compute(ctx, msgs) called with the messages
//     sent to it in the previous superstep;
//   * Compute may send messages, vote to halt, aggregate values, remove the
//     vertex, or add vertices (mutations apply at the superstep barrier);
//   * a halted vertex is reactivated by an incoming message;
//   * the job terminates when every vertex is halted and no message is in
//     flight (or max_supersteps is hit).
//
// The `num_workers` logical workers of the graph are the distribution unit
// the paper scales (16..64); they are multiplexed onto up to `num_threads`
// OS threads. A superstep is two fork/join phases over the partitions:
//
//   Compute — partition p runs its compute list (vertices still active or
//   holding messages) and stages every SendTo in its Context's outbox for
//   the destination partition, outbox_[d], in send order. Outboxes and the
//   combiner table are cleared, never freed, so after the first supersteps
//   a job allocates nothing per message.
//
//   Deliver — partition d rebuilds its CSR inbox (one message array plus a
//   {begin, count} window per vertex) from outbox_[d] of every source:
//     1. resolve each message's destination slot through the partition's
//        FlatIndex and count per receiver (unknown or removed ids resolve
//        to a drop marker; they were still counted as sent);
//     2. prefix-sum the windows of the receivers only — they are exactly
//        the vertices scheduled for the next compute list;
//     3. scatter the messages into the array.
//   Sources are visited in partition order, so a receiver sees its messages
//   in (source partition, send order). No step walks all n vertices: a
//   superstep costs O(computed vertices + delivered messages), which keeps
//   quiescent regions free — essential for jobs with a small active
//   frontier (e.g. the baselines' sequential propagation).
//
// Threads never write to memory another partition's task writes in the same
// phase: each partition's scheduling state and its Context are separate
// alignas(64) objects, and hot counters (active vertices, ops) live in
// locals until the task ends, so neighbouring partitions run on different
// cores without false sharing. SuperstepStats records the wall time of both
// phases (compute_seconds, deliver_seconds).
//
// VertexT contract:
//   struct V {
//     using Message = ...;                  // default-constructible and
//                                           // movable; trivially copyable
//                                           // preferred
//     uint64_t id;                          // unique vertex ID
//     bool halted = false;                  // vote-to-halt flag
//     bool removed = false;                 // lazy deletion flag
//     void Compute(Context& ctx, std::span<const Message> msgs);
//   };
// Optionally VertexT may define a combiner:
//   struct Combiner { static void Combine(Message& into, const Message&); };
// in which case messages to the same destination vertex are combined on the
// sender side (Pregel's combiner optimization).
#ifndef PPA_PREGEL_ENGINE_H_
#define PPA_PREGEL_ENGINE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pregel/graph.h"
#include "pregel/stats.h"
#include "util/flat_index.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ppa {

/// Number of aggregator slots available to a job (sum semantics; Pregel's
/// aggregator mechanism, Sec. II). Slot values aggregated in superstep S are
/// readable in superstep S+1 via Context::PrevAggregate.
inline constexpr int kNumAggregatorSlots = 4;

namespace pregel_internal {

template <typename T, typename = void>
struct HasCombiner : std::false_type {};
template <typename T>
struct HasCombiner<T, std::void_t<typename T::Combiner>> : std::true_type {};

}  // namespace pregel_internal

/// Engine configuration.
struct EngineConfig {
  unsigned num_threads = 0;        // 0 = hardware concurrency.
  uint32_t max_supersteps = 1u << 20;
  std::string job_name = "pregel-job";
  bool collect_per_worker = true;  // per-worker stat vectors in RunStats.
};

template <typename VertexT>
class Engine {
 public:
  using Message = typename VertexT::Message;

  /// Per-partition compute context handed to VertexT::Compute. Cache-line
  /// aligned: each is written by its own partition's task on every send.
  class alignas(64) Context {
   public:
    uint32_t superstep() const { return superstep_; }
    uint32_t num_workers() const { return num_workers_; }
    uint32_t worker_id() const { return worker_id_; }
    uint64_t num_vertices() const { return num_vertices_; }

    /// Sends `msg` to the vertex with id `dst` (delivered next superstep).
    void SendTo(uint64_t dst, Message msg) {
      ++ops_;
      auto& box = outbox_[PartitionOf(dst, num_workers_)];
      if constexpr (pregel_internal::HasCombiner<VertexT>::value) {
        // The id picks the destination partition, so one table covers
        // every outbox: it maps dst -> position in its outbox.
        const uint32_t pos =
            combine_slots_.Insert(dst, static_cast<uint32_t>(box.size()));
        if (pos != box.size()) {
          VertexT::Combiner::Combine(box[pos].second, msg);
          return;
        }
      }
      box.emplace_back(dst, std::move(msg));
    }

    /// Current vertex votes to halt; it is reactivated by any message.
    void VoteToHalt() { current_->halted = true; }

    /// Removes the current vertex at the barrier (messages already sent to
    /// it are dropped).
    void RemoveSelf() {
      current_->removed = true;
      current_->halted = true;
    }

    /// Adds a vertex at the barrier; it becomes active next superstep.
    void AddVertex(VertexT v) { additions_.push_back(std::move(v)); }

    /// Adds `delta` to aggregator `slot` (summed across all vertices this
    /// superstep; visible next superstep through PrevAggregate).
    void Aggregate(int slot, uint64_t delta) { agg_[slot] += delta; }

    /// Value aggregated into `slot` during the previous superstep.
    uint64_t PrevAggregate(int slot) const { return prev_agg_[slot]; }

   private:
    friend class Engine;
    uint32_t superstep_ = 0;
    uint32_t num_workers_ = 0;
    uint32_t worker_id_ = 0;
    uint64_t num_vertices_ = 0;
    VertexT* current_ = nullptr;
    uint64_t ops_ = 0;
    std::array<uint64_t, kNumAggregatorSlots> agg_{};
    std::array<uint64_t, kNumAggregatorSlots> prev_agg_{};
    // outbox_[d]: (destination id, message) staged for partition d. The
    // deliver task of d overwrites each id with the resolved slot.
    std::vector<std::vector<std::pair<uint64_t, Message>>> outbox_;
    FlatIndex combine_slots_;  // combiner jobs only
    std::vector<VertexT> additions_;
  };

  explicit Engine(EngineConfig config = {}) : config_(std::move(config)) {}

  /// Runs the job to termination; the graph is mutated in place.
  RunStats Run(PartitionedGraph<VertexT>& graph) {
    Timer timer;
    const uint32_t W = graph.num_workers();
    ThreadPool pool(config_.num_threads == 0 ? ThreadPool::DefaultThreads()
                                             : config_.num_threads);

    RunStats stats;
    stats.job_name = config_.job_name;

    std::vector<PartitionState> state(W);
    std::vector<Context> contexts(W);
    for (uint32_t p = 0; p < W; ++p) {
      PartitionState& st = state[p];
      const auto& vertices = graph.partition(p).vertices;
      const size_t n = vertices.size();
      st.flags.assign(n, 0);
      st.window.resize(n);
      st.compute.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (vertices[i].removed) {
          st.flags[i] = kRemoved;
        } else {
          st.flags[i] = kScheduled;
          st.compute.push_back(i);
        }
      }
      contexts[p].num_workers_ = W;
      contexts[p].worker_id_ = p;
      contexts[p].outbox_.resize(W);
    }

    std::array<uint64_t, kNumAggregatorSlots> prev_agg{};

    for (uint32_t step = 0; step < config_.max_supersteps; ++step) {
      // --- Compute phase -------------------------------------------------
      Timer phase;
      const uint64_t n_vertices = graph.size();
      pool.Run(W, [&](uint32_t p) {
        Context& ctx = contexts[p];
        ctx.superstep_ = step;
        ctx.num_vertices_ = n_vertices;
        ctx.ops_ = 0;
        ctx.agg_.fill(0);
        ctx.prev_agg_ = prev_agg;
        for (auto& box : ctx.outbox_) box.clear();
        if constexpr (pregel_internal::HasCombiner<VertexT>::value) {
          ctx.combine_slots_.Clear();
        }
        ctx.additions_.clear();
        ComputePartition(graph.partition(p).vertices, state[p], ctx);
      });
      const double compute_seconds = phase.Seconds();
      phase.Reset();

      // --- Barrier: stats, aggregators, mutations, message delivery ------
      SuperstepStats ss;
      ss.superstep = step;
      if (config_.collect_per_worker) {
        ss.worker_messages.resize(W);
        ss.worker_bytes.resize(W);
        ss.worker_ops.resize(W);
      }
      prev_agg.fill(0);
      for (uint32_t p = 0; p < W; ++p) {
        const Context& ctx = contexts[p];
        ss.active_vertices += state[p].active;
        uint64_t sent = 0;
        for (const auto& box : ctx.outbox_) sent += box.size();
        ss.messages_sent += sent;
        ss.message_bytes += sent * sizeof(Message);
        ss.compute_ops += ctx.ops_;
        if (config_.collect_per_worker) {
          ss.worker_messages[p] = sent;
          ss.worker_bytes[p] = sent * sizeof(Message);
          ss.worker_ops[p] = ctx.ops_;
        }
        for (int s = 0; s < kNumAggregatorSlots; ++s) {
          prev_agg[s] += ctx.agg_[s];
        }
      }

      // Vertex additions (routed by id); new vertices start active. They
      // are indexed before delivery, so messages sent to them in this
      // superstep already reach them.
      for (Context& ctx : contexts) {
        for (VertexT& v : ctx.additions_) {
          const uint32_t dst = PartitionOf(v.id, W);
          const uint8_t removed = v.removed ? kRemoved : 0;
          graph.AddToPartition(dst, std::move(v));
          PartitionState& st = state[dst];
          st.flags.push_back(kScheduled | removed);
          st.window.emplace_back();
          st.next.push_back(static_cast<uint32_t>(st.flags.size() - 1));
        }
      }

      pool.Run(W, [&](uint32_t d) {
        DeliverPartition(graph.partition(d), state[d], contexts, d);
      });
      ss.compute_seconds = compute_seconds;
      ss.deliver_seconds = phase.Seconds();
      stats.compute_seconds += ss.compute_seconds;
      stats.deliver_seconds += ss.deliver_seconds;
      const bool quiet = ss.messages_sent == 0;
      stats.supersteps.push_back(std::move(ss));

      // Termination test: nothing scheduled for the next superstep.
      bool any_scheduled = false;
      for (PartitionState& st : state) {
        st.compute.swap(st.next);
        st.next.clear();
        any_scheduled = any_scheduled || !st.compute.empty();
      }
      if (quiet && !any_scheduled) break;
    }

    stats.wall_seconds = timer.Seconds();
    return stats;
  }

 private:
  using Partition = typename PartitionedGraph<VertexT>::Partition;

  // PartitionState::flags bits.
  static constexpr uint8_t kScheduled = 1;  // on the next compute list
  static constexpr uint8_t kRemoved = 2;    // mirrors VertexT::removed

  /// Marks a staged message whose destination is unknown or removed.
  static constexpr uint64_t kDropped = UINT64_MAX;

  /// A vertex's messages for the coming compute: inbox[begin - count,
  /// begin). Delivery advances `begin` as the scatter cursor, so after the
  /// scatter it points one past the window.
  struct Window {
    uint32_t begin = 0;
    uint32_t count = 0;
  };

  /// Scheduling state and CSR inbox of one partition, indexed by vertex
  /// slot. Only the partition's own task touches it within a phase.
  struct alignas(64) PartitionState {
    std::vector<uint32_t> compute;  // slots to compute this superstep
    std::vector<uint32_t> next;     // slots scheduled for the next one
    std::vector<uint8_t> flags;     // kScheduled | kRemoved per slot
    std::vector<Window> window;     // per slot; count > 0 only for receivers
    std::vector<Message> inbox;     // CSR message array
    uint64_t active = 0;            // vertices computed this superstep
  };

  /// Runs Compute on the partition's compute list; still-active vertices
  /// go on the next list.
  static void ComputePartition(std::vector<VertexT>& vertices,
                               PartitionState& st, Context& ctx) {
    uint64_t active = 0;
    uint64_t ops = 0;
    for (const uint32_t i : st.compute) {
      st.flags[i] &= ~kScheduled;  // Delivery may re-schedule this vertex.
      Window& w = st.window[i];
      const uint32_t count = w.count;
      w.count = 0;
      VertexT& v = vertices[i];
      if (v.removed) continue;
      if (v.halted && count == 0) continue;
      v.halted = false;
      ++active;
      ops += 1 + count;
      ctx.current_ = &v;
      const std::span<const Message> msgs =
          count == 0 ? std::span<const Message>()
                     : std::span<const Message>(
                           st.inbox.data() + (w.begin - count), count);
      v.Compute(ctx, msgs);
      if (v.removed) {
        st.flags[i] |= kRemoved;
      } else if (!v.halted) {
        st.flags[i] |= kScheduled;
        st.next.push_back(i);
      }
    }
    st.active = active;
    ctx.ops_ += ops;  // SendTo counted the sends.
  }

  /// Rebuilds partition d's CSR inbox from outbox_[d] of every source and
  /// schedules each receiver.
  static void DeliverPartition(Partition& part, PartitionState& st,
                               std::vector<Context>& contexts, uint32_t d) {
    // 1. Resolve slots in place and count per receiver; the first message
    //    to an unscheduled vertex schedules it.
    for (Context& src : contexts) {
      for (auto& [dst, msg] : src.outbox_[d]) {
        const uint32_t slot = part.index.Find(dst);
        if (slot == FlatIndex::kEmpty || (st.flags[slot] & kRemoved)) {
          dst = kDropped;
          continue;
        }
        dst = slot;
        if (st.window[slot].count++ == 0 &&
            (st.flags[slot] & kScheduled) == 0) {
          st.flags[slot] |= kScheduled;
          st.next.push_back(slot);
        }
      }
    }
    // 2. Prefix-sum the receivers' windows. Every receiver is on the next
    //    list, so walking it covers them all without an O(n) pass.
    uint32_t total = 0;
    for (const uint32_t i : st.next) {
      Window& w = st.window[i];
      w.begin = total;
      total += w.count;
    }
    st.inbox.resize(total);
    // 3. Scatter in (source partition, send order).
    for (Context& src : contexts) {
      for (auto& [slot, msg] : src.outbox_[d]) {
        if (slot == kDropped) continue;
        st.inbox[st.window[slot].begin++] = std::move(msg);
      }
    }
  }

  EngineConfig config_;
};

}  // namespace ppa

#endif  // PPA_PREGEL_ENGINE_H_
