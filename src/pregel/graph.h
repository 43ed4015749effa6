// Hash-partitioned vertex container.
//
// Pregel+ "distributes vertices to machines by hashing vertex ID" (Sec. II).
// A PartitionedGraph owns `num_workers` partitions; vertex v lives in
// partition PartitionOf(v.id). Each partition keeps a dense vertex vector
// plus a FlatIndex (util/flat_index.h) mapping id -> slot: one linear-probed
// array of 16-byte entries, so the engine's per-message delivery lookup is
// usually a single cache-line read. Slots are stable for the life of a
// job — the engine's per-vertex state and CSR inbox windows
// (pregel/engine.h) are indexed by them — and change only on Compact.
// Deletion is lazy (the `removed` flag); a removed vertex keeps its index
// entry until Compact, and Find hides it. A job graph built by SlotAligned
// mirrors its source's slots, so per-slot results index the source.
#ifndef PPA_PREGEL_GRAPH_H_
#define PPA_PREGEL_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_index.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ppa {

/// Partitioned vertex store. VertexT must expose:
///   uint64_t id;        -- unique vertex ID
///   bool halted;        -- vote-to-halt flag
///   bool removed;       -- lazy deletion flag
template <typename VertexT>
class PartitionedGraph {
 public:
  struct Partition {
    std::vector<VertexT> vertices;
    FlatIndex index;  // id -> slot in `vertices`; a duplicate id keeps
                      // the slot it was first added at.
  };

  explicit PartitionedGraph(uint32_t num_workers)
      : partitions_(num_workers) {
    PPA_CHECK(num_workers >= 1);
  }

  uint32_t num_workers() const {
    return static_cast<uint32_t>(partitions_.size());
  }

  /// Adds a vertex (routed by hash of its id). Not thread-safe.
  void Add(VertexT v) {
    Partition& p = partitions_[PartitionOf(v.id, num_workers())];
    p.index.Insert(v.id, static_cast<uint32_t>(p.vertices.size()));
    p.vertices.push_back(std::move(v));
  }

  /// Adds a vertex into a specific partition without routing. The caller
  /// must have routed it correctly (used by shuffle-producing jobs).
  void AddToPartition(uint32_t part, VertexT v) {
    Partition& p = partitions_[part];
    p.index.Insert(v.id, static_cast<uint32_t>(p.vertices.size()));
    p.vertices.push_back(std::move(v));
  }

  Partition& partition(uint32_t i) { return partitions_[i]; }
  const Partition& partition(uint32_t i) const { return partitions_[i]; }

  /// Total vertices, including removed ones (cheap).
  size_t size() const {
    size_t n = 0;
    for (const auto& p : partitions_) n += p.vertices.size();
    return n;
  }

  /// Total live (non-removed) vertices.
  size_t live_size() const {
    size_t n = 0;
    for (const auto& p : partitions_) {
      for (const auto& v : p.vertices) {
        if (!v.removed) ++n;
      }
    }
    return n;
  }

  /// Pointer to the vertex with `id`, or nullptr if absent/removed.
  VertexT* Find(uint64_t id) {
    Partition& p = partitions_[PartitionOf(id, num_workers())];
    const uint32_t slot = p.index.Find(id);
    if (slot == FlatIndex::kEmpty) return nullptr;
    VertexT* v = &p.vertices[slot];
    return v->removed ? nullptr : v;
  }

  const VertexT* Find(uint64_t id) const {
    return const_cast<PartitionedGraph*>(this)->Find(id);
  }

  /// Invokes fn on every live vertex (serial).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& p : partitions_) {
      for (auto& v : p.vertices) {
        if (!v.removed) fn(v);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& p : partitions_) {
      for (const auto& v : p.vertices) {
        if (!v.removed) fn(v);
      }
    }
  }

  /// Builds the graph of a job over `src` slot-aligned with it: slot i of
  /// partition p holds make(src.partition(p).vertices[i]), so per-slot job
  /// results index straight back into `src`. A removed source vertex
  /// becomes a removed, default-constructed placeholder.
  template <typename SrcT, typename MakeFn>
  static PartitionedGraph SlotAligned(const PartitionedGraph<SrcT>& src,
                                      MakeFn&& make) {
    PartitionedGraph out(src.num_workers());
    for (uint32_t p = 0; p < src.num_workers(); ++p) {
      for (const SrcT& v : src.partition(p).vertices) {
        VertexT made = v.removed ? VertexT{} : make(v);
        made.id = v.id;
        made.removed = v.removed;
        out.AddToPartition(p, std::move(made));
      }
    }
    return out;
  }

  /// Physically erases removed vertices and rebuilds indexes.
  void Compact() {
    for (auto& p : partitions_) {
      std::vector<VertexT> kept;
      kept.reserve(p.vertices.size());
      for (auto& v : p.vertices) {
        if (!v.removed) kept.push_back(std::move(v));
      }
      p.vertices = std::move(kept);
      p.index.Clear();
      p.index.Reserve(p.vertices.size());
      for (uint32_t i = 0; i < p.vertices.size(); ++i) {
        p.index.Insert(p.vertices[i].id, i);
      }
    }
  }

 private:
  std::vector<Partition> partitions_;
};

}  // namespace ppa

#endif  // PPA_PREGEL_GRAPH_H_
