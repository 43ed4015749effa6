// Open-addressing uint64 -> uint32 index: the id -> slot map behind every
// Pregel partition (pregel/graph.h) and the engine's sender-side combiner.
//
// One flat array of 16-byte {key, value} entries, linear probing from the
// high bits of Mix64(key). The high bits matter: PartitionOf routes ids by
// Mix64(id) % num_workers, so within one partition the low bits of the
// mixed key are (for power-of-two worker counts) all equal and would pile
// every key onto a fraction of the table.
//
// Every uint64 is a valid key — 0 and kNullId included — because emptiness
// is marked in the value field (kEmpty), never with a reserved key. Values
// must therefore be < kEmpty, which holds for vertex slots and outbox
// positions (both index 32-bit-sized vectors).
//
// Insert keeps the first mapping of a key, like std::unordered_map's
// emplace, so a duplicate id keeps the slot it was first given. There is no
// erase: the graph deletes lazily (the vertex's `removed` flag) and rebuilds
// its index on Compact.
#ifndef PPA_UTIL_FLAT_INDEX_H_
#define PPA_UTIL_FLAT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace ppa {

class FlatIndex {
 public:
  /// Value marking an empty entry; also what Find returns for a miss.
  static constexpr uint32_t kEmpty = UINT32_MAX;

  FlatIndex() = default;

  /// Maps `key` to `value` unless `key` is already present. Returns the
  /// value `key` maps to afterwards: `value` when inserted, the first
  /// mapping otherwise.
  uint32_t Insert(uint64_t key, uint32_t value) {
    if (!Fits(size_ + 1, entries_.size())) Grow(size_ + 1);
    Entry& e = entries_[Probe(key)];
    if (e.value == kEmpty) {
      e.key = key;
      e.value = value;
      ++size_;
    }
    return e.value;
  }

  /// Value mapped to `key`, or kEmpty when absent.
  uint32_t Find(uint64_t key) const {
    if (size_ == 0) return kEmpty;
    return entries_[Probe(key)].value;
  }

  /// Sizes the table so `n` keys fit without rehashing.
  void Reserve(size_t n) {
    if (!Fits(n, entries_.size())) Grow(n);
  }

  size_t size() const { return size_; }
  size_t capacity() const { return entries_.size(); }

  /// Drops every mapping and keeps the table for reuse (O(capacity)).
  void Clear() {
    if (size_ == 0) return;
    std::fill(entries_.begin(), entries_.end(), Entry{});
    size_ = 0;
  }

  /// Drops every mapping and frees the table.
  void Release() {
    std::vector<Entry>().swap(entries_);
    size_ = 0;
    shift_ = 64;
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t value = kEmpty;
  };

  /// Whether `n` keys fit in `capacity` entries at <= 80% load. Linear
  /// probing stays short there (~3 probes per hit, mostly in one cache
  /// line), and the index is the largest per-vertex structure after the
  /// vertex itself, so a lower bound would cost memory for little speed.
  static bool Fits(size_t n, size_t capacity) {
    return n * 5 <= capacity * 4;
  }

  /// Position of the entry holding `key`, or of the empty entry where it
  /// would go. The table is never full (Fits), so the probe ends.
  size_t Probe(uint64_t key) const {
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key) >> shift_);
    while (entries_[i].value != kEmpty && entries_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Rehashes into the smallest power-of-two table that Fits `n` keys.
  /// Mappings (and first-insert-wins) survive: keys are unique here.
  void Grow(size_t n) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(16, n * 5 / 4 + 1));
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.value != kEmpty) entries_[Probe(e.key)] = e;
    }
  }

  std::vector<Entry> entries_;
  size_t size_ = 0;
  int shift_ = 64;  // Mix64(key) >> shift_ is the home entry.
};

}  // namespace ppa

#endif  // PPA_UTIL_FLAT_INDEX_H_
