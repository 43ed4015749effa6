// Tests for util/: varint, hashing, the flat id index, edit distance, text
// store, thread pool, RNG determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>

#include "dbg/ids.h"
#include "util/edit_distance.h"
#include "util/flat_index.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/text_store.h"
#include "util/thread_pool.h"
#include "util/varint.h"

namespace ppa {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0,       1,        127,        128,
                                  16383,   16384,    (1ULL << 32) - 1,
                                  1ULL << 32, UINT64_MAX};
  std::vector<uint8_t> buf;
  for (uint64_t v : values) {
    EXPECT_EQ(PutVarint64(&buf, v), VarintLength(v));
  }
  size_t pos = 0;
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint64_t v = 0; v < 128; ++v) EXPECT_EQ(VarintLength(v), 1u);
  EXPECT_EQ(VarintLength(128), 2u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &v));
}

// Every continuation-byte boundary: 2^(7k) needs one more byte than
// 2^(7k) - 1, for every k up to the 10-byte 64-bit ceiling. The super-k-mer
// record header (dna/superkmer.h) leans on these exact lengths.
TEST(VarintTest, ContinuationByteBoundaries) {
  for (int k = 1; k <= 9; ++k) {
    const uint64_t boundary = 1ULL << (7 * k);
    EXPECT_EQ(VarintLength(boundary - 1), static_cast<size_t>(k))
        << "k=" << k;
    EXPECT_EQ(VarintLength(boundary), static_cast<size_t>(k) + 1) << "k=" << k;
    for (uint64_t v : {boundary - 1, boundary, boundary + 1}) {
      std::vector<uint8_t> buf;
      EXPECT_EQ(PutVarint64(&buf, v), VarintLength(v));
      size_t pos = 0;
      uint64_t decoded = 0;
      ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
      EXPECT_EQ(decoded, v);
      EXPECT_EQ(pos, buf.size());
      // Each intermediate byte must carry the continuation bit; the last
      // must not.
      for (size_t i = 0; i + 1 < buf.size(); ++i) EXPECT_NE(buf[i] & 0x80, 0);
      EXPECT_EQ(buf.back() & 0x80, 0);
    }
  }
}

TEST(VarintTest, MaxValueUsesTenBytesAndRoundTrips) {
  std::vector<uint8_t> buf;
  EXPECT_EQ(VarintLength(UINT64_MAX), 10u);
  EXPECT_EQ(PutVarint64(&buf, UINT64_MAX), 10u);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.back(), 0x01);  // bit 63 alone in the final byte
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(pos, 10u);
}

TEST(VarintTest, OverlongEncodingsAreRejected) {
  // Eleven continuation bytes: more than any 64-bit value can need.
  std::vector<uint8_t> overlong(11, 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(overlong.data(), overlong.size(), &pos, &v));
  EXPECT_EQ(pos, 0u);  // a failed decode must not advance the cursor

  // Ten continuation bytes then a terminator: also past the 64-bit ceiling.
  std::vector<uint8_t> eleven_bytes(10, 0x80);
  eleven_bytes.push_back(0x01);
  pos = 0;
  EXPECT_FALSE(
      GetVarint64(eleven_bytes.data(), eleven_bytes.size(), &pos, &v));
}

// The 10th byte of a maximal varint may carry bit 63 only. Any payload bit
// above it encodes a value >= 2^64; the old decoder shifted those bits out
// and returned a silently wrapped value — as a record length, that misframes
// every spill file and wire frame after it.
TEST(VarintTest, TenthBytePayloadBitsBeyondBit63AreRejected) {
  // Every set of excess payload bits in the 10th byte must fail.
  for (uint8_t tenth : {0x02, 0x04, 0x40, 0x7E, 0x7F, 0x03}) {
    std::vector<uint8_t> buf(9, 0xFF);
    buf.push_back(tenth);
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &v))
        << "tenth byte 0x" << std::hex << int(tenth);
    EXPECT_EQ(pos, 0u);
  }
  // The two valid 10th bytes still decode: bit 63 set, or (non-canonical
  // but in-range) a bare terminator.
  std::vector<uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(max.data(), max.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX);

  std::vector<uint8_t> low63(9, 0xFF);
  low63.push_back(0x00);
  pos = 0;
  ASSERT_TRUE(GetVarint64(low63.data(), low63.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX >> 1);
}

TEST(VarintTest, DecodeStopsAtRecordBoundaries) {
  // Back-to-back records: the cursor must land exactly on each boundary,
  // the framing property text_store and the super-k-mer codec rely on.
  std::vector<uint8_t> buf;
  const std::vector<uint64_t> values = {0, 300, 127, UINT64_MAX, 1};
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t expected : values) {
    const size_t before = pos;
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
    EXPECT_EQ(v, expected);
    EXPECT_EQ(pos - before, VarintLength(expected));
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, ZigZag) {
  for (int64_t v : {0L, -1L, 1L, -64L, 63L, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(HashTest, Mix64IsBijectiveOnSamples) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, PartitionerBalancesSimilarKeys) {
  // k-mer ids share high zero bits; the partitioner must still balance.
  std::vector<int> counts(16, 0);
  for (uint64_t id = 0; id < 16000; ++id) {
    ++counts[PartitionOf(id, 16)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(FlatIndexTest, DuplicateKeyKeepsFirstValue) {
  FlatIndex index;
  EXPECT_EQ(index.Insert(42, 7), 7u);
  EXPECT_EQ(index.Insert(42, 9), 7u);  // emplace semantics: first wins
  EXPECT_EQ(index.Find(42), 7u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndexTest, MissesReturnEmpty) {
  FlatIndex index;
  EXPECT_EQ(index.Find(1), FlatIndex::kEmpty);  // no table yet
  index.Insert(1, 0);
  EXPECT_EQ(index.Find(2), FlatIndex::kEmpty);
}

TEST(FlatIndexTest, ZeroAndNullIdAreOrdinaryKeys) {
  FlatIndex index;
  EXPECT_EQ(index.Find(0), FlatIndex::kEmpty);
  EXPECT_EQ(index.Find(kNullId), FlatIndex::kEmpty);
  index.Insert(0, 3);
  index.Insert(kNullId, 4);
  index.Insert(UINT64_MAX, 5);
  EXPECT_EQ(index.Find(0), 3u);
  EXPECT_EQ(index.Find(kNullId), 4u);
  EXPECT_EQ(index.Find(UINT64_MAX), 5u);
  EXPECT_EQ(index.size(), 3u);
}

TEST(FlatIndexTest, MappingsSurviveRehashGrowth) {
  // Keys that share a partition (Mix64 low bits) — the graph's workload —
  // plus duplicates re-inserted after every growth step.
  FlatIndex index;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 20000; ++k) {
    if (PartitionOf(k, 16) == 3) keys.push_back(k);
  }
  size_t last_capacity = index.capacity();
  int growths = 0;
  for (uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(keys[i], i), i);
    if (index.capacity() != last_capacity) {
      ++growths;
      last_capacity = index.capacity();
      for (uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(index.Find(keys[j]), j) << "after growth to "
                                           << last_capacity;
      }
    }
  }
  EXPECT_GT(growths, 5);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Insert(keys[i], i + 1), i);  // duplicates keep first
  }
  EXPECT_EQ(index.size(), keys.size());
  EXPECT_LE(index.size() * 5, index.capacity() * 4);  // load <= 80%
}

TEST(FlatIndexTest, ReserveClearAndRelease) {
  FlatIndex index;
  index.Reserve(1000);
  const size_t reserved = index.capacity();
  EXPECT_GE(reserved * 4, 1000u * 5);
  for (uint32_t i = 0; i < 1000; ++i) index.Insert(i * 977, i);
  EXPECT_EQ(index.capacity(), reserved);  // no rehash after Reserve

  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), reserved);  // table kept for reuse
  EXPECT_EQ(index.Find(977), FlatIndex::kEmpty);
  index.Insert(977, 5);
  EXPECT_EQ(index.Find(977), 5u);

  index.Release();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.Find(977), FlatIndex::kEmpty);
  index.Insert(977, 6);  // usable again after Release
  EXPECT_EQ(index.Find(977), 6u);
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("ACGT", "ACGT"), 0u);
  EXPECT_EQ(EditDistance("ACGT", ""), 4u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("ACGT", "AGT"), 1u);
  EXPECT_EQ(EditDistance("ACGT", "TGCA"), 4u);
}

TEST(EditDistanceTest, BandedMatchesFullWithinLimit) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a;
    std::string b;
    size_t len = 5 + rng.Below(60);
    for (size_t i = 0; i < len; ++i) a += "ACGT"[rng.Next() & 3];
    b = a;
    size_t edits = rng.Below(8);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      switch (rng.Below(3)) {
        case 0:
          b[rng.Below(b.size())] = "ACGT"[rng.Next() & 3];
          break;
        case 1:
          b.erase(rng.Below(b.size()), 1);
          break;
        default:
          b.insert(rng.Below(b.size() + 1), 1, "ACGT"[rng.Next() & 3]);
      }
    }
    size_t full = EditDistance(a, b);
    for (size_t limit : {2u, 5u, 10u}) {
      size_t banded = BandedEditDistance(a, b, limit);
      if (full <= limit) {
        EXPECT_EQ(banded, full) << a << " vs " << b;
      } else {
        EXPECT_EQ(banded, limit + 1) << a << " vs " << b;
      }
    }
  }
}

TEST(EditDistanceTest, WithinPredicate) {
  EXPECT_TRUE(WithinEditDistance("ACGTACGT", "ACGTACGA", 5));
  EXPECT_FALSE(WithinEditDistance("AAAAAAAA", "TTTTTTTT", 5));
  EXPECT_FALSE(WithinEditDistance("ACGT", "ACGT", 0));
}

TEST(TextStoreTest, WriteReadParts) {
  std::string dir = "/tmp/ppa_text_store_test";
  std::filesystem::remove_all(dir);
  TextStore store(dir);
  store.WritePart(0, {"line a", "line b"});
  store.WritePart(3, {"line c"});
  EXPECT_EQ(store.ListParts(), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(store.ReadPart(3), (std::vector<std::string>{"line c"}));
  EXPECT_EQ(store.ReadPart(7), std::vector<std::string>{});
  EXPECT_EQ(store.ReadAll(),
            (std::vector<std::string>{"line a", "line b", "line c"}));
  EXPECT_GT(store.TotalBytes(), 0u);
  store.Clear();
  EXPECT_TRUE(store.ListParts().empty());
  std::filesystem::remove_all(dir);
}

TEST(ThreadPoolTest, RunsAllIndicesOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    pool.Run(100, [&](uint32_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(Rng(42).Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.Below(10), 10u);
  }
}

}  // namespace
}  // namespace ppa
