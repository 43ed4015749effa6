// Tests for contig labeling (operation 2): end recognition, bidirectional
// list ranking, the cycle fallback, and LR/S-V agreement.
#include "core/contig_labeling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dbg_construction.h"
#include "dna/read.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/random.h"

namespace ppa {
namespace {

AssemblerOptions TestOptions(int k = 5) {
  AssemblerOptions options;
  options.k = k;
  options.coverage_threshold = 1;
  options.num_workers = 4;
  options.num_threads = 2;
  return options;
}

/// DBG from explicit read strings.
AssemblyGraph GraphFrom(const std::vector<std::string>& read_strs,
                        const AssemblerOptions& options) {
  std::vector<Read> reads;
  for (size_t i = 0; i < read_strs.size(); ++i) {
    reads.push_back(Read{"r" + std::to_string(i), read_strs[i], ""});
  }
  DbgResult dbg = BuildDbg(reads, options);
  return std::move(dbg.graph);
}

/// Calls fn(node, label) for every slot of `graph`; `result` is
/// slot-aligned with it.
template <typename Fn>
void ForEachSlot(const AssemblyGraph& graph, const LabelingResult& result,
                 Fn fn) {
  ASSERT_EQ(result.labels.size(), graph.num_workers());
  ASSERT_EQ(result.on_cycle.size(), graph.num_workers());
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    const auto& vertices = graph.partition(p).vertices;
    ASSERT_EQ(result.labels[p].size(), vertices.size());
    ASSERT_EQ(result.on_cycle[p].size(), vertices.size());
    for (size_t slot = 0; slot < vertices.size(); ++slot) {
      fn(vertices[slot], result.labels[p][slot]);
    }
  }
}

/// 100 bp reads with 0.5% errors at 30x over a genome with repeats.
std::vector<Read> NoisyReads(size_t genome_length) {
  GenomeConfig gconfig;
  gconfig.length = genome_length;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 150;
  gconfig.repeat_copies = 3;
  gconfig.seed = 17;
  ReadSimConfig rconfig;
  rconfig.read_length = 100;
  rconfig.coverage = 30;
  rconfig.error_rate = 0.005;
  rconfig.seed = 23;
  return SimulateReads(GenerateGenome(gconfig), rconfig);
}

size_t NumLabeled(const LabelingResult& result) {
  size_t n = 0;
  for (const auto& part : result.labels) {
    n += part.size() - std::count(part.begin(), part.end(), kNoLabel);
  }
  return n;
}

size_t DistinctLabels(const LabelingResult& result) {
  std::unordered_set<uint64_t> labels;
  for (const auto& part : result.labels) {
    for (uint64_t label : part) {
      if (label != kNoLabel) labels.insert(label);
    }
  }
  return labels.size();
}

TEST(LabelingTest, SinglePathGetsOneLabel) {
  AssemblerOptions options = TestOptions();
  // One linear read: all k-mers unambiguous, one path.
  AssemblyGraph graph = GraphFrom({"AGGCTGCAACTCATCGACTCTATGT"}, options);
  ASSERT_GT(graph.live_size(), 0u);

  for (LabelingMethod method :
       {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
    LabelingResult result = LabelContigs(graph, options, method);
    EXPECT_EQ(result.num_ambiguous, 0u) << LabelingMethodName(method);
    EXPECT_EQ(NumLabeled(result), graph.live_size());
    EXPECT_EQ(DistinctLabels(result), 1u);
  }
}

TEST(LabelingTest, ForkSplitsPaths) {
  AssemblerOptions options = TestOptions();
  // Two reads sharing a prefix: the junction k-mer becomes ambiguous.
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGAT", "ACGTTGCATACCA"}, options);

  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  EXPECT_GT(result.num_ambiguous, 0u);
  EXPECT_GT(DistinctLabels(result), 1u);
  // Ambiguous vertices carry no label.
  ForEachSlot(graph, result, [](const AsmNode& node, uint64_t label) {
    if (!node.IsUnambiguousPathNode()) EXPECT_EQ(label, kNoLabel);
  });
}

TEST(LabelingTest, LrAndSvAgreeOnGrouping) {
  AssemblerOptions options = TestOptions();
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGATCCTAGGG", "ACGTTGCATACCATTTGACG",
       "TTGACGGGATCCTAGGGCAT"},
      options);

  LabelingResult lr =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  LabelingResult sv =
      LabelContigs(graph, options, LabelingMethod::kSimplifiedSv);

  ASSERT_EQ(NumLabeled(lr), NumLabeled(sv));
  // The label *values* differ (LR: min end id; SV: min id) but the induced
  // partitions must be identical.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> lr_groups;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> sv_groups;
  std::unordered_map<uint64_t, uint64_t> sv_label_of;
  ForEachSlot(graph, lr, [&](const AsmNode& node, uint64_t label) {
    if (label != kNoLabel) lr_groups[label].insert(node.id);
  });
  ForEachSlot(graph, sv, [&](const AsmNode& node, uint64_t label) {
    if (label == kNoLabel) return;
    sv_groups[label].insert(node.id);
    sv_label_of[node.id] = label;
  });
  ASSERT_EQ(lr_groups.size(), sv_groups.size());
  for (const auto& [label, members] : lr_groups) {
    // Find the SV group of any member; must be identical.
    uint64_t sv_label = sv_label_of.at(*members.begin());
    EXPECT_EQ(sv_groups.at(sv_label), members);
  }
}

TEST(LabelingTest, PureCycleFallsBackToSv) {
  AssemblerOptions options = TestOptions(3);
  // A circular sequence: take a string whose DBG is one cycle. Repeating
  // the circle twice makes every 4-mer of the circle appear.
  // Circle: "ACGGTA" (len 6); reads cover it cyclically.
  AssemblyGraph graph = GraphFrom({"ACGGTAACGGTAAC"}, options);
  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  // Either the graph has ambiguity (depending on k) or a cycle was found
  // and labeled via the fallback. All unambiguous vertices must be labeled.
  ForEachSlot(graph, result, [](const AsmNode& node, uint64_t label) {
    if (node.IsUnambiguousPathNode()) EXPECT_NE(label, kNoLabel);
  });
  if (result.num_cycle_vertices > 0) {
    EXPECT_GT(result.cycle_sv_stats.num_supersteps(), 0u);
  }
}

TEST(LabelingTest, LrBeatsSvOnSuperstepsAndMessages) {
  AssemblerOptions options = TestOptions();
  options.num_workers = 8;
  // A long single path stresses the round counts.
  std::string genome;
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) genome += CharFromBase(rng.Next() & 3);
  AssemblyGraph graph = GraphFrom({genome}, options);

  LabelingResult lr =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  LabelingResult sv =
      LabelContigs(graph, options, LabelingMethod::kSimplifiedSv);
  // Table II shape.
  EXPECT_LT(lr.total_supersteps(), sv.total_supersteps());
  EXPECT_LT(lr.total_messages(), sv.total_messages());
  // O(log n) supersteps: 2 endrec + 2 per round.
  EXPECT_LE(lr.total_supersteps(), 2u + 2u * 16u);
}

TEST(LabelingTest, LabelIsSmallerEndMarkedId) {
  AssemblerOptions options = TestOptions();
  AssemblyGraph graph = GraphFrom({"AGGCTGCAACTCATCGACTCTATGT"}, options);
  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  // The LR label of a path is one of its member ids (the smaller end).
  std::unordered_set<uint64_t> ids;
  graph.ForEach([&](const AsmNode& node) { ids.insert(node.id); });
  EXPECT_GT(NumLabeled(result), 0u);
  ForEachSlot(graph, result, [&](const AsmNode&, uint64_t label) {
    if (label != kNoLabel) EXPECT_TRUE(ids.count(label) == 1) << label;
  });
}

// The label map is a function of the graph, not of how the 16 logical
// workers are multiplexed onto threads: LR and S-V each produce the same
// labels at 1, 2 and 4 threads. Reads carry 0.5% errors so the graph has
// the forks, tips and bubbles of a real run, not just clean paths.
TEST(LabelingTest, LabelsIdenticalAcrossThreadCounts) {
  std::vector<Read> reads = NoisyReads(20000);

  AssemblerOptions options = TestOptions(31);
  options.num_workers = 16;
  options.num_threads = 1;
  AssemblyGraph graph = std::move(BuildDbg(reads, options).graph);

  for (LabelingMethod method :
       {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
    options.num_threads = 1;
    const LabelingResult reference = LabelContigs(graph, options, method);
    ASSERT_GT(reference.num_ambiguous, 0u) << LabelingMethodName(method);
    ASSERT_GT(DistinctLabels(reference), 1u);
    for (unsigned threads : {2u, 4u}) {
      options.num_threads = threads;
      const LabelingResult got = LabelContigs(graph, options, method);
      EXPECT_EQ(got.labels, reference.labels)
          << LabelingMethodName(method) << " threads=" << threads;
      EXPECT_EQ(got.on_cycle, reference.on_cycle)
          << LabelingMethodName(method) << " threads=" << threads;
      EXPECT_EQ(got.total_messages(), reference.total_messages())
          << LabelingMethodName(method) << " threads=" << threads;
      EXPECT_EQ(got.total_supersteps(), reference.total_supersteps())
          << LabelingMethodName(method) << " threads=" << threads;
    }
  }
}

// Labels index slots, not ids: on a graph with removed vertices, before and
// after Compact moves the survivors, every slot carries the label its vertex
// gets in a graph holding the same vertices in reverse order (so at other
// slots), and removed slots carry none.
TEST(LabelingTest, LabelsStaySlotAlignedAcrossCompaction) {
  AssemblerOptions options = TestOptions(31);
  options.num_workers = 4;
  AssemblyGraph graph = std::move(BuildDbg(NoisyReads(8000), options).graph);

  // Remove every fifth vertex together with the edges into it.
  std::vector<uint64_t> doomed;
  size_t i = 0;
  graph.ForEach([&](const AsmNode& node) {
    if (i++ % 5 == 0) doomed.push_back(node.id);
  });
  for (uint64_t id : doomed) {
    AsmNode* node = graph.Find(id);
    for (const BiEdge& e : node->edges) {
      if (AsmNode* nbr = graph.Find(e.to)) nbr->RemoveEdgesTo(id);
    }
    node->removed = true;
  }
  AssemblyGraph compacted = graph;
  compacted.Compact();
  std::vector<const AsmNode*> live;
  graph.ForEach([&](const AsmNode& node) { live.push_back(&node); });
  AssemblyGraph reversed(options.num_workers);
  for (size_t j = live.size(); j > 0; --j) reversed.Add(*live[j - 1]);

  for (LabelingMethod method :
       {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
    const LabelingResult reference = LabelContigs(reversed, options, method);
    ASSERT_GT(DistinctLabels(reference), 1u) << LabelingMethodName(method);
    auto reference_label = [&](uint64_t id) {
      const uint32_t p = PartitionOf(id, reversed.num_workers());
      return reference.labels[p][reversed.partition(p).index.Find(id)];
    };
    for (const AssemblyGraph* g : {&graph, &compacted}) {
      const LabelingResult got = LabelContigs(*g, options, method);
      EXPECT_EQ(NumLabeled(got), NumLabeled(reference));
      size_t removed_slots = 0;
      ForEachSlot(*g, got, [&](const AsmNode& node, uint64_t label) {
        if (node.removed) {
          ++removed_slots;
          EXPECT_EQ(label, kNoLabel);
        } else {
          EXPECT_EQ(label, reference_label(node.id))
              << LabelingMethodName(method) << " vertex " << node.id;
        }
      });
      EXPECT_EQ(removed_slots, g == &graph ? doomed.size() : 0u);
    }
  }
}

}  // namespace
}  // namespace ppa
