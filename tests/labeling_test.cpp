// Tests for contig labeling (operation 2): end recognition, bidirectional
// list ranking, the cycle fallback, and LR/S-V agreement.
#include "core/contig_labeling.h"

#include <gtest/gtest.h>

#include <string>
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

size_t DistinctLabels(const LabelingResult& result) {
  std::unordered_set<uint64_t> labels;
  for (const auto& [id, label] : result.labels) labels.insert(label);
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
    EXPECT_EQ(result.labels.size(), graph.live_size());
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
  graph.ForEach([&](const AsmNode& node) {
    if (!node.IsUnambiguousPathNode()) {
      EXPECT_EQ(result.labels.count(node.id), 0u);
    }
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

  ASSERT_EQ(lr.labels.size(), sv.labels.size());
  // The label *values* differ (LR: min end id; SV: min id) but the induced
  // partitions must be identical.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> lr_groups;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> sv_groups;
  for (const auto& [id, label] : lr.labels) lr_groups[label].insert(id);
  for (const auto& [id, label] : sv.labels) sv_groups[label].insert(id);
  ASSERT_EQ(lr_groups.size(), sv_groups.size());
  for (const auto& [label, members] : lr_groups) {
    // Find the SV group of any member; must be identical.
    uint64_t sv_label = sv.labels.at(*members.begin());
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
  graph.ForEach([&](const AsmNode& node) {
    if (node.IsUnambiguousPathNode()) {
      EXPECT_EQ(result.labels.count(node.id), 1u);
    }
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
  for (const auto& [id, label] : result.labels) {
    EXPECT_TRUE(ids.count(label) == 1) << label;
  }
}

// The label map is a function of the graph, not of how the 16 logical
// workers are multiplexed onto threads: LR and S-V each produce the same
// labels at 1, 2 and 4 threads. Reads carry 0.5% errors so the graph has
// the forks, tips and bubbles of a real run, not just clean paths.
TEST(LabelingTest, LabelsIdenticalAcrossThreadCounts) {
  GenomeConfig gconfig;
  gconfig.length = 20000;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 150;
  gconfig.repeat_copies = 3;
  gconfig.seed = 17;
  ReadSimConfig rconfig;
  rconfig.read_length = 100;
  rconfig.coverage = 30;
  rconfig.error_rate = 0.005;
  rconfig.seed = 23;
  std::vector<Read> reads = SimulateReads(GenerateGenome(gconfig), rconfig);

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

}  // namespace
}  // namespace ppa
