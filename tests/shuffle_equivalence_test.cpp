// Thread-count invariance of the whole pipeline (TEST_P). For a grid of
// (k, num_workers), the six-operation pipeline must produce bit-identical
// assemblies — same contig records, same QUAST metrics — under
// num_threads 1 vs 4, exercising every MapReduce call site (DBG
// construction phase (ii), both contig-merging jobs, bubble filtering) plus
// their combiners, and the Pregel jobs between them. The group-by itself is
// checked against a definitional reference in mapreduce_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/assembler.h"
#include "quality/quast.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

namespace ppa {
namespace {

struct GridPoint {
  int k;
  uint32_t num_workers;
};

class ShuffleEquivalence : public ::testing::TestWithParam<GridPoint> {};

/// Canonical full-fidelity view of an assembly: every contig field, sorted.
std::vector<std::tuple<uint64_t, std::string, uint32_t, bool>> Canon(
    const AssemblyResult& result) {
  std::vector<std::tuple<uint64_t, std::string, uint32_t, bool>> out;
  for (const ContigRecord& c : result.contigs) {
    out.emplace_back(c.id, c.seq.ToString(), c.coverage, c.circular);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(ShuffleEquivalence, PipelineOutputsAreBitIdentical) {
  const GridPoint point = GetParam();

  GenomeConfig gconfig;
  gconfig.length = 8000;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 120;
  gconfig.repeat_copies = 3;
  gconfig.seed = 4000 + static_cast<uint64_t>(point.k);
  PackedSequence genome = GenerateGenome(gconfig);

  ReadSimConfig rconfig;
  rconfig.read_length = 70;
  rconfig.coverage = 35;
  rconfig.error_rate = 0.005;  // bubbles + tips, so all call sites do work
  rconfig.seed = 99;
  std::vector<Read> reads = SimulateReads(genome, rconfig);

  AssemblerOptions options;
  options.k = point.k;
  options.coverage_threshold = 2;
  options.tip_length_threshold = 60;
  options.num_workers = point.num_workers;

  options.num_threads = 1;
  const AssemblyResult one = Assembler(options).Assemble(reads);
  options.num_threads = 4;
  const AssemblyResult four = Assembler(options).Assemble(reads);
  ASSERT_GT(one.contigs.size(), 0u);
  EXPECT_EQ(Canon(four), Canon(one));

  QuastConfig quast_config;
  const QuastReport expected =
      EvaluateAssembly(one.ContigStrings(), &genome, quast_config);
  const QuastReport report =
      EvaluateAssembly(four.ContigStrings(), &genome, quast_config);
  EXPECT_EQ(report.num_contigs, expected.num_contigs);
  EXPECT_EQ(report.total_length, expected.total_length);
  EXPECT_EQ(report.n50, expected.n50);
  EXPECT_EQ(report.largest_contig, expected.largest_contig);
  EXPECT_EQ(report.misassemblies, expected.misassemblies);
  EXPECT_DOUBLE_EQ(report.genome_fraction, expected.genome_fraction);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShuffleEquivalence,
    ::testing::Values(GridPoint{15, 1}, GridPoint{15, 4}, GridPoint{15, 16},
                      GridPoint{21, 1}, GridPoint{21, 4}, GridPoint{21, 16},
                      GridPoint{31, 1}, GridPoint{31, 4}, GridPoint{31, 16}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return "k" + std::to_string(info.param.k) + "_w" +
             std::to_string(info.param.num_workers);
    });

}  // namespace
}  // namespace ppa
