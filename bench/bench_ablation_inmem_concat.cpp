// Ablation A5: in-memory job concatenation (the paper's convert() API
// extension, Sec. II) vs routing intermediate results through the
// HDFS-stand-in text store between operations.
//
// Measures the labeling->merging handoff: once with the labeled vertex set
// passed in memory (as PPA-assembler does), once with the labels serialized
// to part files and re-parsed (as "existing Pregel-like systems require").
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "util/text_store.h"
#include "util/timer.h"

int main() {
  using namespace ppa;
  bench::PrintHeader(
      "Ablation: in-memory job concatenation vs HDFS-style round trip");

  Dataset ds = MakeDataset(DatasetId::kHc2);
  AssemblerOptions options = bench::PaperOptions();
  DbgResult dbg = BuildDbg(ds.reads, options);
  LabelingResult labels =
      LabelContigs(dbg.graph, options, LabelingMethod::kListRanking);

  // --- In-memory handoff. ---------------------------------------------------
  Timer in_mem;
  {
    AssemblyGraph graph = dbg.graph;  // Copy so both variants see same input.
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    MergeContigs(graph, labels, options, &ordinals);
  }
  double in_mem_secs = in_mem.Seconds();

  // --- Text-store round trip: dump labels + graph payloads, reload. --------
  Timer round_trip;
  uint64_t bytes = 0;
  {
    TextStore store("/tmp/ppa_inmem_ablation");
    store.Clear();
    // Dump one record per labeled vertex, as job 1's output would be.
    std::vector<std::string> lines;
    for (uint32_t p = 0; p < dbg.graph.num_workers(); ++p) {
      const auto& vertices = dbg.graph.partition(p).vertices;
      for (size_t slot = 0; slot < vertices.size(); ++slot) {
        const uint64_t label = labels.labels[p][slot];
        if (label == kNoLabel) continue;
        lines.push_back(std::to_string(vertices[slot].id) + "\t" +
                        std::to_string(label));
      }
    }
    store.WritePart(0, lines);
    // Reload and re-parse, as job 2's input phase would: each id finds its
    // slot through its partition's id index.
    AssemblyGraph graph = dbg.graph;
    LabelingResult reloaded;
    reloaded.AlignWith(graph);
    for (const std::string& line : store.ReadAll()) {
      size_t tab = line.find('\t');
      const uint64_t id = std::stoull(line.substr(0, tab));
      const uint32_t p = PartitionOf(id, graph.num_workers());
      reloaded.labels[p][graph.partition(p).index.Find(id)] =
          std::stoull(line.substr(tab + 1));
    }
    bytes = store.TotalBytes();
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    MergeContigs(graph, reloaded, options, &ordinals);
    store.Clear();
  }
  double round_trip_secs = round_trip.Seconds();

  size_t labeled = 0;
  for (const auto& part : labels.labels) {
    labeled += part.size() - std::count(part.begin(), part.end(), kNoLabel);
  }
  std::printf("Labeled vertices: %zu\n", labeled);
  std::printf("In-memory handoff + merge:   %8.3f s\n", in_mem_secs);
  std::printf("Text-store round trip + merge: %6.3f s (%llu bytes written)\n",
              round_trip_secs, static_cast<unsigned long long>(bytes));
  std::printf("Overhead of the round trip:  %8.2fx\n",
              in_mem_secs > 0 ? round_trip_secs / in_mem_secs : 0);
  std::printf(
      "(On a real cluster the gap widens: HDFS replication adds network\n"
      " writes; the paper's extension avoids them entirely.)\n");
  return 0;
}
