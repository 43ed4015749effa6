// Operation 2: contig labeling (Sec. IV.B-2).
//
// Marks every vertex on each maximal unambiguous path with a unique label so
// contig merging can group them. Two supersteps of contig-end recognition
// (ambiguous <m-n> vertices broadcast their IDs; <1>/<1-1> vertices that
// border an ambiguous vertex or a dead end replace that side's predecessor
// with their own end-marked ID) are followed by either:
//
//   * Bidirectional list ranking (the paper's preferred method): each
//     unambiguous vertex keeps a predecessor-ID pair, one per sequencing
//     direction; every 2-superstep round each unfinished slot jumps to its
//     predecessor's predecessor; slots finish when they hold an end-marked
//     ID. Cycles of <1-1> vertices can never finish; once the round budget
//     ceil(log2 n) + 2 is exhausted (by which time every non-cycle vertex
//     has provably finished) the leftovers are handed to the simplified S-V
//     algorithm, exactly the paper's hybrid. Labels: the smaller end-marked
//     ID for path contigs, the smallest vertex ID for cycle contigs.
//
//   * Simplified S-V over the whole unambiguous subgraph (baseline in
//     Tables II/III): label = smallest vertex ID in the component.
//
// The labeling job's graph mirrors the assembly graph slot for slot
// (PartitionedGraph::SlotAligned), so the output is flat: per partition,
// label and on-cycle vectors beside the graph's vertices, read by slot.
#ifndef PPA_CORE_CONTIG_LABELING_H_
#define PPA_CORE_CONTIG_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "dbg/node.h"
#include "pregel/stats.h"

namespace ppa {

/// Which algorithm finds the maximal unambiguous paths.
enum class LabelingMethod {
  kListRanking = 0,   // Bidirectional list ranking (paper default).
  kSimplifiedSv = 1,  // Simplified S-V connected components.
};

inline const char* LabelingMethodName(LabelingMethod m) {
  return m == LabelingMethod::kListRanking ? "LR" : "S-V";
}

/// LabelingResult::labels entry of an unlabeled vertex. Not kNullId, which
/// is also worker 0's first contig id (MakeContigId(0, 0)); no vertex id
/// has the end-mark bit set, so this value is never a label.
inline constexpr uint64_t kNoLabel = ~0ULL;

/// Labeling output, slot-aligned with the labeled graph: labels[p][i] and
/// on_cycle[p][i] describe graph.partition(p).vertices[i].
struct LabelingResult {
  // Contig label per slot; kNoLabel for ambiguous, removed, unlabeled slots.
  std::vector<std::vector<uint64_t>> labels;
  // 1 for vertices found on a cycle of <1-1> vertices (LR method only).
  std::vector<std::vector<uint8_t>> on_cycle;
  uint64_t num_unambiguous = 0;
  uint64_t num_ambiguous = 0;
  uint64_t num_cycle_vertices = 0;
  RunStats stats;          // Main labeling job (incl. end recognition).
  RunStats cycle_sv_stats;  // S-V fallback over cycles (LR method only).

  /// Combined superstep/message totals (what Tables II/III report).
  uint32_t total_supersteps() const {
    return stats.num_supersteps() + cycle_sv_stats.num_supersteps();
  }
  uint64_t total_messages() const {
    return stats.total_messages() + cycle_sv_stats.total_messages();
  }
  double total_seconds() const {
    return stats.wall_seconds + cycle_sv_stats.wall_seconds;
  }
  /// Sizes labels and on_cycle to `graph`'s slots, none labeled.
  void AlignWith(const AssemblyGraph& graph) {
    labels.resize(graph.num_workers());
    on_cycle.resize(graph.num_workers());
    for (uint32_t p = 0; p < graph.num_workers(); ++p) {
      labels[p].assign(graph.partition(p).vertices.size(), kNoLabel);
      on_cycle[p].assign(graph.partition(p).vertices.size(), 0);
    }
  }
};

/// Labels every unambiguous node of `graph` with its contig label.
/// The graph itself is not modified; the result indexes its slots, so it
/// is valid until the graph is next added to or compacted.
LabelingResult LabelContigs(const AssemblyGraph& graph,
                            const AssemblerOptions& options,
                            LabelingMethod method,
                            PipelineStats* stats = nullptr);

}  // namespace ppa

#endif  // PPA_CORE_CONTIG_LABELING_H_
