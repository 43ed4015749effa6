// Contig merging against a reference: the original id-keyed merge (every
// path vertex copied as an AsmNode, grouped through the MapReduce job, and
// stitched with a per-group hash table and per-vertex sequence
// temporaries) lives here as ReferenceMergeContigs. MergeContigs, which
// reads slot-aligned labels and stitches flat records, must leave the graph
// in exactly the state the reference leaves it in: the same vertices in the
// same slots with the same ids, sequences, coverages, circular flags and
// edges in order, and the same contig counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "dna/nucleotide.h"
#include "dna/read.h"
#include "pregel/mapreduce.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/hash.h"
#include "util/random.h"

namespace ppa {
namespace {

/// Vertex id -> contig label, as labeling reported it before labels were
/// slot-aligned.
using IdLabels = std::unordered_map<uint64_t, uint64_t, IdHash>;

IdLabels ById(const AssemblyGraph& graph, const LabelingResult& labels) {
  IdLabels by_id;
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    const auto& vertices = graph.partition(p).vertices;
    for (size_t slot = 0; slot < vertices.size(); ++slot) {
      if (labels.labels[p][slot] != kNoLabel) {
        by_id[vertices[slot].id] = labels.labels[p][slot];
      }
    }
  }
  return by_id;
}

/// One end's connection of a stitched contig to the outside world.
struct OuterLink {
  bool present = false;
  uint64_t outer_id = kNullId;   // the ambiguous vertex beyond the path end
  NodeEnd outer_end = NodeEnd::k5;  // which of its ends the edge attaches to
  uint64_t old_node = 0;         // the merged path vertex it used to touch
  NodeEnd old_node_end = NodeEnd::k5;
  uint32_t coverage = 0;
};

/// Reduce output: a stitched contig (or a dropped-tip tombstone) plus the
/// link notices its endpoints owe to their ambiguous neighbors.
struct MergedContig {
  AsmNode node;       // id assigned after the MR job
  OuterLink outer[2];  // [0] = contig 5' side, [1] = contig 3' side
  bool dropped = false;
};

/// Notice delivered to an ambiguous vertex: drop the stale edge into the
/// merged path and (unless the contig was dropped as a tip) link to the
/// new contig vertex instead.
struct LinkNotice {
  uint64_t contig_id = 0;       // 0 for dropped tips
  NodeEnd contig_end = NodeEnd::k5;
  NodeEnd my_end = NodeEnd::k5;  // the ambiguous vertex's own end
  uint64_t old_node = 0;
  NodeEnd old_node_end = NodeEnd::k5;
  uint32_t coverage = 0;
};

/// Combinable batch of notices owed to one ambiguous vertex by the contigs
/// of one source partition (usually 1-2 notices; a vertex has at most 8
/// incident edges).
using LinkNotices = std::vector<LinkNotice>;

/// Stitches one label group into a contig. Implements the ordering +
/// polarity-aware concatenation of Sec. IV.B-3 on the bidirected view:
/// entering a vertex at its 5' end contributes its stored sequence,
/// entering at its 3' end contributes the reverse complement; consecutive
/// vertices overlap by (k-1) bases.
MergedContig ReferenceStitchGroup(std::span<AsmNode> group, int k,
                                  uint32_t tip_threshold) {
  std::unordered_map<uint64_t, const AsmNode*, IdHash> by_id;
  by_id.reserve(group.size());
  for (const AsmNode& n : group) by_id.emplace(n.id, &n);

  // Find a contig-end vertex: one whose edge at some end is absent or
  // leaves the group. Scan in id order for determinism.
  std::vector<const AsmNode*> ordered;
  ordered.reserve(group.size());
  for (const AsmNode& n : group) ordered.push_back(&n);
  std::sort(ordered.begin(), ordered.end(),
            [](const AsmNode* a, const AsmNode* b) { return a->id < b->id; });

  const AsmNode* start = nullptr;
  NodeEnd entry = NodeEnd::k5;
  bool circular = false;
  for (const AsmNode* n : ordered) {
    for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
      const BiEdge* e = n->EdgeAt(end);
      if (e == nullptr || by_id.find(e->to) == by_id.end()) {
        start = n;
        entry = end;
        break;
      }
    }
    if (start != nullptr) break;
  }
  if (start == nullptr) {
    // No end found: the group is a cycle of <1-1> vertices.
    circular = true;
    start = ordered.front();
    entry = NodeEnd::k5;
  }

  MergedContig out;
  out.node.kind = NodeKind::kContig;
  out.node.k = static_cast<uint8_t>(k);
  out.node.circular = circular;

  // Record the 5'-side outer link.
  if (!circular) {
    const BiEdge* e = start->EdgeAt(entry);
    if (e != nullptr) {
      out.outer[0].present = true;
      out.outer[0].outer_id = e->to;
      out.outer[0].outer_end = e->to_end;
      out.outer[0].old_node = start->id;
      out.outer[0].old_node_end = entry;
      out.outer[0].coverage = e->coverage;
    }
  }

  // Walk and stitch.
  PackedSequence seq = start->OrientedSeq(entry);
  uint32_t coverage = start->coverage;
  std::unordered_set<uint64_t> visited;
  visited.insert(start->id);
  const AsmNode* cur = start;
  NodeEnd ent = entry;
  for (;;) {
    NodeEnd exit = OppositeEnd(ent);
    const BiEdge* e = cur->EdgeAt(exit);
    if (e == nullptr) break;  // Dead end: 3' side has no outer link.
    auto it = by_id.find(e->to);
    if (it == by_id.end()) {
      // 3'-side outer link.
      out.outer[1].present = true;
      out.outer[1].outer_id = e->to;
      out.outer[1].outer_end = e->to_end;
      out.outer[1].old_node = cur->id;
      out.outer[1].old_node_end = exit;
      out.outer[1].coverage = e->coverage;
      break;
    }
    if (circular && e->to == start->id) {
      coverage = std::min(coverage, e->coverage);
      break;  // Cycle closed.
    }
    const AsmNode* next = it->second;
    if (visited.count(next->id) != 0) break;  // Defensive (bad labels).
    visited.insert(next->id);
    coverage = std::min({coverage, e->coverage, next->coverage});
    seq.Append(next->OrientedSeq(e->to_end), static_cast<size_t>(k - 1));
    cur = next;
    ent = e->to_end;
  }

  out.node.seq = std::move(seq);
  out.node.coverage = coverage;
  if (out.outer[0].present) {
    out.node.edges.push_back(BiEdge{out.outer[0].outer_id, NodeEnd::k5,
                                    out.outer[0].outer_end,
                                    out.outer[0].coverage});
  }
  if (out.outer[1].present) {
    out.node.edges.push_back(BiEdge{out.outer[1].outer_id, NodeEnd::k3,
                                    out.outer[1].outer_end,
                                    out.outer[1].coverage});
  }

  // Tip check at merge time: dangling & short => drop (Sec. IV.B-3).
  bool dangling =
      !circular && (!out.outer[0].present || !out.outer[1].present);
  if (dangling && out.node.seq.size() <= tip_threshold) {
    out.dropped = true;
  }
  return out;
}

MergeResult ReferenceMergeContigs(AssemblyGraph& graph,
                                  const IdLabels& label_map,
                                  const AssemblerOptions& options,
                                  std::vector<uint32_t>* next_contig_ordinal) {
  const uint32_t W = options.num_workers;
  PPA_CHECK(next_contig_ordinal != nullptr &&
            next_contig_ordinal->size() == W);
  MergeResult result;

  // ---- Build MR input: labeled nodes, keyed by label. ---------------------
  Partitioned<AsmNode> input(W);
  for (uint32_t p = 0; p < W; ++p) {
    for (const AsmNode& node : graph.partition(p).vertices) {
      if (node.removed) continue;
      if (label_map.find(node.id) != label_map.end()) {
        input[p].push_back(node);
      }
    }
  }

  auto map_fn = [&label_map](const AsmNode& node, auto& emitter) {
    emitter.Emit(label_map.at(node.id), node);
  };

  const int k = options.k;
  const uint32_t tip_threshold = options.tip_length_threshold;
  std::atomic<uint64_t> tips_dropped{0};
  std::atomic<uint64_t> circular_count{0};
  std::atomic<uint64_t> nodes_merged{0};
  auto reduce_fn = [&](const uint64_t& /*label*/, std::span<AsmNode> group,
                       std::vector<MergedContig>& out) {
    nodes_merged.fetch_add(group.size(), std::memory_order_relaxed);
    MergedContig merged = ReferenceStitchGroup(group, k, tip_threshold);
    if (merged.dropped) {
      tips_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    if (merged.node.circular) {
      circular_count.fetch_add(1, std::memory_order_relaxed);
    }
    out.push_back(std::move(merged));
  };

  // No combiner: stitching needs every path vertex individually.
  Partitioned<MergedContig> merged =
      RunMapReduce<AsmNode, uint64_t, AsmNode, MergedContig>(
          input, map_fn, reduce_fn, MakeMrConfig(options, "contig-merging"),
          &result.merge_stats);
  result.tips_dropped = tips_dropped.load();
  result.circular_contigs = circular_count.load();
  result.nodes_merged = nodes_merged.load();

  // ---- Assign contig IDs: worker d names its j-th contig (Fig. 7c). ------
  for (uint32_t d = 0; d < W; ++d) {
    for (MergedContig& m : merged[d]) {
      if (m.dropped) continue;
      m.node.id = MakeContigId(d, (*next_contig_ordinal)[d]++);
      ++result.contigs_created;
    }
  }

  // ---- Remove merged path nodes from the graph. ----------------------------
  for (const auto& [node_id, label] : label_map) {
    (void)label;
    AsmNode* node = graph.Find(node_id);
    if (node != nullptr) node->removed = true;
  }

  // ---- Link-notice MR: tell ambiguous endpoints to relink. ----------------
  auto notice_map_fn = [](const MergedContig& m, auto& emitter) {
    for (int side = 0; side < 2; ++side) {
      const OuterLink& o = m.outer[side];
      if (!o.present) continue;
      LinkNotice notice;
      notice.contig_id = m.dropped ? 0 : m.node.id;
      notice.contig_end = (side == 0) ? NodeEnd::k5 : NodeEnd::k3;
      notice.my_end = o.outer_end;
      notice.old_node = o.old_node;
      notice.old_node_end = o.old_node_end;
      notice.coverage = o.coverage;
      emitter.Emit(o.outer_id, LinkNotices{notice});
    }
  };
  // Map-side combiner: one batched pair per (source, ambiguous vertex)
  // instead of one pair per notice. Notices are structurally distinct (one
  // per (contig, side); old_node is unique per contig), so appending alone
  // is a complete union.
  auto notice_combine_fn = [](LinkNotices& acc, LinkNotices&& incoming) {
    acc.insert(acc.end(), incoming.begin(), incoming.end());
  };
  auto notice_reduce_fn = [](const uint64_t& outer_id,
                             std::span<LinkNotices> group,
                             std::vector<std::pair<uint64_t, LinkNotice>>&
                                 out) {
    for (const LinkNotices& batch : group) {
      for (const LinkNotice& n : batch) out.emplace_back(outer_id, n);
    }
  };

  Partitioned<std::pair<uint64_t, LinkNotice>> notices =
      RunMapReduce<MergedContig, uint64_t, LinkNotices,
                   std::pair<uint64_t, LinkNotice>>(
          merged, notice_map_fn, notice_combine_fn, notice_reduce_fn,
          MakeMrConfig(options, "contig-merging-link-update"),
          &result.link_stats);

  // ---- Insert contig nodes and apply notices. ------------------------------
  for (uint32_t d = 0; d < W; ++d) {
    for (MergedContig& m : merged[d]) {
      if (m.dropped) continue;
      graph.Add(std::move(m.node));
    }
  }
  for (uint32_t d = 0; d < W; ++d) {
    for (const auto& [outer_id, notice] : notices[d]) {
      AsmNode* outer = graph.Find(outer_id);
      if (outer == nullptr) continue;  // Endpoint itself merged? Impossible
                                       // for correct labels; defensive.
      // The edge into the merged path: my_end on the ambiguous vertex,
      // old_node_end on the (now removed) path vertex.
      outer->RemoveEdge(notice.old_node, notice.my_end,
                        notice.old_node_end);
      if (notice.contig_id != 0) {
        outer->edges.push_back(BiEdge{notice.contig_id, notice.my_end,
                                      notice.contig_end, notice.coverage});
      }
    }
  }
  graph.Compact();
  return result;
}

/// Empty when every slot of `got` holds what the same slot of `want`
/// holds; otherwise the first difference.
std::string FirstDifference(const AssemblyGraph& got,
                            const AssemblyGraph& want) {
  if (got.num_workers() != want.num_workers()) return "worker counts";
  for (uint32_t p = 0; p < got.num_workers(); ++p) {
    const auto& a = got.partition(p).vertices;
    const auto& b = want.partition(p).vertices;
    if (a.size() != b.size()) {
      return "partition " + std::to_string(p) + " sizes " +
             std::to_string(a.size()) + " vs " + std::to_string(b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
      const AsmNode& x = a[i];
      const AsmNode& y = b[i];
      const std::string where = "partition " + std::to_string(p) +
                                " slot " + std::to_string(i) + " (id " +
                                std::to_string(y.id) + "): ";
      if (x.id != y.id) return where + "id " + std::to_string(x.id);
      if (x.removed != y.removed) return where + "removed flag";
      if (x.kind != y.kind || x.k != y.k) return where + "kind";
      if (x.kmer_code != y.kmer_code) return where + "k-mer code";
      if (x.seq != y.seq) {
        return where + "sequence " + x.seq.ToString() + " vs " +
               y.seq.ToString();
      }
      if (x.coverage != y.coverage) return where + "coverage";
      if (x.circular != y.circular) return where + "circular flag";
      if (x.edges != y.edges) return where + "edges";
      if (got.partition(p).index.Find(x.id) !=
          want.partition(p).index.Find(y.id)) {
        return where + "index slot";
      }
    }
  }
  return "";
}

/// Labels `graph`, merges a copy with ReferenceMergeContigs and `graph`
/// itself with MergeContigs, and checks the two agree. Returns
/// MergeContigs' result; `graph` and `ordinals` move on.
MergeResult MergeAndCompare(AssemblyGraph* graph,
                            const AssemblerOptions& options,
                            LabelingMethod method,
                            std::vector<uint32_t>* ordinals,
                            bool* mixed_group = nullptr) {
  const LabelingResult labels = LabelContigs(*graph, options, method);
  const IdLabels by_id = ById(*graph, labels);
  if (mixed_group != nullptr) {
    // A label with both a contig and a k-mer member.
    std::unordered_map<uint64_t, int> kinds;
    graph->ForEach([&](const AsmNode& node) {
      auto it = by_id.find(node.id);
      if (it != by_id.end()) kinds[it->second] |= 1 << int(node.kind);
    });
    for (const auto& [label, mask] : kinds) *mixed_group |= mask == 3;
  }

  AssemblyGraph reference = *graph;
  std::vector<uint32_t> reference_ordinals = *ordinals;
  const MergeResult want =
      ReferenceMergeContigs(reference, by_id, options, &reference_ordinals);
  const MergeResult got = MergeContigs(*graph, labels, options, ordinals);

  EXPECT_EQ(FirstDifference(*graph, reference), "");
  EXPECT_EQ(*ordinals, reference_ordinals);
  EXPECT_EQ(got.contigs_created, want.contigs_created);
  EXPECT_EQ(got.nodes_merged, want.nodes_merged);
  EXPECT_EQ(got.tips_dropped, want.tips_dropped);
  EXPECT_EQ(got.circular_contigs, want.circular_contigs);
  EXPECT_EQ(got.merge_stats.pairs_emitted, want.merge_stats.pairs_emitted);
  EXPECT_EQ(got.merge_stats.pairs_shuffled,
            want.merge_stats.pairs_shuffled);
  EXPECT_EQ(got.link_stats.pairs_emitted, want.link_stats.pairs_emitted);
  EXPECT_EQ(got.link_stats.pairs_shuffled, want.link_stats.pairs_shuffled);
  return got;
}

AssemblerOptions SmallOptions(int k) {
  AssemblerOptions options;
  options.k = k;
  options.coverage_threshold = 1;
  options.tip_length_threshold = 12;
  options.num_workers = 4;
  options.num_threads = 2;
  return options;
}

AssemblyGraph GraphFrom(const std::vector<std::string>& read_strs,
                        const AssemblerOptions& options) {
  std::vector<Read> reads;
  for (size_t i = 0; i < read_strs.size(); ++i) {
    reads.push_back(Read{"r" + std::to_string(i), read_strs[i], ""});
  }
  return std::move(BuildDbg(reads, options).graph);
}

std::string RandomBases(Rng& rng, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s += CharFromBase(rng.Next() & 3);
  return s;
}

std::string ReverseComplementOf(const std::string& s) {
  return PackedSequence::FromString(s).ReverseComplement().ToString();
}

constexpr LabelingMethod kMethods[] = {LabelingMethod::kListRanking,
                                       LabelingMethod::kSimplifiedSv};

// Both rounds of a real run: round 1 over the k-mer graph, then bubble
// filtering and tip removing, then round 2, whose groups mix contig and
// k-mer vertices. Reads carry 0.5% errors, so the graph has the forks,
// tips and bubbles of a real run.
TEST(MergeOracleTest, MatchesReferenceAcrossMethodsWorkersAndThreads) {
  GenomeConfig gconfig;
  gconfig.length = 12000;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 150;
  gconfig.repeat_copies = 3;
  gconfig.seed = 5;
  ReadSimConfig rconfig;
  rconfig.read_length = 100;
  rconfig.coverage = 30;
  rconfig.error_rate = 0.005;
  rconfig.seed = 11;
  const std::vector<Read> reads =
      SimulateReads(GenerateGenome(gconfig), rconfig);

  bool mixed_group = false;
  for (LabelingMethod method : kMethods) {
    for (uint32_t workers : {1u, 4u, 16u}) {
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(LabelingMethodName(method)) + " workers=" +
                     std::to_string(workers) +
                     " threads=" + std::to_string(threads));
        AssemblerOptions options;
        options.k = 31;
        options.num_workers = workers;
        options.num_threads = threads;
        AssemblyGraph graph = std::move(BuildDbg(reads, options).graph);
        std::vector<uint32_t> ordinals(workers, 0);

        const MergeResult round1 =
            MergeAndCompare(&graph, options, method, &ordinals);
        EXPECT_GT(round1.contigs_created, 0u);
        EXPECT_GT(round1.tips_dropped, 0u);

        FilterBubbles(graph, options);
        RemoveTips(graph, options);
        const MergeResult round2 =
            MergeAndCompare(&graph, options, method, &ordinals, &mixed_group);
        EXPECT_GT(round2.nodes_merged, 0u);
      }
    }
  }
  EXPECT_TRUE(mixed_group) << "no round-2 group mixed contig and k-mer "
                              "vertices";
}

// A pure cycle of <1-1> k-mers stitches into one circular contig; the
// second round re-merges that contig as an isolated vertex.
TEST(MergeOracleTest, CircularContig) {
  const AssemblerOptions options = SmallOptions(11);
  Rng rng(3);
  const std::string circle = RandomBases(rng, 60);
  for (LabelingMethod method : kMethods) {
    SCOPED_TRACE(LabelingMethodName(method));
    AssemblyGraph graph = GraphFrom({circle + circle}, options);
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    const MergeResult round1 =
        MergeAndCompare(&graph, options, method, &ordinals);
    EXPECT_EQ(round1.contigs_created, 1u);
    EXPECT_EQ(round1.circular_contigs, 1u);
    const std::vector<ContigRecord> contigs = CollectContigs(graph);
    ASSERT_EQ(contigs.size(), 1u);
    const std::string got = contigs[0].seq.ToString();
    // A cycle of 60 k-mers spells 60 + (k - 1) bases of the circle.
    EXPECT_EQ(got.size(), circle.size() + options.k - 1);
    const std::string twice = circle + circle;
    EXPECT_TRUE(twice.find(got) != std::string::npos ||
                ReverseComplementOf(twice).find(got) != std::string::npos)
        << got;
    MergeAndCompare(&graph, options, method, &ordinals);
  }
}

// A short dangling branch off a fork is a tip and is dropped at merge
// time; the fork vertex loses its edge into it.
TEST(MergeOracleTest, DroppedTip) {
  const AssemblerOptions options = SmallOptions(5);
  Rng rng(8);
  const std::string trunk = RandomBases(rng, 40);
  const std::string branch = trunk.substr(0, 20) + "ACGTC";
  for (LabelingMethod method : kMethods) {
    SCOPED_TRACE(LabelingMethodName(method));
    AssemblyGraph graph = GraphFrom({trunk, branch}, options);
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    const MergeResult merged =
        MergeAndCompare(&graph, options, method, &ordinals);
    EXPECT_GE(merged.tips_dropped, 1u);
    EXPECT_GE(merged.contigs_created, 2u);
  }
}

// One linear read whose first path vertex in id order is entered at its
// 3' end, so the contig starts reverse-complemented.
TEST(MergeOracleTest, PathEnteredAtThreePrimeEnd) {
  const AssemblerOptions options = SmallOptions(7);
  Rng rng(21);
  bool found = false;
  for (int attempt = 0; attempt < 64 && !found; ++attempt) {
    const std::string read = RandomBases(rng, 50);
    AssemblyGraph graph = GraphFrom({read}, options);
    // The path's ends are its two vertices with one edge; merging starts
    // at the one with the smaller id, at its free end.
    const AsmNode* start = nullptr;
    bool simple_path = true;
    graph.ForEach([&](const AsmNode& node) {
      simple_path &= node.Type() == VertexType::kOne ||
                     node.Type() == VertexType::kOneOne;
      if (node.Type() == VertexType::kOne &&
          (start == nullptr || node.id < start->id)) {
        start = &node;
      }
    });
    if (!simple_path || start == nullptr ||
        start->EdgeAt(NodeEnd::k3) != nullptr) {
      continue;
    }
    found = true;
    for (LabelingMethod method : kMethods) {
      SCOPED_TRACE(LabelingMethodName(method));
      AssemblyGraph copy = graph;
      std::vector<uint32_t> ordinals(options.num_workers, 0);
      MergeAndCompare(&copy, options, method, &ordinals);
      const std::vector<ContigRecord> contigs = CollectContigs(copy);
      ASSERT_EQ(contigs.size(), 1u);
      const std::string got = contigs[0].seq.ToString();
      EXPECT_TRUE(got == read || got == ReverseComplementOf(read)) << got;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ppa
