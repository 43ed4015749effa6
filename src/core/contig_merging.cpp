#include "core/contig_merging.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <type_traits>
#include <utility>

#include "pregel/mapreduce.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ppa {

namespace {

/// Reduce output: a stitched contig (or a dropped-tip tombstone). Its
/// edges, 5' side first, link it to the ambiguous vertices beyond the path
/// ends; old_node[side] and old_node_end[side] name the merged path vertex
/// (and its end) that the link on that side used to touch.
struct MergedContig {
  AsmNode node;  // id assigned after the MR job
  uint64_t old_node[2] = {0, 0};
  NodeEnd old_node_end[2] = {NodeEnd::k5, NodeEnd::k5};
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

/// One labeled path vertex as the group-by shuffles it: everything the
/// stitch reads, in one trivially copyable record. A contig vertex's
/// sequence stays in the graph; the record carries its (partition, slot),
/// which the reduce only reads.
struct PathRecord {
  uint64_t id = 0;
  // K-mer vertex: its k-mer code. Contig vertex: partition << 32 | slot.
  uint64_t payload = 0;
  // Port neighbors, [0] at the 5' end and [1] at the 3' end: the single
  // edge there (AsmNode::EdgeAt), if any.
  uint64_t nbr[2] = {kNullId, kNullId};
  uint32_t nbr_coverage[2] = {0, 0};
  uint32_t coverage = 0;
  uint32_t length = 0;  // bases of the vertex's sequence
  NodeEnd nbr_end[2] = {NodeEnd::k5, NodeEnd::k5};  // neighbor's end
  bool has_nbr[2] = {false, false};
  bool is_contig = false;
  bool visited = false;  // set while stitching
};
static_assert(std::is_trivially_copyable_v<PathRecord> &&
              sizeof(PathRecord) <= 64);

PathRecord MakePathRecord(const AsmNode& node, uint32_t part,
                          uint32_t slot) {
  PathRecord r;
  r.id = node.id;
  r.is_contig = node.kind == NodeKind::kContig;
  r.payload = r.is_contig ? (uint64_t{part} << 32 | slot) : node.kmer_code;
  r.coverage = node.coverage;
  r.length = static_cast<uint32_t>(node.SeqLength());
  for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
    const BiEdge* e = node.EdgeAt(end);
    if (e == nullptr) continue;
    const int i = static_cast<int>(end);
    r.has_nbr[i] = true;
    r.nbr[i] = e->to;
    r.nbr_end[i] = e->to_end;
    r.nbr_coverage[i] = e->coverage;
  }
  return r;
}

/// The record with `id` in a group sorted by id, or null.
PathRecord* FindInGroup(std::span<PathRecord> group, uint64_t id) {
  auto it = std::ranges::lower_bound(group, id, {}, &PathRecord::id);
  return (it != group.end() && it->id == id) ? &*it : nullptr;
}

/// Appends bases [from, r.length) of `r`'s sequence as read entering at
/// `entry`: stored orientation at the 5' end, reverse complement at 3'.
void AppendOriented(const PathRecord& r, NodeEnd entry, size_t from,
                    const AssemblyGraph& graph, PackedSequence* seq) {
  const size_t n = r.length;
  auto append = [&](auto base_at) {
    for (size_t i = from; i < n; ++i) {
      seq->PushBack(entry == NodeEnd::k5 ? base_at(i)
                                         : ComplementBase(base_at(n - 1 - i)));
    }
  };
  if (r.is_contig) {
    const PackedSequence& stored =
        graph.partition(static_cast<uint32_t>(r.payload >> 32))
            .vertices[static_cast<uint32_t>(r.payload)]
            .seq;
    append([&](size_t i) { return stored.BaseAt(i); });
  } else {
    const Kmer kmer(r.payload, static_cast<int>(n));
    append([&](size_t i) { return kmer.BaseAt(static_cast<int>(i)); });
  }
}

/// Stitches one label group into a contig. Implements the ordering +
/// polarity-aware concatenation of Sec. IV.B-3 on the bidirected view:
/// entering a vertex at its 5' end contributes its stored sequence,
/// entering at its 3' end contributes the reverse complement; consecutive
/// vertices overlap by (k-1) bases, so a k-mer vertex past the first adds
/// one base. The group is sorted by id in place and searched by bisection;
/// the contig's sequence is one allocation.
MergedContig StitchGroup(std::span<PathRecord> group, int k,
                         uint32_t tip_threshold, const AssemblyGraph& graph) {
  std::ranges::sort(group, {}, &PathRecord::id);

  // Find a contig-end vertex: one whose edge at some end is absent or
  // leaves the group. Scan in id order for determinism.
  PathRecord* start = nullptr;
  NodeEnd entry = NodeEnd::k5;
  bool circular = false;
  const size_t overlap = static_cast<size_t>(k - 1);
  size_t max_length = overlap;
  for (PathRecord& r : group) {
    max_length += std::max<size_t>(r.length, overlap) - overlap;
    for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
      const int i = static_cast<int>(end);
      if (start == nullptr &&
          (!r.has_nbr[i] || FindInGroup(group, r.nbr[i]) == nullptr)) {
        start = &r;
        entry = end;
      }
    }
  }
  if (start == nullptr) {
    // No end found: the group is a cycle of <1-1> vertices.
    circular = true;
    start = &group.front();
    entry = NodeEnd::k5;
  }

  MergedContig out;
  out.node.kind = NodeKind::kContig;
  out.node.k = static_cast<uint8_t>(k);
  out.node.circular = circular;

  // Links the contig's `side` to what lies beyond `r`'s `end`.
  auto link = [&out](const PathRecord& r, NodeEnd end, NodeEnd side) {
    const int i = static_cast<int>(end);
    out.node.edges.push_back(
        BiEdge{r.nbr[i], side, r.nbr_end[i], r.nbr_coverage[i]});
    out.old_node[static_cast<int>(side)] = r.id;
    out.old_node_end[static_cast<int>(side)] = end;
  };
  if (!circular && start->has_nbr[static_cast<int>(entry)]) {
    link(*start, entry, NodeEnd::k5);
  }

  // Walk and stitch.
  PackedSequence& seq = out.node.seq;
  seq.Reserve(max_length);
  AppendOriented(*start, entry, 0, graph, &seq);
  uint32_t coverage = start->coverage;
  start->visited = true;
  const PathRecord* cur = start;
  NodeEnd ent = entry;
  for (;;) {
    const NodeEnd exit = OppositeEnd(ent);
    const int x = static_cast<int>(exit);
    if (!cur->has_nbr[x]) break;  // Dead end: 3' side has no outer link.
    PathRecord* next = FindInGroup(group, cur->nbr[x]);
    if (next == nullptr) {
      link(*cur, exit, NodeEnd::k3);
      break;
    }
    if (circular && next == start) {
      coverage = std::min(coverage, cur->nbr_coverage[x]);
      break;  // Cycle closed.
    }
    if (next->visited) break;  // Defensive (bad labels).
    next->visited = true;
    coverage = std::min({coverage, cur->nbr_coverage[x], next->coverage});
    AppendOriented(*next, cur->nbr_end[x], overlap, graph, &seq);
    ent = cur->nbr_end[x];
    cur = next;
  }

  out.node.coverage = coverage;
  // Tip check at merge time: dangling & short => drop (Sec. IV.B-3).
  const bool dangling = !circular && out.node.edges.size() < 2;
  out.dropped = dangling && seq.size() <= tip_threshold;
  return out;
}

}  // namespace

MergeResult MergeContigs(AssemblyGraph& graph, const LabelingResult& labels,
                         const AssemblerOptions& options,
                         std::vector<uint32_t>* next_contig_ordinal,
                         PipelineStats* stats) {
  const uint32_t W = options.num_workers;
  PPA_CHECK(next_contig_ordinal != nullptr &&
            next_contig_ordinal->size() == W);
  MergeResult result;

  // ---- Build MR input: one flat record per labeled vertex, keyed by its
  // label; the vertex is marked merged (removed) on the way. ---------------
  PPA_CHECK(labels.labels.size() == W && graph.num_workers() == W);
  Partitioned<std::pair<uint64_t, PathRecord>> input(W);
  ThreadPool pool(options.num_threads);
  pool.Run(W, [&](uint32_t p) {
    std::vector<AsmNode>& vertices = graph.partition(p).vertices;
    const std::vector<uint64_t>& part_labels = labels.labels[p];
    PPA_CHECK(part_labels.size() == vertices.size());
    input[p].reserve(vertices.size() - std::count(part_labels.begin(),
                                                  part_labels.end(), kNoLabel));
    for (uint32_t slot = 0; slot < vertices.size(); ++slot) {
      AsmNode& node = vertices[slot];
      if (part_labels[slot] == kNoLabel || node.removed) continue;
      input[p].emplace_back(part_labels[slot], MakePathRecord(node, p, slot));
      node.removed = true;
    }
  });

  auto map_fn = [](const std::pair<uint64_t, PathRecord>& labeled,
                   auto& emitter) {
    emitter.Emit(labeled.first, labeled.second);
  };

  const int k = options.k;
  const uint32_t tip_threshold = options.tip_length_threshold;
  std::atomic<uint64_t> tips_dropped{0};
  std::atomic<uint64_t> circular_count{0};
  std::atomic<uint64_t> nodes_merged{0};
  auto reduce_fn = [&](const uint64_t& /*label*/,
                       std::span<PathRecord> group,
                       std::vector<MergedContig>& out) {
    nodes_merged.fetch_add(group.size(), std::memory_order_relaxed);
    MergedContig merged = StitchGroup(group, k, tip_threshold, graph);
    if (merged.dropped) {
      tips_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    if (merged.node.circular) {
      circular_count.fetch_add(1, std::memory_order_relaxed);
    }
    out.push_back(std::move(merged));
  };

  // No combiner: stitching needs every path vertex individually. The job
  // stays resident: its records are a subset of the graph, which is
  // resident anyway, so spilling them would only add disk traffic.
  MapReduceConfig merge_config = MakeMrConfig(options, "contig-merging");
  merge_config.spill = nullptr;
  Partitioned<MergedContig> merged =
      RunMapReduce<std::pair<uint64_t, PathRecord>, uint64_t, PathRecord,
                   MergedContig>(input, map_fn, reduce_fn, merge_config,
                                 &result.merge_stats);
  if (stats != nullptr) stats->Add(result.merge_stats);
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

  // ---- Link-notice MR: tell ambiguous endpoints to relink. ----------------
  auto notice_map_fn = [](const MergedContig& m, auto& emitter) {
    for (const BiEdge& e : m.node.edges) {
      const int side = static_cast<int>(e.my_end);
      emitter.Emit(e.to, LinkNotices{LinkNotice{
                             m.dropped ? 0 : m.node.id, e.my_end, e.to_end,
                             m.old_node[side], m.old_node_end[side],
                             e.coverage}});
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
  if (stats != nullptr) stats->Add(result.link_stats);

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

}  // namespace ppa
