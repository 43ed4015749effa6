// Per-superstep execution statistics.
//
// Tables II and III of the paper report (#supersteps, #messages, runtime)
// for the two contig-labeling algorithms; Fig. 12 derives cluster wall-clock
// from per-worker communication and computation volumes. The engine records
// everything needed for both here: per superstep and per logical worker,
// the number of compute invocations, messages and message bytes. Engine
// jobs also split each superstep's wall time into compute and delivery, so a
// report can show which phase of which job a change moved.
#ifndef PPA_PREGEL_STATS_H_
#define PPA_PREGEL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppa {

/// Statistics of one superstep, with per-logical-worker breakdowns.
struct SuperstepStats {
  uint32_t superstep = 0;
  uint64_t active_vertices = 0;
  uint64_t messages_sent = 0;
  uint64_t message_bytes = 0;
  uint64_t compute_ops = 0;  // compute calls + messages processed + sent.
  // Pregel engine jobs only: wall time of the compute phase and of the
  // barrier (mutations + message delivery into the CSR inboxes).
  double compute_seconds = 0;
  double deliver_seconds = 0;
  // Index = logical worker id; sized num_workers.
  std::vector<uint64_t> worker_messages;
  std::vector<uint64_t> worker_bytes;
  std::vector<uint64_t> worker_ops;
};

/// Statistics of one Pregel job (or one MapReduce job, which is modeled as
/// a map superstep + a reduce superstep).
struct RunStats {
  std::string job_name;
  std::vector<SuperstepStats> supersteps;
  double wall_seconds = 0;

  // Pregel engine jobs only: the per-superstep phase times summed. Zero for
  // MapReduce jobs.
  double compute_seconds = 0;
  double deliver_seconds = 0;

  // MapReduce jobs only: map-side emissions before and after combining.
  // Equal when the job has no combiner; the gap is the combiner's saving.
  uint64_t pairs_emitted = 0;
  uint64_t pairs_shuffled = 0;

  // External spill volume (spill/spill.h): sealed chunks written to the
  // job's per-shard/per-destination spill files and read back by the
  // consuming pass. All zero when spilling is off (SpillMode::kNever) or
  // the job's pair type cannot be serialized.
  uint64_t spilled_chunks = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  uint64_t readback_chunks = 0;
  uint64_t readback_bytes = 0;

  uint32_t num_supersteps() const {
    return static_cast<uint32_t>(supersteps.size());
  }

  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const auto& s : supersteps) n += s.messages_sent;
    return n;
  }

  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& s : supersteps) n += s.message_bytes;
    return n;
  }

  uint64_t total_ops() const {
    uint64_t n = 0;
    for (const auto& s : supersteps) n += s.compute_ops;
    return n;
  }
};

/// Accumulated statistics across the jobs of a whole workflow run.
struct PipelineStats {
  std::vector<RunStats> jobs;

  void Add(RunStats stats) { jobs.push_back(std::move(stats)); }

  double total_wall_seconds() const {
    double t = 0;
    for (const auto& j : jobs) t += j.wall_seconds;
    return t;
  }

  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.total_messages();
    return n;
  }

  /// Shuffled payload across all jobs — phase (i) reports its measured
  /// pass-1 chunk bytes here, so encoding choices show up pipeline-wide.
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.total_bytes();
    return n;
  }

  uint32_t total_supersteps() const {
    uint32_t n = 0;
    for (const auto& j : jobs) n += j.num_supersteps();
    return n;
  }

  uint64_t total_pairs_emitted() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.pairs_emitted;
    return n;
  }

  uint64_t total_pairs_shuffled() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.pairs_shuffled;
    return n;
  }

  // Spill volume across all jobs (counting reports its pass-1 spill here
  // too, via MerCountRunStats), so the CLI report can show one line.
  uint64_t total_spilled_chunks() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.spilled_chunks;
    return n;
  }

  uint64_t total_spilled_bytes() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.spilled_bytes;
    return n;
  }

  uint64_t total_spill_files() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.spill_files;
    return n;
  }

  uint64_t total_readback_bytes() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.readback_bytes;
    return n;
  }

  /// Finds accumulated stats of all jobs whose name contains `substr`.
  RunStats Aggregate(const std::string& substr) const {
    RunStats out;
    out.job_name = substr;
    for (const auto& j : jobs) {
      if (j.job_name.find(substr) == std::string::npos) continue;
      out.wall_seconds += j.wall_seconds;
      out.compute_seconds += j.compute_seconds;
      out.deliver_seconds += j.deliver_seconds;
      out.pairs_emitted += j.pairs_emitted;
      out.pairs_shuffled += j.pairs_shuffled;
      out.spilled_chunks += j.spilled_chunks;
      out.spilled_bytes += j.spilled_bytes;
      out.spill_files += j.spill_files;
      out.readback_chunks += j.readback_chunks;
      out.readback_bytes += j.readback_bytes;
      out.supersteps.insert(out.supersteps.end(), j.supersteps.begin(),
                            j.supersteps.end());
    }
    return out;
  }
};

}  // namespace ppa

#endif  // PPA_PREGEL_STATS_H_
