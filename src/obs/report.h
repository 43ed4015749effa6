// One snapshot, every report: publishes the pipeline's stats structs into
// the metrics registry under canonical names, and renders the machine-
// readable run report (--report-json) from a registry snapshot.
//
// Both the CLI's text report lines and run.json read the same SnapshotView,
// so a metric can never appear in one and be forgotten in the other — the
// fix for the totals previously summed independently in assemble_cli and
// assembler.cpp.
//
// Canonical name groups (full names are "<group>.<field>"):
//   ingest.*    reads/bases/batches of the run's input
//   counting.*  phase (i) — KmerCountStats
//   pipeline.*  MapReduce totals — PipelineStats
//   pregel.<job>.*  per Pregel engine job: supersteps, messages and wall /
//               compute / deliver micros (summed per job name)
//   shuffle.*   pairs emitted/shuffled/combined away
//   spill.*     budget, peak resident, spill volume
//   net.*       distributed counters (coordinator side)
//   dbg.*       graph size
//   contigs.*   QUAST-style assembly totals
//   run.*       whole-run wall clock
// Live metrics the pipeline increments while running (io.*, mem.*,
// netio.*, count.*, spillio.*, net.worker.*) share the registry and appear
// in the same snapshot/JSON.
#ifndef PPA_OBS_REPORT_H_
#define PPA_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ppa {

struct KmerCountStats;  // dbg/kmer_counter.h
struct PipelineStats;   // pregel/stats.h

namespace obs {

/// Everything the end-of-run publication needs, gathered by the caller.
/// Null pointers skip their group (e.g. no contigs in dbg-only mode).
struct RunReportData {
  uint64_t reads = 0;
  uint64_t bases = 0;
  uint64_t batches = 0;
  const KmerCountStats* counting = nullptr;
  const PipelineStats* pipeline = nullptr;
  uint64_t spill_budget_bytes = 0;
  uint64_t spill_peak_resident_bytes = 0;
  uint64_t kmer_vertices = 0;
  bool has_contigs = false;
  uint64_t num_contigs = 0;
  uint64_t contigs_total_length = 0;
  uint64_t contigs_n50 = 0;
  uint64_t largest_contig = 0;
  double wall_seconds = 0;
};

/// Publishes every derived total into `registry` (gauges, overwritten per
/// run). Call once at the end of a run, before taking the snapshot the
/// reports render from.
void PublishRunMetrics(const RunReportData& data, MetricsRegistry* registry);

/// Name-indexed view over a snapshot; the single source both report
/// renderings read.
class SnapshotView {
 public:
  explicit SnapshotView(std::vector<MetricValue> samples);

  /// Value of `name`, or 0 when absent (absent = the subsystem never ran).
  uint64_t Get(const std::string& name) const;

  const std::vector<MetricValue>& samples() const { return samples_; }

 private:
  std::vector<MetricValue> samples_;
  std::map<std::string, uint64_t> by_name_;
};

/// Non-numeric run facts carried into run.json alongside the snapshot.
struct RunReportInfo {
  std::vector<std::string> inputs;
  std::string counting_mode;     // "stream" | "in-memory-sharded" | ...
  std::string pass1_encoding;    // "raw" | "superkmer"
  std::string shuffle_strategy;  // "sort" | "hash"
  std::string spill_mode;        // "never" | "auto" | "always"
  double wall_seconds = 0;
  std::vector<TelemetrySnapshot> workers;  // per-worker wire telemetry
};

/// Writes run.json: {"schema": "ppa.run_report.v1", ..., "metrics": {flat
/// dotted-name -> value}, "workers": [...]}.
void WriteRunReportJson(std::ostream& out, const SnapshotView& snapshot,
                        const RunReportInfo& info);

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_REPORT_H_
