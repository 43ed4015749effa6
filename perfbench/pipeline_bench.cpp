// Pipeline benchmark harness: times whole assemblies and attributes their
// cost to the library's operations. perfbench/run.py drives it; see
// perfbench/README.md for the workloads and the metric map.
//
//   ppa_perfbench gen     --workload W --seed N --dir D [--scale X]
//       Simulates the workload's genome and reads from the seed and writes
//       D/reads.fastq and D/reference.txt. Nothing else reaches the program.
//   ppa_perfbench oneshot --workload W --dir D --out F [--trace 0|1]
//       Runs exactly one assembly in this (fresh) process and reports its
//       peak RSS; with --trace 1, the RSS high-water mark at each boundary
//       of the traced pipeline instead.
//   ppa_perfbench run     --workload W --dir D --seconds S --trace 0|1
//                         --out F [--spans-out T]
//       Repeats assemblies for S seconds. --trace 0 reports the end-to-end
//       metrics (Assembler::Assemble, no spans); --trace 1 alternates an
//       untraced Assemble with the same operations called one by one from
//       here, each wrapped in a span, and reports per-layer metrics.
//
// Results go to the --out JSON file (stdout stays free of worker log
// lines). Every assembly's contig-set digest is checked against the first.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/options.h"
#include "core/tip_removal.h"
#include "dna/read.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "quality/quast.h"
#include "sim/fastq_export.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/json.h"
#include "util/logging.h"

namespace ppa {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  // Input simulation (the recipe of sim/datasets.cpp at scale 1, but with
  // the benchmark seed).
  uint64_t genome_length = 250000;
  uint32_t repeat_families = 6;
  double coverage = 30;
  // Assembly configuration.
  bool stream = false;  // FASTQ through ReadStream vs reads in memory
  LabelingMethod method = LabelingMethod::kListRanking;
  unsigned num_threads = 4;
  uint32_t coverage_threshold = 2;
  uint32_t shard_workers = 0;
  SpillMode spill_mode = SpillMode::kNever;
  uint64_t memory_budget_bytes = 0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    Workload hc2;
    hc2.name = "hc2-mem";

    Workload deep;
    deep.name = "deep-stream";
    deep.genome_length = 200000;
    deep.repeat_families = 5;
    deep.coverage = 150;
    deep.stream = true;
    deep.num_threads = 2;
    deep.coverage_threshold = 4;

    Workload fleet = hc2;  // same reads as hc2-mem
    fleet.name = "fleet-sv";
    fleet.stream = true;
    fleet.method = LabelingMethod::kSimplifiedSv;
    fleet.num_threads = 2;
    fleet.shard_workers = 2;
    fleet.spill_mode = SpillMode::kAuto;
    fleet.memory_budget_bytes = 8ULL << 20;
    return std::vector<Workload>{hc2, deep, fleet};
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

AssemblerOptions MakeOptions(const Workload& w, const std::string& dir) {
  AssemblerOptions options = bench::PaperOptions();
  options.num_threads = w.num_threads;
  options.coverage_threshold = w.coverage_threshold;
  options.shard_workers = w.shard_workers;
  options.spill_mode = w.spill_mode;
  options.memory_budget_bytes = w.memory_budget_bytes;
  options.spill_dir = dir;
  return options;
}

/// The in-process run the fleet must reproduce bit for bit: same reads,
/// labeling and threads, no workers and no spill.
AssemblerOptions LocalReferenceOptions(const Workload& w,
                                       const std::string& dir) {
  AssemblerOptions options = MakeOptions(w, dir);
  options.shard_workers = 0;
  options.spill_mode = SpillMode::kNever;
  options.memory_budget_bytes = 0;
  return options;
}

std::string ReadsPath(const std::string& dir) { return dir + "/reads.fastq"; }
std::string ReferencePath(const std::string& dir) {
  return dir + "/reference.txt";
}

void Generate(const Workload& w, uint64_t seed, double scale,
              const std::string& dir) {
  GenomeConfig genome;
  genome.length = static_cast<uint64_t>(w.genome_length * scale);
  genome.repeat_families = w.repeat_families;
  genome.repeat_length = 300;
  genome.repeat_copies = 5;
  genome.seed = seed;
  ReadSimConfig sim;
  sim.read_length = 100;
  sim.coverage = w.coverage;
  sim.error_rate = 0.005;
  sim.seed = seed ^ 0x5EED5EED5EEDULL;
  const PackedSequence reference = GenerateGenome(genome);
  ExportReadsFastq(SimulateReads(reference, sim), ReadsPath(dir));
  WriteFile(ReferencePath(dir), reference.ToString());
}

// ---------------------------------------------------------------------------
// Inputs, wiring, and one assembly
// ---------------------------------------------------------------------------

struct Inputs {
  std::string fastq;
  std::vector<Read> reads;  // loaded only for in-memory workloads
  PackedSequence reference;
};

Inputs LoadInputs(const Workload& w, const std::string& dir,
                  bool with_reference) {
  Inputs in;
  in.fastq = ReadsPath(dir);
  if (!w.stream) in.reads = ParseFastq(ReadFile(in.fastq));
  if (with_reference) {
    in.reference = PackedSequence::FromString(ReadFile(ReferencePath(dir)));
  }
  return in;
}

/// What the benchmark sets up before any read is consumed: the run's spill
/// context and worker fleet, wired into a copy of the options exactly as
/// Assembler::Assemble would. Injected into Assemble, they leave fleet
/// spawn and handshake out of the assembly time. Members are declared so
/// the fleet is torn down before the spill context, as in Assemble.
struct Wiring {
  AssemblerOptions options;
  std::unique_ptr<SpillContext> spill;
  std::unique_ptr<NetContext> net;
};

Wiring Wire(const AssemblerOptions& base) {
  Wiring wiring;
  wiring.options = base;
  wiring.spill = WireSpillContext(&wiring.options);
  wiring.net = WireNetContext(&wiring.options);
  return wiring;
}

/// Appends `count` samples of the seconds one set-up takes, each the mean
/// over a timed batch of `batch` set-ups. Wirings are released after each
/// batch's timer stops. Cheap set-ups (no fleet: an options copy) need
/// batches so the clock's own cost does not dominate; the caller samples
/// between assemblies so the median spans the whole run, not one moment.
void SampleSetups(const AssemblerOptions& base, size_t batch, int count,
                  std::vector<double>* samples) {
  std::vector<Wiring> held;
  held.reserve(batch);
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    for (size_t j = 0; j < batch; ++j) held.push_back(Wire(base));
    samples->push_back(SecondsSince(start) / static_cast<double>(batch));
    held.clear();
  }
}

/// Order-independent digest of a contig set: FNV-1a over the sorted
/// (sequence, coverage, circular) records.
std::string ContigDigest(const std::vector<ContigRecord>& contigs) {
  std::vector<std::string> records;
  records.reserve(contigs.size());
  for (const ContigRecord& c : contigs) {
    records.push_back(c.seq.ToString() + ' ' + std::to_string(c.coverage) +
                      (c.circular ? " c" : " l"));
  }
  std::sort(records.begin(), records.end());
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& r : records) {
    for (const char ch : r) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    }
    h = (h ^ '\n') * 1099511628211ULL;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx/%zu",
                static_cast<unsigned long long>(h), contigs.size());
  return buf;
}

struct Assembled {
  AssemblyResult result;
  double seconds = 0;  // first read consumed -> contig set
};

/// One Assembler::Assemble on already-wired options, timed from opening
/// the input to the returned contig set.
Assembled AssembleOnce(const Workload& w, const Inputs& in,
                       const AssemblerOptions& wired) {
  const Assembler assembler(wired);
  Assembled out;
  const Clock::time_point start = Clock::now();
  if (w.stream) {
    ReadStream stream(OpenFastxFiles({in.fastq}));
    out.result = assembler.Assemble(stream, w.method);
  } else {
    out.result = assembler.Assemble(in.reads, w.method);
  }
  out.seconds = SecondsSince(start);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics and checks
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Checks {
  std::vector<std::pair<std::string, std::string>> failures;  // name, detail
  int attempted = 0;  // assemblies run
  int failed = 0;     // assemblies that threw or failed a check

  void Fail(const std::string& name, const std::string& detail) {
    failures.emplace_back(name, detail);
  }
};

/// Checks one assembly's output against the run's first; returns false
/// (and records why) when it differs or the fleet reported a failure.
bool CheckAssembly(const std::string& what, const AssemblyResult& result,
                   const std::string& digest, std::string* expected,
                   Checks* checks) {
  bool ok = true;
  if (expected->empty()) *expected = digest;
  if (digest != *expected) {
    checks->Fail("digest_repeats",
                 what + " digest " + digest + " != " + *expected);
    ok = false;
  }
  if (result.contigs.empty()) {
    checks->Fail("contigs_nonempty", what + " produced no contigs");
    ok = false;
  }
  const KmerCountStats& cs = result.count_stats;
  if (cs.worker_failures != 0 || cs.net_degraded) {
    checks->Fail("fleet_healthy",
                 what + ": worker_failures=" +
                     std::to_string(cs.worker_failures) +
                     " degraded=" + std::to_string(cs.net_degraded));
    ok = false;
  }
  if (!ok) ++checks->failed;
  return ok;
}

// ---------------------------------------------------------------------------
// The traced run: FinishAssembly's operation order, called from here
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;  // relative to the span log's origin
  double end_s = 0;
  double seconds() const { return end_s - start_s; }
};

/// Spans kept in memory for the whole process, written out at the end.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent) {
    spans_.push_back({name, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_s = Now(); }

  /// Runs `fn` inside a span named `name` under `parent`.
  template <typename Fn>
  auto Around(const std::string& name, int parent, Fn&& fn) {
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->End(id); }
    } closer{this, Begin(name, parent)};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return SecondsSince(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// The layer (src/ module) each operation span belongs to.
const char* LayerOf(const std::string& span) {
  if (span == "dbg.build") return "dbg";
  if (span == "labeling" || span == "tips") return "pregel";
  if (span == "merging" || span == "bubbles") return "mapreduce";
  if (span == "net.collect") return "net";
  return "core";  // collect: CollectContigs
}

/// The operation spans a traced assembly must record, in order.
std::vector<std::string> ExpectedOperations(const AssemblerOptions& options) {
  std::vector<std::string> ops = {"dbg.build", "labeling", "merging",
                                  "collect"};
  for (int r = 0; r < options.error_correction_rounds; ++r) {
    for (const char* op : {"bubbles", "tips", "labeling", "merging"}) {
      ops.push_back(op);
    }
  }
  ops.push_back("collect");
  if (options.net_context != nullptr) ops.push_back("net.collect");
  return ops;
}

struct TracedRun {
  std::string digest;
  bool operations_in_order = false;  // one span per call, FinishAssembly's
                                     // order
  AssemblyResult result;  // contigs and count stats, for the checks
  Metrics metrics;
};

/// One traced assembly: wires, then calls the operations in
/// Assembler::FinishAssembly's order with a span around each call. When
/// `rss` is set, records the RSS high-water mark at the phase boundaries.
TracedRun RunTraced(const Workload& w, const Inputs& in,
                    const AssemblerOptions& base, SpanLog* log,
                    Metrics* rss) {
  const Wiring wiring = log->Around("setup", -1, [&] { return Wire(base); });
  const AssemblerOptions& options = wiring.options;

  TracedRun run;
  AssemblyResult& result = run.result;
  PipelineStats& stats = result.stats;
  const size_t first = log->spans().size();
  const int root = log->Begin("assembly", -1);
  DbgResult dbg = log->Around("dbg.build", root, [&] {
    if (w.stream) {
      ReadStream stream(OpenFastxFiles({in.fastq}));
      return BuildDbg(stream, options, &stats);
    }
    return BuildDbg(in.reads, options, &stats);
  });
  if (rss != nullptr) (*rss)["mem.rss_after_dbg_mb"] = {PeakRssMb(), "MB"};
  result.count_stats = dbg.count_stats;
  result.kmer_vertices = dbg.graph.live_size();
  AssemblyGraph& graph = dbg.graph;
  std::vector<uint32_t> ordinals(options.num_workers, 0);

  uint64_t label_supersteps = 0, label_messages = 0, label_bytes = 0;
  auto label = [&] {
    LabelingResult labels = log->Around("labeling", root, [&] {
      return LabelContigs(graph, options, w.method, &stats);
    });
    label_supersteps += labels.total_supersteps();
    label_messages += labels.total_messages();
    label_bytes +=
        labels.stats.total_bytes() + labels.cycle_sv_stats.total_bytes();
    return labels;
  };
  uint64_t pairs_emitted = 0, pairs_shuffled = 0;
  auto merge = [&](const LabelingResult& labels) {
    const MergeResult merged = log->Around("merging", root, [&] {
      return MergeContigs(graph, labels, options, &ordinals, &stats);
    });
    pairs_emitted +=
        merged.merge_stats.pairs_emitted + merged.link_stats.pairs_emitted;
    pairs_shuffled +=
        merged.merge_stats.pairs_shuffled + merged.link_stats.pairs_shuffled;
  };

  merge(label());
  log->Around("collect", root, [&] {
    for (const ContigRecord& c : CollectContigs(graph)) {
      result.round1_contig_lengths.push_back(c.seq.size());
    }
  });
  if (rss != nullptr) (*rss)["mem.rss_after_round1_mb"] = {PeakRssMb(), "MB"};

  uint64_t tip_supersteps = 0;
  for (int round = 0; round < options.error_correction_rounds; ++round) {
    const BubbleResult bubbles = log->Around(
        "bubbles", root, [&] { return FilterBubbles(graph, options, &stats); });
    result.bubbles_pruned += bubbles.contigs_pruned;
    const TipResult tips = log->Around(
        "tips", root, [&] { return RemoveTips(graph, options, &stats); });
    result.tips_removed += tips.vertices_removed;
    tip_supersteps += tips.stats.num_supersteps();
    merge(label());
  }
  result.contigs = log->Around("collect", root,
                               [&] { return CollectContigs(graph); });
  if (rss != nullptr) (*rss)["mem.rss_after_round2_mb"] = {PeakRssMb(), "MB"};
  if (options.net_context != nullptr) {
    log->Around("net.collect", root,
                [&] { return options.net_context->CollectMetrics(); });
  }
  log->End(root);
  run.digest = ContigDigest(result.contigs);

  // ---- Per-layer metrics of this run. -------------------------------------
  Metrics& m = run.metrics;
  std::map<std::string, double> op_seconds;
  std::map<std::string, double> layer_seconds;
  double children = 0;
  std::vector<std::string> ops;
  const std::vector<Span>& spans = log->spans();
  for (size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent != root) continue;
    ops.push_back(spans[i].name);
    op_seconds[spans[i].name] += spans[i].seconds();
    layer_seconds[LayerOf(spans[i].name)] += spans[i].seconds();
    children += spans[i].seconds();
  }
  const double wall = spans[root].seconds();
  m["trace.wall_s"] = {wall, "s"};
  m["trace.gap_s"] = {wall - children, "s"};
  m["trace.spans"] = {static_cast<double>(ops.size()), "count"};
  for (const char* layer : {"dbg", "pregel", "mapreduce", "core", "net"}) {
    m[std::string("self.") + layer + "_s"] = {layer_seconds[layer], "s"};
  }
  run.operations_in_order = ops == ExpectedOperations(options);

  const KmerCountStats& cs = dbg.count_stats;
  auto count = [](uint64_t v) { return Metric{static_cast<double>(v), "count"}; };
  auto bytes = [](uint64_t v) { return Metric{static_cast<double>(v), "B"}; };
  m["dbg.build_s"] = {op_seconds["dbg.build"], "s"};
  m["dbg.count_pass1_s"] = {cs.pass1_seconds, "s"};
  m["dbg.count_pass2_s"] = {cs.pass2_seconds, "s"};
  m["dbg.phase2_s"] = {stats.Aggregate("dbg-construction-phase2").wall_seconds,
                       "s"};
  m["dbg.windows"] = count(cs.total_windows);
  m["dbg.distinct_mers"] = count(cs.distinct_mers);
  m["dbg.surviving_mers"] = count(cs.surviving_mers);
  m["dbg.shuffled_bytes"] = bytes(cs.shuffled_bytes);
  m["dbg.peak_queued_bytes"] = bytes(cs.peak_queued_bytes);
  m["dbg.vertices"] = count(result.kmer_vertices);

  m["labeling.s"] = {op_seconds["labeling"], "s"};
  m["labeling.supersteps"] = count(label_supersteps);
  m["labeling.messages"] = count(label_messages);
  m["labeling.message_bytes"] = bytes(label_bytes);
  m["labeling.ns_per_message"] = {
      label_messages == 0 ? 0 : op_seconds["labeling"] * 1e9 / label_messages,
      "ns"};
  m["tips.s"] = {op_seconds["tips"], "s"};
  m["tips.supersteps"] = count(tip_supersteps);
  m["tips.removed"] = count(result.tips_removed);

  m["merging.s"] = {op_seconds["merging"], "s"};
  m["merging.pairs_emitted"] = count(pairs_emitted);
  m["merging.pairs_shuffled"] = count(pairs_shuffled);
  m["bubbles.s"] = {op_seconds["bubbles"], "s"};
  m["bubbles.pruned"] = count(result.bubbles_pruned);

  const SpillContext* spill = options.spill_context;
  m["spill.spilled_bytes"] = bytes(stats.total_spilled_bytes());
  m["spill.readback_bytes"] = bytes(stats.total_readback_bytes());
  m["spill.peak_resident_bytes"] =
      bytes(spill == nullptr ? 0 : spill->budget.peak_resident_bytes());
  m["spill.budget_bytes"] =
      bytes(spill == nullptr ? 0 : spill->budget.budget_bytes());

  m["net.sent_bytes"] = bytes(cs.net_sent_bytes);
  m["net.chunks"] = count(cs.net_chunks);
  m["net.worker_failures"] = count(cs.worker_failures);
  m["net.degraded"] = count(cs.net_degraded ? 1 : 0);

  m["pipeline.messages"] = count(stats.total_messages());
  m["pipeline.supersteps"] = count(stats.total_supersteps());
  return run;
}

/// Seconds to drain the workload's FASTQ through a ReadStream with no
/// consumer work (the io layer alone), median of `samples` drains.
double MeasureDrainSeconds(const Workload& w, const Inputs& in, int samples,
                           Checks* checks) {
  std::vector<double> seconds;
  uint64_t reads = 0;
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point start = Clock::now();
    ReadStream stream(OpenFastxFiles({in.fastq}));
    stream.ForEachBatch(w.num_threads, [](ReadBatch&) {});
    seconds.push_back(SecondsSince(start));
    if (i > 0 && stream.total_reads() != reads) {
      checks->Fail("drain_repeats", "drained read count changed");
    }
    reads = stream.total_reads();
  }
  if (reads == 0) checks->Fail("drain_nonempty", "drained no reads");
  return Median(seconds);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  std::string out;
  std::string spans_out;
  uint64_t seed = 1;
  double scale = 1.0;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "ppa_perfbench: %s\n"
               "usage: ppa_perfbench gen|oneshot|run --workload W --dir D "
               "[--seed N] [--scale X] [--seconds S] [--trace 0|1] "
               "[--out F] [--spans-out T]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--dir") a.dir = v;
    else if (arg == "--out") a.out = v;
    else if (arg == "--spans-out") a.spans_out = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--scale") a.scale = std::stod(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = v == "1";
    else Usage("unknown flag " + arg);
  }
  if (a.workload.empty() || a.dir.empty()) Usage("--workload and --dir");
  if (a.mode != "gen" && a.out.empty()) Usage("--out");
  return a;
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void WriteResult(const std::string& path, const Workload& w,
                 const Metrics& metrics, const Checks& checks,
                 const std::string& digest,
                 const std::vector<double>& samples = {}) {
  std::ofstream file(path);
  // bench_common.h's provenance members, wrapped into an object.
  file << "{\"provenance\": {\n" << bench::JsonProvenanceFields()
       << "  \"nproc\": " << Nproc() << ",\n  \"workload\": \"" << w.name
       << "\",\n  \"num_threads\": " << w.num_threads << "},\n";
  file << "\"result\": ";
  JsonWriter json(file);
  json.BeginObject();
  json.Key("digest");
  json.Value(digest);
  json.Key("attempted");
  json.Value(static_cast<int64_t>(checks.attempted));
  json.Key("failed");
  json.Value(static_cast<int64_t>(checks.failed));
  json.Key("assembly_s_samples");
  json.BeginArray();
  for (const double v : samples) json.Value(v);
  json.EndArray();
  json.Key("check_failures");
  json.BeginArray();
  for (const auto& [name, detail] : checks.failures) {
    json.BeginObject();
    json.Key("check");
    json.Value(name);
    json.Key("detail");
    json.Value(detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, metric] : metrics) {
    json.Key(name);
    json.BeginObject();
    json.Key("value");
    json.Value(metric.value);
    json.Key("unit");
    json.Value(metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  file << "}\n";
  if (!file) {
    std::fprintf(stderr, "ppa_perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Chrome trace_event JSON (loadable in Perfetto); each event carries its
/// parent span's index in args.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path);
  JsonWriter json(file);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    json.BeginObject();
    json.Key("name");
    json.Value(spans[i].name);
    json.Key("ph");
    json.Value("X");
    json.Key("pid");
    json.Value(int64_t{1});
    json.Key("tid");
    json.Value(int64_t{1});
    json.Key("ts");
    json.Value(spans[i].start_s * 1e6);
    json.Key("dur");
    json.Value(spans[i].seconds() * 1e6);
    json.Key("args");
    json.BeginObject();
    json.Key("id");
    json.Value(static_cast<int64_t>(i));
    json.Key("parent");
    json.Value(static_cast<int64_t>(spans[i].parent));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  file << "\n";
}

int OneShot(const Args& a, const Workload& w) {
  const Inputs in = LoadInputs(w, a.dir, /*with_reference=*/false);
  const AssemblerOptions base = MakeOptions(w, a.dir);
  Checks checks;
  checks.attempted = 1;
  Metrics metrics;
  std::string digest;
  if (a.trace) {
    SpanLog log;
    const TracedRun run = RunTraced(w, in, base, &log, &metrics);
    digest = run.digest;
    if (!run.operations_in_order) {
      checks.Fail("trace_operations", "operation spans out of order");
      ++checks.failed;
    } else {
      CheckAssembly("traced one-shot", run.result, digest, &digest, &checks);
    }
  } else {
    const Wiring wiring = Wire(base);
    const Assembled done = AssembleOnce(w, in, wiring.options);
    digest = ContigDigest(done.result.contigs);
    CheckAssembly("one-shot", done.result, digest, &digest, &checks);
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  WriteResult(a.out, w, metrics, checks, digest);
  return 0;
}

int Run(const Args& a, const Workload& w) {
  const Inputs in = LoadInputs(w, a.dir, /*with_reference=*/true);
  const AssemblerOptions base = MakeOptions(w, a.dir);
  Checks checks;
  Metrics metrics;
  std::string expected;  // the run's contig-set digest

  // Warm-up (caches, allocator, page faults); also the run's quality
  // numbers, which depend only on the contig set.
  {
    const Wiring wiring = Wire(base);
    const Assembled warm = AssembleOnce(w, in, wiring.options);
    ++checks.attempted;
    CheckAssembly("warm-up", warm.result, ContigDigest(warm.result.contigs),
                  &expected, &checks);
    const QuastReport q =
        EvaluateAssembly(warm.result.ContigStrings(), &in.reference);
    if (a.trace) {
      // Deterministic for a seed but not steady across seeds (N50 jumps
      // between contig lengths; misassemblies is usually 0), so they are
      // per-layer numbers rather than bounded end-to-end ones.
      metrics["quality.n50_bp"] = {static_cast<double>(q.n50), "bp"};
      metrics["quality.misassemblies"] = {
          static_cast<double>(q.misassemblies), "count"};
    } else {
      metrics["genome_fraction_pct"] = {q.genome_fraction, "%"};
    }
  }
  // The fleet's bit-identity contract: an in-process run without workers
  // or spill must give the same contigs.
  if (w.shard_workers > 0) {
    const Assembled local =
        AssembleOnce(w, in, LocalReferenceOptions(w, a.dir));
    ++checks.attempted;
    const std::string local_digest = ContigDigest(local.result.contigs);
    if (local_digest != expected) {
      checks.Fail("fleet_matches_local",
                  "fleet " + expected + " != in-process " + local_digest);
      ++checks.failed;
    }
  }

  std::vector<double> assembly_s;
  std::vector<double> setup_s;
  const bool fleet = w.shard_workers > 0;
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, std::string> layer_units;
  SpanLog log;
  if (a.trace && w.stream) {
    metrics["io.drain_s"] = {MeasureDrainSeconds(w, in, 3, &checks), "s"};
  } else if (a.trace) {
    metrics["io.drain_s"] = {0, "s"};  // reads are already in memory
  }

  const Clock::time_point start = Clock::now();
  const size_t min_iterations = a.trace ? 1 : 3;
  while ((assembly_s.size() < min_iterations && checks.failed == 0) ||
         SecondsSince(start) < a.seconds) {
    ++checks.attempted;
    try {
      const Wiring wiring = Wire(base);
      const Assembled done = AssembleOnce(w, in, wiring.options);
      if (CheckAssembly("assembly", done.result,
                        ContigDigest(done.result.contigs), &expected,
                        &checks)) {
        assembly_s.push_back(done.seconds);
      }
    } catch (const std::exception& e) {
      checks.Fail("assembly_throws", e.what());
      ++checks.failed;
    }
    if (!a.trace) {
      SampleSetups(base, fleet ? 1 : 64, fleet ? 3 : 101, &setup_s);
      continue;
    }
    ++checks.attempted;
    try {
      const TracedRun run = RunTraced(w, in, base, &log, nullptr);
      if (!run.operations_in_order) {
        checks.Fail("trace_operations", "operation spans out of order");
        ++checks.failed;
      } else if (run.digest != expected) {
        checks.Fail("traced_matches_untraced",
                    "traced " + run.digest + " != untraced " + expected);
        ++checks.failed;
      } else if (CheckAssembly("traced", run.result, run.digest, &expected,
                               &checks)) {
        for (const auto& [name, metric] : run.metrics) {
          layer_samples[name].push_back(metric.value);
          layer_units[name] = metric.unit;
        }
      }
    } catch (const std::exception& e) {
      checks.Fail("traced_throws", e.what());
      ++checks.failed;
    }
  }

  if (a.trace) {
    // Counts that depend only on the input must repeat exactly.
    for (const char* name : {"labeling.messages", "labeling.supersteps",
                             "pipeline.messages", "pipeline.supersteps",
                             "dbg.distinct_mers", "dbg.vertices"}) {
      const std::vector<double>& v = layer_samples[name];
      if (!v.empty() && std::count(v.begin(), v.end(), v[0]) !=
                            static_cast<std::ptrdiff_t>(v.size())) {
        checks.Fail("counts_repeat", std::string(name) + " varies");
      }
    }
    for (const auto& [name, values] : layer_samples) {
      metrics[name] = {Median(values), layer_units[name]};
    }
    metrics["trace.overhead_s"] = {
        metrics["trace.wall_s"].value - Median(assembly_s), "s"};
    if (!a.spans_out.empty()) WriteSpans(a.spans_out, log.spans());
  } else {
    metrics["assembly_s"] = {Median(assembly_s), "s"};
    metrics["setup_s"] = {Median(setup_s), "s"};
  }
  WriteResult(a.out, w, metrics, checks, expected, assembly_s);
  return 0;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  const Args a = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) Usage("unknown workload " + a.workload);
  if (a.mode == "gen") {
    Generate(*w, a.seed, a.scale, a.dir);
    return 0;
  }
  if (a.mode == "oneshot") return OneShot(a, *w);
  if (a.mode == "run") return Run(a, *w);
  Usage("unknown mode " + a.mode);
}

}  // namespace
}  // namespace ppa

int main(int argc, char** argv) { return ppa::Main(argc, argv); }
