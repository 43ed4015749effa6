#include "cli/assemble_cli.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/assembler.h"
#include "core/dbg_construction.h"
#include "dbg/kmer_counter.h"
#include "io/fasta_writer.h"
#include "io/fastx.h"
#include "net/faultinject.h"
#include "net/wire.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quality/quast.h"
#include "spill/spill.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ppa {

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  // strtoull would silently negate "-1" to 2^64-1, so reject any sign.
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// The streaming-vs-in-memory selector and coverage knobs the report names.
const char* CountingModeName(const AssembleCliOptions& opts) {
  if (!opts.in_memory) return "stream";
  return opts.assembler.sharded_kmer_counting ? "in-memory-sharded"
                                              : "in-memory-serial";
}

/// The one rendering of ingest + counting metrics (both report modes),
/// read from the run's registry snapshot. `mode`/`pass1` are the
/// non-numeric facts the snapshot does not carry.
void WriteIngestLines(std::ostream& out, const char* mode, const char* pass1,
                      const obs::SnapshotView& s) {
  out << "reads=" << s.Get("ingest.reads") << " bases=" << s.Get("ingest.bases")
      << " batches=" << s.Get("ingest.batches") << '\n';
  out << "counting: mode=" << mode << " pass1=" << pass1
      << " minimizer_len=" << s.Get("counting.minimizer_len")
      << " shards=" << s.Get("counting.shards")
      << " threads=" << s.Get("counting.threads")
      << " windows=" << s.Get("counting.windows")
      << " superkmers=" << s.Get("counting.superkmers")
      << " pass1_bytes=" << s.Get("counting.pass1_bytes")
      << " distinct=" << s.Get("counting.distinct")
      << " surviving=" << s.Get("counting.surviving")
      << " peak_queued_bytes=" << s.Get("counting.peak_queued_bytes")
      << " queue_bound_bytes=" << s.Get("counting.queue_bound_bytes")
      << " queue_impl="
      << QueueImplName(static_cast<QueueImpl>(s.Get("counting.queue_impl")))
      << " queue_spin_parks=" << s.Get("counting.queue_spin_parks")
      << " spilled_bytes=" << s.Get("counting.spilled_bytes")
      << " readback_bytes=" << s.Get("counting.readback_bytes") << '\n';
}

/// The pipeline-wide spill line (both report modes): policy, budget, the
/// measured high-water mark of resident chunk bytes, and the volume that
/// moved through the external store across counting + every shuffle job.
void WriteSpillLine(std::ostream& out, SpillMode mode,
                    const obs::SnapshotView& s) {
  out << "spill: mode=" << SpillModeName(mode)
      << " budget_bytes=" << s.Get("spill.budget_bytes")
      << " peak_resident_bytes=" << s.Get("spill.peak_resident_bytes")
      << " spilled_chunks=" << s.Get("spill.spilled_chunks")
      << " spilled_bytes=" << s.Get("spill.spilled_bytes")
      << " spill_files=" << s.Get("spill.spill_files")
      << " readback_bytes=" << s.Get("spill.readback_bytes") << '\n';
}

/// One line per Pregel engine job from the pregel.<job>.* gauges: its
/// supersteps, messages, and how its wall time split into the compute
/// phase and message delivery. Timings vary run to run, so the lines carry
/// a prefix of their own that equivalence diffs can drop.
void WritePregelJobLines(std::ostream& out, const obs::SnapshotView& s) {
  static const std::string kPrefix = "pregel.";
  static const std::string kSuffix = ".compute_micros";
  for (const obs::MetricValue& m : s.samples()) {
    const std::string& name = m.name;
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string job = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    const std::string base = kPrefix + job + ".";
    out << "pregel_job: name=" << job
        << " supersteps=" << s.Get(base + "supersteps")
        << " messages=" << s.Get(base + "messages")
        << " wall_seconds=" << s.Get(base + "wall_micros") / 1e6
        << " compute_seconds=" << m.value / 1e6
        << " deliver_seconds=" << s.Get(base + "deliver_micros") / 1e6
        << '\n';
  }
}

/// Per-worker telemetry lines (distributed runs only). A fresh "worker:"
/// prefix so equivalence diffs over counting/dbg/contigs lines never see
/// these chunk-boundary-dependent numbers.
void WriteWorkerLines(std::ostream& out,
                      const std::vector<obs::TelemetrySnapshot>& workers) {
  for (const obs::TelemetrySnapshot& w : workers) {
    out << "worker: endpoint=" << w.source
        << " connections=" << w.Get("worker.connections")
        << " frames_served=" << w.Get("worker.frames_served")
        << " chunk_bytes=" << w.Get("worker.chunk_bytes")
        << " recv_bytes=" << w.Get("worker.bytes_received")
        << " store_appends=" << w.Get("worker.store_appends")
        << " crc_rejects=" << w.Get("worker.crc_rejects") << '\n';
  }
}

/// QUAST-style evaluation shared by the text and JSON reports. Fills
/// `warning` (instead of printing) when the reference has extra records.
QuastReport EvaluateContigs(const AssembleCliOptions& opts,
                            const std::vector<std::string>& contigs,
                            std::string* warning) {
  PackedSequence reference;
  const PackedSequence* reference_ptr = nullptr;
  if (!opts.reference.empty()) {
    std::vector<Read> ref = ParseFasta(ReadFile(opts.reference));
    if (ref.size() > 1) {
      // The QUAST-style assessor aligns against a single sequence.
      *warning = "warning: reference has " + std::to_string(ref.size()) +
                 " records; metrics use only the first ('" + ref[0].name +
                 "')\n";
    }
    if (!ref.empty()) {
      reference = PackedSequence::FromString(ref[0].bases);
      reference_ptr = &reference;
    }
  }
  QuastConfig quast_config;
  quast_config.min_contig = opts.min_contig;
  return EvaluateAssembly(contigs, reference_ptr, quast_config);
}

void WriteReport(const AssembleCliOptions& opts, std::ostream& out,
                 const obs::SnapshotView& s, const char* pass1,
                 const std::string& ref_warning, const QuastReport& quast,
                 const std::vector<obs::TelemetrySnapshot>& workers,
                 double wall_seconds) {
  out << "== ppa_assemble report ==\n";
  out << "inputs:";
  for (const std::string& path : opts.inputs) out << ' ' << path;
  out << '\n';
  WriteIngestLines(out, CountingModeName(opts), pass1, s);
  out << "pipeline: jobs=" << s.Get("pipeline.jobs")
      << " supersteps=" << s.Get("pipeline.supersteps")
      << " messages=" << s.Get("pipeline.messages")
      << " message_bytes=" << s.Get("pipeline.message_bytes")
      << " wall_seconds=" << wall_seconds << '\n';
  WritePregelJobLines(out, s);
  // Combiner effectiveness across the MapReduce jobs: pairs the map UDFs
  // emitted vs pairs that actually crossed the shuffle after map-side
  // combining (equal when no job combined anything).
  out << "shuffle: strategy="
      << ShuffleStrategyName(opts.assembler.shuffle_strategy)
      << " pairs_emitted=" << s.Get("shuffle.pairs_emitted")
      << " pairs_shuffled=" << s.Get("shuffle.pairs_shuffled")
      << " combined_away=" << s.Get("shuffle.combined_away") << '\n';
  WriteSpillLine(out, opts.assembler.spill_mode, s);
  // Distributed execution (all zero for in-process runs). Byte totals
  // depend on chunk boundaries, so equivalence comparisons mask (or drop)
  // this line, like the queue/spill byte fields.
  out << "net: workers=" << s.Get("net.workers")
      << " chunks=" << s.Get("net.chunks")
      << " sent_bytes=" << s.Get("net.sent_bytes")
      << " received_bytes=" << s.Get("net.received_bytes") << '\n';
  // Fault-tolerance outcome: what the run survived (all zero on a healthy
  // fleet). degraded_local=1 means every worker died and the unsealed
  // shards were rebuilt from the coordinator's chunk journal.
  out << "recovery: worker_failures=" << s.Get("net.worker_failures")
      << " shards_reassigned=" << s.Get("net.shards_reassigned")
      << " chunks_replayed=" << s.Get("net.chunks_replayed")
      << " retries=" << s.Get("net.retries")
      << " degraded_local=" << s.Get("net.degraded") << '\n';
  out << "dbg: kmer_vertices=" << s.Get("dbg.kmer_vertices") << '\n';
  out << ref_warning;
  out << "contigs: count=" << s.Get("contigs.count")
      << " total_length=" << s.Get("contigs.total_length")
      << " n50=" << s.Get("contigs.n50")
      << " largest=" << s.Get("contigs.largest") << '\n';
  out << FormatReport(quast);
  WriteWorkerLines(out, workers);
}

/// Periodic stderr heartbeat (--progress): reads/s, resident bytes vs
/// budget, and per-worker unacked bytes, read live from the registry.
/// Emitted through the logger at warning level — visible at the default
/// level, silenced by --log-level error/silent — and under the log mutex
/// so lines never interleave.
class ProgressHeartbeat {
 public:
  explicit ProgressHeartbeat(bool enabled) {
    if (enabled) thread_ = std::thread([this] { Loop(); });
  }

  ~ProgressHeartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    const uint64_t start_us = MonotonicMicros();
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(2),
                         [&] { return stop_; })) {
      lock.unlock();
      Emit(start_us);
      lock.lock();
    }
  }

  void Emit(uint64_t start_us) {
    const obs::SnapshotView s(obs::MetricsRegistry::Global().Snapshot());
    const uint64_t elapsed_us = MonotonicMicros() - start_us;
    const uint64_t reads = s.Get("io.reads");
    const uint64_t reads_per_s =
        elapsed_us == 0 ? 0 : reads * 1000000 / elapsed_us;
    std::ostringstream line;
    line << "progress: reads=" << reads << " bases=" << s.Get("io.bases")
         << " reads_per_s=" << reads_per_s
         << " resident_bytes=" << s.Get("mem.resident_bytes")
         << " budget_bytes=" << s.Get("mem.budget_bytes");
    // net.worker.<endpoint>.unacked_bytes -> lag[<endpoint>]=N; with a
    // single worker the endpoint adds nothing, so the line dedupes to
    // lag=N.
    constexpr const char* kPrefix = "net.worker.";
    constexpr const char* kSuffix = ".unacked_bytes";
    std::vector<const obs::MetricValue*> lags;
    for (const obs::MetricValue& m : s.samples()) {
      if (m.name.rfind(kPrefix, 0) != 0) continue;
      if (m.name.size() < std::strlen(kPrefix) + std::strlen(kSuffix) ||
          m.name.compare(m.name.size() - std::strlen(kSuffix),
                         std::string::npos, kSuffix) != 0) {
        continue;
      }
      lags.push_back(&m);
    }
    if (lags.size() == 1) {
      line << " lag=" << lags[0]->value;
    } else {
      for (const obs::MetricValue* m : lags) {
        line << " lag["
             << m->name.substr(std::strlen(kPrefix),
                               m->name.size() - std::strlen(kPrefix) -
                                   std::strlen(kSuffix))
             << "]=" << m->value;
      }
    }
    LogRawLine(LogLevel::kWarning, line.str());
  }

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

std::string AssembleCliUsage() {
  return
      "usage: ppa_assemble [options] <reads.{fasta,fastq}[.gz]> [more "
      "inputs...]\n"
      "\n"
      "Runs the six-operation PPA-assembler pipeline on FASTA/FASTQ input,\n"
      "streaming reads through bounded memory, and writes contig FASTA plus\n"
      "a stats report.\n"
      "\n"
      "pipeline options (defaults mirror AssemblerOptions):\n"
      "  -k INT              k-mer size, odd, <= 31 (default 31)\n"
      "  --theta INT         min (k+1)-mer coverage kept (default 2)\n"
      "  --tip-length INT    tip length threshold (default 80)\n"
      "  --bubble-edit INT   bubble edit-distance threshold (default 5)\n"
      "  --workers INT       logical Pregel workers (default 16)\n"
      "  --threads INT       OS threads; 0 = hardware (default 0). While\n"
      "                      streaming, counting overlaps scanning, so up\n"
      "                      to 2x this many threads exist (counters sleep\n"
      "                      unless scanners outrun them)\n"
      "  --rounds INT        error-correction rounds (default 1)\n"
      "  --labeling lr|sv    contig labeling method (default lr)\n"
      "  --shuffle sort|hash MapReduce shuffle group-by strategy (default\n"
      "                      hash; sort is the reference path — both give\n"
      "                      identical contigs)\n"
      "\n"
      "counting options:\n"
      "  --shards INT        counting shards; 0 = auto\n"
      "  --pass1-encoding superkmer|raw\n"
      "                      pass-1 shuffle unit (default superkmer:\n"
      "                      2-bit-packed minimizer-bucketed super-k-mers,\n"
      "                      ~4-6x fewer shuffle bytes; raw = one 8-byte\n"
      "                      code per window, the equivalence oracle —\n"
      "                      both give identical contigs)\n"
      "  --minimizer-len INT minimizer length for superkmer encoding,\n"
      "                      in [1, 31], clamped to k+1 (default 11)\n"
      "  --queue-bytes INT   bound on buffered pass-1 chunk bytes\n"
      "                      (streaming; 0 = default 32 MB)\n"
      "  --in-memory         load all reads, use the in-memory pipeline\n"
      "\n"
      "memory budget & spilling:\n"
      "  --spill-mode never|auto|always\n"
      "                      never (default): chunk queues stay in memory;\n"
      "                      auto: seal-and-spill the largest queues to\n"
      "                      per-shard files when the budget is exceeded;\n"
      "                      always: every sealed chunk goes through disk.\n"
      "                      All modes produce identical contigs\n"
      "  --memory-budget-bytes INT\n"
      "                      pipeline-wide bound on resident chunk bytes\n"
      "                      (counting queues + shuffle chunks); 0 = no\n"
      "                      budget. Also caps the counting queue bound.\n"
      "                      Held under always, overshot by ~one sealed\n"
      "                      chunk under auto; budgets below one chunk\n"
      "                      (~100 KB) are floored to keep progress\n"
      "  --spill-dir PATH    parent directory for the run's spill files\n"
      "                      (default: system temp; removed after the run)\n"
      "  --serial-counting   with --in-memory: single-thread reference "
      "counter\n"
      "\n"
      "distributed execution:\n"
      "  --shard-workers INT spawn this many local ppa_shard_worker\n"
      "                      processes (unix sockets in a private temp\n"
      "                      dir) and stream counting pass-2 shards to\n"
      "                      them; with spilling on, shuffle spill chunks\n"
      "                      also land in the workers' memory. 0 =\n"
      "                      in-process (default). Identical contigs\n"
      "  --worker-endpoints LIST\n"
      "                      comma-separated endpoints of already-running\n"
      "                      workers (unix:/path, host:port, or port);\n"
      "                      wins over --shard-workers\n"
      "  --worker-binary PATH\n"
      "                      worker binary to spawn (default:\n"
      "                      ppa_shard_worker next to this binary)\n"
      "  --net-window-bytes INT\n"
      "                      per-worker cap on unacknowledged in-flight\n"
      "                      bytes (default 8 MB)\n"
      "  --net-timeout-ms INT\n"
      "                      connect/read/write timeout; also paces the\n"
      "                      heartbeat that detects dead or hung workers\n"
      "                      (default 30000; 0 = no timeout). Dead workers'\n"
      "                      shards replay to survivors from the chunk\n"
      "                      journal; with no survivors the run degrades\n"
      "                      to local counting — identical contigs either\n"
      "                      way\n"
      "  --fault-plan PLAN   deterministic fault injection forwarded to\n"
      "                      spawned workers, e.g.\n"
      "                      'kill-worker@chunk=3@worker=0' or\n"
      "                      'seed=7,drop-conn'. Grammar in\n"
      "                      src/net/faultinject.h. Testing only\n"
      "\n"
      "streaming options:\n"
      "  --batch-reads INT   max records per batch (default 1024)\n"
      "  --batch-bases INT   max bases per batch (default 1 Mbp)\n"
      "  --queue-depth INT   batches buffered ahead of consumers (default 4)\n"
      "\n"
      "output options:\n"
      "  --contigs PATH      contig FASTA (default contigs.fasta)\n"
      "  --dbg-out PATH      run DBG construction only; write the graph as\n"
      "                      FASTA-with-adjacency and stop\n"
      "  --stats PATH        stats report (default: stdout)\n"
      "  --reference PATH    reference FASTA for QUAST-style metrics\n"
      "  --min-contig INT    assessment cutoff (default 500)\n"
      "\n"
      "observability:\n"
      "  --report-json PATH  machine-readable run report (schema\n"
      "                      ppa.run_report.v1): every metric of the text\n"
      "                      report plus per-worker wire telemetry\n"
      "  --trace-out PATH    collect phase/span traces and write Chrome\n"
      "                      trace_event JSON (open in ui.perfetto.dev or\n"
      "                      chrome://tracing)\n"
      "  --progress          heartbeat line on stderr every ~2 s: reads/s,\n"
      "                      resident bytes vs budget, per-worker lag\n"
      "                      (logged at warn level: --log-level error\n"
      "                      silences it)\n"
      "  --metrics-listen ENDPOINT\n"
      "                      serve a Prometheus text exposition of the\n"
      "                      run's live metrics (plus per-worker lag\n"
      "                      gauges) at this endpoint (unix:/path,\n"
      "                      host:port, or port) while the run is in\n"
      "                      flight: curl http://host:port/metrics.\n"
      "                      Workers answer GET /metrics on their own\n"
      "                      listen sockets\n"
      "  --log-level LEVEL   debug|info|warn|error|silent (default warn;\n"
      "                      wins over --verbose)\n"
      "  --verbose           info-level logging\n"
      "  --help              this text\n";
}

bool ParseAssembleCliArgs(int argc, const char* const* argv,
                          AssembleCliOptions* opts, bool* help,
                          std::string* error) {
  *help = false;
  auto need_value = [&](int i, const std::string& flag) {
    if (i + 1 < argc) return true;
    *error = flag + " requires a value";
    return false;
  };
  auto u64_flag = [&](const std::string& flag, const std::string& value,
                      uint64_t* out) {
    if (ParseU64(value, out)) return true;
    *error = flag + ": expected a non-negative integer, got '" + value + "'";
    return false;
  };

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t v = 0;
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return true;
    } else if (arg == "-k" || arg == "--k") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.k = static_cast<int>(v);
    } else if (arg == "--theta" || arg == "--coverage-threshold") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.coverage_threshold = static_cast<uint32_t>(v);
    } else if (arg == "--tip-length") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.tip_length_threshold = static_cast<uint32_t>(v);
    } else if (arg == "--bubble-edit") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.bubble_edit_distance = static_cast<uint32_t>(v);
    } else if (arg == "--workers") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.num_workers = static_cast<uint32_t>(v);
    } else if (arg == "--threads") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.num_threads = static_cast<unsigned>(v);
    } else if (arg == "--rounds") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.error_correction_rounds = static_cast<int>(v);
    } else if (arg == "--labeling") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (value == "lr") {
        opts->labeling = LabelingMethod::kListRanking;
      } else if (value == "sv") {
        opts->labeling = LabelingMethod::kSimplifiedSv;
      } else {
        *error = "--labeling: expected 'lr' or 'sv', got '" + value + "'";
        return false;
      }
    } else if (arg == "--shuffle") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (!ParseShuffleStrategy(value, &opts->assembler.shuffle_strategy)) {
        *error = "--shuffle: expected 'sort' or 'hash', got '" + value + "'";
        return false;
      }
    } else if (arg == "--shards") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.kmer_shards = static_cast<uint32_t>(v);
    } else if (arg == "--pass1-encoding") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (!ParsePass1Encoding(value, &opts->assembler.pass1_encoding)) {
        *error =
            "--pass1-encoding: expected 'raw' or 'superkmer', got '" + value +
            "'";
        return false;
      }
    } else if (arg == "--minimizer-len") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      // Range-check the full 64-bit value so out-of-range inputs cannot
      // wrap into range through the uint32 cast.
      if (v < 1 || v > 31) {
        *error =
            "--minimizer-len: must be in [1, 31], got " + std::string(argv[i]);
        return false;
      }
      opts->assembler.minimizer_len = static_cast<uint32_t>(v);
    } else if (arg == "--queue-bytes") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.kmer_queue_bytes = v;
    } else if (arg == "--spill-mode") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (!ParseSpillMode(value, &opts->assembler.spill_mode)) {
        *error = "--spill-mode: expected 'never', 'auto' or 'always', got '" +
                 value + "'";
        return false;
      }
    } else if (arg == "--memory-budget-bytes") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.memory_budget_bytes = v;
    } else if (arg == "--spill-dir") {
      if (!need_value(i, arg)) return false;
      opts->assembler.spill_dir = argv[++i];
    } else if (arg == "--shard-workers") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.shard_workers = static_cast<uint32_t>(v);
    } else if (arg == "--worker-endpoints") {
      if (!need_value(i, arg)) return false;
      opts->assembler.worker_endpoints = argv[++i];
    } else if (arg == "--worker-binary") {
      if (!need_value(i, arg)) return false;
      opts->assembler.worker_binary = argv[++i];
    } else if (arg == "--net-window-bytes") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.net_window_bytes = v;
    } else if (arg == "--net-timeout-ms") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->assembler.net_timeout_ms = static_cast<int>(v);
    } else if (arg == "--fault-plan") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      net::FaultPlan plan;
      std::string plan_error;
      if (!net::FaultPlan::Parse(value, &plan, &plan_error)) {
        *error = "--fault-plan: " + plan_error;
        return false;
      }
      opts->assembler.fault_plan = value;
    } else if (arg == "--in-memory") {
      opts->in_memory = true;
    } else if (arg == "--serial-counting") {
      opts->assembler.sharded_kmer_counting = false;
    } else if (arg == "--batch-reads") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->stream.batch_reads = static_cast<size_t>(v);
    } else if (arg == "--batch-bases") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->stream.batch_bases = static_cast<size_t>(v);
    } else if (arg == "--queue-depth") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->stream.queue_depth = static_cast<size_t>(v);
    } else if (arg == "--contigs") {
      if (!need_value(i, arg)) return false;
      opts->contigs_out = argv[++i];
    } else if (arg == "--dbg-out") {
      if (!need_value(i, arg)) return false;
      opts->dbg_out = argv[++i];
    } else if (arg == "--stats") {
      if (!need_value(i, arg)) return false;
      opts->stats_out = argv[++i];
    } else if (arg == "--reference") {
      if (!need_value(i, arg)) return false;
      opts->reference = argv[++i];
    } else if (arg == "--min-contig") {
      if (!need_value(i, arg) || !u64_flag(arg, argv[++i], &v)) return false;
      opts->min_contig = static_cast<size_t>(v);
    } else if (arg == "--report-json") {
      if (!need_value(i, arg)) return false;
      opts->report_json = argv[++i];
    } else if (arg == "--trace-out") {
      if (!need_value(i, arg)) return false;
      opts->trace_out = argv[++i];
    } else if (arg == "--progress") {
      opts->progress = true;
    } else if (arg == "--metrics-listen") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      net::Endpoint endpoint;
      std::string endpoint_error;
      if (!net::ParseEndpoint(value, &endpoint, &endpoint_error)) {
        *error = "--metrics-listen: " + endpoint_error;
        return false;
      }
      opts->metrics_listen = value;
    } else if (arg == "--log-level") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      LogLevel level;
      if (!ParseLogLevel(value, &level)) {
        *error = "--log-level: expected debug|info|warn|error|silent, got '" +
                 value + "'";
        return false;
      }
      opts->log_level = value;
    } else if (arg == "--verbose") {
      opts->verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      *error = "unknown flag '" + arg + "' (see --help)";
      return false;
    } else {
      opts->inputs.push_back(arg);
    }
  }
  if (opts->inputs.empty()) {
    *error = "no input files (see --help)";
    return false;
  }
  if (!opts->in_memory && !opts->assembler.sharded_kmer_counting) {
    *error = "--serial-counting requires --in-memory (streaming counting is "
             "always sharded)";
    return false;
  }
  // Range-check here so bad values are a usage error (exit 2), not a
  // PPA_CHECK abort deep inside the pipeline.
  const int k = opts->assembler.k;
  if (k < 3 || k > 31 || k % 2 == 0) {
    *error = "-k: must be odd and in [3, 31], got " + std::to_string(k);
    return false;
  }
  if (opts->assembler.num_workers < 1) {
    *error = "--workers: must be >= 1";
    return false;
  }
  const uint32_t m = opts->assembler.minimizer_len;
  if (m < 1 || m > 31) {
    *error = "--minimizer-len: must be in [1, 31], got " + std::to_string(m);
    return false;
  }
  const bool distributed = opts->assembler.shard_workers != 0 ||
                           !opts->assembler.worker_endpoints.empty();
  if (distributed && opts->in_memory) {
    *error = "--shard-workers/--worker-endpoints require the streaming "
             "pipeline (drop --in-memory)";
    return false;
  }
  return true;
}

int RunAssembleCli(const AssembleCliOptions& opts, std::ostream& out,
                   std::ostream& err) {
  // A worker that dies mid-write must surface as a recoverable send error,
  // not kill the coordinator. Wire sends already pass MSG_NOSIGNAL; this
  // covers every other descriptor (a closed stdout pipe included).
  std::signal(SIGPIPE, SIG_IGN);
  for (const std::string& path : opts.inputs) {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.good()) {
      err << "ppa_assemble: cannot open input '" << path << "'\n";
      return 1;
    }
  }
  if (!opts.reference.empty()) {
    std::ifstream probe(opts.reference, std::ios::binary);
    if (!probe.good()) {
      err << "ppa_assemble: cannot open reference '" << opts.reference
          << "'\n";
      return 1;
    }
  }
  if (!opts.log_level.empty()) {
    LogLevel level = LogLevel::kWarning;
    ParseLogLevel(opts.log_level, &level);  // validated at parse time
    SetLogLevel(level);
  } else if (opts.verbose) {
    SetLogLevel(LogLevel::kInfo);
  }

  // One registry, one publication, one snapshot: the text report and
  // run.json below render from the same SnapshotView, so their totals
  // cannot drift apart.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetValues();
  if (!opts.trace_out.empty()) obs::StartTrace();

  // Live scrape endpoint (--metrics-listen): a background thread serving
  // the global registry — including the per-worker lag gauges — while the
  // run is in flight. Stopped by the guard's destructor on every path.
  obs::MetricsHttpServer metrics_server;
  if (!opts.metrics_listen.empty()) {
    std::string listen_error;
    if (!metrics_server.Start(
            opts.metrics_listen,
            [&registry] { return obs::RenderPrometheus(registry.Snapshot()); },
            &listen_error)) {
      err << "ppa_assemble: --metrics-listen: " << listen_error << '\n';
      return 1;
    }
  }

  Timer timer;
  std::ostringstream report;
  obs::RunReportInfo info;
  info.inputs = opts.inputs;
  std::vector<obs::TelemetrySnapshot> workers;
  std::vector<obs::ProcessTrace> worker_traces;
  bool write_json = !opts.report_json.empty();
  std::ostringstream run_json;

  try {
    ProgressHeartbeat heartbeat(opts.progress);
    // ---- DBG-construction-only mode. --------------------------------------
    if (!opts.dbg_out.empty()) {
      AssemblerOptions assembler_options = opts.assembler;
      std::unique_ptr<SpillContext> spill_guard =
          WireSpillContext(&assembler_options);
      std::unique_ptr<NetContext> net_guard =
          WireNetContext(&assembler_options);
      ReadStream stream(OpenFastxFiles(opts.inputs), opts.stream);
      PipelineStats pipeline;
      DbgResult dbg = BuildDbg(stream, assembler_options, &pipeline);
      WriteDbgFasta(opts.dbg_out, dbg.graph);
      if (assembler_options.net_context != nullptr) {
        workers = assembler_options.net_context->CollectMetrics();
        worker_traces = assembler_options.net_context->CollectTraces();
      }

      obs::RunReportData data;
      data.reads = stream.total_reads();
      data.bases = stream.total_bases();
      data.batches = stream.total_batches();
      data.counting = &dbg.count_stats;
      data.pipeline = &pipeline;
      if (spill_guard != nullptr) {
        data.spill_budget_bytes = spill_guard->budget.budget_bytes();
        data.spill_peak_resident_bytes =
            spill_guard->budget.peak_resident_bytes();
      }
      data.kmer_vertices = dbg.graph.live_size();
      data.wall_seconds = timer.Seconds();
      obs::PublishRunMetrics(data, &registry);
      const obs::SnapshotView snapshot(registry.Snapshot());

      report << "== ppa_assemble report ==\n"
             << "mode: dbg-only\n";
      WriteIngestLines(report, "stream",
                       Pass1EncodingName(dbg.count_stats.encoding), snapshot);
      WriteSpillLine(report, assembler_options.spill_mode, snapshot);
      report << "dbg: kmer_vertices=" << snapshot.Get("dbg.kmer_vertices")
             << " wall_seconds=" << data.wall_seconds << '\n';
      WriteWorkerLines(report, workers);

      if (write_json) {
        info.counting_mode = "stream";
        info.pass1_encoding = Pass1EncodingName(dbg.count_stats.encoding);
        info.shuffle_strategy =
            ShuffleStrategyName(assembler_options.shuffle_strategy);
        info.spill_mode = SpillModeName(assembler_options.spill_mode);
        info.wall_seconds = data.wall_seconds;
        info.workers = workers;
        obs::WriteRunReportJson(run_json, snapshot, info);
      }
    } else {
      // ---- Full pipeline. --------------------------------------------------
      Assembler assembler(opts.assembler);
      AssemblyResult result;
      uint64_t reads = 0, bases = 0, batches = 0;
      if (opts.in_memory) {
        std::vector<Read> all;
        std::unique_ptr<ReadSource> source = OpenFastxFiles(opts.inputs);
        Read read;
        while (source->Next(&read)) {
          bases += read.bases.size();
          all.push_back(std::move(read));
        }
        reads = all.size();
        batches = 1;
        result = assembler.Assemble(all, opts.labeling);
      } else {
        ReadStream stream(OpenFastxFiles(opts.inputs), opts.stream);
        result = assembler.Assemble(stream, opts.labeling);
        reads = stream.total_reads();
        bases = stream.total_bases();
        batches = stream.total_batches();
      }
      WriteContigsFasta(opts.contigs_out, result.contigs);
      std::string ref_warning;
      const QuastReport quast =
          EvaluateContigs(opts, result.ContigStrings(), &ref_warning);
      const double wall_seconds = timer.Seconds();

      obs::RunReportData data;
      data.reads = reads;
      data.bases = bases;
      data.batches = batches;
      data.counting = &result.count_stats;
      data.pipeline = &result.stats;
      data.spill_budget_bytes = result.spill_budget_bytes;
      data.spill_peak_resident_bytes = result.spill_peak_resident_bytes;
      data.kmer_vertices = result.kmer_vertices;
      data.has_contigs = true;
      data.num_contigs = quast.num_contigs;
      data.contigs_total_length = quast.total_length;
      data.contigs_n50 = quast.n50;
      data.largest_contig = quast.largest_contig;
      data.wall_seconds = wall_seconds;
      obs::PublishRunMetrics(data, &registry);
      const obs::SnapshotView snapshot(registry.Snapshot());

      worker_traces = std::move(result.worker_traces);
      WriteReport(opts, report, snapshot,
                  Pass1EncodingName(result.count_stats.encoding), ref_warning,
                  quast, result.worker_telemetry, wall_seconds);

      if (write_json) {
        info.counting_mode = CountingModeName(opts);
        info.pass1_encoding = Pass1EncodingName(result.count_stats.encoding);
        info.shuffle_strategy =
            ShuffleStrategyName(opts.assembler.shuffle_strategy);
        info.spill_mode = SpillModeName(opts.assembler.spill_mode);
        info.wall_seconds = wall_seconds;
        info.workers = result.worker_telemetry;
        obs::WriteRunReportJson(run_json, snapshot, info);
      }
    }
  } catch (const std::exception& e) {
    // Spill-store failures (unwritable spill dir, disk full, corrupt
    // readback) surface here as diagnostics, not crashes; the SpillContext
    // guards have already removed their temp directories by now.
    if (!opts.trace_out.empty()) obs::StopTrace();
    err << "ppa_assemble: " << e.what() << '\n';
    return 1;
  }

  if (!opts.trace_out.empty()) {
    obs::StopTrace();
    std::ofstream trace(opts.trace_out, std::ios::binary);
    if (!trace.good()) {
      err << "ppa_assemble: cannot write trace '" << opts.trace_out << "'\n";
      return 1;
    }
    obs::WriteTraceJson(trace, worker_traces);
  }
  if (write_json) {
    std::ofstream json(opts.report_json, std::ios::binary);
    if (!json.good()) {
      err << "ppa_assemble: cannot write report '" << opts.report_json
          << "'\n";
      return 1;
    }
    json << run_json.str();
  }
  if (opts.stats_out.empty()) {
    out << report.str();
  } else {
    WriteFile(opts.stats_out, report.str());
  }
  return 0;
}

}  // namespace ppa
