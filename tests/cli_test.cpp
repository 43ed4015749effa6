// Tests for the ppa_assemble CLI driver (cli/assemble_cli.h): flag parsing
// and the end-to-end acceptance property — assembling an exported simulated
// FASTQ through the streaming path produces contigs whose QUAST-style
// metrics equal the in-memory pipeline's on the same dataset.
#include "cli/assemble_cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/assembler.h"
#include "io/fastx.h"
#include "net/worker.h"
#include "quality/quast.h"
#include "sim/datasets.h"
#include "sim/fastq_export.h"
#include "util/json.h"

namespace ppa {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool Parse(std::vector<const char*> args, AssembleCliOptions* opts,
           std::string* error) {
  bool help = false;
  return ParseAssembleCliArgs(static_cast<int>(args.size()), args.data(),
                              opts, &help, error);
}

TEST(AssembleCliParseTest, FlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"-k", "21", "--theta", "3", "--tip-length", "60",
                     "--bubble-edit", "4", "--workers", "8", "--threads", "2",
                     "--rounds", "2", "--labeling", "sv", "--shuffle", "sort",
                     "--shards", "16", "--pass1-encoding", "raw",
                     "--minimizer-len", "9",
                     "--queue-bytes", "5000", "--spill-mode", "auto",
                     "--memory-budget-bytes", "123456", "--spill-dir",
                     "/tmp/spill-parent", "--batch-reads", "128",
                     "--batch-bases", "65536", "--queue-depth", "2",
                     "--contigs", "c.fasta", "--stats", "s.txt",
                     "--reference", "r.fasta", "--min-contig", "100",
                     "in.fastq", "in2.fasta"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.k, 21);
  EXPECT_EQ(opts.assembler.coverage_threshold, 3u);
  EXPECT_EQ(opts.assembler.tip_length_threshold, 60u);
  EXPECT_EQ(opts.assembler.bubble_edit_distance, 4u);
  EXPECT_EQ(opts.assembler.num_workers, 8u);
  EXPECT_EQ(opts.assembler.num_threads, 2u);
  EXPECT_EQ(opts.assembler.error_correction_rounds, 2);
  EXPECT_EQ(opts.labeling, LabelingMethod::kSimplifiedSv);
  EXPECT_EQ(opts.assembler.shuffle_strategy, ShuffleStrategy::kSort);
  EXPECT_EQ(opts.assembler.kmer_shards, 16u);
  EXPECT_EQ(opts.assembler.pass1_encoding, Pass1Encoding::kRaw);
  EXPECT_EQ(opts.assembler.minimizer_len, 9u);
  EXPECT_EQ(opts.assembler.kmer_queue_bytes, 5000u);
  EXPECT_EQ(opts.assembler.spill_mode, SpillMode::kAuto);
  EXPECT_EQ(opts.assembler.memory_budget_bytes, 123456u);
  EXPECT_EQ(opts.assembler.spill_dir, "/tmp/spill-parent");
  EXPECT_EQ(opts.stream.batch_reads, 128u);
  EXPECT_EQ(opts.stream.batch_bases, 65536u);
  EXPECT_EQ(opts.stream.queue_depth, 2u);
  EXPECT_EQ(opts.contigs_out, "c.fasta");
  EXPECT_EQ(opts.stats_out, "s.txt");
  EXPECT_EQ(opts.reference, "r.fasta");
  EXPECT_EQ(opts.min_contig, 100u);
  ASSERT_EQ(opts.inputs.size(), 2u);
  EXPECT_EQ(opts.inputs[0], "in.fastq");
  EXPECT_EQ(opts.inputs[1], "in2.fasta");
}

TEST(AssembleCliParseTest, RejectsBadInput) {
  AssembleCliOptions opts;
  std::string error;
  EXPECT_FALSE(Parse({}, &opts, &error));  // no inputs
  opts = {};
  EXPECT_FALSE(Parse({"--bogus", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--bogus"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"-k", "notanint", "in.fastq"}, &opts, &error));
  opts = {};
  EXPECT_FALSE(Parse({"-k"}, &opts, &error));  // missing value
  opts = {};
  // Negative values must not wrap through strtoull.
  EXPECT_FALSE(Parse({"--theta", "-1", "in.fastq"}, &opts, &error));
  opts = {};
  // Range violations are usage errors, not PPA_CHECK aborts.
  EXPECT_FALSE(Parse({"-k", "33", "in.fastq"}, &opts, &error));
  opts = {};
  EXPECT_FALSE(Parse({"-k", "20", "in.fastq"}, &opts, &error));  // even
  EXPECT_NE(error.find("odd"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--workers", "0", "in.fastq"}, &opts, &error));
  opts = {};
  EXPECT_FALSE(Parse({"--shuffle", "merge", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--shuffle"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--pass1-encoding", "packed", "in.fastq"}, &opts,
                     &error));
  EXPECT_NE(error.find("--pass1-encoding"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--minimizer-len", "0", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--minimizer-len"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--minimizer-len", "32", "in.fastq"}, &opts, &error));
  opts = {};
  // 2^32 + 11 must not wrap into range through the uint32 cast.
  EXPECT_FALSE(
      Parse({"--minimizer-len", "4294967307", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--minimizer-len"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--spill-mode", "sometimes", "in.fastq"}, &opts,
                     &error));
  EXPECT_NE(error.find("--spill-mode"), std::string::npos);
  opts = {};
  EXPECT_FALSE(
      Parse({"--memory-budget-bytes", "-5", "in.fastq"}, &opts, &error));
  opts = {};
  // Serial counting only exists on the in-memory path.
  EXPECT_FALSE(Parse({"--serial-counting", "in.fastq"}, &opts, &error));
  opts = {};
  bool help = false;
  std::vector<const char*> help_args = {"--help"};
  EXPECT_TRUE(ParseAssembleCliArgs(1, help_args.data(), &opts, &help,
                                   &error));
  EXPECT_TRUE(help);
}

TEST(AssembleCliParseTest, ObservabilityFlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--report-json", "run.json", "--trace-out", "trace.json",
                     "--progress", "--log-level", "debug", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.report_json, "run.json");
  EXPECT_EQ(opts.trace_out, "trace.json");
  EXPECT_TRUE(opts.progress);
  EXPECT_EQ(opts.log_level, "debug");

  // Bad levels are a usage error at parse time, not a silent default.
  opts = {};
  EXPECT_FALSE(Parse({"--log-level", "chatty", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--log-level"), std::string::npos) << error;

  // --metrics-listen takes any endpoint spec and is validated at parse
  // time, so a typo fails before the pipeline spends an hour running.
  opts = {};
  ASSERT_TRUE(
      Parse({"--metrics-listen", "127.0.0.1:9464", "in.fastq"}, &opts,
            &error))
      << error;
  EXPECT_EQ(opts.metrics_listen, "127.0.0.1:9464");
  opts = {};
  EXPECT_FALSE(
      Parse({"--metrics-listen", "not a port", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--metrics-listen"), std::string::npos) << error;
}

TEST(AssembleCliParseTest, DistributedFlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--shard-workers", "3", "--worker-binary", "/bin/w",
                     "--net-window-bytes", "4096", "--net-timeout-ms", "777",
                     "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.shard_workers, 3u);
  EXPECT_EQ(opts.assembler.worker_binary, "/bin/w");
  EXPECT_EQ(opts.assembler.net_window_bytes, 4096u);
  EXPECT_EQ(opts.assembler.net_timeout_ms, 777);

  opts = {};
  ASSERT_TRUE(Parse({"--worker-endpoints", "unix:/a.sock,9000", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.worker_endpoints, "unix:/a.sock,9000");

  // Distribution rides the streaming pipeline only.
  opts = {};
  EXPECT_FALSE(
      Parse({"--shard-workers", "2", "--in-memory", "in.fastq"}, &opts,
            &error));
  EXPECT_NE(error.find("--in-memory"), std::string::npos) << error;
}

TEST(AssembleCliParseTest, FaultPlanValidatedAtParseTime) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--shard-workers", "2", "--fault-plan",
                     "seed=7,kill-worker@chunk=3@worker=0", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.fault_plan, "seed=7,kill-worker@chunk=3@worker=0");

  // A bad plan is a usage error here, not a throw deep inside fleet setup.
  opts = {};
  EXPECT_FALSE(Parse({"--fault-plan", "explode@frame=1", "in.fastq"}, &opts,
                     &error));
  EXPECT_NE(error.find("--fault-plan"), std::string::npos) << error;
}

TEST(AssembleCliRunTest, MissingInputFailsGracefully) {
  AssembleCliOptions opts;
  opts.inputs = {TempPath("does_not_exist.fastq")};
  std::ostringstream out, err;
  EXPECT_EQ(RunAssembleCli(opts, out, err), 1);
  EXPECT_NE(err.str().find("cannot open input"), std::string::npos);
}

/// Contig sequences of a FASTA file as a sorted multiset (order-insensitive
/// comparison between pipeline variants).
std::vector<std::string> SortedContigSeqs(const std::string& path) {
  std::vector<std::string> seqs;
  for (const Read& r : ParseFasta(ReadFile(path))) seqs.push_back(r.bases);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

// The acceptance property: ppa_assemble on an exported simulated FASTQ ==
// the in-memory pipeline on the same dataset, asserted on QUAST metrics.
TEST(AssembleCliRunTest, StreamedFileRunMatchesInMemoryPipeline) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);  // ~10 kbp genome
  const std::string prefix = TempPath("hc2_e2e");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);
  ASSERT_EQ(written.size(), 2u);

  AssembleCliOptions opts;
  opts.inputs = {written[0]};
  opts.reference = written[1];
  opts.contigs_out = TempPath("hc2_e2e.contigs.fasta");
  opts.stats_out = TempPath("hc2_e2e.stats.txt");
  opts.assembler.num_workers = 8;
  opts.assembler.num_threads = 2;
  opts.assembler.kmer_queue_bytes = 65536;  // small bound: force backpressure
  opts.stream.batch_reads = 100;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();

  // In-memory reference run with identical options.
  Assembler assembler(opts.assembler);
  AssemblyResult in_memory = assembler.Assemble(dataset.reads);
  QuastConfig quast_config;  // same min_contig default as the CLI
  QuastReport expected = EvaluateAssembly(in_memory.ContigStrings(),
                                          &dataset.reference, quast_config);

  std::vector<Read> cli_contigs = ParseFasta(ReadFile(opts.contigs_out));
  std::vector<std::string> cli_seqs;
  for (const Read& r : cli_contigs) cli_seqs.push_back(r.bases);
  QuastReport actual =
      EvaluateAssembly(cli_seqs, &dataset.reference, quast_config);

  EXPECT_EQ(actual.num_contigs, expected.num_contigs);
  EXPECT_EQ(actual.total_length, expected.total_length);
  EXPECT_EQ(actual.n50, expected.n50);
  EXPECT_EQ(actual.largest_contig, expected.largest_contig);
  EXPECT_EQ(actual.misassemblies, expected.misassemblies);
  EXPECT_DOUBLE_EQ(actual.genome_fraction, expected.genome_fraction);
  EXPECT_DOUBLE_EQ(actual.mismatches_per_100kbp,
                   expected.mismatches_per_100kbp);

  // Stronger: the contig sequence multiset is identical.
  std::vector<std::string> expected_seqs;
  for (const std::string& s : in_memory.ContigStrings()) {
    expected_seqs.push_back(s);
  }
  std::sort(expected_seqs.begin(), expected_seqs.end());
  EXPECT_EQ(SortedContigSeqs(opts.contigs_out), expected_seqs);

  // The stats report carries the streaming bound evidence and the shuffle
  // engine's combiner effectiveness (combining must have removed pairs).
  const std::string stats = ReadFile(opts.stats_out);
  EXPECT_NE(stats.find("mode=stream"), std::string::npos);
  EXPECT_NE(stats.find("shuffle: strategy=hash pairs_emitted="),
            std::string::npos)
      << stats;
  EXPECT_EQ(stats.find("combined_away=0\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("pass1=superkmer"), std::string::npos) << stats;
  EXPECT_NE(stats.find("peak_queued_bytes="), std::string::npos);
  EXPECT_NE(stats.find("n50="), std::string::npos);
  EXPECT_NE(stats.find("queue_bound_bytes=65536"), std::string::npos)
      << stats;
}

// The acceptance property of the pass-1 encodings: streaming ppa_assemble
// under --pass1-encoding raw and superkmer produces identical surviving-mer
// counts, identical contig multisets, and identical QUAST metrics — the
// superkmer run just ships fewer pass-1 bytes.
TEST(AssembleCliRunTest, Pass1EncodingsProduceIdenticalAssemblies) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_pass1");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  auto run = [&](const char* encoding) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.reference = written[1];
    opts.contigs_out =
        TempPath(std::string("hc2_pass1.") + encoding + ".fasta");
    opts.stats_out = TempPath(std::string("hc2_pass1.") + encoding + ".txt");
    opts.assembler.num_workers = 8;
    opts.assembler.num_threads = 2;
    EXPECT_TRUE(
        ParsePass1Encoding(encoding, &opts.assembler.pass1_encoding));
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions raw = run("raw");
  const AssembleCliOptions sk = run("superkmer");

  EXPECT_EQ(SortedContigSeqs(raw.contigs_out), SortedContigSeqs(sk.contigs_out));

  // Grep the per-encoding evidence out of the stats reports: identical
  // surviving/window counts, and a smaller pass-1 byte volume for superkmer.
  auto field = [](const std::string& stats, const std::string& key) {
    // The key is either mid-line (" reads=") or at line start ("reads=").
    size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos) at = stats.find("\n" + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
    if (at == std::string::npos) return uint64_t{0};
    return static_cast<uint64_t>(
        std::stoull(stats.substr(at + key.size() + 2)));
  };
  const std::string raw_stats = ReadFile(raw.stats_out);
  const std::string sk_stats = ReadFile(sk.stats_out);
  EXPECT_NE(raw_stats.find("pass1=raw"), std::string::npos);
  EXPECT_NE(sk_stats.find("pass1=superkmer"), std::string::npos);
  EXPECT_EQ(field(raw_stats, "windows"), field(sk_stats, "windows"));
  EXPECT_EQ(field(raw_stats, "distinct"), field(sk_stats, "distinct"));
  EXPECT_EQ(field(raw_stats, "surviving"), field(sk_stats, "surviving"));
  EXPECT_EQ(field(raw_stats, "n50"), field(sk_stats, "n50"));
  EXPECT_LT(field(sk_stats, "pass1_bytes"), field(raw_stats, "pass1_bytes"));
}

// The spill acceptance property: `ppa_assemble --spill-mode always
// --memory-budget-bytes <tiny>` on the HC-2-sim dataset produces
// bit-identical contigs and counts to `--spill-mode never`, with peak
// resident chunk bytes held under the budget (asserted from the report).
TEST(AssembleCliRunTest, SpillAlwaysMatchesNeverUnderTinyBudget) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_spill");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);
  constexpr uint64_t kBudget = 262144;

  auto run = [&](const char* mode) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.reference = written[1];
    opts.contigs_out = TempPath(std::string("hc2_spill.") + mode + ".fasta");
    opts.stats_out = TempPath(std::string("hc2_spill.") + mode + ".txt");
    opts.assembler.num_workers = 8;
    opts.assembler.num_threads = 2;
    EXPECT_TRUE(ParseSpillMode(mode, &opts.assembler.spill_mode));
    if (opts.assembler.spill_mode != SpillMode::kNever) {
      opts.assembler.memory_budget_bytes = kBudget;
      opts.assembler.spill_dir = ::testing::TempDir();
    }
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions never = run("never");
  const AssembleCliOptions always = run("always");

  // Bit-identical contigs.
  EXPECT_EQ(SortedContigSeqs(always.contigs_out),
            SortedContigSeqs(never.contigs_out));

  auto field = [](const std::string& stats, const std::string& key) {
    // The key is either mid-line (" reads=") or at line start ("reads=").
    size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos) at = stats.find("\n" + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
    if (at == std::string::npos) return uint64_t{0};
    return static_cast<uint64_t>(
        std::stoull(stats.substr(at + key.size() + 2)));
  };
  const std::string never_stats = ReadFile(never.stats_out);
  const std::string always_stats = ReadFile(always.stats_out);
  EXPECT_NE(always_stats.find("spill: mode=always"), std::string::npos);
  EXPECT_NE(never_stats.find("spill: mode=never"), std::string::npos);
  // Identical counting + assembly metrics.
  for (const char* key : {"windows", "distinct", "surviving", "n50",
                          "total_length", "pairs_shuffled"}) {
    EXPECT_EQ(field(always_stats, key), field(never_stats, key)) << key;
  }
  // The always run really spilled, replayed everything it spilled, and the
  // pipeline-wide peak of resident chunk bytes stayed under the budget.
  EXPECT_GT(field(always_stats, "spilled_chunks"), 0u);
  EXPECT_GT(field(always_stats, "spill_files"), 0u);
  EXPECT_EQ(field(always_stats, "readback_bytes"),
            field(always_stats, "spilled_bytes"));
  EXPECT_EQ(field(always_stats, "budget_bytes"), kBudget);
  EXPECT_LE(field(always_stats, "peak_resident_bytes"), kBudget);
  EXPECT_LE(field(always_stats, "peak_queued_bytes"),
            field(always_stats, "queue_bound_bytes"));
  EXPECT_LE(field(always_stats, "queue_bound_bytes"), kBudget);
  EXPECT_EQ(field(never_stats, "spilled_bytes"), 0u);
}

// The distributed acceptance property: ppa_assemble against a worker fleet
// produces bit-identical contigs and counting metrics to the in-process
// run on the same dataset — here over in-process servers on unix sockets
// (the spawned-process path is exercised by DistributedSpawnedWorkersRun
// and the CI smoke job).
TEST(AssembleCliRunTest, DistributedEndpointsMatchInProcess) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_net");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  std::vector<std::unique_ptr<net::ShardWorkerServer>> servers;
  std::string endpoints;
  for (int w = 0; w < 2; ++w) {
    net::WorkerOptions options;
    options.listen = "unix:" + TempPath("hc2_net_w" + std::to_string(w)) +
                     ".sock";
    servers.push_back(std::make_unique<net::ShardWorkerServer>(options));
    std::string error;
    ASSERT_TRUE(servers.back()->Start(&error)) << error;
    if (!endpoints.empty()) endpoints += ',';
    endpoints += options.listen;
  }

  auto run = [&](const std::string& worker_endpoints, const char* tag) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.contigs_out = TempPath(std::string("hc2_net.") + tag + ".fasta");
    opts.stats_out = TempPath(std::string("hc2_net.") + tag + ".txt");
    opts.assembler.num_workers = 8;
    opts.assembler.num_threads = 2;
    opts.assembler.worker_endpoints = worker_endpoints;
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions local = run("", "local");
  const AssembleCliOptions distributed = run(endpoints, "dist");
  for (auto& server : servers) server->Stop();

  EXPECT_EQ(SortedContigSeqs(distributed.contigs_out),
            SortedContigSeqs(local.contigs_out));

  auto field = [](const std::string& stats, const std::string& key) {
    // The key is either mid-line (" reads=") or at line start ("reads=").
    size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos) at = stats.find("\n" + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
    if (at == std::string::npos) return uint64_t{0};
    return static_cast<uint64_t>(
        std::stoull(stats.substr(at + key.size() + 2)));
  };
  const std::string local_stats = ReadFile(local.stats_out);
  const std::string dist_stats = ReadFile(distributed.stats_out);
  for (const char* key : {"windows", "distinct", "surviving", "n50",
                          "total_length", "pairs_shuffled"}) {
    EXPECT_EQ(field(dist_stats, key), field(local_stats, key)) << key;
  }
  EXPECT_NE(dist_stats.find("net: workers=2"), std::string::npos)
      << dist_stats;
  EXPECT_NE(local_stats.find("net: workers=0"), std::string::npos)
      << local_stats;
  EXPECT_GT(field(dist_stats, "chunks"), 0u);
  EXPECT_GT(field(dist_stats, "sent_bytes"), 0u);
}

// The spawned-fleet path: --shard-workers forks real ppa_shard_worker
// processes (the binary sits next to this test binary in the build tree)
// and must produce the same contigs. Skipped when the binary is absent
// (non-standard build layouts).
TEST(AssembleCliRunTest, DistributedSpawnedWorkersRun) {
  std::string self(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", self.data(), self.size());
  ASSERT_GT(n, 0);
  self.resize(static_cast<size_t>(n));
  const std::string worker_binary =
      self.substr(0, self.rfind('/') + 1) + "ppa_shard_worker";
  if (!std::ifstream(worker_binary).good()) {
    GTEST_SKIP() << "ppa_shard_worker not found at " << worker_binary;
  }

  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.02);
  const std::string prefix = TempPath("hc2_spawn");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  auto run = [&](uint32_t workers, const char* tag) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.contigs_out = TempPath(std::string("hc2_spawn.") + tag + ".fasta");
    opts.assembler.num_workers = 4;
    opts.assembler.num_threads = 2;
    opts.assembler.shard_workers = workers;
    opts.assembler.worker_binary = worker_binary;
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions local = run(0, "local");
  const AssembleCliOptions spawned = run(2, "spawned");
  EXPECT_EQ(SortedContigSeqs(spawned.contigs_out),
            SortedContigSeqs(local.contigs_out));
}

// The golden-schema property of --report-json and --trace-out: both files
// are valid JSON with the required keys, and every total in run.json equals
// the value printed in the legacy text report — they render one registry
// snapshot.
TEST(AssembleCliRunTest, ReportJsonAndTraceMatchTextReport) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_obs");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  AssembleCliOptions opts;
  opts.inputs = {written[0]};
  opts.reference = written[1];
  opts.contigs_out = TempPath("hc2_obs.contigs.fasta");
  opts.stats_out = TempPath("hc2_obs.stats.txt");
  opts.report_json = TempPath("hc2_obs.run.json");
  opts.trace_out = TempPath("hc2_obs.trace.json");
  opts.assembler.num_workers = 8;
  opts.assembler.num_threads = 2;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();

  auto field = [](const std::string& stats, const std::string& key) {
    // The key is either mid-line (" reads=") or at line start ("reads=").
    size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos) at = stats.find("\n" + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
    if (at == std::string::npos) return uint64_t{0};
    return static_cast<uint64_t>(
        std::stoull(stats.substr(at + key.size() + 2)));
  };
  const std::string stats = ReadFile(opts.stats_out);

  JsonValue run;
  std::string error;
  ASSERT_TRUE(ParseJson(ReadFile(opts.report_json), &run, &error)) << error;
  ASSERT_NE(run.Find("schema"), nullptr);
  EXPECT_EQ(run.Find("schema")->str, "ppa.run_report.v1");
  EXPECT_EQ(run.Find("counting_mode")->str, "stream");
  EXPECT_EQ(run.Find("pass1_encoding")->str, "superkmer");
  EXPECT_EQ(run.Find("shuffle_strategy")->str, "hash");
  ASSERT_EQ(run.Find("inputs")->array.size(), 1u);
  EXPECT_EQ(run.Find("inputs")->array[0].str, written[0]);
  ASSERT_NE(run.Find("workers"), nullptr);  // present (empty: in-process)
  EXPECT_TRUE(run.Find("workers")->array.empty());

  const JsonValue* metrics = run.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Every JSON total equals the text report's value — one snapshot.
  const std::pair<const char*, const char*> kPairs[] = {
      {"ingest.reads", "reads"},
      {"ingest.bases", "bases"},
      {"counting.windows", "windows"},
      {"counting.distinct", "distinct"},
      {"counting.surviving", "surviving"},
      {"counting.pass1_bytes", "pass1_bytes"},
      {"shuffle.pairs_shuffled", "pairs_shuffled"},
      {"dbg.kmer_vertices", "kmer_vertices"},
      {"contigs.n50", "n50"},
      {"contigs.total_length", "total_length"},
  };
  for (const auto& [metric, key] : kPairs) {
    EXPECT_EQ(metrics->GetU64(metric), field(stats, key)) << metric;
  }
  // Each Pregel engine job reports its phase split in both renderings.
  const size_t job_line = stats.find("pregel_job: name=contig-labeling-lr ");
  ASSERT_NE(job_line, std::string::npos) << stats;
  const std::string job_stats = stats.substr(job_line - 1);
  EXPECT_EQ(metrics->GetU64("pregel.contig-labeling-lr.supersteps"),
            field(job_stats, "supersteps"));
  EXPECT_EQ(metrics->GetU64("pregel.contig-labeling-lr.messages"),
            field(job_stats, "messages"));
  EXPECT_GT(metrics->GetU64("pregel.contig-labeling-lr.supersteps"), 0u);
  EXPECT_GT(metrics->GetU64("pregel.contig-labeling-lr.compute_micros") +
                metrics->GetU64("pregel.contig-labeling-lr.deliver_micros"),
            0u);
  // The live io.* counters saw the same stream the ingest totals did.
  EXPECT_EQ(metrics->GetU64("io.reads"), field(stats, "reads"));
  EXPECT_EQ(metrics->GetU64("io.bases"), field(stats, "bases"));

  JsonValue trace;
  ASSERT_TRUE(ParseJson(ReadFile(opts.trace_out), &trace, &error)) << error;
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::vector<std::string> names;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    names.push_back(name->str);
  }
  for (const char* span : {"read_stream", "scan_batch", "count_chunk",
                           "map_phase", "reduce_phase", "contig_labeling",
                           "contig_merging"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), span), names.end())
        << span << " missing from trace";
  }
}

// The CLI's own in-memory mode must agree with its streaming mode.
TEST(AssembleCliRunTest, InMemoryModeMatchesStreamingMode) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.02);
  const std::string prefix = TempPath("hc2_modes");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  AssembleCliOptions stream_opts;
  stream_opts.inputs = {written[0]};
  stream_opts.contigs_out = TempPath("hc2_modes.stream.fasta");
  stream_opts.stats_out = TempPath("hc2_modes.stream.txt");
  stream_opts.assembler.num_workers = 4;
  stream_opts.assembler.num_threads = 2;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(stream_opts, out, err), 0) << err.str();

  AssembleCliOptions mem_opts = stream_opts;
  mem_opts.in_memory = true;
  mem_opts.assembler.sharded_kmer_counting = false;  // serial reference
  mem_opts.contigs_out = TempPath("hc2_modes.mem.fasta");
  mem_opts.stats_out = TempPath("hc2_modes.mem.txt");
  ASSERT_EQ(RunAssembleCli(mem_opts, out, err), 0) << err.str();

  EXPECT_EQ(SortedContigSeqs(stream_opts.contigs_out),
            SortedContigSeqs(mem_opts.contigs_out));
  EXPECT_NE(ReadFile(mem_opts.stats_out).find("mode=in-memory-serial"),
            std::string::npos);
}

}  // namespace
}  // namespace ppa
