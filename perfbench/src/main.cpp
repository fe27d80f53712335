// perfbench: the GekkoFS benchmark program.
//
//   perfbench --workload <md-storm|ior-fpp-seq|ior-shared-rand>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with nothing recorded by
// the benchmark and the program's tracing at its defaults. --trace 1 is
// the traced run: the same workload and seed once untraced and once
// with the benchmark's tracer installed, followed by the layer probes;
// it prints the per-layer metrics. Either way the report lists every
// metric with its unit and sample count, and the last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
// with a wrong or failed result exits 1 after printing it.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis.h"
#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace stdfs = std::filesystem;

/// Boots per run. The process's first boot pays for cold caches and is
/// dropped; setup_s is the median of the kBoots timed ones after it.
constexpr int kBoots = 60;
constexpr std::size_t kNullRpcCalls = 5000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

void teardown(Deployment& dep) {
  dep.mount.reset();
  dep.cluster.reset();
}

/// The untraced pass: a warm-up boot and kBoots timed ones, one after
/// another (all but the last torn down again), then the workload on the
/// last one. setup_s and bootstrap time are medians over the timed boots.
struct PlainPass {
  double setup_s = 0;
  double bootstrap_ms = 0;
  RunResult result;
};

gekko::Result<PlainPass> plain_pass(const WorkloadSpec& spec, std::uint64_t seed,
                                    const stdfs::path& root) {
  const std::string dir = workload_dir(spec, seed);
  std::vector<double> setup_s;
  std::vector<double> bootstrap_ms;
  PlainPass p;
  for (int k = 0; k <= kBoots; ++k) {
    const stdfs::path boot_root = root / ("boot" + std::to_string(k));
    auto dep = boot(spec.transport, boot_root, dir);
    if (!dep) return dep.status();
    if (k > 0) {
      setup_s.push_back(dep->setup_s);
      bootstrap_ms.push_back(
          static_cast<double>(dep->cluster->bootstrap_time().count()) / 1e6);
    }
    if (k == kBoots) {
      FsCalls fs(*dep->mount);
      p.result = run_workload(spec, fs, seed, nullptr, nullptr);
    }
    teardown(*dep);
    stdfs::remove_all(boot_root);
  }
  p.setup_s = median(setup_s);
  p.bootstrap_ms = median(bootstrap_ms);
  return p;
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& base) {
  std::printf("  %-40s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              base.c_str());
}

std::string n_of(std::size_t n) { return "n=" + std::to_string(n); }

/// The end-to-end figures of one workload pass. The JSON names are
/// role names shared by every workload: the "write" role is the first
/// timed op (create on md-storm), the "read" role the second (stat).
/// The bounded tail is p90, which keeps over 100 samples beyond it on
/// every workload; the report block prints p99 beside it.
std::vector<Metric> end_to_end(const WorkloadSpec& spec, const PlainPass& pass) {
  const RunResult& r = pass.result;
  std::vector<Metric> out;
  out.push_back({"setup_s", pass.setup_s, "s",
                 "median of " + n_of(kBoots) + " boots after a warm-up"});
  const bool ior = spec.is_ior();
  const std::pair<const char*, const char*> roles[] = {
      {"write", ior ? "write" : "create"}, {"read", ior ? "read" : "stat"}};
  for (const auto& [role, op] : roles) {
    auto it = r.ops.find(op);
    if (it == r.ops.end()) continue;
    const Summary s = summarize(it->second.lat_us);
    const std::string name = std::string(role) + "_";
    const std::string of_op = std::string(op) + ", " + n_of(s.n);
    out.push_back({name + "ops_s", median(it->second.rates), "ops/s",
                   std::string(op) + ", median of " +
                       n_of(it->second.rates.size()) + " phase runs"});
    out.push_back({name + "p50_us", s.p50, "us", of_op});
    out.push_back({name + "p90_us", s.p90, "us", of_op});
  }
  return out;
}

/// The report block: every op's figures under its own name, the
/// fail fraction, and the first failures.
void print_ops(const WorkloadSpec& spec, const RunResult& r, const char* title) {
  std::printf("%s\n", title);
  for (const char* op : {"create", "stat", "remove", "write", "read"}) {
    auto it = r.ops.find(op);
    if (it == r.ops.end()) continue;
    const Summary s = summarize(it->second.lat_us);
    const std::string o = op;
    print_metric(o + "_ops_s", median(it->second.rates), "ops/s",
                 "median of " + n_of(it->second.rates.size()) + " phase runs");
    if (spec.is_ior()) {
      print_metric(o + "_mib_s",
                   median(it->second.rates) * static_cast<double>(spec.transfer) /
                       (1024.0 * 1024.0),
                   "MiB/s", std::to_string(spec.transfer) + " B per call");
    }
    print_metric(o + "_p50_us", s.p50, "us", n_of(s.n));
    print_metric(o + "_p90_us", s.p90, "us", n_of(s.n));
    if (s.tail_q > 0.9) print_metric(o + "_p99_us", s.tail, "us", n_of(s.n));
  }
  print_metric("fail_frac", r.fail_frac(), "ratio",
               std::to_string(r.failed) + " failed / " +
                   std::to_string(r.attempted) + " attempted");
  for (const auto& e : r.errors) std::printf("  FAILED: %s\n", e.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Write every span of the traced pass as tab-separated text.
bool write_spans(const stdfs::path& file,
                 const std::vector<gekko::metrics::TraceSpan>& spans) {
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\ttrace_id\tspan_id\tparent_span_id\trpc_id\tthread\tstart_ns\tduration_ns\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%s\t%" PRIx64 "\t%" PRIx64 "\t%" PRIx64 "\t%u\t%u\t%" PRIu64 "\t%" PRIu64 "\n",
                 s.name, s.trace_id, s.span_id, s.parent_span_id,
                 static_cast<unsigned>(s.rpc_id), s.thread, s.start_ns, s.duration_ns);
  }
  return std::fclose(f) == 0;
}

/// Spans the traced pass records, with headroom; the tracer must hold
/// them all (a wrapped ring loses spans the ledger needs).
std::size_t span_capacity(const WorkloadSpec& spec) {
  std::uint64_t spans = 0;
  if (spec.is_ior()) {
    const std::uint64_t slices = std::max<std::uint64_t>(1, spec.transfer / (512 * 1024));
    spans = static_cast<std::uint64_t>(spec.iterations) *
            (spec.transfers_per_client() * kClients * (2 * (16 + slices)) + 200);
  } else {
    // Per file: create 5, each stat pass 5, remove 9 (the unlink's stat
    // and its remove); the count is exact, so little headroom is needed.
    spans = spec.files_per_client * kClients * (5 + 5 * kStatPasses + 9);
  }
  return static_cast<std::size_t>(spans + spans / 64 + 4096);
}

int plain_run(const Args& a, const WorkloadSpec& spec, const stdfs::path& root) {
  auto pass = plain_pass(spec, a.seed, root / "plain");
  if (!pass) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 pass.status().to_string().c_str());
    return 1;
  }
  const RunResult& r = pass->result;
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=0 clients=%d daemons=%u\n",
              spec.name.c_str(), a.seed, a.seconds, kClients, kDaemons);
  print_ops(spec, r, "ops:");
  const auto metrics = end_to_end(spec, *pass);
  std::printf("end-to-end:\n");
  for (const auto& m : metrics) print_metric(m.name, m.value, m.unit, m.base);
  print_json(r.failed == 0, r.attempted + kBoots + 1, r.failed, metrics);
  return r.failed == 0 ? 0 : 1;
}

int traced_run(const Args& a, const WorkloadSpec& spec, const stdfs::path& root) {
  // Pass 1: untraced, exactly as the end-to-end run (the overhead base).
  auto pass = plain_pass(spec, a.seed, root / "plain");
  if (!pass) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 pass.status().to_string().c_str());
    return 1;
  }
  TracedRun run;
  run.bootstrap_ms = pass->bootstrap_ms;
  run.untraced = std::move(pass->result);

  // Pass 2: the benchmark's tracer and registry installed.
  gekko::metrics::Registry registry;
  auto tracer = std::make_unique<gekko::metrics::Tracer>(span_capacity(spec));
  const Counters net0 = read_net_counters(spec.transport);
  auto dep = boot(spec.transport, root / "traced", workload_dir(spec, a.seed),
                  tracer.get(), &registry);
  if (!dep) {
    std::fprintf(stderr, "perfbench: traced boot failed: %s\n",
                 dep.status().to_string().c_str());
    return 1;
  }
  PhaseCounters phases(*dep, spec.transport, registry);
  const Counters c0 = read_counters(*dep, spec.transport, registry);
  FsCalls fs(*dep->mount);
  run.traced = run_workload(spec, fs, a.seed, tracer.get(), &phases);
  const Counters c1 = read_counters(*dep, spec.transport, registry);
  run.total = c1 - c0;
  run.total.dials = c1.dials - net0.dials;
  run.phases = phases.deltas();
  const auto io_queue = registry.histogram("daemon.io.queue").materialize();
  const auto io_service = registry.histogram("daemon.io.service").materialize();
  run.daemon_io_queue_p50_us = static_cast<double>(io_queue.quantile(0.5)) / 1e3;
  run.daemon_io_service_p50_us = static_cast<double>(io_service.quantile(0.5)) / 1e3;
  run.daemon_io_n = io_service.count();
  const auto& fanout = registry.histogram("client.write.fanout");
  run.client_write_fanout_n = fanout.count();
  run.client_write_fanout =
      fanout.count() ? static_cast<double>(fanout.sum()) /
                           static_cast<double>(fanout.count())
                     : 0;
  teardown(*dep);

  const bool wrapped = tracer->recorded() > tracer->capacity();
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=1 clients=%d daemons=%u\n",
              spec.name.c_str(), a.seed, a.seconds, kClients, kDaemons);
  std::printf("tracer: %" PRIu64 " spans recorded, capacity %zu: %s\n",
              tracer->recorded(), tracer->capacity(),
              wrapped ? "WRAPPED" : "did not wrap");
  if (wrapped) {
    std::fprintf(stderr, "perfbench: the tracer wrapped; spans were lost\n");
    return 1;
  }
  run.spans = tracer->dump();
  tracer.reset();  // the ring is the largest allocation of the run
  const stdfs::path spans_file = root.parent_path() / ("spans." + spec.name + ".tsv");
  if (!write_spans(spans_file, run.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_file.c_str());
    return 1;
  }
  std::printf("spans: %zu written to %s\n", run.spans.size(), spans_file.c_str());

  // Layer probes, on the workload's own inputs.
  auto null_rpc = probe_null_rpc(spec.transport, root / "probe-rpc", kNullRpcCalls);
  auto meta = probe_metadata(root / "probe-kv", meta_inputs(spec, a.seed));
  const std::uint32_t chunk_size = 512 * 1024;
  auto chunks = probe_chunks(root / "probe-chunks",
                             chunk_inputs(spec, a.seed, chunk_size), chunk_size,
                             a.seed);
  for (const gekko::Status& st :
       {null_rpc.status(), meta.status(), chunks.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "perfbench: probe failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }
  run.null_rpc = *null_rpc;
  run.meta = *meta;
  run.chunks = *chunks;

  print_ops(spec, run.untraced, "ops (untraced pass):");
  print_ops(spec, run.traced, "ops (traced pass):");
  const bool correct = run.untraced.failed == 0 && run.traced.failed == 0;
  const std::uint64_t attempted = run.untraced.attempted + run.traced.attempted + kBoots + 2;
  const std::uint64_t failed = run.untraced.failed + run.traced.failed;
  const auto metrics = per_layer_metrics(std::move(run));
  std::printf("per-layer:\n");
  for (const auto& m : metrics) print_metric(m.name, m.value, m.unit, m.base);
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec spec = make_spec(args.workload, args.seconds);
  if (spec.name.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Every file the run makes lives under .bench_run/ in the working
  // directory; the run's own subdirectory goes away at the end.
  const stdfs::path root =
      stdfs::path(".bench_run") / (spec.name + "." + std::to_string(::getpid()));
  std::error_code ec;
  stdfs::remove_all(root, ec);
  stdfs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", root.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const int rc = args.trace ? traced_run(args, spec, root) : plain_run(args, spec, root);
  stdfs::remove_all(root, ec);
  return rc;
}
