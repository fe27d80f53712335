#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "check.h"
#include "ledger.h"
#include "common/trace.h"

namespace perfbench {

using gekko::Result;
using gekko::Status;
namespace fsn = gekko::fs;

namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

// Reference rates on a 4-core host (2 client threads): the sizes below
// keep a run's measured phases near the requested length.
constexpr double kMdFilesPerClientPerSecond = 2000;
constexpr double kFppSecondsPerIteration = 1.35;
constexpr double kSharedSecondsPerIteration = 3.1;

std::uint32_t iterations_for(double seconds, double per_iteration) {
  return static_cast<std::uint32_t>(
      std::max(1.0, std::round(seconds / per_iteration)));
}

std::string hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

WorkloadSpec make_spec(const std::string& name, double seconds) {
  WorkloadSpec s;
  if (name == "md-storm") {
    s.transport = Transport::uds;
    s.files_per_client = static_cast<std::uint64_t>(
        std::max(1.0, std::round(seconds * kMdFilesPerClientPerSecond)));
  } else if (name == "ior-fpp-seq") {
    // 2 x 192 MiB = 768 chunk files of 512 KiB, 384 per daemon: more
    // than the 256-entry fd cache holds. Iterations overwrite the same
    // files with a new pattern: the chunk store's steady state is then
    // overwriting, not the host file system allocating inodes and
    // blocks.
    s.transport = Transport::tcp;
    s.transfer = 4 * kMiB;
    s.bytes_per_client = 192 * kMiB;
    s.iterations = iterations_for(seconds, kFppSecondsPerIteration);
  } else if (name == "ior-shared-rand") {
    // One 32 MiB file = 65 chunk files: well inside the fd cache. The
    // 4 KiB header puts one transfer in 64 across a chunk boundary; half
    // of those land both slices on one daemon, whose io pool runs them.
    s.transport = Transport::tcp;
    s.transfer = 8 * 1024;
    s.bytes_per_client = 16 * kMiB;
    s.iterations = iterations_for(seconds, kSharedSecondsPerIteration);
    s.shared_file = true;
    s.header = 4 * 1024;
  } else {
    return s;
  }
  s.name = name;
  return s;
}

Result<Deployment> boot(Transport transport, const std::filesystem::path& root,
                        const std::string& dir, gekko::metrics::Tracer* tracer,
                        gekko::metrics::Registry* registry) {
  gekko::cluster::ClusterOptions opts;
  opts.nodes = kDaemons;
  opts.root = root;
  opts.transport = transport == Transport::uds
                       ? gekko::cluster::ClusterTransport::uds
                       : gekko::cluster::ClusterTransport::tcp;
  opts.daemon_options.rpc_options.tracer = tracer;
  opts.daemon_options.registry = registry;
  gekko::client::ClientOptions client_opts;
  client_opts.rpc_options.tracer = tracer;
  client_opts.registry = registry;

  Deployment d;
  const std::uint64_t t0 = gekko::metrics::now_ns();
  auto cluster = gekko::cluster::Cluster::start(std::move(opts));
  if (!cluster) return cluster.status();
  d.cluster = std::move(*cluster);
  d.mount = d.cluster->mount(std::move(client_opts));
  if (!d.mount) return Status{gekko::Errc::io_error, "mount failed"};
  GEKKO_RETURN_IF_ERROR(d.mount->mkdir(dir));
  d.setup_s = static_cast<double>(gekko::metrics::now_ns() - t0) / 1e9;
  return d;
}

std::string workload_dir(const WorkloadSpec& spec, std::uint64_t seed) {
  return "/" + spec.name + "." + hex(mix64(seed), 16);
}

std::string md_dir(const std::string& top, std::uint64_t seed) {
  // A job directory as HPC sites lay them out: project, user, campaign,
  // experiment, configuration, run, ensemble member, step and field
  // group. The depth is the point: GekkoFS keys are full paths, so a
  // path this long (~390 bytes with the file name) puts enough bytes
  // through each daemon's memtable that one run's create phase flushes
  // it several times and compacts L0 into L1.
  std::uint64_t r = mix64(seed ^ 0x6a6f62);
  auto tag = [&r](int digits) {
    r = mix64(r);
    return hex(r, digits);
  };
  std::string d = top;
  d += "/project.gekko-" + tag(8);
  d += "/user.rank-storm-" + tag(8);
  d += "/campaign.highres-climate-ensemble-" + tag(8);
  d += "/experiment.coupled-ocean-atmosphere-ice-" + tag(8);
  d += "/configuration.resolution-0.25deg-levels-137-" + tag(8);
  d += "/run." + tag(16) + ".restart-0001";
  d += "/member.ensemble-member-0001-of-0064";
  d += "/output.checkpoint-step-000001";
  d += "/fields.prognostic-variables-3d";
  return d;
}

std::string md_path(const std::string& dir, std::uint64_t seed, int c,
                    std::uint64_t i) {
  // mdtest's file.mdtest.<rank>.<i>, plus a seeded 16-digit tag so the
  // seed moves every key (and with it the hash placement).
  const std::uint64_t tag = mix64(seed ^ (static_cast<std::uint64_t>(c) << 48) ^ i);
  return dir + "/file.mdtest." + std::to_string(c) + "." + std::to_string(i) +
         "." + hex(tag, 16);
}

std::string ior_path(const WorkloadSpec& spec, const std::string& dir, int c,
                     std::uint32_t it) {
  if (spec.shared_file) return dir + "/ior.shared." + std::to_string(it);
  return dir + "/ior.fpp." + std::to_string(c);
}

std::uint64_t ior_file_id(const WorkloadSpec& spec, int c, std::uint32_t it) {
  return spec.shared_file ? it : static_cast<std::uint64_t>(it) * kClients + c;
}

std::vector<std::uint64_t> ior_offsets(const WorkloadSpec& spec,
                                       std::uint64_t seed, int c,
                                       std::uint32_t it, bool for_read) {
  const std::uint64_t n = spec.transfers_per_client();
  const std::uint64_t base =
      spec.header +
      (spec.shared_file ? static_cast<std::uint64_t>(c) * spec.bytes_per_client
                        : 0);
  std::vector<std::uint64_t> out(n);
  if (!spec.shared_file) {
    for (std::uint64_t k = 0; k < n; ++k) out[k] = base + k * spec.transfer;
    return out;
  }
  const std::uint64_t stream =
      mix64(seed ^ (static_cast<std::uint64_t>(it) << 32) ^
            (static_cast<std::uint64_t>(c) << 8) ^ (for_read ? 1u : 0u));
  const auto perm = permutation(stream, n);
  for (std::uint64_t k = 0; k < n; ++k) out[k] = base + perm[k] * spec.transfer;
  return out;
}

// ---------- FsCalls ----------

Result<int> FsCalls::open(const std::string& path, std::uint32_t flags) {
  return mount_.open(path, flags);
}
Status FsCalls::close(int fd) { return mount_.close(fd); }
Result<std::size_t> FsCalls::pwrite(int fd, std::span<const std::uint8_t> data,
                                    std::uint64_t offset) {
  return mount_.pwrite(fd, data, offset);
}
Result<std::size_t> FsCalls::pread(int fd, std::span<std::uint8_t> out,
                                   std::uint64_t offset) {
  return mount_.pread(fd, out, offset);
}
Result<gekko::proto::Metadata> FsCalls::stat(const std::string& path) {
  return mount_.stat(path);
}
Status FsCalls::unlink(const std::string& path) { return mount_.unlink(path); }
Status FsCalls::mkdir(const std::string& path) { return mount_.mkdir(path); }
Result<std::vector<std::string>> FsCalls::list(const std::string& dir) {
  auto dfd = mount_.opendir(dir);
  if (!dfd) return dfd.status();
  std::vector<std::string> names;
  for (;;) {
    auto ent = mount_.readdir(*dfd);
    if (!ent) {
      // status-ignored-ok: the readdir error is what the caller sees
      (void)mount_.closedir(*dfd);
      return ent.status();
    }
    if (!ent->has_value()) break;
    names.push_back((*ent)->name);
  }
  GEKKO_RETURN_IF_ERROR(mount_.closedir(*dfd));
  return names;
}

// ---------- the workloads ----------

namespace {

/// One client thread's view: its timing logs and failure tally.
struct ClientLog {
  std::map<std::string, std::vector<double>> lat_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Count one checked outcome; `problem` empty = correct.
  void tally(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(problem);
  }
};

/// Times one call into the file system. In the traced run the call
/// gets its own trace: a bench.<op> span recorded by the benchmark, and
/// an installed context so the program's client.<op>, rpc.* and
/// daemon.io.slice spans all parent under it.
template <class F>
auto timed(gekko::metrics::Tracer* tracer, const char* span_name,
           std::vector<double>& lat_us, F&& call) {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::optional<gekko::trace::ContextGuard> guard;
  if (tracer != nullptr) {
    trace_id = gekko::trace::new_trace_id();
    span_id = gekko::trace::new_span_id();
    guard.emplace(gekko::trace::SpanContext{trace_id, span_id});
  }
  const std::uint64_t t0 = gekko::metrics::now_ns();
  auto result = call();
  const std::uint64_t dur = gekko::metrics::now_ns() - t0;
  if (tracer != nullptr) {
    tracer->record(span_name, trace_id, span_id, 0, 0, 0, t0, dur);
  }
  lat_us.push_back(static_cast<double>(dur) / 1e3);
  return result;
}

/// Run `body(c)` on kClients threads at once and wait for all.
template <class Body>
void run_clients(std::vector<ClientLog>& logs, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { body(c, logs[static_cast<std::size_t>(c)]); });
  }
  for (auto& t : threads) t.join();
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, FsCalls& fs, std::uint64_t seed,
         gekko::metrics::Tracer* tracer, PhaseCounters* phases)
      : spec_(spec),
        fs_(fs),
        seed_(seed),
        tracer_(tracer),
        phases_(phases),
        dir_(workload_dir(spec, seed)),
        logs_(kClients) {}

  RunResult run() {
    if (spec_.is_ior()) {
      for (std::uint32_t it = 0; it < spec_.iterations; ++it) ior_iteration_(it);
    } else {
      md_storm_();
    }
    return collect_();
  }

 private:
  /// One phase of timed calls on every client thread. The phase's rate
  /// is each client's calls over the time it spent inside them, summed
  /// over clients: the benchmark's own work between calls (building
  /// and checking buffers) is not charged to the file system.
  template <class Body>
  void phase_(const std::string& op, std::uint64_t calls, Body body) {
    std::vector<std::size_t> before(kClients);
    for (int c = 0; c < kClients; ++c) before[c] = logs_[c].lat_us[op].size();
    if (phases_) phases_->begin();
    run_clients(logs_, body);
    if (phases_) phases_->end(op, calls);
    double rate = 0;
    for (int c = 0; c < kClients; ++c) {
      const auto& lat = logs_[c].lat_us[op];
      double busy_us = 0;
      for (std::size_t i = before[c]; i < lat.size(); ++i) busy_us += lat[i];
      if (busy_us > 0) {
        rate += static_cast<double>(lat.size() - before[c]) / (busy_us / 1e6);
      }
    }
    result_.ops[op].rates.push_back(rate);
  }

  void md_storm_() {
    const std::uint64_t n = spec_.files_per_client;
    const std::uint64_t calls = n * kClients;
    // mkdir -p of the job directory below the workload's top directory.
    const std::string job = md_dir(dir_, seed_);
    for (std::size_t pos = dir_.size() + 1; pos != std::string::npos;) {
      pos = job.find('/', pos + 1);
      logs_[0].tally(check_ok(fs_.mkdir(job.substr(0, pos))));
    }
    phase_("create", calls, [&](int c, ClientLog& log) {
      auto& lat = log.lat_us["create"];
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string path = md_path(job, seed_, c, i);
        // mdtest's create: open(O_CREAT|O_EXCL) and close.
        const Status st = timed(tracer_, "bench.create", lat, [&] {
          auto fd = fs_.open(path, fsn::create | fsn::excl | fsn::wr_only);
          if (!fd) return fd.status();
          return fs_.close(*fd);
        });
        log.tally(check_ok(st));
      }
    });
    for (int pass = 0; pass < kStatPasses; ++pass) {
      phase_("stat", calls, [&](int c, ClientLog& log) {
        auto& lat = log.lat_us["stat"];
        const auto order = permutation(mix64(seed_ + 0x57a7 + 2 * c + pass), n);
        for (const std::uint64_t i : order) {
          const std::string path = md_path(job, seed_, c, i);
          auto md = timed(tracer_, "bench.stat", lat,
                          [&] { return fs_.stat(path); });
          log.tally(check_regular_file(md, 0));
        }
      });
    }
    phase_("remove", calls, [&](int c, ClientLog& log) {
      auto& lat = log.lat_us["remove"];
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string path = md_path(job, seed_, c, i);
        const Status st = timed(tracer_, "bench.remove", lat,
                                [&] { return fs_.unlink(path); });
        log.tally(check_ok(st));
      }
    });
    auto names = fs_.list(job);
    logs_[0].tally(names ? check_empty_listing(*names)
                         : "readdir failed: " + names.status().to_string());
  }

  void ior_iteration_(std::uint32_t it) {
    const std::uint64_t n = spec_.transfers_per_client();
    const std::uint64_t calls = n * kClients;
    const std::uint64_t file_bytes =
        spec_.header + spec_.bytes_per_client * (spec_.shared_file ? kClients : 1);

    if (spec_.shared_file) {
      // IOR's shared file: one rank creates it, every rank opens it.
      auto fd = fs_.open(ior_path(spec_, dir_, 0, it),
                         fsn::create | fsn::excl | fsn::wr_only);
      logs_[0].tally(fd ? check_ok(fs_.close(*fd)) : check_ok(fd.status()));
    }
    phase_("write", calls, [&](int c, ClientLog& log) {
      auto& lat = log.lat_us["write"];
      const std::string path = ior_path(spec_, dir_, c, it);
      const std::uint64_t file_id = ior_file_id(spec_, c, it);
      const bool exists = spec_.shared_file || it > 0;
      auto fd = fs_.open(path, exists ? std::uint32_t{fsn::wr_only}
                                      : fsn::create | fsn::excl | fsn::wr_only);
      log.tally(check_ok(fd.status()));
      if (!fd) return;
      std::vector<std::uint8_t> buf(spec_.transfer);
      for (const std::uint64_t off : ior_offsets(spec_, seed_, c, it, false)) {
        fill_pattern(seed_, file_id, off, buf);
        auto n_written = timed(tracer_, "bench.write", lat,
                               [&] { return fs_.pwrite(*fd, buf, off); });
        log.tally(check_length(n_written, buf.size()));
      }
      log.tally(check_ok(fs_.close(*fd)));
    });

    // Every file has its full size once the write phase is done.
    for (int c = 0; c < (spec_.shared_file ? 1 : kClients); ++c) {
      logs_[0].tally(check_regular_file(fs_.stat(ior_path(spec_, dir_, c, it)),
                                        file_bytes));
    }

    phase_("read", calls, [&](int c, ClientLog& log) {
      auto& lat = log.lat_us["read"];
      const std::string path = ior_path(spec_, dir_, c, it);
      const std::uint64_t file_id = ior_file_id(spec_, c, it);
      auto fd = fs_.open(path, fsn::rd_only);
      log.tally(check_ok(fd.status()));
      if (!fd) return;
      std::vector<std::uint8_t> buf(spec_.transfer);
      for (const std::uint64_t off : ior_offsets(spec_, seed_, c, it, true)) {
        std::fill(buf.begin(), buf.end(), std::uint8_t{0});
        auto n_read = timed(tracer_, "bench.read", lat,
                            [&] { return fs_.pread(*fd, buf, off); });
        std::string problem = check_length(n_read, buf.size());
        if (problem.empty()) problem = check_pattern(seed_, file_id, off, buf);
        log.tally(problem);
      }
      log.tally(check_ok(fs_.close(*fd)));
    });

    if (!spec_.shared_file && it + 1 < spec_.iterations) return;
    for (int c = 0; c < (spec_.shared_file ? 1 : kClients); ++c) {
      logs_[0].tally(check_ok(fs_.unlink(ior_path(spec_, dir_, c, it))));
    }
  }

  RunResult collect_() {
    for (auto& log : logs_) {
      for (auto& [op, lat] : log.lat_us) {
        auto& dst = result_.ops[op].lat_us;
        dst.insert(dst.end(), lat.begin(), lat.end());
      }
      result_.attempted += log.attempted;
      result_.failed += log.failed;
      for (auto& e : log.errors) {
        if (result_.errors.size() < 10) result_.errors.push_back(e);
      }
    }
    return std::move(result_);
  }

  const WorkloadSpec& spec_;
  FsCalls& fs_;
  const std::uint64_t seed_;
  gekko::metrics::Tracer* tracer_;
  PhaseCounters* phases_;
  const std::string dir_;
  std::vector<ClientLog> logs_;
  RunResult result_;
};

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, FsCalls& fs,
                       std::uint64_t seed, gekko::metrics::Tracer* tracer,
                       PhaseCounters* phases) {
  return Runner(spec, fs, seed, tracer, phases).run();
}

}  // namespace perfbench
