#include "probes.h"

#include <ctime>
#include <memory>

#include "analysis.h"
#include "check.h"
#include "common/metrics.h"
#include "daemon/metadata_backend.h"
#include "kv/cache.h"
#include "net/socket_fabric.h"
#include "net/tcp_fabric.h"
#include "net/transport.h"
#include "proto/chunking.h"
#include "rpc/engine.h"
#include "storage/chunk_storage.h"

namespace perfbench {

using gekko::Result;
using gekko::Status;

namespace {

constexpr std::uint16_t kNullRpc = 0x7e01;

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Time `fn` once, in microseconds.
template <class F>
double time_us(F&& fn) {
  const std::uint64_t t0 = gekko::metrics::now_ns();
  fn();
  return static_cast<double>(gekko::metrics::now_ns() - t0) / 1e3;
}

}  // namespace

Result<NullRpcProbe> probe_null_rpc(Transport transport,
                                    const std::filesystem::path& dir,
                                    std::size_t calls) {
  auto hostfile = transport == Transport::uds
                      ? gekko::net::SocketFabric::write_hostfile(dir, 1)
                      : gekko::net::TcpFabric::write_hostfile(dir, 1);
  if (!hostfile) return hostfile.status();
  gekko::net::MakeFabricOptions server_opts;
  server_opts.self_id = 0;
  auto server_fabric = gekko::net::make_fabric(*hostfile, server_opts);
  if (!server_fabric) return server_fabric.status();
  auto client_fabric = gekko::net::make_fabric(*hostfile, {});
  if (!client_fabric) return client_fabric.status();

  // Private sinks: the probe's own spans and counters stay out of the
  // workload's.
  gekko::metrics::Registry registry;
  gekko::metrics::Tracer tracer(64);
  gekko::rpc::EngineOptions opts;
  opts.registry = &registry;
  opts.tracer = &tracer;
  opts.name = "probe-server";
  opts.start_paused = true;
  gekko::rpc::Engine server(**server_fabric, opts);
  server.register_rpc(kNullRpc, "null", [](const gekko::net::Message&) {
    return Result<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  server.start();
  opts.name = "probe-client";
  opts.start_paused = false;
  gekko::rpc::Engine client(**client_fabric, opts);

  // Warm up (dial, first allocations), then time each call.
  for (int i = 0; i < 100; ++i) {
    auto r = client.forward(0, kNullRpc, {});
    if (!r) return r.status();
  }
  std::vector<double> wall;
  wall.reserve(calls);
  const double cpu0 = cpu_seconds();
  for (std::size_t i = 0; i < calls; ++i) {
    Status st = Status::ok();
    wall.push_back(time_us([&] { st = client.forward(0, kNullRpc, {}).status(); }));
    GEKKO_RETURN_IF_ERROR(st);
  }
  const double cpu = cpu_seconds() - cpu0;
  client.shutdown();
  server.shutdown();

  NullRpcProbe p;
  p.calls = calls;
  p.wall_p50_us = percentile(wall, 0.5);
  p.cpu_us_per_call = cpu * 1e6 / static_cast<double>(calls);
  return p;
}

MetaInputs meta_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  MetaInputs in;
  const std::string dir = workload_dir(spec, seed);
  if (!spec.is_ior()) {
    // Clients interleave; the backend sees their calls merged.
    const std::string job = md_dir(dir, seed);
    for (std::uint64_t i = 0; i < spec.files_per_client; ++i) {
      for (int c = 0; c < kClients; ++c) in.creates.push_back(md_path(job, seed, c, i));
    }
    in.gets = in.creates;
    in.removes = in.creates;
    return in;
  }
  // IOR: the first iteration's files; one size update per write (the
  // client's synchronous update_size) and one get per read (the stat
  // every read issues first).
  const int files = spec.shared_file ? 1 : kClients;
  for (int c = 0; c < files; ++c) in.creates.push_back(ior_path(spec, dir, c, 0));
  std::vector<std::vector<std::uint64_t>> writes(kClients);
  std::vector<std::vector<std::uint64_t>> reads(kClients);
  for (int c = 0; c < kClients; ++c) {
    writes[c] = ior_offsets(spec, seed, c, 0, false);
    reads[c] = ior_offsets(spec, seed, c, 0, true);
  }
  for (std::uint64_t k = 0; k < spec.transfers_per_client(); ++k) {
    for (int c = 0; c < kClients; ++c) {
      in.size_updates.emplace_back(ior_path(spec, dir, c, 0),
                                   writes[c][k] + spec.transfer);
    }
  }
  for (std::uint64_t k = 0; k < spec.transfers_per_client(); ++k) {
    for (int c = 0; c < kClients; ++c) in.gets.push_back(ior_path(spec, dir, c, 0));
  }
  in.removes = in.creates;
  return in;
}

Result<MetaProbe> probe_metadata(const std::filesystem::path& dir,
                                 const MetaInputs& in) {
  // The daemon's kv configuration: program defaults plus the 8 MiB
  // block cache GekkoDaemon::start() adds.
  gekko::kv::Options opts;
  opts.block_cache = std::make_shared<gekko::kv::BlockCache>(8 * 1024 * 1024);
  auto backend = gekko::daemon::MetadataBackend::open(dir, opts);
  if (!backend) return backend.status();
  auto& b = **backend;

  std::vector<double> create_us, update_us, get_us, remove_us;
  Status first = Status::ok();
  auto keep = [&first](const Status& st) {
    if (first.is_ok() && !st.is_ok()) first = st;
  };
  for (const auto& path : in.creates) {
    gekko::proto::Metadata md;
    md.type = gekko::proto::FileType::regular;
    md.mode = 0644;
    create_us.push_back(time_us([&] { keep(b.create(path, md)); }));
  }
  for (const auto& [path, size] : in.size_updates) {
    update_us.push_back(time_us([&] { keep(b.update_size(path, size, 0)); }));
  }
  for (const auto& path : in.gets) {
    get_us.push_back(time_us([&] { keep(b.get(path).status()); }));
  }
  for (const auto& path : in.removes) {
    remove_us.push_back(time_us([&] { keep(b.remove(path).status()); }));
  }
  GEKKO_RETURN_IF_ERROR(first);

  MetaProbe p;
  p.creates = create_us.size();
  p.size_updates = update_us.size();
  p.gets = get_us.size();
  p.removes = remove_us.size();
  p.create_p50_us = percentile(create_us, 0.5);
  p.update_size_p50_us = percentile(update_us, 0.5);
  p.get_p50_us = percentile(get_us, 0.5);
  p.remove_p50_us = percentile(remove_us, 0.5);
  return p;
}

std::vector<Slice> chunk_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                std::uint32_t chunk_size) {
  std::vector<Slice> out;
  if (!spec.is_ior()) return out;
  const std::string dir = workload_dir(spec, seed);
  for (int c = 0; c < kClients; ++c) {
    const std::string path = ior_path(spec, dir, c, 0);
    const std::uint64_t file_id = ior_file_id(spec, c, 0);
    for (const std::uint64_t off : ior_offsets(spec, seed, c, 0, false)) {
      for (const auto& e :
           gekko::proto::split_extent(off, spec.transfer, chunk_size)) {
        out.push_back({path, file_id, e.chunk_id, e.offset_in_chunk, e.length});
      }
    }
  }
  return out;
}

Result<ChunkProbe> probe_chunks(const std::filesystem::path& dir,
                                const std::vector<Slice>& slices,
                                std::uint32_t chunk_size, std::uint64_t seed) {
  ChunkProbe p;
  if (slices.empty()) return p;
  auto store = gekko::storage::ChunkStorage::open(dir, chunk_size);
  if (!store) return store.status();

  std::vector<std::uint8_t> buf(chunk_size);
  std::vector<double> write_us, read_us;
  Status first = Status::ok();
  for (const auto& s : slices) {
    const std::span<std::uint8_t> data(buf.data(), s.length);
    fill_pattern(seed, s.file_id,
                 s.chunk_id * chunk_size + s.offset_in_chunk, data);
    write_us.push_back(time_us([&] {
      Status st = store->write_chunk(s.path, s.chunk_id, s.offset_in_chunk, data);
      if (first.is_ok() && !st.is_ok()) first = st;
    }));
  }
  for (const auto& s : slices) {
    const std::span<std::uint8_t> data(buf.data(), s.length);
    read_us.push_back(time_us([&] {
      auto n = store->read_chunk(s.path, s.chunk_id, s.offset_in_chunk, data);
      if (first.is_ok() && !n) first = n.status();
    }));
    const std::string problem = check_pattern(
        seed, s.file_id, s.chunk_id * chunk_size + s.offset_in_chunk, data);
    if (first.is_ok() && !problem.empty()) {
      first = Status{gekko::Errc::corruption, problem};
    }
  }
  GEKKO_RETURN_IF_ERROR(first);
  p.slices = slices.size();
  p.write_p50_us = percentile(write_us, 0.5);
  p.read_p50_us = percentile(read_us, 0.5);
  return p;
}

}  // namespace perfbench
