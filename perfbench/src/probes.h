// Layer probes for the traced run: each times one layer alone, through
// its public interface, on the workload's own generated inputs.
//  - null RPC: an rpc::Engine pair on the workload's transport calling
//    a handler that does nothing (the fixed cost of one RPC);
//  - MetadataBackend: the workload's paths and size-update sequence
//    against a backend the benchmark opens in its own directory;
//  - ChunkStorage: the workload's chunk slices against a store the
//    benchmark opens itself.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "workloads.h"

namespace perfbench {

struct NullRpcProbe {
  std::size_t calls = 0;
  double wall_p50_us = 0;
  double cpu_us_per_call = 0;  ///< process CPU time ÷ calls
};
gekko::Result<NullRpcProbe> probe_null_rpc(Transport transport,
                                           const std::filesystem::path& dir,
                                           std::size_t calls);

/// The metadata calls a workload makes, in issue order.
struct MetaInputs {
  std::vector<std::string> creates;
  std::vector<std::pair<std::string, std::uint64_t>> size_updates;
  std::vector<std::string> gets;  ///< after the size updates
  std::vector<std::string> removes;
};
MetaInputs meta_inputs(const WorkloadSpec& spec, std::uint64_t seed);

struct MetaProbe {
  std::size_t creates = 0, gets = 0, removes = 0, size_updates = 0;
  double create_p50_us = 0;
  double get_p50_us = 0;
  double remove_p50_us = 0;
  double update_size_p50_us = 0;
};
gekko::Result<MetaProbe> probe_metadata(const std::filesystem::path& dir,
                                        const MetaInputs& inputs);

/// One chunk-store call: (file path, pattern id, chunk, offset, length).
struct Slice {
  std::string path;
  std::uint64_t file_id = 0;
  std::uint64_t chunk_id = 0;
  std::uint32_t offset_in_chunk = 0;
  std::uint32_t length = 0;
};
/// The slices of the workload's first iteration (none for md-storm).
std::vector<Slice> chunk_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                std::uint32_t chunk_size);

struct ChunkProbe {
  std::size_t slices = 0;
  double write_p50_us = 0;
  double read_p50_us = 0;
};
gekko::Result<ChunkProbe> probe_chunks(const std::filesystem::path& dir,
                                       const std::vector<Slice>& slices,
                                       std::uint32_t chunk_size,
                                       std::uint64_t seed);

}  // namespace perfbench
