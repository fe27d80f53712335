// The three closed-loop workloads and the deployment they run on.
//
// Every workload boots an in-process two-daemon cluster::Cluster on a
// real socket transport and drives it from kClients client threads
// sharing one fs::Mount. Each thread issues its next call only after
// the previous one returned (HPC ranks wait for every reply). Every
// call is timed from outside, checked, and counted as attempted or
// failed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/result.h"
#include "fs/mount.h"

namespace perfbench {

inline constexpr int kClients = 2;
inline constexpr std::uint32_t kDaemons = 2;
/// md-storm stats every file this many times, each pass in its own
/// seeded order: a longer stat phase averages over more of the host's
/// run-to-run noise than one pass does.
inline constexpr int kStatPasses = 2;

enum class Transport { uds, tcp };

/// A workload's shape. Sizes scale with the run length so a run's
/// measured phases take about `seconds` on the reference host.
struct WorkloadSpec {
  std::string name;
  Transport transport = Transport::tcp;
  /// md-storm: zero-byte files each client creates, stats and removes.
  std::uint64_t files_per_client = 0;
  /// IOR: bytes per call, bytes each client writes per iteration, and
  /// iterations. File per process (`shared_file` false): each client
  /// writes its own file sequentially, and every iteration rewrites the
  /// same files (IOR -k) until the last removes them. Shared file: the
  /// clients write disjoint segments of one file at seeded random
  /// offsets, and each iteration uses a fresh file and removes it.
  std::uint64_t transfer = 0;
  std::uint64_t bytes_per_client = 0;
  std::uint32_t iterations = 0;
  bool shared_file = false;
  /// IOR: bytes the file holds before the first transfer, as the header
  /// of a self-describing format (HDF5, netCDF). Off the chunk grid, it
  /// makes each transfer that crosses a chunk boundary a two-slice write.
  std::uint64_t header = 0;

  [[nodiscard]] bool is_ior() const noexcept { return transfer != 0; }
  /// Timed calls per client in one iteration of an IOR phase.
  [[nodiscard]] std::uint64_t transfers_per_client() const noexcept {
    return transfer ? bytes_per_client / transfer : 0;
  }
};

/// The spec for `name` at a run length of `seconds`; name empty when
/// the workload is unknown.
WorkloadSpec make_spec(const std::string& name, double seconds);

/// What one op type measured across the run.
struct OpLog {
  std::vector<double> lat_us;  ///< one sample per call
  std::vector<double> rates;   ///< calls/s of each phase run (iteration)
};

class PhaseCounters;  // ledger.h

struct RunResult {
  std::map<std::string, OpLog> ops;  ///< create/stat/remove, write/read
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  [[nodiscard]] double fail_frac() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 1.0;
  }
};

/// A booted deployment: the cluster and the one mount its clients share.
struct Deployment {
  std::unique_ptr<gekko::cluster::Cluster> cluster;
  std::unique_ptr<gekko::fs::Mount> mount;
  double setup_s = 0;  ///< Cluster::start → first successful op done
};

/// Boot kDaemons daemons under `root` and mount them; the first op is
/// mkdir(`dir`). `tracer` and `registry` (both optional) receive every
/// span and metric the client and daemons record; unset, the program's
/// global sinks do.
gekko::Result<Deployment> boot(Transport transport,
                               const std::filesystem::path& root,
                               const std::string& dir,
                               gekko::metrics::Tracer* tracer = nullptr,
                               gekko::metrics::Registry* registry = nullptr);

/// The workload's directory in the file system (seeded).
std::string workload_dir(const WorkloadSpec& spec, std::uint64_t seed);

/// md-storm's one shared directory, deep below the workload's `top`.
std::string md_dir(const std::string& top, std::uint64_t seed);

/// Path of md-storm file `i` of client `c` in `dir`.
std::string md_path(const std::string& dir, std::uint64_t seed, int c,
                    std::uint64_t i);

/// Path of the IOR file client `c` uses in iteration `it` (one per
/// client for file per process, one per iteration when shared), and the
/// id of the byte pattern it holds then (new every iteration).
std::string ior_path(const WorkloadSpec& spec, const std::string& dir,
                     int c, std::uint32_t it);
std::uint64_t ior_file_id(const WorkloadSpec& spec, int c, std::uint32_t it);

/// Offsets client `c` writes (or reads, `for_read`) in iteration `it`,
/// in issue order: sequential for file-per-process, a seeded
/// permutation of the client's segment for the shared file.
std::vector<std::uint64_t> ior_offsets(const WorkloadSpec& spec,
                                       std::uint64_t seed, int c,
                                       std::uint32_t it, bool for_read);

/// The file system a workload drives, reduced to what the workloads
/// call. The default forwards to fs::Mount; tests override single calls
/// to plant wrong results and prove the checks catch them.
class FsCalls {
 public:
  explicit FsCalls(gekko::fs::Mount& mount) : mount_(mount) {}
  virtual ~FsCalls() = default;
  FsCalls(const FsCalls&) = delete;
  FsCalls& operator=(const FsCalls&) = delete;

  virtual gekko::Result<int> open(const std::string& path,
                                  std::uint32_t flags);
  virtual gekko::Status close(int fd);
  virtual gekko::Result<std::size_t> pwrite(
      int fd, std::span<const std::uint8_t> data, std::uint64_t offset);
  virtual gekko::Result<std::size_t> pread(int fd, std::span<std::uint8_t> out,
                                           std::uint64_t offset);
  virtual gekko::Result<gekko::proto::Metadata> stat(const std::string& path);
  virtual gekko::Status unlink(const std::string& path);
  virtual gekko::Status mkdir(const std::string& path);
  virtual gekko::Result<std::vector<std::string>> list(const std::string& dir);

 protected:
  gekko::fs::Mount& mount_;
};

/// Run the workload through `fs`. `tracer` non-null makes it the traced
/// run: each call gets a bench.<op> span and an op context. `phases`
/// (optional) diffs the program's counters around every phase.
RunResult run_workload(const WorkloadSpec& spec, FsCalls& fs,
                       std::uint64_t seed, gekko::metrics::Tracer* tracer,
                       PhaseCounters* phases);

}  // namespace perfbench
