// Per-layer metrics of the traced run, measured from outside the
// program: counter deltas read from what the program already exports
// (metrics::Registry, kv::DB::stats(), ChunkStorage::stats(),
// Client::stats()), the program's own spans, and the layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

/// One printed figure: name, value, unit, and what it was computed
/// from (sample count, or a ratio's numerator and base).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

/// One reading of every counter the ledger diffs.
struct Counters {
  std::uint64_t rpcs_sent = 0;
  std::uint64_t size_updates = 0;
  std::uint64_t user_bytes = 0;  ///< client bytes written + read
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t frames = 0;      ///< frames sent, every endpoint
  std::uint64_t wire_bytes = 0;  ///< bytes sent, every endpoint
  std::uint64_t dials = 0;
  std::uint64_t kv_puts = 0;
  std::uint64_t kv_wal_appends = 0;
  std::uint64_t kv_flushes = 0;
  std::uint64_t kv_compactions = 0;
  std::uint64_t kv_compact_bytes = 0;  ///< read + written by compaction
  std::uint64_t kv_stall_foreground_ms = 0;
  std::uint64_t kv_stall_slowdowns = 0;
  std::uint64_t kv_cache_hits = 0;
  std::uint64_t kv_cache_misses = 0;
  std::uint64_t fd_hits = 0;
  std::uint64_t fd_misses = 0;
  std::uint64_t storage_bytes = 0;  ///< chunk bytes written + read

  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Read the counters of a deployment. Daemon-side figures are summed
/// over the daemons; net figures cover every endpoint in the process.
/// `registry` is the deployment's metric sink (rpc.* counters).
Counters read_counters(Deployment& dep, Transport transport,
                       gekko::metrics::Registry& registry);
/// Net counters only (before a deployment exists).
Counters read_net_counters(Transport transport);

/// Diffs the counters around each phase, per op type. `ops` is the
/// number of timed calls the phase made.
class PhaseCounters {
 public:
  PhaseCounters(Deployment& dep, Transport transport,
                gekko::metrics::Registry& registry)
      : dep_(dep), transport_(transport), registry_(registry) {}
  void begin();
  void end(const std::string& op, std::uint64_t ops);

  struct Delta {
    std::uint64_t ops = 0;
    Counters counters;
  };
  [[nodiscard]] const std::map<std::string, Delta>& deltas() const {
    return deltas_;
  }

 private:
  Deployment& dep_;
  Transport transport_;
  gekko::metrics::Registry& registry_;
  Counters at_begin_;
  std::map<std::string, Delta> deltas_;
};

/// Everything the traced run gathered.
struct TracedRun {
  double bootstrap_ms = 0;  ///< median Cluster::bootstrap_time()
  Counters total;           ///< traced deployment: boot + workload
  std::map<std::string, PhaseCounters::Delta> phases;
  std::vector<gekko::metrics::TraceSpan> spans;
  double daemon_io_queue_p50_us = 0;
  double daemon_io_service_p50_us = 0;
  std::uint64_t daemon_io_n = 0;  ///< io-pool tasks behind the two p50s
  double client_write_fanout = 0;
  std::uint64_t client_write_fanout_n = 0;
  RunResult traced;    ///< the traced workload pass
  RunResult untraced;  ///< the same workload and seed, untraced
  NullRpcProbe null_rpc;
  MetaProbe meta;
  ChunkProbe chunks;
};

/// The per-layer metrics, always the same names in the same order
/// (figures that do not apply to a workload read 0 with base "n/a").
std::vector<Metric> per_layer_metrics(TracedRun run);

/// The RPC names the per-RPC span metrics cover.
const std::vector<std::string>& ledger_rpcs();
/// The op types the ledger and overhead metrics cover.
const std::vector<std::string>& ledger_ops();

}  // namespace perfbench
