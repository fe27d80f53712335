#include "ledger.h"

#include <cstdio>
#include <string_view>

#include "proto/messages.h"

namespace perfbench {

namespace {

/// Apply `op` to every field of two readings.
template <class Op>
Counters combine(const Counters& a, const Counters& b, Op op) {
  Counters d;
  d.rpcs_sent = op(a.rpcs_sent, b.rpcs_sent);
  d.size_updates = op(a.size_updates, b.size_updates);
  d.user_bytes = op(a.user_bytes, b.user_bytes);
  d.rpc_retries = op(a.rpc_retries, b.rpc_retries);
  d.rpc_timeouts = op(a.rpc_timeouts, b.rpc_timeouts);
  d.frames = op(a.frames, b.frames);
  d.wire_bytes = op(a.wire_bytes, b.wire_bytes);
  d.dials = op(a.dials, b.dials);
  d.kv_puts = op(a.kv_puts, b.kv_puts);
  d.kv_wal_appends = op(a.kv_wal_appends, b.kv_wal_appends);
  d.kv_flushes = op(a.kv_flushes, b.kv_flushes);
  d.kv_compactions = op(a.kv_compactions, b.kv_compactions);
  d.kv_compact_bytes = op(a.kv_compact_bytes, b.kv_compact_bytes);
  d.kv_stall_foreground_ms = op(a.kv_stall_foreground_ms, b.kv_stall_foreground_ms);
  d.kv_stall_slowdowns = op(a.kv_stall_slowdowns, b.kv_stall_slowdowns);
  d.kv_cache_hits = op(a.kv_cache_hits, b.kv_cache_hits);
  d.kv_cache_misses = op(a.kv_cache_misses, b.kv_cache_misses);
  d.fd_hits = op(a.fd_hits, b.fd_hits);
  d.fd_misses = op(a.fd_misses, b.fd_misses);
  d.storage_bytes = op(a.storage_bytes, b.storage_bytes);
  return d;
}

}  // namespace

Counters Counters::operator-(const Counters& o) const {
  return combine(*this, o, [](std::uint64_t x, std::uint64_t y) { return x - y; });
}

Counters& Counters::operator+=(const Counters& o) {
  *this = combine(*this, o, [](std::uint64_t x, std::uint64_t y) { return x + y; });
  return *this;
}

Counters read_net_counters(Transport transport) {
  auto& reg = gekko::metrics::Registry::global();
  const std::string net = transport == Transport::uds ? "net.socket." : "net.tcp.";
  Counters c;
  c.frames = reg.counter(net + "frames_out").value();
  c.wire_bytes = reg.counter(net + "bytes_out").value();
  c.dials = reg.counter(net + "dials").value();
  return c;
}

Counters read_counters(Deployment& dep, Transport transport,
                       gekko::metrics::Registry& registry) {
  Counters c = read_net_counters(transport);
  const auto cs = dep.mount->client().stats();
  c.rpcs_sent = cs.rpcs_sent;
  c.size_updates = cs.size_updates_sent;
  c.user_bytes = cs.bytes_written + cs.bytes_read;
  c.rpc_retries = registry.counter("rpc.retries").value();
  c.rpc_timeouts = registry.counter("rpc.timeouts").value();
  for (std::uint32_t i = 0; i < dep.cluster->node_count(); ++i) {
    auto& d = dep.cluster->daemon(i);
    const auto ks = d.metadata().db().stats();
    c.kv_puts += ks.puts;
    c.kv_wal_appends += ks.wal_appends;
    c.kv_flushes += ks.flushes;
    c.kv_compactions += ks.compactions;
    c.kv_compact_bytes += ks.compact_bytes_in + ks.compact_bytes_out;
    c.kv_stall_foreground_ms += ks.stall_foreground_ms;
    c.kv_stall_slowdowns += ks.stall_slowdowns;
    if (const auto& cache = d.metadata().db().options().block_cache) {
      c.kv_cache_hits += cache->hits();
      c.kv_cache_misses += cache->misses();
    }
    const auto ss = d.data().stats();
    c.fd_hits += ss.fd_cache_hits;
    c.fd_misses += ss.fd_cache_misses;
    c.storage_bytes += ss.bytes_written + ss.bytes_read;
  }
  return c;
}

void PhaseCounters::begin() {
  at_begin_ = read_counters(dep_, transport_, registry_);
}

void PhaseCounters::end(const std::string& op, std::uint64_t ops) {
  const Counters d = read_counters(dep_, transport_, registry_) - at_begin_;
  auto& acc = deltas_[op];
  acc.ops += ops;
  acc.counters += d;
}

const std::vector<std::string>& ledger_rpcs() {
  static const std::vector<std::string> rpcs = {
      "create", "stat", "remove_metadata", "update_size", "write_chunks",
      "read_chunks"};
  return rpcs;
}

const std::vector<std::string>& ledger_ops() {
  static const std::vector<std::string> ops = {"create", "stat", "remove",
                                               "write", "read"};
  return ops;
}

namespace {

std::string fmt(const char* f, double a, double b = 0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

std::string ratio_base(double num, double den, const char* what) {
  if (den <= 0) return "n/a";
  return fmt("%.0f / %.0f ", num, den) + what;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

bool named(const gekko::metrics::TraceSpan& s, std::string_view name) {
  return name == s.name;
}

}  // namespace

std::vector<Metric> per_layer_metrics(TracedRun run) {
  std::vector<Metric> m;
  const Counters& t = run.total;
  std::uint64_t all_ops = 0;
  for (const auto& [op, log] : run.traced.ops) all_ops += log.lat_us.size();
  const auto na = std::string("n/a");

  // cluster
  m.push_back({"cluster.bootstrap_ms", run.bootstrap_ms, "ms", "median of boots"});

  // client
  for (const auto& op : ledger_ops()) {
    auto it = run.phases.find(op);
    if (it == run.phases.end() || it->second.ops == 0) {
      m.push_back({"client.rpcs_per_op." + op, 0, "count", na});
      continue;
    }
    const double rpcs = static_cast<double>(it->second.counters.rpcs_sent);
    const double n = static_cast<double>(it->second.ops);
    m.push_back({"client.rpcs_per_op." + op, rpcs / n, "count",
          ratio_base(rpcs, n, "rpcs/ops in phase")});
  }
  {
    auto it = run.phases.find("write");
    const double upd = it == run.phases.end()
                           ? 0
                           : static_cast<double>(it->second.counters.size_updates);
    const double n = it == run.phases.end() ? 0 : static_cast<double>(it->second.ops);
    m.push_back({"client.size_updates_per_write", ratio(upd, n), "count",
          n > 0 ? ratio_base(upd, n, "updates/writes") : na});
  }
  m.push_back({"client.write_fanout", run.client_write_fanout, "count",
        run.client_write_fanout_n ? "mean daemons per write, " +
                                        samples(run.client_write_fanout_n)
                                  : na});

  // Spans: indexed once for the caller/service match, the client.read
  // self time and the ledger.
  const SpanForest forest(std::move(run.spans));
  {
    std::vector<double> self_us;
    for (std::size_t i = 0; i < forest.size(); ++i) {
      if (!named(forest.span(i), "client.read")) continue;
      std::vector<gekko::metrics::TraceSpan> callers;
      for (const std::size_t j : forest.descendants(i, "rpc.caller")) {
        callers.push_back(forest.span(j));
      }
      self_us.push_back(static_cast<double>(self_ns(forest.span(i), callers)) / 1e3);
    }
    m.push_back({"client.read.self_us", percentile(self_us, 0.5), "us",
          self_us.empty() ? na : "p50, " + samples(self_us.size())});
  }

  // rpc: per-RPC caller/queue/service p50 from the program's spans.
  std::map<std::string, std::map<std::string, std::vector<double>>> per_rpc;
  double caller_sum = 0;
  double outside_sum = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < forest.size(); ++i) {
    const auto& s = forest.span(i);
    const std::string_view name = s.name;
    if (name != "rpc.caller" && name != "rpc.queue" && name != "rpc.service") {
      continue;
    }
    per_rpc[gekko::proto::rpc_name(s.rpc_id)][std::string(name)].push_back(
        static_cast<double>(s.duration_ns) / 1e3);
    if (name != "rpc.caller") continue;
    for (const std::size_t c : forest.children(i)) {
      if (!named(forest.span(c), "rpc.service")) continue;
      caller_sum += static_cast<double>(s.duration_ns);
      outside_sum += static_cast<double>(s.duration_ns) -
                     static_cast<double>(forest.span(c).duration_ns);
      ++matched;
      break;
    }
  }
  for (const char* kind : {"caller", "queue", "service"}) {
    for (const auto& rpc : ledger_rpcs()) {
      const auto& v = per_rpc[rpc][std::string("rpc.") + kind];
      m.push_back({std::string("rpc.") + kind + "_p50_us." + rpc, percentile(v, 0.5),
            "us", v.empty() ? na : "p50, " + samples(v.size())});
    }
  }
  m.push_back({"rpc.outside_handler_share", ratio(outside_sum, caller_sum), "ratio",
        fmt("sum(caller-service) %.0f us / sum(caller) %.0f us", outside_sum / 1e3,
            caller_sum / 1e3) + ", " + samples(matched)});
  m.push_back({"rpc.null_rtt_p50_us", run.null_rpc.wall_p50_us, "us",
        "p50, " + samples(run.null_rpc.calls)});
  m.push_back({"rpc.null_rtt_cpu_us", run.null_rpc.cpu_us_per_call, "us",
        "process cpu / calls, " + samples(run.null_rpc.calls)});
  m.push_back({"rpc.retries", static_cast<double>(t.rpc_retries), "count", "delta"});
  m.push_back({"rpc.timeouts", static_cast<double>(t.rpc_timeouts), "count", "delta"});

  // net
  m.push_back({"net.frames_per_op", ratio(static_cast<double>(t.frames), all_ops),
        "count", ratio_base(t.frames, all_ops, "frames sent/ops")});
  m.push_back({"net.wire_bytes_per_user_byte",
        ratio(static_cast<double>(t.wire_bytes), t.user_bytes), "ratio",
        t.user_bytes ? ratio_base(t.wire_bytes, t.user_bytes, "bytes sent/user bytes")
                     : na});
  m.push_back({"net.dials", static_cast<double>(t.dials), "count",
        "boot + workload of the traced pass"});

  // daemon / task
  std::vector<double> slice_us;
  for (std::size_t i = 0; i < forest.size(); ++i) {
    if (named(forest.span(i), "daemon.io.slice")) {
      slice_us.push_back(static_cast<double>(forest.span(i).duration_ns) / 1e3);
    }
  }
  // The io pool runs only multi-slice requests; single slices are
  // served on the handler thread and leave the pool histograms empty.
  m.push_back({"daemon.io.queue_p50_us", run.daemon_io_queue_p50_us, "us",
        run.daemon_io_n ? "p50 of daemon.io.queue, " + samples(run.daemon_io_n) : na});
  m.push_back({"daemon.io.service_p50_us", run.daemon_io_service_p50_us, "us",
        run.daemon_io_n ? "p50 of daemon.io.service, " + samples(run.daemon_io_n)
                        : na});
  m.push_back({"daemon.io.slice_p50_us", percentile(slice_us, 0.5), "us",
        slice_us.empty() ? na : "p50, " + samples(slice_us.size())});

  // kv
  m.push_back({"kv.wal_appends_per_op", ratio(static_cast<double>(t.kv_wal_appends), all_ops),
        "count", ratio_base(t.kv_wal_appends, all_ops, "wal appends/ops")});
  m.push_back({"kv.flushes", static_cast<double>(t.kv_flushes), "count", "delta, all daemons"});
  m.push_back({"kv.compactions", static_cast<double>(t.kv_compactions), "count",
        "delta, all daemons"});
  {
    auto it = run.phases.find("create");
    const bool has = it != run.phases.end();
    m.push_back({"kv.create_flushes", has ? static_cast<double>(it->second.counters.kv_flushes) : 0,
          "count", has ? "during the create phase, all daemons" : na});
    m.push_back({"kv.create_compactions",
          has ? static_cast<double>(it->second.counters.kv_compactions) : 0, "count",
          has ? "during the create phase, all daemons" : na});
  }
  m.push_back({"kv.compact_bytes_per_put",
        ratio(static_cast<double>(t.kv_compact_bytes), t.kv_puts), "B",
        ratio_base(t.kv_compact_bytes, t.kv_puts, "compaction bytes/puts")});
  m.push_back({"kv.stall_foreground_ms", static_cast<double>(t.kv_stall_foreground_ms),
        "ms", "delta, all daemons"});
  m.push_back({"kv.stall_slowdowns", static_cast<double>(t.kv_stall_slowdowns), "count",
        "delta, all daemons"});
  const double lookups = static_cast<double>(t.kv_cache_hits + t.kv_cache_misses);
  m.push_back({"kv.cache_hit_ratio", ratio(static_cast<double>(t.kv_cache_hits), lookups),
        "ratio", ratio_base(t.kv_cache_hits, lookups, "block hits/lookups")});
  m.push_back({"kv.meta_create_us", run.meta.create_p50_us, "us",
        "probe p50, " + samples(run.meta.creates)});
  m.push_back({"kv.meta_get_us", run.meta.get_p50_us, "us",
        "probe p50, " + samples(run.meta.gets)});
  m.push_back({"kv.meta_remove_us", run.meta.remove_p50_us, "us",
        "probe p50, " + samples(run.meta.removes)});
  m.push_back({"kv.meta_update_size_us", run.meta.update_size_p50_us, "us",
        run.meta.size_updates ? "probe p50, " + samples(run.meta.size_updates) : na});

  // storage
  const double fd_lookups = static_cast<double>(t.fd_hits + t.fd_misses);
  m.push_back({"storage.fd_cache_hit_ratio", ratio(static_cast<double>(t.fd_hits), fd_lookups),
        "ratio", fd_lookups > 0 ? ratio_base(t.fd_hits, fd_lookups, "fd hits/lookups")
                                : na});
  m.push_back({"storage.bytes_per_user_byte",
        ratio(static_cast<double>(t.storage_bytes), t.user_bytes), "ratio",
        t.user_bytes ? ratio_base(t.storage_bytes, t.user_bytes,
                                  "chunk bytes/user bytes")
                     : na});
  m.push_back({"storage.write_chunk_us", run.chunks.write_p50_us, "us",
        run.chunks.slices ? "probe p50, " + samples(run.chunks.slices) : na});
  m.push_back({"storage.read_chunk_us", run.chunks.read_p50_us, "us",
        run.chunks.slices ? "probe p50, " + samples(run.chunks.slices) : na});

  // ledger: each op type's mean time by layer, and what is left over.
  const auto ledgers = ledger_by_op(forest);
  for (const auto& op : ledger_ops()) {
    auto it = ledgers.find(op);
    const LedgerSummary l = it == ledgers.end() ? LedgerSummary{} : it->second;
    const std::string base = l.ops ? "mean, " + samples(l.ops) : na;
    const std::string p = "ledger." + op + ".";
    m.push_back({p + "total_us", l.total_us, "us", base});
    m.push_back({p + "client_self_us", l.client_self_us, "us", base});
    m.push_back({p + "wire_us", l.wire_us, "us", base});
    m.push_back({p + "queue_us", l.queue_us, "us", base});
    m.push_back({p + "service_self_us", l.service_self_us, "us", base});
    m.push_back({p + "io_us", l.io_us, "us", base});
    m.push_back({p + "unattributed_share", l.unattributed_share(), "ratio",
          l.ops ? fmt("%.2f us of %.2f us mean", l.unattributed_us, l.total_us)
                : na});
  }
  for (const auto& op : ledger_ops()) {
    const auto traced_it = run.traced.ops.find(op);
    const auto plain_it = run.untraced.ops.find(op);
    if (traced_it == run.traced.ops.end() || plain_it == run.untraced.ops.end()) {
      m.push_back({"trace.overhead." + op, 0, "ratio", na});
      continue;
    }
    const double traced = percentile(traced_it->second.lat_us, 0.5);
    const double plain = percentile(plain_it->second.lat_us, 0.5);
    m.push_back({"trace.overhead." + op, ratio(traced, plain), "ratio",
          fmt("traced p50 %.2f us / untraced p50 %.2f us", traced, plain)});
  }
  return m;
}

}  // namespace perfbench
