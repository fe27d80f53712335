// Pure arithmetic of the benchmark: percentiles over latency samples,
// span coverage and self time, and the per-op ledger that splits an
// op's end-to-end time into layers. No I/O, no clocks — everything here
// is testable on hand-built inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample set;
/// 0 for an empty set.
double percentile(std::vector<double> samples, double q);

/// Median of a small set (per-run or per-iteration figures).
double median(std::vector<double> samples);

/// The highest of p99 / p90 / p50 that has at least `min_beyond`
/// samples above it in a set of `n`; 0 when even p50 has too few.
double tail_quantile(std::size_t n, std::size_t min_beyond = 10);

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double tail = 0;    ///< value at tail_q
  double tail_q = 0;  ///< which quantile `tail` is (0.99, 0.9 or 0.5)
};
Summary summarize(const std::vector<double>& samples);

/// A closed interval of time on the shared steady clock.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Total length of the union of `intervals`, clipped to `window`.
std::uint64_t covered_ns(std::vector<Interval> intervals, Interval window);

/// A span's self time: its duration minus the part of it that its
/// children cover (children may overlap one another; they count once).
std::uint64_t self_ns(const gekko::metrics::TraceSpan& span,
                      const std::vector<gekko::metrics::TraceSpan>& children);

/// Spans of one traced op, indexed for the ledger walk. The benchmark's
/// own `bench.<op>` span is the root; the program's spans hang below it
/// by parent id.
class SpanForest {
 public:
  explicit SpanForest(std::vector<gekko::metrics::TraceSpan> spans);

  /// Root spans whose name starts with "bench.".
  [[nodiscard]] std::vector<std::size_t> bench_roots() const;
  [[nodiscard]] const gekko::metrics::TraceSpan& span(std::size_t i) const {
    return spans_[i];
  }
  [[nodiscard]] const std::vector<std::size_t>& children(std::size_t i) const;
  /// Every descendant of `i` (not `i` itself) named `name`.
  [[nodiscard]] std::vector<std::size_t> descendants(
      std::size_t i, const std::string& name) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::vector<gekko::metrics::TraceSpan> spans_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> roots_;
};

/// One op's time split by layer, in nanoseconds. The components add up
/// to `total`: unattributed is whatever the program's spans below the
/// benchmark's span do not cover.
struct OpLedger {
  std::uint64_t total = 0;         ///< bench.<op> span
  std::uint64_t client_self = 0;   ///< client.<op> spans minus their RPCs
  std::uint64_t wire = 0;          ///< rpc.caller not covered server-side
  std::uint64_t queue = 0;         ///< rpc.queue (handler-pool wait)
  std::uint64_t service_self = 0;  ///< rpc.service minus io slices
  std::uint64_t io = 0;            ///< daemon.io.slice
  std::uint64_t unattributed = 0;  ///< total minus client.* coverage
};

/// Ledger of the op rooted at `root` (a bench.<op> span). Parallel
/// fan-out counts by wall-clock coverage, so every component is a share
/// of the op's own elapsed time.
OpLedger ledger_of(const SpanForest& forest, std::size_t root);

/// Mean ledger per op name ("create", "write", ...: the bench span name
/// without its "bench." prefix), with the number of ops folded in.
struct LedgerSummary {
  std::size_t ops = 0;
  double total_us = 0;
  double client_self_us = 0;
  double wire_us = 0;
  double queue_us = 0;
  double service_self_us = 0;
  double io_us = 0;
  double unattributed_us = 0;
  [[nodiscard]] double unattributed_share() const {
    return total_us > 0 ? unattributed_us / total_us : 0;
  }
};
std::map<std::string, LedgerSummary> ledger_by_op(const SpanForest& forest);

}  // namespace perfbench
