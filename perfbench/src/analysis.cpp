#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the set at or
  // below it.
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double tail_quantile(std::size_t n, std::size_t min_beyond) {
  for (const double q : {0.99, 0.9, 0.5}) {
    const double beyond = static_cast<double>(n) * (1.0 - q);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return q;
  }
  return 0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = percentile(samples, 0.5);
  s.p90 = percentile(samples, 0.9);
  s.tail_q = tail_quantile(s.n);
  s.tail = s.tail_q > 0 ? percentile(samples, s.tail_q) : 0;
  return s;
}

std::uint64_t covered_ns(std::vector<Interval> intervals, Interval window) {
  for (auto& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

namespace {

Interval interval_of(const gekko::metrics::TraceSpan& s) {
  return {s.start_ns, s.start_ns + s.duration_ns};
}

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

bool starts_with(const char* name, std::string_view prefix) {
  return std::string_view(name).starts_with(prefix);
}

}  // namespace

std::uint64_t self_ns(const gekko::metrics::TraceSpan& span,
                      const std::vector<gekko::metrics::TraceSpan>& children) {
  std::vector<Interval> ivs;
  ivs.reserve(children.size());
  for (const auto& c : children) ivs.push_back(interval_of(c));
  return sat_sub(span.duration_ns, covered_ns(std::move(ivs), interval_of(span)));
}

SpanForest::SpanForest(std::vector<gekko::metrics::TraceSpan> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_id.emplace(spans_[i].span_id, i);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto parent = spans_[i].parent_span_id;
    auto it = parent != 0 ? by_id.find(parent) : by_id.end();
    if (it != by_id.end() && it->second != i &&
        spans_[it->second].trace_id == spans_[i].trace_id) {
      children_[it->second].push_back(i);
    } else {
      roots_.push_back(i);
    }
  }
}

std::vector<std::size_t> SpanForest::bench_roots() const {
  std::vector<std::size_t> out;
  for (const std::size_t r : roots_) {
    if (starts_with(spans_[r].name, "bench.")) out.push_back(r);
  }
  return out;
}

const std::vector<std::size_t>& SpanForest::children(std::size_t i) const {
  return children_[i];
}

std::vector<std::size_t> SpanForest::descendants(
    std::size_t i, const std::string& name) const {
  std::vector<std::size_t> out;
  std::vector<std::size_t> stack(children_[i].begin(), children_[i].end());
  while (!stack.empty()) {
    const std::size_t j = stack.back();
    stack.pop_back();
    if (name == spans_[j].name) out.push_back(j);
    stack.insert(stack.end(), children_[j].begin(), children_[j].end());
  }
  return out;
}

OpLedger ledger_of(const SpanForest& forest, std::size_t root) {
  const auto& r = forest.span(root);
  const Interval window = interval_of(r);
  auto cover = [&](std::initializer_list<const char*> names) {
    std::vector<Interval> ivs;
    for (const char* name : names) {
      for (const std::size_t j : forest.descendants(root, name)) {
        ivs.push_back(interval_of(forest.span(j)));
      }
    }
    return covered_ns(std::move(ivs), window);
  };
  // The client layer is every client.<op> span directly under the
  // benchmark's span (an unlink is a stat and a remove; a read nests
  // its stat inside client.read, which the coverage already holds).
  std::vector<Interval> client_ivs;
  for (const std::size_t c : forest.children(root)) {
    if (starts_with(forest.span(c).name, "client.")) {
      client_ivs.push_back(interval_of(forest.span(c)));
    }
  }
  const std::uint64_t c_client = covered_ns(std::move(client_ivs), window);
  const std::uint64_t c_caller = cover({"rpc.caller"});
  const std::uint64_t c_server = cover({"rpc.queue", "rpc.service"});
  const std::uint64_t c_service = cover({"rpc.service"});
  const std::uint64_t c_io = cover({"daemon.io.slice"});

  OpLedger l;
  l.total = r.duration_ns;
  l.unattributed = sat_sub(l.total, c_client);
  l.client_self = sat_sub(c_client, c_caller);
  l.wire = sat_sub(c_caller, c_server);
  l.queue = sat_sub(c_server, c_service);
  l.service_self = sat_sub(c_service, c_io);
  l.io = c_io;
  return l;
}

std::map<std::string, LedgerSummary> ledger_by_op(const SpanForest& forest) {
  std::map<std::string, LedgerSummary> out;
  for (const std::size_t root : forest.bench_roots()) {
    const std::string op =
        std::string(forest.span(root).name).substr(std::string("bench.").size());
    const OpLedger l = ledger_of(forest, root);
    auto& s = out[op];
    ++s.ops;
    s.total_us += static_cast<double>(l.total) / 1e3;
    s.client_self_us += static_cast<double>(l.client_self) / 1e3;
    s.wire_us += static_cast<double>(l.wire) / 1e3;
    s.queue_us += static_cast<double>(l.queue) / 1e3;
    s.service_self_us += static_cast<double>(l.service_self) / 1e3;
    s.io_us += static_cast<double>(l.io) / 1e3;
    s.unattributed_us += static_cast<double>(l.unattributed) / 1e3;
  }
  for (auto& [op, s] : out) {
    const auto n = static_cast<double>(s.ops);
    s.total_us /= n;
    s.client_self_us /= n;
    s.wire_us /= n;
    s.queue_us /= n;
    s.service_self_us /= n;
    s.io_us /= n;
    s.unattributed_us /= n;
  }
  return out;
}

}  // namespace perfbench
