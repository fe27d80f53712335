// Tests of the benchmark itself: its arithmetic on hand-built inputs, a
// tiny run of every workload on a real deployment, and planted wrong
// results that the correctness checks must catch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis.h"
#include "check.h"
#include "common/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gekko::metrics::TraceSpan;

// ---------- percentiles ----------

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.9), 90);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.0), 1);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(percentile({7}, 0.99), 7);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(999), 0.9);  // p99 would have 9.99 beyond
  EXPECT_EQ(tail_quantile(100), 0.9);
  EXPECT_EQ(tail_quantile(20), 0.5);
  EXPECT_EQ(tail_quantile(19), 0.0);
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p90, 900);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);
}

// ---------- coverage and self time ----------

TEST(Coverage, UnionClippedToWindow) {
  EXPECT_EQ(covered_ns({}, {0, 100}), 0u);
  EXPECT_EQ(covered_ns({{10, 30}, {20, 50}, {90, 120}}, {0, 100}), 50u);
  EXPECT_EQ(covered_ns({{10, 30}, {30, 40}}, {0, 100}), 30u);  // touching
  EXPECT_EQ(covered_ns({{150, 200}}, {0, 100}), 0u);           // outside
  EXPECT_EQ(covered_ns({{0, 100}, {10, 20}}, {0, 100}), 100u);  // nested
}

TraceSpan span(const char* name, std::uint64_t id, std::uint64_t parent,
               std::uint64_t start, std::uint64_t end, std::uint64_t trace = 1) {
  TraceSpan s;
  s.name = name;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_span_id = parent;
  s.start_ns = start;
  s.duration_ns = end - start;
  return s;
}

TEST(Coverage, SelfTimeCountsOverlapOnce) {
  const TraceSpan parent = span("client.read", 1, 0, 0, 100);
  const std::vector<TraceSpan> kids = {span("rpc.caller", 2, 1, 10, 30),
                                       span("rpc.caller", 3, 1, 20, 50),
                                       span("rpc.caller", 4, 1, 90, 120)};
  EXPECT_EQ(self_ns(parent, kids), 50u);
  EXPECT_EQ(self_ns(parent, {}), 100u);
}

// ---------- the ledger ----------

/// One write: two parallel RPCs, one with a queue wait, two io slices.
std::vector<TraceSpan> one_write(std::uint64_t trace, std::uint64_t base,
                                 std::uint64_t t0) {
  auto id = [base](std::uint64_t k) { return base + k; };
  return {
      span("bench.write", id(1), 0, t0 + 0, t0 + 1000, trace),
      span("client.write", id(2), id(1), t0 + 10, t0 + 990, trace),
      span("rpc.caller", id(3), id(2), t0 + 20, t0 + 900, trace),
      span("rpc.caller", id(4), id(2), t0 + 30, t0 + 800, trace),
      span("rpc.queue", id(5), id(3), t0 + 50, t0 + 100, trace),
      span("rpc.service", id(6), id(3), t0 + 100, t0 + 700, trace),
      span("rpc.service", id(7), id(4), t0 + 60, t0 + 500, trace),
      span("daemon.io.slice", id(8), id(6), t0 + 150, t0 + 400, trace),
      span("daemon.io.slice", id(9), id(6), t0 + 200, t0 + 650, trace),
  };
}

TEST(Ledger, ComponentsAddUpToTheOp) {
  const SpanForest forest(one_write(1, 0, 0));
  ASSERT_EQ(forest.bench_roots().size(), 1u);
  const OpLedger l = ledger_of(forest, forest.bench_roots()[0]);
  EXPECT_EQ(l.total, 1000u);
  EXPECT_EQ(l.unattributed, 20u);   // 1000 - client [10, 990]
  EXPECT_EQ(l.client_self, 100u);   // 980 - callers [20, 900]
  EXPECT_EQ(l.wire, 230u);          // 880 - server [50, 700]
  EXPECT_EQ(l.queue, 10u);          // 650 - service [60, 700]
  EXPECT_EQ(l.service_self, 140u);  // 640 - io [150, 650]
  EXPECT_EQ(l.io, 500u);
  EXPECT_EQ(l.unattributed + l.client_self + l.wire + l.queue + l.service_self + l.io,
            l.total);
}

TEST(Ledger, MeansPerOpAndOrphansIgnored) {
  auto spans = one_write(1, 0, 0);
  const auto second = one_write(2, 100, 5000);
  spans.insert(spans.end(), second.begin(), second.end());
  // A span whose parent belongs to another trace is a root, not a child.
  spans.push_back(span("rpc.caller", 500, 1, 10, 20, /*trace=*/9));
  spans.push_back(span("bench.stat", 600, 0, 0, 80, 3));
  const auto by_op = ledger_by_op(SpanForest(spans));
  ASSERT_EQ(by_op.size(), 2u);
  const LedgerSummary& w = by_op.at("write");
  EXPECT_EQ(w.ops, 2u);
  EXPECT_DOUBLE_EQ(w.total_us, 1.0);
  EXPECT_DOUBLE_EQ(w.io_us, 0.5);
  EXPECT_DOUBLE_EQ(w.unattributed_share(), 0.02);
  const LedgerSummary& s = by_op.at("stat");
  EXPECT_EQ(s.ops, 1u);
  EXPECT_DOUBLE_EQ(s.unattributed_share(), 1.0);  // no program spans below
}

// ---------- checks ----------

TEST(Check, PatternRoundTripsAtAnyOffset) {
  std::vector<std::uint8_t> buf(1000);
  fill_pattern(7, 3, 13, buf);
  EXPECT_EQ(check_pattern(7, 3, 13, buf), "");
  // The same bytes, produced as two pieces, match the whole.
  std::vector<std::uint8_t> a(500), b(500);
  fill_pattern(7, 3, 13, a);
  fill_pattern(7, 3, 513, b);
  a.insert(a.end(), b.begin(), b.end());
  EXPECT_EQ(a, buf);
  EXPECT_NE(check_pattern(8, 3, 13, buf), "");  // another seed
  EXPECT_NE(check_pattern(7, 4, 13, buf), "");  // another file
}

TEST(Check, FlippedByteIsNamed) {
  std::vector<std::uint8_t> buf(200000);
  fill_pattern(1, 1, 4096, buf);
  buf[123456] ^= 0x01;
  const std::string problem = check_pattern(1, 1, 4096, buf);
  EXPECT_NE(problem.find("byte " + std::to_string(4096 + 123456)), std::string::npos)
      << problem;
}

TEST(Check, StatResults) {
  gekko::proto::Metadata md;
  md.type = gekko::proto::FileType::regular;
  md.size = 4096;
  EXPECT_EQ(check_regular_file(md, 4096), "");
  EXPECT_NE(check_regular_file(md, 4095), "");
  md.type = gekko::proto::FileType::directory;
  EXPECT_NE(check_regular_file(md, 4096), "");
  EXPECT_NE(check_regular_file(gekko::Errc::not_found, 0), "");
  EXPECT_EQ(check_length(std::size_t{8}, 8), "");
  EXPECT_NE(check_length(std::size_t{7}, 8), "");
  EXPECT_EQ(check_empty_listing({}), "");
  EXPECT_NE(check_empty_listing({"file.mdtest.0.1"}), "");
}

TEST(Check, PermutationIsSeededAndComplete) {
  const auto p = permutation(5, 1000);
  std::vector<bool> seen(1000, false);
  for (const auto v : p) {
    ASSERT_LT(v, 1000u);
    seen[v] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 1000);
  EXPECT_EQ(permutation(5, 1000), p);
  EXPECT_NE(permutation(6, 1000), p);
}

TEST(Workloads, SharedFileHeaderMakesChunkCrossingWrites) {
  // The 4 KiB header moves every transfer off the chunk grid, so each
  // client's segment has one transfer across every chunk boundary.
  constexpr std::uint64_t kChunk = 512 * 1024;
  const WorkloadSpec spec = make_spec("ior-shared-rand", 20);
  for (int c = 0; c < kClients; ++c) {
    std::uint64_t crossing = 0;
    for (const std::uint64_t off : ior_offsets(spec, 7, c, 0, false)) {
      if (off / kChunk != (off + spec.transfer - 1) / kChunk) ++crossing;
    }
    EXPECT_EQ(crossing, spec.bytes_per_client / kChunk) << "client " << c;
  }
}

// ---------- workloads on a real deployment ----------

/// Tiny versions of the three workloads.
WorkloadSpec tiny(const std::string& name) {
  WorkloadSpec s = make_spec(name, 1);
  if (name == "md-storm") {
    s.files_per_client = 40;
  } else if (name == "ior-fpp-seq") {
    s.transfer = 1024 * 1024;  // two chunk slices per call
    s.bytes_per_client = 3 * 1024 * 1024;
    s.iterations = 2;
  } else {
    s.bytes_per_client = 64 * 8192;  // one chunk-crossing write per client
    s.iterations = 2;
  }
  return s;
}

class Deployed : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(".perfbench_test") /
            (std::to_string(::getpid()) + "." +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override {
    if (dep_.mount) dep_.mount.reset();
    if (dep_.cluster) dep_.cluster.reset();
    std::filesystem::remove_all(root_);
    std::error_code ec;
    std::filesystem::remove(root_.parent_path(), ec);  // only once empty
  }
  Deployment& boot_for(const WorkloadSpec& spec, std::uint64_t seed,
                       gekko::metrics::Tracer* tracer = nullptr) {
    auto d = boot(spec.transport, root_, workload_dir(spec, seed), tracer);
    EXPECT_TRUE(d.is_ok()) << d.status().to_string();
    if (d) dep_ = std::move(*d);
    return dep_;
  }

  std::filesystem::path root_;
  Deployment dep_;
};

TEST_F(Deployed, SmokeEveryWorkload) {
  for (const char* name : {"md-storm", "ior-fpp-seq", "ior-shared-rand"}) {
    SCOPED_TRACE(name);
    const WorkloadSpec spec = tiny(name);
    Deployment& dep = boot_for(spec, 42);
    ASSERT_TRUE(dep.mount);
    EXPECT_GT(dep.setup_s, 0);
    FsCalls fs(*dep.mount);
    const RunResult r = run_workload(spec, fs, 42, nullptr, nullptr);
    EXPECT_EQ(r.failed, 0u) << (r.errors.empty() ? "" : r.errors.front());
    EXPECT_GT(r.attempted, 0u);
    for (const auto& [op, log] : r.ops) {
      EXPECT_FALSE(log.lat_us.empty()) << op;
      EXPECT_FALSE(log.rates.empty()) << op;
      for (const double rate : log.rates) EXPECT_GT(rate, 0) << op;
    }
    if (spec.is_ior()) {
      EXPECT_EQ(r.ops.at("write").lat_us.size(),
                spec.transfers_per_client() * kClients * spec.iterations);
    } else {
      EXPECT_EQ(r.ops.at("remove").lat_us.size(), spec.files_per_client * kClients);
    }
    dep.mount.reset();
    dep.cluster.reset();
    std::filesystem::remove_all(root_);
  }
}

TEST_F(Deployed, TracedRunLedgerCoversEveryCall) {
  const WorkloadSpec spec = tiny("ior-fpp-seq");
  gekko::metrics::Tracer tracer(1 << 14);
  Deployment& dep = boot_for(spec, 3, &tracer);
  ASSERT_TRUE(dep.mount);
  FsCalls fs(*dep.mount);
  const RunResult r = run_workload(spec, fs, 3, &tracer, nullptr);
  ASSERT_EQ(r.failed, 0u);
  dep.mount.reset();
  dep.cluster.reset();
  ASSERT_LE(tracer.recorded(), tracer.capacity());
  const auto by_op = ledger_by_op(SpanForest(tracer.dump()));
  ASSERT_EQ(by_op.count("write"), 1u);
  ASSERT_EQ(by_op.count("read"), 1u);
  for (const auto& [op, l] : by_op) {
    SCOPED_TRACE(op);
    EXPECT_EQ(l.ops, r.ops.at(op).lat_us.size());
    // Every call reached the daemons: RPC, handler and io time show.
    EXPECT_GT(l.wire_us, 0);
    EXPECT_GT(l.service_self_us, 0);
    EXPECT_GT(l.io_us, 0);
    EXPECT_LT(l.unattributed_share(), 0.5);
    const double sum = l.client_self_us + l.wire_us + l.queue_us +
                       l.service_self_us + l.io_us + l.unattributed_us;
    EXPECT_NEAR(sum, l.total_us, 1e-6 * l.total_us);
  }
}

// ---------- planted wrong results ----------

/// Passes calls through, except the `nth` call of one kind, which it
/// corrupts.
class Planted : public FsCalls {
 public:
  enum class Fault { flip_byte, wrong_size, missing_file };
  Planted(gekko::fs::Mount& mount, Fault fault, int nth)
      : FsCalls(mount), fault_(fault), nth_(nth) {}

  gekko::Result<std::size_t> pread(int fd, std::span<std::uint8_t> out,
                                   std::uint64_t offset) override {
    auto n = FsCalls::pread(fd, out, offset);
    if (fault_ == Fault::flip_byte && n && *n > 0 && hit_()) out[*n / 2] ^= 0x40;
    return n;
  }
  gekko::Result<gekko::proto::Metadata> stat(const std::string& path) override {
    auto md = FsCalls::stat(path);
    if (fault_ == Fault::wrong_size && md && hit_()) md->size += 1;
    return md;
  }
  gekko::Result<int> open(const std::string& path, std::uint32_t flags) override {
    if (fault_ == Fault::missing_file && (flags & gekko::fs::create) && hit_()) {
      return kLostFd;  // claims success, creates nothing
    }
    return FsCalls::open(path, flags);
  }
  gekko::Status close(int fd) override {
    return fd == kLostFd ? gekko::Status::ok() : FsCalls::close(fd);
  }

 private:
  static constexpr int kLostFd = -7;
  bool hit_() { return calls_.fetch_add(1) == nth_; }
  Fault fault_;
  int nth_;
  std::atomic<int> calls_{0};  // both client threads call in
};

TEST_F(Deployed, FlippedByteFailsTheRun) {
  const WorkloadSpec spec = tiny("ior-fpp-seq");
  Deployment& dep = boot_for(spec, 5);
  ASSERT_TRUE(dep.mount);
  Planted fs(*dep.mount, Planted::Fault::flip_byte, 3);
  const RunResult r = run_workload(spec, fs, 5, nullptr, nullptr);
  EXPECT_EQ(r.failed, 1u);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("byte "), std::string::npos) << r.errors.front();
}

TEST_F(Deployed, WrongSizeFailsTheRun) {
  for (const char* name : {"md-storm", "ior-shared-rand"}) {
    SCOPED_TRACE(name);
    const WorkloadSpec spec = tiny(name);
    Deployment& dep = boot_for(spec, 6);
    ASSERT_TRUE(dep.mount);
    Planted fs(*dep.mount, Planted::Fault::wrong_size, 0);
    const RunResult r = run_workload(spec, fs, 6, nullptr, nullptr);
    EXPECT_GE(r.failed, 1u);
    ASSERT_FALSE(r.errors.empty());
    EXPECT_NE(r.errors.front().find("size"), std::string::npos) << r.errors.front();
    dep.mount.reset();
    dep.cluster.reset();
    std::filesystem::remove_all(root_);
  }
}

TEST_F(Deployed, MissingFileFailsTheRun) {
  const WorkloadSpec spec = tiny("md-storm");
  Deployment& dep = boot_for(spec, 8);
  ASSERT_TRUE(dep.mount);
  Planted fs(*dep.mount, Planted::Fault::missing_file, 17);
  const RunResult r = run_workload(spec, fs, 8, nullptr, nullptr);
  // Its stat (in every pass) and its remove fail.
  EXPECT_EQ(r.failed, static_cast<std::uint64_t>(kStatPasses) + 1);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("stat failed"), std::string::npos) << r.errors.front();
}

}  // namespace
}  // namespace perfbench
