// Executor stage-profiler invariants, both executors: the per-task
// .tuples counters reconcile exactly with tuples_executed() (the profiler
// counts the same bolt executions the executed counters do), the pool
// counters exist under <prefix>.profiler.pool.*, profiling off publishes
// nothing, and the collapsed-stack rendering is well-formed flamegraph.pl
// input. The multi-worker free-running cases double as the TSan lane's
// coverage of the profiler hot path (suite name is in run_tsan.sh's
// filter).
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "stream/bolts.hpp"
#include "stream/executor.hpp"
#include "stream/topology.hpp"
#include "obs_test_util.hpp"

namespace netalytics::obs {
namespace {

using obs::testing::count_occurrences;

/// Finite spout: numbers 0..n-1 keyed round-robin over 3 keys.
class NumberSpout : public stream::Spout {
 public:
  explicit NumberSpout(int n) : left_(n) {}
  bool next_tuple(stream::Collector& out, common::Timestamp) override {
    if (left_ == 0) return false;
    --left_;
    std::string key = "k";
    key += std::to_string(left_ % 3);
    out.emit(stream::Tuple{{std::uint64_t(left_), std::move(key)}});
    return true;
  }

 private:
  int left_;
};

struct ProfiledRun {
  std::uint64_t tuples_executed = 0;
  common::MetricsSnapshot snapshot;
};

/// Multi-hop grouping topology (shuffle -> fields -> global) run to
/// completion with the given executor config, profiler counters bound
/// under "t.".
ProfiledRun run_profiled(stream::ExecutorConfig exec) {
  stream::TopologyBuilder b("profiled");
  b.set_spout("s", [] { return std::make_unique<NumberSpout>(30); },
              {"n", "k"}, 2);
  b.set_bolt("pass",
             [] {
               return std::make_unique<stream::FilterBolt>(
                   [](const stream::Tuple& t) {
                     return stream::as_u64(t.at(0)) % 5 != 0;
                   });
             },
             {"n", "k"}, 3)
      .shuffle_grouping("s");
  b.set_bolt("agg",
             [] {
               stream::GroupAggConfig cfg;
               cfg.group_indices = {1};
               cfg.value_index = 0;
               cfg.op = stream::AggOp::sum;
               return std::make_unique<stream::GroupAggBolt>(cfg);
             },
             {"k", "sum", "samples"}, 2)
      .fields_grouping("pass", {"k"});
  b.set_bolt("sink",
             [] {
               return std::make_unique<stream::SinkBolt>(
                   [](const stream::Tuple&) {});
             },
             {})
      .global_grouping("agg");

  common::MetricsRegistry registry;
  auto topo = stream::make_executor(b.build(), exec);
  topo->bind_metrics(registry, "t");
  topo->run_until_idle(0);
  topo->tick(common::kSecond);
  topo->close(2 * common::kSecond);
  return {topo->tuples_executed(), registry.snapshot("t.")};
}

void expect_reconciles(const ProfiledRun& run) {
  const ProfileTotals totals = profile_totals(run.snapshot);
  EXPECT_EQ(totals.tuples, run.tuples_executed);
  EXPECT_GT(totals.tuples, 0u);
  // Every task of every component published a self_ns series: 2 spout +
  // 3 pass + 2 agg + 1 sink.
  EXPECT_EQ(totals.tasks, 8u);
  EXPECT_GT(totals.self_ns, 0u);
}

TEST(ObsProfiler, SteppedTuplesReconcileWithTuplesExecuted) {
  const auto run = run_profiled({.workers = 1, .profile = true});
  expect_reconciles(run);
  // Stepped pool counters exist; single-worker runs dispatch stages but
  // never go parallel.
  EXPECT_GT(run.snapshot.counter_value("t.profiler.pool.stage_dispatches"),
            0u);
  EXPECT_EQ(run.snapshot.counter_value("t.profiler.pool.parallel_stages"),
            0u);
}

TEST(ObsProfiler, ParallelSteppedReconcilesAndGoesParallel) {
  const auto run = run_profiled({.workers = 4, .profile = true});
  expect_reconciles(run);
  EXPECT_GT(run.snapshot.counter_value("t.profiler.pool.parallel_stages"),
            0u);
}

TEST(ObsProfiler, FreeRunningTuplesReconcileWithTuplesExecuted) {
  const auto run = run_profiled({.workers = 1,
                                 .mode = stream::ExecutorMode::free_running,
                                 .profile = true});
  expect_reconciles(run);
}

TEST(ObsProfiler, FreeRunningParallelHotPathKeepsCountsExact) {
  // 4 pool threads race over the profiler counters; the reconcile below
  // (and the TSan lane re-running this suite) prove the relaxed-atomic
  // publication is both exact and race-free.
  for (int round = 0; round < 3; ++round) {
    const auto run = run_profiled({.workers = 4,
                                   .mode = stream::ExecutorMode::free_running,
                                   .profile = true});
    expect_reconciles(run);
    for (const char* pool :
         {"t.profiler.pool.claims", "t.profiler.pool.helps",
          "t.profiler.pool.parks"}) {
      bool found = false;
      for (const auto& c : run.snapshot.counters) found |= c.name == pool;
      EXPECT_TRUE(found) << pool;
    }
  }
}

TEST(ObsProfiler, OffByDefaultPublishesNoSeries) {
  for (const auto mode :
       {stream::ExecutorMode::stepped, stream::ExecutorMode::free_running}) {
    const auto run = run_profiled({.workers = 2, .mode = mode});
    for (const auto& c : run.snapshot.counters) {
      EXPECT_EQ(c.name.find(".profiler."), std::string::npos) << c.name;
    }
  }
}

TEST(ObsProfiler, ProfileTotalsSumsOnlyProfilerCounters) {
  common::MetricsRegistry registry;
  registry.counter("q9.proc0.profiler.count.t0.tuples").inc(5);
  registry.counter("q9.proc0.profiler.count.t0.self_ns").inc(100);
  registry.counter("q9.proc0.profiler.count.t0.queue_wait_ns").inc(40);
  registry.counter("q9.proc0.profiler.count.t1.self_ns").inc(50);
  registry.counter("q9.proc0.count.executed").inc(1000);  // not profiler
  const ProfileTotals totals = profile_totals(registry.snapshot());
  EXPECT_EQ(totals.tuples, 5u);
  EXPECT_EQ(totals.self_ns, 150u);
  EXPECT_EQ(totals.queue_wait_ns, 40u);
  EXPECT_EQ(totals.tasks, 2u);
}

TEST(ObsProfiler, CollapsedStackDropsMarkerAndWeighsBySelfTime) {
  common::MetricsRegistry registry;
  registry.counter("q9.proc0.profiler.count.t0.self_ns").inc(100);
  registry.counter("q9.proc0.profiler.count.t1.self_ns").inc(50);
  registry.counter("q9.proc0.profiler.rank.t0.self_ns");  // zero: skipped
  registry.counter("q9.proc0.profiler.count.t0.tuples").inc(7);  // not a frame
  EXPECT_EQ(collapsed_stack(registry.snapshot()),
            "q9;proc0;count;t0 100\n"
            "q9;proc0;count;t1 50\n");
}

TEST(ObsProfiler, LiveRunCollapsedStackIsWellFormed) {
  const auto run = run_profiled({.workers = 2, .profile = true});
  const std::string folded = collapsed_stack(run.snapshot);
  ASSERT_FALSE(folded.empty());
  // One "frame;frame;... weight" line per task with nonzero self-time.
  EXPECT_LE(count_occurrences(folded, "\n"), 8u);
  EXPECT_EQ(folded.find("profiler"), std::string::npos);
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t nl = folded.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = folded.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
    for (char c : line.substr(sp + 1)) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c))) << line;
    }
  }
}

}  // namespace
}  // namespace netalytics::obs
