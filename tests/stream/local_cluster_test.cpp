#include "stream/local_cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "stream/bolts.hpp"
#include "test_util.hpp"

namespace netalytics::stream {
namespace {

using testing::ListSpout;

std::vector<Tuple> number_tuples(int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Tuple{{std::uint64_t(i), testing::key_of(i % 5)}});
  }
  return out;
}

TEST(LocalCluster, DeliversEverythingBeforeStopReturns) {
  constexpr int kCount = 2000;
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(kCount)); },
              {"n", "k"});
  std::atomic<int> received{0};
  std::atomic<long long> sum{0};
  b.set_bolt("sink",
             [&] {
               return std::make_unique<SinkBolt>([&](const Tuple& t) {
                 ++received;
                 sum += static_cast<long long>(as_u64(t.at(0)));
               });
             },
             {})
      .shuffle_grouping("s");

  LocalCluster cluster(b.build());
  cluster.start();
  // Let the spout drain fully (it replays a fixed list and then idles).
  while (cluster.tuples_executed() < kCount) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.stop();
  EXPECT_EQ(received.load(), kCount);
  EXPECT_EQ(sum.load(), static_cast<long long>(kCount - 1) * kCount / 2);
}

TEST(LocalCluster, MultiStageParallelPipeline) {
  constexpr int kCount = 1000;
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(kCount)); },
              {"n", "k"});
  b.set_bolt("pass",
             [] {
               return std::make_unique<FilterBolt>([](const Tuple&) { return true; });
             },
             {"n", "k"}, 3)
      .fields_grouping("s", {"k"});
  std::atomic<int> received{0};
  b.set_bolt("sink",
             [&received] {
               return std::make_unique<SinkBolt>(
                   [&received](const Tuple&) { ++received; });
             },
             {})
      .global_grouping("pass");

  LocalCluster cluster(b.build());
  cluster.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < kCount &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.stop();
  EXPECT_EQ(received.load(), kCount);
}

TEST(LocalCluster, StopWithoutStartIsSafe) {
  TopologyBuilder b("t");
  b.set_spout(
      "s", [] { return std::make_unique<ListSpout>(std::vector<Tuple>{}); }, {});
  LocalCluster cluster(b.build());
  cluster.stop();  // no-op
  EXPECT_FALSE(cluster.running());
}

TEST(LocalCluster, DestructorStopsRunningCluster) {
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<ListSpout>(number_tuples(10)); },
              {"n", "k"});
  std::atomic<int> received{0};
  b.set_bolt("sink",
             [&received] {
               return std::make_unique<SinkBolt>(
                   [&received](const Tuple&) { ++received; });
             },
             {})
      .shuffle_grouping("s");
  {
    LocalCluster cluster(b.build());
    cluster.start();
    // Destructor must join everything without deadlock.
  }
  SUCCEED();
}

}  // namespace
}  // namespace netalytics::stream
