// §7.2 comparison point — instrumentation vs passive monitoring:
// "The query log records response times for all queries, but we find that
// it lowers the throughput for a simple statement from 40.8K to 33K
// queries per second, a 20% drop. In contrast, NetAlytics incurs no
// overhead on the actual application."
//
// Three configurations of the emulated DB server:
//   1. no monitoring at all (baseline),
//   2. general query log enabled (in-server instrumentation),
//   3. query log off but NetAlytics passively monitoring the server's
//      traffic (the monitor runs in the fabric; the server does nothing).
#include <cstdio>

#include "apps/dbserver.hpp"
#include "core/netalytics.hpp"
#include "pktgen/builder.hpp"
#include "pktgen/payloads.hpp"

using namespace netalytics;

int main() {
  // Interleaved A/B trials on thread CPU time; each configuration's cost is
  // the median of its paired qps ratios against the baseline server.
  constexpr int kPairs = 15;
  constexpr std::uint64_t kQueries = 100000;

  apps::DbServer baseline;
  apps::DbServer logged;
  logged.set_query_log(true);
  const auto log_cmp = apps::compare_throughput(baseline, logged, kPairs, kQueries);

  // Passive monitoring: the server serves the same workload while its
  // traffic is mirrored to a NetAlytics monitor elsewhere in the fabric.
  auto emu = core::Emulation::make_small(4);
  core::NetAlytics engine(emu);
  auto q = engine.submit(
      "PARSE mysql_query FROM * TO h5:3306 LIMIT 600s PROCESS (identity)", 0);
  if (!q) {
    std::fprintf(stderr, "query rejected\n");
    return 1;
  }
  // The mirrored copies are processed by the monitor, not the DB host; the
  // DB's own throughput is unchanged by construction. Measure it while the
  // mirror path is actually exercised.
  apps::DbServer monitored;
  const auto query_frame = [&] {
    pktgen::TcpFrameSpec spec;
    spec.flow = {*emu.ip_of_name("h0"), *emu.ip_of_name("h5"), 40000, 3306, 6};
    const auto payload = pktgen::mysql_query_packet("SELECT name FROM t WHERE id = 1");
    spec.flags = net::tcp_flags::kPsh | net::tcp_flags::kAck;
    spec.payload = payload;
    return pktgen::build_tcp_frame(spec);
  }();
  for (int i = 0; i < 10000; ++i) emu.transmit(query_frame, i);
  const auto mon_cmp = apps::compare_throughput(baseline, monitored, kPairs, kQueries);
  engine.stop_all(common::kSecond);

  const double base_qps = log_cmp.a_qps;
  std::printf("== §7.2 table: DB throughput under different monitoring ==\n");
  std::printf("(%d interleaved pairs of %llu queries on thread CPU time; "
              "\"vs base\" is the median paired ratio, qps the baseline "
              "median times it)\n",
              kPairs, static_cast<unsigned long long>(kQueries));
  std::printf("%-34s %12s %10s\n", "configuration", "qps", "vs base");
  std::printf("%-34s %12.0f %9.1f%%\n", "no monitoring", base_qps, 100.0);
  std::printf("%-34s %12.0f %9.1f%%\n", "general query log (instrumented)",
              base_qps * log_cmp.ratio, 100.0 * log_cmp.ratio);
  std::printf("%-34s %12.0f %9.1f%%\n", "NetAlytics passive monitoring",
              base_qps * mon_cmp.ratio, 100.0 * mon_cmp.ratio);

  const double drop = 1.0 - log_cmp.ratio;
  std::printf("\nshape checks (paper: 40.8K -> 33K qps, ~20%% drop):\n");
  std::printf("  query log costs measurable throughput: %s (%.1f%% drop)\n",
              drop > 0.03 ? "yes" : "NO", drop * 100);
  std::printf("  passive monitoring costs ~nothing: %s (%.1f%% of baseline)\n",
              mon_cmp.ratio > 0.9 ? "yes" : "NO", 100.0 * mon_cmp.ratio);
  std::printf("  monitor actually saw the queries: %s (%llu records)\n",
              (*q)->monitor_stats().parsed > 0 ? "yes" : "NO",
              static_cast<unsigned long long>((*q)->monitor_stats().parsed));
  return 0;
}
