#include "apps/dbserver.hpp"

#include <gtest/gtest.h>

namespace netalytics::apps {
namespace {

TEST(DbServer, ExecuteIsDeterministicPerStatement) {
  DbServer db;
  const auto a = db.execute("SELECT 1");
  DbServer db2;
  const auto b = db2.execute("SELECT 1");
  EXPECT_EQ(a, b);
  EXPECT_NE(db.execute("SELECT 2"), a);
}

TEST(DbServer, QueryLogWritesEntries) {
  DbServer db;
  db.set_query_log(true);
  db.execute("SELECT 1");
  db.execute("SELECT 2");
  EXPECT_GT(db.log_bytes_written(), 0u);
  db.clear_log();
  EXPECT_EQ(db.log_bytes_written(), 0u);
}

TEST(DbServer, NoLogMeansNoLogBytes) {
  DbServer db;
  db.execute("SELECT 1");
  EXPECT_EQ(db.log_bytes_written(), 0u);
}

TEST(DbServer, BenchmarkReportsThroughput) {
  DbServer db;
  const auto result = db.run_benchmark(20000);
  EXPECT_EQ(result.queries, 20000u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_NE(result.checksum, 0u);
}

TEST(DbServer, QueryLogCostsThroughput) {
  // §7.2: the general query log drops throughput noticeably (the paper
  // measured ~20%); passive monitoring costs nothing by construction.
  // Interleaved A/B trials on thread CPU time; the drop is the median of
  // the paired ratios, so host drift cancels out of it.
  DbServer without;
  DbServer with;
  with.set_query_log(true);
  const auto cmp = compare_throughput(without, with, 21, 10000);
  const double base_qps = cmp.a_qps;
  const double logged_qps = cmp.b_qps;
  EXPECT_LT(logged_qps, base_qps);
  const double drop = 1.0 - cmp.ratio;
  EXPECT_GT(drop, 0.03);  // a real, measurable cost
  EXPECT_LT(drop, 0.70);  // but not absurd
}

}  // namespace
}  // namespace netalytics::apps
