#include "apps/dbserver.hpp"

#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace netalytics::apps {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// The log file wraps here, so a long benchmark keeps it bounded.
constexpr std::size_t kLogWrap = 4 << 20;

}  // namespace

DbServer::DbServer(std::size_t rows_per_query)
    : rows_per_query_(rows_per_query == 0 ? 1 : rows_per_query) {}

DbServer::~DbServer() {
  if (log_file_ != nullptr) std::fclose(log_file_);
}

std::uint64_t DbServer::execute(const std::string& sql) {
  ++query_counter_;
  // "Parse" the statement and assemble a result set: per-row key lookup
  // plus row serialization, the dominant costs of a simple indexed SELECT.
  std::uint64_t h = common::fnv1a64(std::string_view(sql));
  std::uint64_t checksum = 0;
  char row[48];
  for (std::size_t r = 0; r < rows_per_query_; ++r) {
    h = common::mix64(h + r);
    const int n = std::snprintf(row, sizeof(row), "%016llx|%08x|row",
                                static_cast<unsigned long long>(h),
                                static_cast<unsigned>(r));
    checksum += common::fnv1a64(std::string_view(row, static_cast<std::size_t>(n)));
  }
  if (query_log_) append_log(sql);
  return checksum;
}

void DbServer::append_log(const std::string& sql) {
  // The general query log writes a line per statement straight through to
  // the file: the formatting plus one write(2) is what costs MySQL ~20% on
  // simple statements. An unlinked temporary file stands in for the log
  // (/dev/null if none can be made: still one real syscall per line).
  if (log_file_ == nullptr) {
    log_file_ = std::tmpfile();
    if (log_file_ == nullptr) log_file_ = std::fopen("/dev/null", "w");
    if (log_file_ == nullptr) return;
  }
  char line[256];
  int n = std::snprintf(line, sizeof(line), "%llu Query\t%.*s\n",
                        static_cast<unsigned long long>(query_counter_),
                        static_cast<int>(std::min<std::size_t>(sql.size(), 200)),
                        sql.data());
  n = std::min(n, static_cast<int>(sizeof(line)) - 1);
  if (log_offset_ + static_cast<std::size_t>(n) > kLogWrap) log_offset_ = 0;
  const ssize_t written = ::pwrite(fileno(log_file_), line, static_cast<std::size_t>(n),
                                   static_cast<off_t>(log_offset_));
  if (written > 0) {
    log_offset_ += static_cast<std::size_t>(written);
    log_bytes_ += static_cast<std::size_t>(written);
  }
}

DbBenchResult DbServer::run_benchmark(std::uint64_t queries) {
  DbBenchResult result;
  result.queries = queries;
  const std::string sql = "SELECT name FROM t WHERE id = 12345";
  const double start = thread_cpu_seconds();
  for (std::uint64_t i = 0; i < queries; ++i) {
    result.checksum += execute(sql);
  }
  result.seconds = thread_cpu_seconds() - start;
  result.qps = result.seconds > 0 ? static_cast<double>(queries) / result.seconds : 0;
  return result;
}

PairedThroughput compare_throughput(DbServer& a, DbServer& b, int pairs,
                                    std::uint64_t queries) {
  a.run_benchmark(queries / 4 + 1);  // warm-up
  b.run_benchmark(queries / 4 + 1);
  std::vector<double> a_qps, b_qps, ratios;
  for (int p = 0; p < pairs; ++p) {
    double qa = 0, qb = 0;
    if (p % 2 == 0) {
      qa = a.run_benchmark(queries).qps;
      qb = b.run_benchmark(queries).qps;
    } else {
      qb = b.run_benchmark(queries).qps;
      qa = a.run_benchmark(queries).qps;
    }
    a_qps.push_back(qa);
    b_qps.push_back(qb);
    if (qa > 0) ratios.push_back(qb / qa);
  }
  return {median(a_qps), median(b_qps), median(ratios)};
}

}  // namespace netalytics::apps
