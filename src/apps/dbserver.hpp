// The instrumentation-overhead comparison of §7.2: "we measure MySQL's
// throughput with and without the general query log enabled... it lowers
// the throughput for a simple statement from 40.8K to 33K queries per
// second, a 20% drop. In contrast, NetAlytics incurs no overhead on the
// actual application."
//
// This emulated DB server does real per-query work (statement parsing +
// result assembly); enabling the query log adds what MySQL's general log
// does per statement: format a line and write(2) it to the log file (an
// unlinked temporary file here). Passive monitoring costs the server
// nothing by construction — packets are mirrored in the fabric.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace netalytics::apps {

struct DbBenchResult {
  std::uint64_t queries = 0;
  double seconds = 0;  // CPU time of the calling thread
  double qps = 0;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
};

class DbServer {
 public:
  /// Work per query, in arbitrary units; scales the base service cost.
  explicit DbServer(std::size_t rows_per_query = 16);
  ~DbServer();

  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  /// Execute one query; returns a result checksum.
  std::uint64_t execute(const std::string& sql);

  /// Enable/disable the general query log (one write per statement).
  void set_query_log(bool enabled) noexcept { query_log_ = enabled; }
  bool query_log() const noexcept { return query_log_; }

  /// Throughput benchmark: run `queries` simple statements, timed on the
  /// calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), so time the
  /// scheduler hands to other processes is not charged to the server.
  DbBenchResult run_benchmark(std::uint64_t queries);

  /// Log bytes written since construction or the last clear_log().
  std::size_t log_bytes_written() const noexcept { return log_bytes_; }
  void clear_log() noexcept { log_bytes_ = 0; }

 private:
  void append_log(const std::string& sql);

  std::size_t rows_per_query_;
  bool query_log_ = false;
  std::FILE* log_file_ = nullptr;  // opened on first use
  std::size_t log_bytes_ = 0;
  std::size_t log_offset_ = 0;  // write position; wraps to bound the file
  std::uint64_t query_counter_ = 0;
};

/// Interleaved A/B throughput comparison: `pairs` trials of `queries`
/// statements on each server, alternating which runs first, so drift of
/// the host (frequency, co-tenants) lands on both sides alike.
struct PairedThroughput {
  double a_qps = 0;  // median over a's trials
  double b_qps = 0;  // median over b's trials
  double ratio = 0;  // median of the paired b/a qps ratios
};
PairedThroughput compare_throughput(DbServer& a, DbServer& b, int pairs,
                                    std::uint64_t queries);

}  // namespace netalytics::apps
