// netbench: the end-to-end packet->result benchmark (README.md here).
//
//   netbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>] [--commit <id>]
//   netbench --selftest
//
// Closed loop, one process, one thread, default EngineConfig: send one
// virtual second of frames, pump that second's tick, scrape, repeat. The
// last stdout line is the result object; the lines before it carry the
// provenance, the sample counts, the host speed and the end-to-end
// timings as measured, before they are scaled to the reference host.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <time.h>

#include "netbench.hpp"

namespace netbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t episodes = 0;  // set by the self-test; 0 = until --seconds
  std::string trace_out;
  std::string commit = "unknown";
  bool selftest = false;
};

/// Process CPU time (user + sys) in milliseconds.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak resident set so far, in MB (ru_maxrss is in KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// One recorded span: a call into a layer, made by this benchmark.
struct Span {
  const char* name;
  std::uint64_t tick;  // shared id: the run's tick index
  int parent;          // index into the span list, -1 for none
  double start_us;
  double end_us;
};

/// Wall and CPU times of one tick, as measured.
struct TickTimes {
  double busy_ms = 0;  // transmit + pump
  double cpu_ms = 0;   // process CPU over transmit + pump
  double pump_ms = 0;
  double scrape_ms = 0;
};

/// The host's speed relative to the reference host over an interval,
/// from the probes taken just before and just after it.
double host_speed(double probe_before_ms, double probe_after_ms) {
  return 2 * kProbeRefMs / (probe_before_ms + probe_after_ms);
}

/// End-to-end samples of untraced, timed episodes.
struct EndToEnd {
  std::vector<double> pkts_per_s, cpu_us_per_pkt;  // one per episode
  std::vector<double> pump_ms, scrape_ms;          // one per tick
  std::vector<double> setup_s;                     // one per set-up

  /// Appends one episode. Each time is multiplied by the host speed
  /// during it (`tick_speed[k]` for tick k, `setup_speed` for the
  /// set-ups), which scales it to the reference host; pass speeds of 1
  /// to keep the times as measured.
  void add(const std::vector<TickTimes>& ticks,
           const std::vector<double>& tick_speed,
           const std::vector<double>& setups_s, double setup_speed,
           std::uint64_t frames) {
    double busy_ms = 0, cpu_ms = 0;
    for (std::size_t k = 0; k < ticks.size(); ++k) {
      busy_ms += ticks[k].busy_ms * tick_speed[k];
      cpu_ms += ticks[k].cpu_ms * tick_speed[k];
      pump_ms.push_back(ticks[k].pump_ms * tick_speed[k]);
      scrape_ms.push_back(ticks[k].scrape_ms * tick_speed[k]);
    }
    const auto n = static_cast<double>(frames);
    pkts_per_s.push_back(n / (busy_ms / 1e3));
    cpu_us_per_pkt.push_back(cpu_ms * 1e3 / n);
    for (const double s : setups_s) setup_s.push_back(s * setup_speed);
  }
};

/// Everything one run measured.
struct RunData {
  // end to end (untraced timed episodes): as measured, and scaled to the
  // reference host speed (the reported values)
  EndToEnd measured, normalized;
  std::vector<double> host_speed;  // per episode: median over its ticks
  // traced episodes
  std::vector<double> traced_pkts_per_s;  // at the reference host speed
  std::vector<double> traced_pump_ms, submit_ms;
  std::vector<std::vector<double>> step_ms;  // per pump step
  std::vector<double> query_range_ms, export_ms;
  double transmit_span_ns = 0;
  std::uint64_t transmit_spans = 0;
  double traced_transmit_ms = 0, traced_pump_total_ms = 0;
  std::uint64_t traced_ticks = 0;
  std::vector<Span> spans;
  LayerReplay layers;

  Failures failures;
  std::uint64_t frames = 0, scrapes = 0, episodes = 0;
  double peak_rss_mb = 0;
  // Counts of the first untraced [0] and traced [1] episode: the executor
  // profiler adds registry series, so the two kinds are compared apart.
  Counts first_counts[2];
  bool have_counts[2] = {false, false};
};

class Runner {
 public:
  Runner(const Workload& w, const Options& opt) : w_(w), opt_(opt) {}

  RunData run() {
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(opt_.seconds);
    for (std::size_t e = 0;; ++e) {
      // Episode 0 warms caches and lazy set-up; it is checked, not timed.
      // In a traced run, odd episodes are traced and even ones are not,
      // so the tracing overhead is measured under the same host load.
      const bool warmup = e == 0;
      const bool traced = opt_.trace && e % 2 == 1;
      episode(e, warmup, traced);
      const std::size_t done = e + 1;
      if (opt_.episodes != 0) {
        if (done >= opt_.episodes) break;
        continue;
      }
      // At least three timed episodes (120 ticks), so a p90 has ten
      // samples above it; traced runs need two of each kind.
      const bool enough = done >= (opt_.trace ? 5u : 4u);
      if (enough && Clock::now() - start >= budget) break;
    }
    return std::move(data_);
  }

 private:
  void episode(std::size_t index, bool warmup, bool traced) {
    auto traffic = w_.make_traffic(opt_.seed);
    std::unique_ptr<Episode> ep;
    std::vector<Timed> submits;
    std::vector<double> setups_s;
    const double setup_probe = host_probe_ms();
    for (std::size_t r = 0; r < std::max<std::size_t>(1, w_.setup_reps); ++r) {
      ep.reset();  // teardown is not set-up
      submits.clear();
      const auto t0 = Clock::now();
      ep = w_.make_episode(*traffic, traced, submits);
      const auto t1 = Clock::now();
      setups_s.push_back(ms_between(t0, t1) / 1e3);
      if (traced) {
        const int setup =
            span("setup", data_.traced_ticks, -1, t0, ms_between(t0, t1));
        for (const Timed& sub : submits) {
          data_.submit_ms.push_back(sub.ms);
          span("submit", data_.traced_ticks, setup, sub.start, sub.ms);
        }
      }
    }

    const double setup_speed = host_speed(setup_probe, host_probe_ms());

    Frames frames;
    std::uint64_t sent = 0, export_bytes = 0;
    std::vector<TickTimes> ticks;
    // probes[k] is taken just before tick k's transmits, after its frames
    // are generated; the one after the loop closes the last tick.
    std::vector<double> steps, probes;
    for (std::size_t tick = 0; tick < w_.ticks; ++tick) {
      traffic->make_tick(tick, frames);
      probes.push_back(host_probe_ms());
      const common::Timestamp now = (tick + 1) * common::kSecond;
      const std::uint64_t tick_id = data_.traced_ticks;
      const double c0 = process_cpu_ms();
      const auto t0 = Clock::now();
      // The tick span parents everything below; it is closed after the scrape.
      const int tick_span = traced ? span("tick", tick_id, -1, t0, 0) : -1;
      if (traced) {
        // Per-packet spans are kept for the last tick of the first traced
        // episode only; every other packet is folded into the sums.
        const bool keep = index == 1 && tick + 1 == w_.ticks;
        for (std::size_t i = 0; i < frames.size(); ++i) {
          const auto p0 = Clock::now();
          ep->emulation(frames.target[i]).transmit(frames.frame(i), frames.ts[i]);
          const auto p1 = Clock::now();
          data_.transmit_span_ns += ms_between(p0, p1) * 1e6;
          if (keep) span("transmit", tick_id, tick_span, p0, ms_between(p0, p1));
        }
        data_.transmit_spans += frames.size();
      } else {
        for (std::size_t i = 0; i < frames.size(); ++i) {
          ep->emulation(frames.target[i]).transmit(frames.frame(i), frames.ts[i]);
        }
      }
      const auto t1 = Clock::now();
      if (traced) {
        steps.clear();
        ep->pump_steps(now, steps);
      } else {
        ep->pump(now);
      }
      const auto t2 = Clock::now();
      const double c1 = process_cpu_ms();
      sent += frames.size();
      ScrapeTimes st;
      const bool scrape_ok = ep->scrape(now, sent, st);
      const auto t3 = Clock::now();
      ++data_.scrapes;
      if (!scrape_ok) {
        data_.failures.fail("scrape", 1,
                            "scrape check failed at tick " + std::to_string(tick));
      }

      ticks.push_back({.busy_ms = ms_between(t0, t2),
                       .cpu_ms = c1 - c0,
                       .pump_ms = ms_between(t1, t2),
                       .scrape_ms = ms_between(t2, t3)});
      if (traced) {
        data_.spans[tick_span].end_us = micros(t3);
        record_traced_tick(tick_id, tick_span, t0, t1, t2, st, steps);
        ++data_.traced_ticks;
      } else {
        // Untraced: the exposition holds no wall-clock profiler series, so
        // its size repeats exactly for a seed.
        export_bytes = st.export_bytes;
      }
    }
    probes.push_back(host_probe_ms());
    data_.frames += sent;
    ++data_.episodes;

    const common::Timestamp end = w_.ticks * common::kSecond;
    Failures f;
    ep->check(end, f);
    Counts c = ep->counts();
    c.frames = sent;
    c.export_bytes = export_bytes;
    c.failed = f.total();
    c.attempted = f.attempted;
    if (traced) {
      data_.layers = replay_layers(LayerInputs{.workload = &w_,
                                               .episode = ep.get(),
                                               .frames = &frames,
                                               .counts = &c,
                                               .failures = &f});
    }
    for (const auto& [kind, n] : f.by_kind) data_.failures.fail(kind, n);
    for (auto& note : f.notes) data_.failures.notes.push_back(std::move(note));
    data_.failures.attempted += f.attempted;
    Counts& first = data_.first_counts[traced];
    if (!data_.have_counts[traced]) {
      first = c;
      data_.have_counts[traced] = true;
    } else if (!(c == first)) {
      data_.failures.fail("nondeterministic", 1,
                          "episode " + std::to_string(index) + " counts " +
                              c.render() + " differ from " + first.render());
    }

    // The peak resident set of the first episode: one system's footprint,
    // independent of how many episodes the time budget allowed.
    if (index == 0) data_.peak_rss_mb = peak_rss_mb();

    std::vector<double> speed, ones(ticks.size(), 1.0);
    for (std::size_t k = 0; k < ticks.size(); ++k) {
      speed.push_back(host_speed(probes[k], probes[k + 1]));
    }
    data_.host_speed.push_back(median(speed));
    if (warmup) return;
    if (traced) {
      EndToEnd at_ref;
      at_ref.add(ticks, speed, setups_s, setup_speed, sent);
      data_.traced_pkts_per_s.push_back(at_ref.pkts_per_s.front());
      return;
    }
    data_.measured.add(ticks, ones, setups_s, 1.0, sent);
    data_.normalized.add(ticks, speed, setups_s, setup_speed, sent);
  }

  void record_traced_tick(std::uint64_t tick_id, int tick_span,
                          Clock::time_point t0, Clock::time_point t1,
                          Clock::time_point t2, const ScrapeTimes& st,
                          const std::vector<double>& steps) {
    data_.traced_transmit_ms += ms_between(t0, t1);
    data_.traced_pump_total_ms += ms_between(t1, t2);
    data_.traced_pump_ms.push_back(ms_between(t1, t2));
    const int pump = span("pump", tick_id, tick_span, t1, ms_between(t1, t2));
    if (steps.size() > 1) {
      static const char* const kSteps[] = {"engines_pump", "child_pump",
                                           "parent_pump", "child_flush"};
      data_.step_ms.resize(steps.size());
      auto at = t1;
      for (std::size_t s = 0; s < steps.size(); ++s) {
        data_.step_ms[s].push_back(steps[s]);
        span(kSteps[std::min<std::size_t>(s, 3)], tick_id, pump, at, steps[s]);
        at += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(steps[s]));
      }
    }
    data_.query_range_ms.push_back(st.mon_range_ms + st.p99_range_ms);
    data_.export_ms.push_back(st.export_ms);
    const int scrape = span("scrape", tick_id, tick_span, t2,
                            st.mon_range_ms + st.p99_range_ms + st.export_ms);
    auto at = t2;
    for (const auto& [name, ms] :
         {std::pair{"query_range.mon", st.mon_range_ms},
          std::pair{"query_range.p99", st.p99_range_ms},
          std::pair{"export_metrics", st.export_ms}}) {
      span(name, tick_id, scrape, at, ms);
      at += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
    }
  }

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  int span(const char* name, std::uint64_t tick, int parent,
           Clock::time_point start, double dur_ms) {
    const double s = micros(start);
    data_.spans.push_back({name, tick, parent, s, s + dur_ms * 1e3});
    return static_cast<int>(data_.spans.size() - 1);
  }

  const Workload& w_;
  const Options& opt_;
  RunData data_;
  const Clock::time_point origin_ = Clock::now();
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + number(v[i]);
  return out + "]";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> end_to_end(const EndToEnd& e, double peak_rss) {
  return {{"pkts_per_s", median(e.pkts_per_s), "pkt/s"},
          {"result_ms_p50", percentile(e.pump_ms, 0.5), "ms"},
          {"result_ms_p90", percentile(e.pump_ms, 0.9), "ms"},
          {"scrape_ms_p50", percentile(e.scrape_ms, 0.5), "ms"},
          {"scrape_ms_p90", percentile(e.scrape_ms, 0.9), "ms"},
          {"cpu_us_per_pkt", median(e.cpu_us_per_pkt), "us"},
          {"peak_rss_mb", peak_rss, "MB"},
          {"setup_s", median(e.setup_s), "s"}};
}

std::vector<Metric> per_layer(const RunData& d) {
  const auto step = [&d](std::size_t i) {
    return i < d.step_ms.size() ? median(d.step_ms[i]) : 0.0;
  };
  const double untraced = median(d.normalized.pkts_per_s);
  const double traced = median(d.traced_pkts_per_s);
  const auto ticks =
      static_cast<double>(std::max<std::uint64_t>(1, d.traced_ticks));
  // Replayed per-tick cost of the calls the engine makes internally,
  // against the measured transmit + pump spans of the same tick.
  const double busy_ms_per_tick =
      (d.traced_transmit_ms + d.traced_pump_total_ms) / ticks;
  // Fleet steps after the engine pumps are measured spans, not replays.
  const double attributed_ms =
      d.layers.replay_ms_per_tick + step(1) + step(2) + step(3);
  std::vector<Metric> out = {
      {"core.transmit_ns_per_pkt",
       d.transmit_span_ns /
           static_cast<double>(std::max<std::uint64_t>(1, d.transmit_spans)),
       "ns"},
      {"core.pump_ms_p50", median(d.traced_pump_ms), "ms"},
      {"core.submit_ms", median(d.submit_ms), "ms"},
      {"core.transmit_unattributed_frac",
       busy_ms_per_tick > 0 ? 1.0 - attributed_ms / busy_ms_per_tick : 0.0,
       "frac"},
      {"core.trace_overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0.0,
       "frac"},
      {"tsdb.query_range_ms", median(d.query_range_ms), "ms"},
      {"obs.export_ms", median(d.export_ms), "ms"},
      {"obs.export_bytes", static_cast<double>(d.first_counts[0].export_bytes),
       "B"},
      {"fed.engines_pump_ms", step(0), "ms"},
      {"fed.child_pump_ms", step(1), "ms"},
      {"fed.parent_pump_ms", step(2), "ms"},
      {"fed.child_flush_ms", step(3), "ms"},
  };
  for (const auto& m : layer_metric_units()) {
    const auto it = d.layers.metrics.find(m.first);
    const bool found = it != d.layers.metrics.end();
    out.push_back({m.first, found ? it->second : 0.0, m.second});
  }
  return out;
}

void write_trace(const RunData& d, const std::string& path) {
  // chrome://tracing / Perfetto "X" events: lane 1 holds the top-level
  // spans, lane 2 their children.
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < d.spans.size(); ++i) {
    const Span& s = d.spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << quoted(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.parent < 0 ? 1 : 2)
        << ",\"ts\":" << number(s.start_us)
        << ",\"dur\":" << number(s.end_us - s.start_us)
        << ",\"args\":{\"tick\":" << s.tick << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]\n";
}

void print_result(const Workload& w, const Options& opt, const RunData& d) {
  const bool correct = d.failures.total() == 0;
  const std::uint64_t attempted = d.frames + d.scrapes + d.failures.attempted;
  std::string failed_by_kind = "{";
  for (const auto& [kind, n] : d.failures.by_kind) {
    if (failed_by_kind.size() > 1) failed_by_kind += ", ";
    failed_by_kind += quoted(kind) + ": " + std::to_string(n);
  }
  failed_by_kind += "}";
  for (const auto& note : d.failures.notes) {
    std::fprintf(stderr, "netbench: %s\n", note.c_str());
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": %s, "
      "\"compiler\": %s, \"commit\": %s, \"frames_per_tick\": %zu, "
      "\"ticks_per_episode\": %zu, \"episodes\": %llu, \"ticks\": %llu, "
      "\"probe_ref_ms\": %s, \"host_speed\": %s}}\n",
      quoted(w.name).c_str(), static_cast<unsigned long long>(opt.seed),
      number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), quoted(NETBENCH_BUILD_TYPE).c_str(),
      quoted(NETBENCH_COMPILER).c_str(), quoted(opt.commit).c_str(),
      w.frames_per_tick, w.ticks, static_cast<unsigned long long>(d.episodes),
      static_cast<unsigned long long>(d.episodes * w.ticks),
      number(kProbeRefMs).c_str(), number(median(d.host_speed)).c_str());
  const EndToEnd& e = d.normalized;
  std::printf(
      "{\"samples\": {\"pkts_per_s\": %zu, \"cpu_us_per_pkt\": %zu, "
      "\"result_ms\": %zu, \"scrape_ms\": %zu, \"setup_s\": %zu, "
      "\"traced_ticks\": %llu, \"traced_pump_ms\": %zu, \"spans\": %zu}, "
      "\"host_speed_per_episode\": %s, \"episode_pkts_per_s\": %s, "
      "\"measured\": %s, \"counts\": %s, \"failed_by_kind\": %s}\n",
      e.pkts_per_s.size(), e.cpu_us_per_pkt.size(), e.pump_ms.size(),
      e.scrape_ms.size(), e.setup_s.size(),
      static_cast<unsigned long long>(d.traced_ticks), d.traced_pump_ms.size(),
      d.spans.size(), list_json(d.host_speed).c_str(),
      list_json(e.pkts_per_s).c_str(),
      metrics_json(end_to_end(d.measured, d.peak_rss_mb)).c_str(),
      quoted(d.first_counts[0].render()).c_str(), failed_by_kind.c_str());
  const auto metrics =
      opt.trace ? per_layer(d) : end_to_end(d.normalized, d.peak_rss_mb);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(d.failures.total()),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
}

/// Two runs of one seed must give identical counts on every workload.
int selftest() {
  int failures = 0;
  for (const auto& w : workloads()) {
    Options opt;
    opt.workload = w.name;
    opt.seed = 7;
    opt.episodes = 2;
    opt.trace = true;  // traced episodes must count the same as untraced
    const RunData a = Runner(w, opt).run();
    const RunData b = Runner(w, opt).run();
    const bool same = a.first_counts[0] == b.first_counts[0] &&
                      a.first_counts[1] == b.first_counts[1] &&
                      a.failures.total() == 0 && b.failures.total() == 0;
    std::printf("%s %s\n", same ? "ok  " : "FAIL", w.name.c_str());
    for (const int traced : {0, 1}) {
      std::printf("  %s a: %s\n  %s b: %s\n", traced ? "traced  " : "untraced",
                  a.first_counts[traced].render().c_str(),
                  traced ? "traced  " : "untraced",
                  b.first_counts[traced].render().c_str());
    }
    for (const auto& note : a.failures.notes) std::printf("  %s\n", note.c_str());
    if (!same) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--trace-out") opt.trace_out = v;
    else if (a == "--commit") opt.commit = v;
    else return false;
  }
  return opt.selftest || !opt.workload.empty();
}

}  // namespace
}  // namespace netbench

int main(int argc, char** argv) {
  using namespace netbench;
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: netbench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--trace-out <file>] "
                   "[--commit <id>] | --selftest\n");
      return 2;
    }
    if (opt.selftest) return selftest();
    const Workload* w = find_workload(opt.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "netbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    const RunData d = Runner(*w, opt).run();
    if (opt.trace && !opt.trace_out.empty()) write_trace(d, opt.trace_out);
    print_result(*w, opt, d);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netbench: %s\n", e.what());
    return 1;
  }
}
