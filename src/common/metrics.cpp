#include "common/metrics.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace netalytics::common {

HistogramMetric::HistogramMetric(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("HistogramMetric: no buckets");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("HistogramMetric: bounds not ascending");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void HistogramMetric::observe(std::uint64_t sample) noexcept {
#ifndef NETALYTICS_NO_METRICS
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
#else
  (void)sample;
#endif
}

void HistogramMetric::observe_all(std::span<const std::uint64_t> samples) noexcept {
#ifndef NETALYTICS_NO_METRICS
  if (samples.empty()) return;
  const auto index = [this](std::uint64_t sample) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), sample) - bounds_.begin());
  };
  std::size_t run_bucket = index(samples[0]);
  std::uint64_t run = 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t sample : samples) {
    const std::size_t idx = index(sample);
    if (idx != run_bucket) {
      buckets_[run_bucket].fetch_add(run, std::memory_order_relaxed);
      run_bucket = idx;
      run = 0;
    }
    ++run;
    sum += sample;
  }
  buckets_[run_bucket].fetch_add(run, std::memory_order_relaxed);
  count_.fetch_add(samples.size(), std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
#else
  (void)samples;
#endif
}

std::uint64_t HistogramMetric::bucket(std::size_t i) const {
  if (i > bounds_.size()) throw std::out_of_range("HistogramMetric::bucket");
  return buckets_[i].load(std::memory_order_relaxed);
}

const std::vector<std::uint64_t>& default_latency_bounds() {
  static const std::vector<std::uint64_t> kBounds = [] {
    std::vector<std::uint64_t> b;
    // 1-2-5 per decade, 1us .. 100s.
    for (std::uint64_t decade = kMicrosecond; decade <= 100 * kSecond;
         decade *= 10) {
      b.push_back(decade);
      if (decade <= 10 * kSecond) {
        b.push_back(2 * decade);
        b.push_back(5 * decade);
      }
    }
    return b;
  }();
  return kBounds;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::render() const {
  // Globally sorted by name across all three kinds (each vector is already
  // name-sorted, so this is a three-way merge): the output is diff-stable —
  // the same series always renders at the same place, and two identical
  // virtual-time runs produce byte-identical text.
  std::string out;
  std::size_t ci = 0, gi = 0, hi = 0;
  const auto emit_line = [&out](const std::string& name, std::string value) {
    out += name;
    out += ' ';
    out += value;
    out += '\n';
  };
  while (ci < counters.size() || gi < gauges.size() || hi < histograms.size()) {
    static const std::string kSentinel(1, '\x7f');
    const std::string& cn = ci < counters.size() ? counters[ci].name : kSentinel;
    const std::string& gn = gi < gauges.size() ? gauges[gi].name : kSentinel;
    const std::string& hn =
        hi < histograms.size() ? histograms[hi].name : kSentinel;
    if (cn <= gn && cn <= hn) {
      emit_line(cn, std::to_string(counters[ci].value));
      ++ci;
    } else if (gn <= hn) {
      emit_line(gn, std::to_string(gauges[gi].value));
      ++gi;
    } else {
      const auto& h = histograms[hi];
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        cumulative += h.buckets[i];
        out += h.name;
        out += "{le=\"";
        out += i < h.bounds.size() ? std::to_string(h.bounds[i]) : "+Inf";
        out += "\"} ";
        out += std::to_string(cumulative);
        out += '\n';
      }
      emit_line(h.name + "_sum", std::to_string(h.sum));
      emit_line(h.name + "_count", std::to_string(h.count));
      ++hi;
    }
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(
    const std::string& name, const std::vector<std::uint64_t>& bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string_view prefix) const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) {
    if (!name.starts_with(prefix)) continue;
    snap.counters.push_back({name, c->value()});
  }
  for (const auto& [name, g] : gauges_) {
    if (!name.starts_with(prefix)) continue;
    snap.gauges.push_back({name, g->value()});
  }
  for (const auto& [name, h] : histograms_) {
    if (!name.starts_with(prefix)) continue;
    MetricsSnapshot::HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.buckets.reserve(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
      s.buckets.push_back(h->bucket(i));
    }
    s.count = h->count();
    s.sum = h->sum();
    snap.histograms.push_back(std::move(s));
  }
  return snap;  // std::map iteration is already name-sorted
}

std::string MetricsRegistry::render_text(std::string_view prefix) const {
  return snapshot(prefix).render();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string_view StageTracer::stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::emit: return "emit";
    case Stage::produce: return "produce";
    case Stage::consume: return "consume";
    case Stage::e2e: return "e2e";
  }
  return "unknown";
}

StageTracer::StageTracer(MetricsRegistry& registry, const std::string& prefix) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages_[i] = &registry.histogram(
        prefix + ".stage." + std::string(stage_name(static_cast<Stage>(i))));
  }
  dropped_ = &registry.counter(prefix + ".stage.dropped_stamps");
}

void StageTracer::stamp(Stage s, Timestamp event_time,
                        Timestamp origin_time) noexcept {
  if (origin_time == 0 || event_time < origin_time) {
    dropped_->inc();
    return;
  }
  stages_[static_cast<std::size_t>(s)]->observe(event_time - origin_time);
}

void StageTracer::stamp_batch(Stage s, Timestamp event_time,
                              std::span<const Timestamp> origins) noexcept {
  HistogramMetric& h = histogram(s);
  std::array<std::uint64_t, 64> samples;  // bounded stack chunk
  std::size_t n = 0;
  for (const Timestamp origin : origins) {
    if (origin == 0 || event_time < origin) {
      dropped_->inc();
      continue;
    }
    samples[n++] = event_time - origin;
    if (n == samples.size()) {
      h.observe_all(samples);
      n = 0;
    }
  }
  h.observe_all({samples.data(), n});
}

}  // namespace netalytics::common
