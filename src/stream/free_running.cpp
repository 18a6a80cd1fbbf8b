#include "stream/free_running.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace netalytics::stream {

namespace {
// Run-to-completion chunk: how many tuples a claimer executes before
// re-checking the claim (keeps tick()'s claim spin bounded).
constexpr std::size_t kChunk = 128;
// Help-on-full drains less so the blocked pusher gets back to its own
// tuple quickly once space exists.
constexpr std::size_t kHelpChunk = 32;

/// Wall-clock for the stage profiler only — virtual time never touches it.
std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

FreeRunningTopology::FreeRunningTopology(TopologySpec spec,
                                         ExecutorConfig exec)
    : spec_(std::move(spec)), exec_(exec) {
  if (exec_.workers == 0) exec_.workers = 1;
  if (exec_.inbox_capacity == 0) exec_.inbox_capacity = 1;
  profile_ = exec_.profile && profiler_available();
  std::map<std::string, std::size_t> index_of;
  for (const auto& c : spec_.components) {
    index_of[c.name] = nodes_.size();
    Node& node = nodes_.emplace_back();
    node.spec = c;
    for (std::size_t t = 0; t < c.parallelism; ++t) {
      Task& task = node.tasks.emplace_back(exec_.inbox_capacity);
      if (c.is_spout()) {
        task.spout = c.spout_factory();
        task.spout->open();
      } else {
        task.bolt = c.bolt_factory();
        task.bolt->prepare();
      }
    }
  }

  // Wire edges source -> subscriber with resolved grouping field indices.
  for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
    for (const auto& sub : nodes_[dst].spec.subscriptions) {
      const std::size_t src = index_of.at(sub.source);
      Edge& edge = nodes_[src].out_edges.emplace_back();
      edge.dst = dst;
      edge.type = sub.grouping.type;
      if (edge.type == GroupingType::fields) {
        const auto& schema = nodes_[src].spec.output_fields;
        for (const auto& f : sub.grouping.fields) {
          const auto it = std::find(schema.begin(), schema.end(), f);
          edge.field_indices.push_back(
              static_cast<std::size_t>(it - schema.begin()));
        }
      }
    }
  }

  // Topological order (spec validated acyclic by TopologyBuilder::build).
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (const auto& node : nodes_) {
    for (const auto& e : node.out_edges) ++in_degree[e.dst];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) frontier.push_back(i);
  }
  while (!frontier.empty()) {
    const std::size_t n = frontier.front();
    frontier.erase(frontier.begin());
    topo_order_.push_back(n);
    for (const auto& e : nodes_[n].out_edges) {
      if (--in_degree[e.dst] == 0) frontier.push_back(e.dst);
    }
  }
  if (topo_order_.size() != nodes_.size()) {
    throw std::invalid_argument("FreeRunningTopology: cyclic spec");
  }

  pool_.reserve(exec_.workers - 1);
  for (std::size_t i = 0; i + 1 < exec_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

FreeRunningTopology::~FreeRunningTopology() {
  {
    std::lock_guard lock(park_mutex_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  park_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void FreeRunningTopology::bind_metrics(common::MetricsRegistry& registry,
                                       const std::string& prefix) {
  for (auto& node : nodes_) {
    node.executed =
        &registry.counter(prefix + "." + node.spec.name + ".executed");
    if (!profile_) continue;
    node.prof.assign(node.tasks.size(), TaskProf{});
    for (std::size_t k = 0; k < node.tasks.size(); ++k) {
      const std::string base = prefix + ".profiler." + node.spec.name + ".t" +
                               std::to_string(k) + ".";
      node.prof[k].tuples = &registry.counter(base + "tuples");
      node.prof[k].self_ns = &registry.counter(base + "self_ns");
      node.prof[k].queue_wait_ns = &registry.counter(base + "queue_wait_ns");
    }
  }
  if (profile_) {
    prof_claims_.store(&registry.counter(prefix + ".profiler.pool.claims"),
                       std::memory_order_release);
    prof_helps_.store(&registry.counter(prefix + ".profiler.pool.helps"),
                      std::memory_order_release);
    prof_parks_.store(&registry.counter(prefix + ".profiler.pool.parks"),
                      std::memory_order_release);
  }
}

void FreeRunningTopology::route(std::size_t src_component, Tuple tuple) {
  Node& src = nodes_[src_component];
  const std::size_t n_edges = src.out_edges.size();
  for (std::size_t e = 0; e < n_edges; ++e) {
    Edge& edge = src.out_edges[e];
    Node& dst = nodes_[edge.dst];
    const bool last_edge = (e + 1 == n_edges);
    switch (edge.type) {
      case GroupingType::shuffle: {
        // fetch_add makes the cursor race-free but the task a tuple lands
        // on is no longer reproducible — shuffle distribution is part of
        // what the relaxed mode gives up (docs/DETERMINISM.md).
        const std::size_t idx =
            edge.rr_cursor.fetch_add(1, std::memory_order_relaxed) %
            dst.tasks.size();
        enqueue(edge.dst, idx, last_edge ? std::move(tuple) : tuple);
        break;
      }
      case GroupingType::fields: {
        const std::size_t idx =
            dst.tasks.size() == 1
                ? 0
                : hash_fields(tuple, edge.field_indices) % dst.tasks.size();
        enqueue(edge.dst, idx, last_edge ? std::move(tuple) : tuple);
        break;
      }
      case GroupingType::global:
        enqueue(edge.dst, 0, last_edge ? std::move(tuple) : tuple);
        break;
      case GroupingType::all:
        for (std::size_t k = 0; k < dst.tasks.size(); ++k) {
          enqueue(edge.dst, k, tuple);
        }
        break;
    }
  }
}

void FreeRunningTopology::enqueue(std::size_t dst_component,
                                  std::size_t task_index, Tuple tuple) {
  Task& task = nodes_[dst_component].tasks[task_index];
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  while (!task.inbox.try_push_keep(tuple)) {
    // Full inbox: help drain the destination instead of spinning — the
    // backpressure mechanism that keeps the bounded inboxes deadlock-free
    // (progress argument in free_running.hpp).
    if (try_claim(task)) {
      if (profile_) {
        if (auto* c = prof_helps_.load(std::memory_order_acquire)) c->inc();
      }
      execute_chunk(dst_component, task_index, kHelpChunk);
      release_claim(task);
    } else {
      std::this_thread::yield();
    }
  }
  if (profile_ &&
      task.pending_since_ns.load(std::memory_order_relaxed) == 0) {
    task.pending_since_ns.store(mono_ns(), std::memory_order_relaxed);
  }
  wake_workers();
}

std::size_t FreeRunningTopology::execute_chunk(std::size_t component,
                                               std::size_t task_index,
                                               std::size_t limit) {
  Node& node = nodes_[component];
  Task& task = node.tasks[task_index];
  TaskProf* prof = nullptr;
  std::uint64_t t0 = 0;
  if (profile_ && task_index < node.prof.size()) {
    prof = &node.prof[task_index];
    t0 = mono_ns();
    const std::uint64_t pending =
        task.pending_since_ns.exchange(0, std::memory_order_relaxed);
    if (pending != 0 && t0 > pending) {
      prof->queue_wait_ns->inc(t0 - pending);
    }
  }
  RouteCollector out(*this, component);
  std::size_t done = 0;
  while (done < limit) {
    auto tuple = task.inbox.try_pop();
    if (!tuple) break;
    if (recorder_ != nullptr && tuple->trace != 0) {
      const common::Timestamp now = now_.load(std::memory_order_relaxed);
      recorder_->stamp(tuple->trace, common::TraceStage::execute, now, now);
    }
    task.bolt->execute(std::move(*tuple), out);
    executed_total_.fetch_add(1, std::memory_order_relaxed);
    // Decrement only after execute() returned: the children this tuple
    // emitted are already counted, so in_flight_ never dips to zero while
    // work is still reachable. The chunk's last tuple is released below,
    // after the per-chunk counters, so a quiescent topology shows them
    // complete.
    if (done++ != 0) in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (prof != nullptr) {
    prof->self_ns->inc(mono_ns() - t0);
    if (done != 0) prof->tuples->inc(done);
  }
  if (done != 0) {
    if (node.executed != nullptr) node.executed->inc(done);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  return done;
}

std::size_t FreeRunningTopology::run_pass() {
  std::size_t executed = 0;
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (node.spec.is_spout()) continue;
    for (std::size_t t = 0; t < node.tasks.size(); ++t) {
      Task& task = node.tasks[t];
      if (task.inbox.size() == 0) continue;
      if (!try_claim(task)) continue;
      if (profile_) {
        if (auto* c = prof_claims_.load(std::memory_order_acquire)) c->inc();
      }
      // Run to completion: drain until the inbox stays empty.
      std::size_t chunk;
      do {
        chunk = execute_chunk(n, t, kChunk);
        executed += chunk;
      } while (chunk == kChunk);
      release_claim(task);
    }
  }
  return executed;
}

void FreeRunningTopology::quiesce() {
  // The driving thread is one of the workers: it helps drain, so
  // quiescence never depends on pool wakeups. A nonzero in_flight_ with
  // empty inboxes means some worker is mid-execute — yield until its
  // decrement lands.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    if (run_pass() == 0) std::this_thread::yield();
  }
}

void FreeRunningTopology::wake_workers() {
  if (pool_.empty()) return;
  wake_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void FreeRunningTopology::worker_loop() {
  for (;;) {
    // Snapshot the eventcount BEFORE scanning: any push that the scan
    // misses bumps wake_seq_ afterwards, so the park predicate below sees
    // it and refuses to sleep.
    const std::uint64_t seq = wake_seq_.load(std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (run_pass() > 0) continue;
    std::unique_lock lock(park_mutex_);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (profile_) {
      if (auto* c = prof_parks_.load(std::memory_order_acquire)) c->inc();
    }
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return stop_.load(std::memory_order_relaxed) ||
             wake_seq_.load(std::memory_order_seq_cst) != seq;
    });
    idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

std::size_t FreeRunningTopology::step(common::Timestamp now,
                                      std::size_t spout_budget_per_task) {
  now_.store(now, std::memory_order_relaxed);
  const std::uint64_t before =
      executed_total_.load(std::memory_order_relaxed);
  // Spouts run sequentially on the driving thread, exactly like the
  // stepped executor: the broker poll order *is* the data assignment, and
  // group membership joins must happen in task order. Workers execute the
  // routed tuples concurrently while the spouts are still emitting.
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (!node.spec.is_spout()) continue;
    RouteCollector out(*this, n);
    for (std::size_t t = 0; t < node.tasks.size(); ++t) {
      Task& task = node.tasks[t];
      TaskProf* prof =
          profile_ && t < node.prof.size() ? &node.prof[t] : nullptr;
      const std::uint64_t t0 = prof != nullptr ? mono_ns() : 0;
      for (std::size_t i = 0; i < spout_budget_per_task; ++i) {
        if (!task.spout->next_tuple(out, now)) break;
      }
      if (prof != nullptr) prof->self_ns->inc(mono_ns() - t0);
    }
  }
  // Return quiescent so every step boundary is a reconcile point —
  // nothing is ever silently in flight between pumps.
  quiesce();
  return executed_total_.load(std::memory_order_relaxed) - before;
}

std::size_t FreeRunningTopology::run_until_idle(common::Timestamp now,
                                                std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t n = step(now);
    total += n;
    if (n == 0) break;
  }
  return total;
}

void FreeRunningTopology::tick(common::Timestamp now) {
  now_.store(now, std::memory_order_relaxed);
  quiesce();
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (node.spec.is_spout()) continue;
    for (auto& task : node.tasks) {
      // Claim so a straggling worker can't execute concurrently with the
      // tick; after quiesce() the inboxes are empty, so any holder is in
      // its final (empty) chunk check and releases promptly.
      while (!try_claim(task)) std::this_thread::yield();
      RouteCollector out(*this, n);
      task.bolt->tick(now, out);
      release_claim(task);
    }
    // Drain before the next component ticks: a ranking bolt's tick must
    // observe this tick's fresh window counts, same as stepped tick().
    quiesce();
  }
}

void FreeRunningTopology::close(common::Timestamp now) {
  now_.store(now, std::memory_order_relaxed);
  quiesce();
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    RouteCollector out(*this, n);
    if (node.spec.is_spout()) {
      for (auto& task : node.tasks) task.spout->close(out);
    } else {
      for (auto& task : node.tasks) {
        while (!try_claim(task)) std::this_thread::yield();
        task.bolt->cleanup(now, out);
        release_claim(task);
      }
    }
    quiesce();
  }
}

}  // namespace netalytics::stream
