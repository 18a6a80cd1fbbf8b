#include "stream/stepped.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace netalytics::stream {

namespace {
/// Wall-clock for the stage profiler only — virtual time never touches it.
std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

SteppedTopology::SteppedTopology(TopologySpec spec, ExecutorConfig exec)
    : spec_(std::move(spec)), exec_(exec) {
  if (exec_.workers == 0) exec_.workers = 1;
  profile_ = exec_.profile && profiler_available();
  std::map<std::string, std::size_t> index_of;
  nodes_.reserve(spec_.components.size());
  for (const auto& c : spec_.components) {
    index_of[c.name] = nodes_.size();
    Node node;
    node.spec = c;
    node.tasks.resize(c.parallelism);
    for (auto& task : node.tasks) {
      if (c.is_spout()) {
        task.spout = c.spout_factory();
        task.spout->open();
      } else {
        task.bolt = c.bolt_factory();
        task.bolt->prepare();
      }
    }
    nodes_.push_back(std::move(node));
  }

  // Wire edges source -> subscriber with resolved grouping field indices.
  for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
    for (const auto& sub : nodes_[dst].spec.subscriptions) {
      const std::size_t src = index_of.at(sub.source);
      Edge edge;
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
      nodes_[src].out_edges.push_back(std::move(edge));
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
    throw std::invalid_argument("SteppedTopology: cyclic spec");
  }
}

SteppedTopology::~SteppedTopology() {
  {
    std::lock_guard lock(pool_mutex_);
    stop_workers_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void SteppedTopology::route(std::size_t src_component, Tuple tuple) {
  Node& src = nodes_[src_component];
  for (std::size_t e = 0; e < src.out_edges.size(); ++e) {
    Edge& edge = src.out_edges[e];
    Node& dst = nodes_[edge.dst];
    const bool last_edge = (e + 1 == src.out_edges.size());
    switch (edge.type) {
      case GroupingType::shuffle: {
        const std::size_t idx = edge.rr_cursor++ % dst.tasks.size();
        dst.tasks[idx].inbox.push_back(last_edge ? std::move(tuple) : tuple);
        break;
      }
      case GroupingType::fields: {
        const std::size_t idx =
            dst.tasks.size() == 1
                ? 0
                : hash_fields(tuple, edge.field_indices) % dst.tasks.size();
        dst.tasks[idx].inbox.push_back(last_edge ? std::move(tuple) : tuple);
        break;
      }
      case GroupingType::global:
        dst.tasks[0].inbox.push_back(last_edge ? std::move(tuple) : tuple);
        break;
      case GroupingType::all:
        for (auto& task : dst.tasks) task.inbox.push_back(tuple);
        break;
    }
  }
}

void SteppedTopology::exec_task(Node& node, Task& task, StageKind kind,
                                common::Timestamp now) {
  TaskProf* prof = nullptr;
  std::uint64_t t0 = 0;
  if (profile_ && !node.prof.empty()) {
    prof = &node.prof[static_cast<std::size_t>(&task - node.tasks.data())];
    t0 = mono_ns();
    const std::uint64_t dispatched =
        prof_stage_start_ns_.load(std::memory_order_relaxed);
    if (dispatched != 0 && t0 > dispatched) {
      prof->queue_wait_ns->inc(t0 - dispatched);
    }
  }
  OutboxCollector out(task.outbox);
  switch (kind) {
    case StageKind::execute: {
      const std::size_t n = task.inbox.size();
      for (; !task.inbox.empty(); task.inbox.pop_front()) {
        Tuple& tuple = task.inbox.front();
        if (recorder_ != nullptr && tuple.trace != 0) {
          recorder_->stamp(tuple.trace, common::TraceStage::execute, now, now);
        }
        task.bolt->execute(std::move(tuple), out);
      }
      // Counters move once per task stage, not once per tuple.
      task.processed += n;
      if (n != 0 && node.executed != nullptr) node.executed->inc(n);
      if (n != 0 && prof != nullptr) prof->tuples->inc(n);
      break;
    }
    case StageKind::tick:
      task.bolt->tick(now, out);
      break;
    case StageKind::cleanup:
      task.bolt->cleanup(now, out);
      break;
  }
  if (prof != nullptr) prof->self_ns->inc(mono_ns() - t0);
}

std::size_t SteppedTopology::merge_stage(std::size_t component) {
  Node& node = nodes_[component];
  std::size_t processed = 0;
  for (auto& task : node.tasks) {
    processed += task.processed;
    task.processed = 0;
    for (auto& tuple : task.outbox) route(component, std::move(tuple));
    task.outbox.clear();
  }
  return processed;
}

void SteppedTopology::start_workers() {
  if (!pool_.empty()) return;
  pool_.reserve(exec_.workers - 1);
  for (std::size_t i = 0; i + 1 < exec_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

void SteppedTopology::claim_loop(Node& node, StageKind kind,
                                 common::Timestamp now,
                                 std::uint64_t generation) {
  for (;;) {
    std::size_t t;
    {
      std::lock_guard lock(pool_mutex_);
      // Claims and the generation check share the pool mutex, so a thread
      // that slept through a stage can never claim into the next one.
      if (generation_ != generation || next_task_ >= node.tasks.size()) return;
      t = next_task_++;
    }
    exec_task(node, node.tasks[t], kind, now);
    {
      std::lock_guard lock(pool_mutex_);
      if (--tasks_remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void SteppedTopology::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Node* node = nullptr;
    StageKind kind = StageKind::execute;
    common::Timestamp now = 0;
    std::uint64_t generation = 0;
    {
      std::unique_lock lock(pool_mutex_);
      pool_cv_.wait(lock, [&] { return stop_workers_ || generation_ != seen; });
      if (stop_workers_) return;
      generation = seen = generation_;
      node = stage_node_;
      kind = stage_kind_;
      now = stage_now_;
    }
    claim_loop(*node, kind, now, generation);
  }
}

void SteppedTopology::run_bolt_stage(Node& node, StageKind kind,
                                     common::Timestamp now) {
  if (profile_) {
    prof_stage_start_ns_.store(mono_ns(), std::memory_order_relaxed);
    if (prof_stage_dispatches_ != nullptr) prof_stage_dispatches_->inc();
  }
  if (exec_.workers <= 1 || node.tasks.size() <= 1) {
    for (auto& task : node.tasks) exec_task(node, task, kind, now);
    return;
  }
  if (profile_ && prof_parallel_stages_ != nullptr) {
    prof_parallel_stages_->inc();
  }
  start_workers();
  std::uint64_t generation;
  {
    std::lock_guard lock(pool_mutex_);
    stage_node_ = &node;
    stage_kind_ = kind;
    stage_now_ = now;
    next_task_ = 0;
    tasks_remaining_ = node.tasks.size();
    generation = ++generation_;
  }
  pool_cv_.notify_all();
  // The stepping thread is one of the `workers` execution threads.
  claim_loop(node, kind, now, generation);
  std::unique_lock lock(pool_mutex_);
  done_cv_.wait(lock, [this] { return tasks_remaining_ == 0; });
}

std::size_t SteppedTopology::drain(common::Timestamp now) {
  std::size_t processed = 0;
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (node.spec.is_spout()) continue;
    run_bolt_stage(node, StageKind::execute, now);
    processed += merge_stage(n);
  }
  executed_ += processed;
  return processed;
}

void SteppedTopology::bind_metrics(common::MetricsRegistry& registry,
                                   const std::string& prefix) {
  for (auto& node : nodes_) {
    node.executed = &registry.counter(prefix + "." + node.spec.name + ".executed");
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
    prof_stage_dispatches_ =
        &registry.counter(prefix + ".profiler.pool.stage_dispatches");
    prof_parallel_stages_ =
        &registry.counter(prefix + ".profiler.pool.parallel_stages");
  }
}

std::size_t SteppedTopology::step(common::Timestamp now,
                                  std::size_t spout_budget_per_task) {
  // Spouts always run sequentially in task order: they pull from shared
  // sources (the mq brokers), where the poll order *is* the data
  // assignment — racing them would trade determinism for nothing, since
  // spout work is a budgeted trickle compared to the bolt stages.
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (!node.spec.is_spout()) continue;
    for (auto& task : node.tasks) {
      TaskProf* prof =
          profile_ && !node.prof.empty()
              ? &node.prof[static_cast<std::size_t>(&task - node.tasks.data())]
              : nullptr;
      const std::uint64_t t0 = prof != nullptr ? mono_ns() : 0;
      OutboxCollector collector(task.outbox);
      for (std::size_t i = 0; i < spout_budget_per_task; ++i) {
        if (!task.spout->next_tuple(collector, now)) break;
      }
      if (prof != nullptr) prof->self_ns->inc(mono_ns() - t0);
    }
    merge_stage(n);
  }
  return drain(now);
}

std::size_t SteppedTopology::run_until_idle(common::Timestamp now,
                                            std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t n = step(now);
    total += n;
    if (n == 0) break;
  }
  return total;
}

void SteppedTopology::tick(common::Timestamp now) {
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (node.spec.is_spout()) continue;
    run_bolt_stage(node, StageKind::tick, now);
    merge_stage(n);
    // Drain immediately so downstream bolts see window emissions in the
    // same tick (a ranking bolt's tick must observe fresh counts).
    drain(now);
  }
}

void SteppedTopology::close(common::Timestamp now) {
  for (const std::size_t n : topo_order_) {
    Node& node = nodes_[n];
    if (node.spec.is_spout()) {
      for (auto& task : node.tasks) {
        OutboxCollector collector(task.outbox);
        task.spout->close(collector);
      }
    } else {
      run_bolt_stage(node, StageKind::cleanup, now);
    }
    merge_stage(n);
    drain(now);
  }
}

}  // namespace netalytics::stream
