#include "stream/local_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace netalytics::stream {

LocalCluster::LocalCluster(TopologySpec spec, LocalClusterConfig config)
    : spec_(std::move(spec)), config_(config) {
  std::map<std::string, std::size_t> index_of;
  for (const auto& c : spec_.components) {
    index_of[c.name] = nodes_.size();
    auto node = std::make_unique<Node>();
    node->spec = c;
    for (std::size_t t = 0; t < c.parallelism; ++t) {
      auto task = std::make_unique<Task>();
      if (c.is_spout()) {
        task->spout = c.spout_factory();
      } else {
        task->bolt = c.bolt_factory();
        task->inbox =
            std::make_unique<common::MpmcQueue<Tuple>>(config_.inbox_capacity);
      }
      node->tasks.push_back(std::move(task));
    }
    nodes_.push_back(std::move(node));
  }

  for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
    for (const auto& sub : nodes_[dst]->spec.subscriptions) {
      const std::size_t src = index_of.at(sub.source);
      auto edge = std::make_unique<Edge>();
      edge->dst = dst;
      edge->type = sub.grouping.type;
      if (edge->type == GroupingType::fields) {
        const auto& schema = nodes_[src]->spec.output_fields;
        for (const auto& f : sub.grouping.fields) {
          const auto it = std::find(schema.begin(), schema.end(), f);
          edge->field_indices.push_back(
              static_cast<std::size_t>(it - schema.begin()));
        }
      }
      nodes_[src]->out_edges.push_back(std::move(edge));
    }
  }

  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (const auto& node : nodes_) {
    for (const auto& e : node->out_edges) ++in_degree[e->dst];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) frontier.push_back(i);
  }
  while (!frontier.empty()) {
    const std::size_t n = frontier.front();
    frontier.erase(frontier.begin());
    topo_order_.push_back(n);
    for (const auto& e : nodes_[n]->out_edges) {
      if (--in_degree[e->dst] == 0) frontier.push_back(e->dst);
    }
  }
  if (topo_order_.size() != nodes_.size()) {
    throw std::invalid_argument("LocalCluster: cyclic spec");
  }
}

LocalCluster::~LocalCluster() {
  if (running()) stop();
}

void LocalCluster::route(std::size_t src_component, Tuple tuple) {
  Node& src = *nodes_[src_component];
  for (std::size_t e = 0; e < src.out_edges.size(); ++e) {
    Edge& edge = *src.out_edges[e];
    Node& dst = *nodes_[edge.dst];
    const bool last_edge = (e + 1 == src.out_edges.size());
    switch (edge.type) {
      case GroupingType::shuffle: {
        const std::size_t idx =
            edge.rr_cursor.fetch_add(1, std::memory_order_relaxed) %
            dst.tasks.size();
        dst.tasks[idx]->inbox->push(last_edge ? std::move(tuple) : tuple);
        break;
      }
      case GroupingType::fields: {
        const std::uint64_t h = hash_fields(tuple, edge.field_indices);
        dst.tasks[h % dst.tasks.size()]->inbox->push(last_edge ? std::move(tuple)
                                                               : tuple);
        break;
      }
      case GroupingType::global:
        dst.tasks[0]->inbox->push(last_edge ? std::move(tuple) : tuple);
        break;
      case GroupingType::all:
        for (auto& task : dst.tasks) task->inbox->push(tuple);
        break;
    }
  }
}

void LocalCluster::spout_loop(Node& node, Task& task, std::size_t component_index) {
  EmitCollector collector(*this, component_index);
  common::WallClock clock;
  task.spout->open();
  while (!node.stop.load(std::memory_order_acquire)) {
    if (!task.spout->next_tuple(collector, clock.now())) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  task.spout->close(collector);
}

void LocalCluster::bolt_loop(Node& node, Task& task, std::size_t component_index) {
  EmitCollector collector(*this, component_index);
  common::WallClock clock;
  task.bolt->prepare();
  common::Timestamp last_tick = clock.now();
  while (true) {
    auto tuple = task.inbox->pop_for(std::chrono::milliseconds(5));
    if (tuple.has_value()) {
      task.bolt->execute(std::move(*tuple), collector);
      executed_.fetch_add(1, std::memory_order_relaxed);
    } else if (node.stop.load(std::memory_order_acquire) &&
               task.inbox->size() == 0) {
      break;
    }
    const common::Timestamp now = clock.now();
    if (now - last_tick >= config_.tick_interval) {
      task.bolt->tick(now, collector);
      last_tick = now;
    }
  }
  task.bolt->cleanup(clock.now(), collector);
}

void LocalCluster::start() {
  if (running()) return;
  running_.store(true, std::memory_order_release);
  // Bolts first so inboxes are consumed from the instant spouts emit.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    Node& node = *nodes_[n];
    if (node.spec.is_spout()) continue;
    for (auto& task : node.tasks) {
      task->thread = std::thread([this, &node, t = task.get(), n] {
        bolt_loop(node, *t, n);
      });
    }
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    Node& node = *nodes_[n];
    if (!node.spec.is_spout()) continue;
    for (auto& task : node.tasks) {
      task->thread = std::thread([this, &node, t = task.get(), n] {
        spout_loop(node, *t, n);
      });
    }
  }
}

void LocalCluster::stop() {
  if (!running()) return;
  // Topological shutdown: stop and join each component only after all of
  // its upstreams finished, so every in-flight tuple is processed.
  for (const std::size_t n : topo_order_) {
    Node& node = *nodes_[n];
    node.stop.store(true, std::memory_order_release);
    for (auto& task : node.tasks) {
      if (task->thread.joinable()) task->thread.join();
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace netalytics::stream
