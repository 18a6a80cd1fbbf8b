#include "core/netalytics.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/profile.hpp"
#include "obs/prometheus.hpp"
#include "parsers/parsers.hpp"

namespace netalytics::core {

namespace {

/// Suffix after the last '.' — "q1.mon0.rx_packets" -> "rx_packets".
std::string_view leaf_name(std::string_view name) {
  const auto dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

/// Map a windowed emission to a (series-key, value) pair for the tiered
/// store. Shapes (see stream/topk.hpp and GroupAggBolt::emit_groups):
/// rolling-count / local top-k [key, count], global top-k [rank, key,
/// count] (the rank is dropped so a key's series is stable as it moves
/// through the ranking), group aggregations [groups..., result, count]
/// (the double result is the value). Returns nullopt for per-event
/// shapes, which are not captured.
std::optional<std::pair<std::string, double>> result_series(
    const stream::Tuple& t) {
  if (t.size() < 2 || !std::holds_alternative<std::uint64_t>(t.values.back())) {
    return std::nullopt;
  }
  std::size_t key_end = t.size() - 1;
  double value = static_cast<double>(stream::as_u64(t.values.back()));
  if (key_end >= 2 && std::holds_alternative<double>(t.at(key_end - 1))) {
    value = std::get<double>(t.at(key_end - 1));
    --key_end;
  }
  std::size_t key_begin = 0;
  if (key_end >= 2 && std::holds_alternative<std::uint64_t>(t.at(0))) {
    key_begin = 1;  // global top-k rank
  }
  std::string key;
  for (std::size_t i = key_begin; i < key_end; ++i) {
    if (!key.empty()) key += '.';
    key += stream::format_value(t.at(i));
  }
  if (key.empty()) key = "value";
  return std::make_pair(std::move(key), value);
}

}  // namespace

common::Expected<void> EngineConfig::validate() const {
  using common::Error;
  if (mq_brokers == 0) {
    return Error{"config", "mq_brokers must be > 0"};
  }
  if (tick_interval == 0) {
    return Error{"config", "tick_interval must be > 0"};
  }
  if (feedback_low_occupancy > feedback_high_occupancy) {
    return Error{"config",
                 "feedback_low_occupancy must not exceed "
                 "feedback_high_occupancy"};
  }
  if (processor_parallelism == 0) {
    return Error{"config", "processor_parallelism must be > 0"};
  }
  if (executor_workers > 256 || processor_parallelism > 256) {
    return Error{"config",
                 "executor_workers/processor_parallelism must be <= 256"};
  }
  if (spout_group_size == 0 || spout_group_size > 256) {
    return Error{"config", "spout_group_size must be in [1, 256]"};
  }
  if (executor_mode != stream::ExecutorMode::stepped &&
      executor_mode != stream::ExecutorMode::free_running) {
    return Error{"config", "executor_mode must be stepped or free_running"};
  }
  if (executor_inbox_capacity == 0) {
    return Error{"config", "executor_inbox_capacity must be > 0"};
  }
  if (producer_batch.max_records == 0) {
    return Error{"config", "producer_batch.max_records must be > 0"};
  }
  if (producer_batch.linger > tick_interval) {
    return Error{"config",
                 "producer_batch.linger must not exceed tick_interval"};
  }
  if (auto ok = tsdb_store.validate(); !ok) return ok.error();
  if (executor_profiler && !stream::profiler_available()) {
    return Error{"config",
                 "executor_profiler requires a metrics-enabled build "
                 "(built with NETALYTICS_NO_METRICS)"};
  }
  if (!obs::valid_metric_prefix(obs_export.metric_prefix)) {
    return Error{"config",
                 "obs_export.metric_prefix must match "
                 "[a-zA-Z_:][a-zA-Z0-9_:]*"};
  }
  if (obs_export.max_spans > obs::kMaxExportSpans) {
    return Error{"config", "obs_export.max_spans must be <= 2^24"};
  }
  return {};
}

common::Expected<void> FederationConfig::validate() const {
  using common::Error;
  if (children == 0 || children > 64) {
    return Error{"config", "federation children must be in [1, 64]"};
  }
  if (hosts_per_rack == 0) {
    return Error{"config", "hosts_per_rack must be > 0"};
  }
  if (replay_capacity == 0) {
    return Error{"config", "replay_capacity must be > 0"};
  }
  if (records_per_frame == 0) {
    return Error{"config", "records_per_frame must be > 0"};
  }
  if (reconnect_backoff == 0 || reconnect_backoff > reconnect_backoff_max) {
    return Error{"config",
                 "reconnect_backoff must be in (0, reconnect_backoff_max]"};
  }
  if (top_k == 0) {
    return Error{"config", "top_k must be > 0"};
  }
  if (auto ok = parent_store.validate(); !ok) return ok.error();
  if (!obs::valid_metric_prefix(parent_export.metric_prefix)) {
    return Error{"config",
                 "parent_export.metric_prefix must match "
                 "[a-zA-Z_:][a-zA-Z0-9_:]*"};
  }
  return child_engine.validate();
}

std::string ReconcileReport::render() const {
  std::string out;
  const auto line = [&out](std::string_view name, std::uint64_t v) {
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  line("packets_in", packets_in);
  line("tuples_out", tuples_out);
  line("losses", losses);
  line("in_flight", in_flight);
  line("tick_records", tick_records);
  line("extra_records", extra_records);
  line("folded", folded);
  line("duplicated", duplicated);
  out += "residual ";
  out += std::to_string(residual());
  out += exact() ? "\nexact true\n" : "\nexact false\n";
  return out;
}

RangeResult QueryHandle::query_range(RangeQuery q) const {
  // Scope the selector under this query's registry prefix ("q<id>.", the
  // trailing dot keeps "q1" from matching "q10.*").
  q.selector = metrics_prefix_ + "." + q.selector;
  if (engine_ == nullptr) {
    RangeResult empty;
    empty.query = std::move(q);
    return empty;
  }
  return engine_->query_range(q);
}

nf::MonitorStats QueryHandle::monitor_stats() const {
  nf::MonitorStats total;
  if (engine_ == nullptr) return total;
  // A whole-range sum per "q<id>.mon*" counter. The store merges the live
  // registry head, so the sums equal the registry's current values exactly
  // — for live and finished queries alike (the counters outlive the
  // monitors) and even with the store disabled.
  const auto res = query_range({.selector = "mon", .agg = Agg::sum});
  for (const auto& s : res.series) {
    if (s.points.empty()) continue;
    const auto v = static_cast<std::uint64_t>(s.points.front().value);
    const auto leaf = leaf_name(s.name);
    if (leaf == "rx_packets") total.rx_packets += v;
    else if (leaf == "rx_dropped") total.rx_dropped += v;
    else if (leaf == "decode_failed") total.decode_failed += v;
    else if (leaf == "sampled_out") total.sampled_out += v;
    else if (leaf == "dispatched") total.dispatched += v;
    else if (leaf == "worker_dropped") total.worker_dropped += v;
    else if (leaf == "parsed") total.parsed += v;
    else if (leaf == "records") total.records += v;
    else if (leaf == "record_bytes") total.record_bytes += v;
    else if (leaf == "raw_bytes") total.raw_bytes += v;
    else if (leaf == "parser_errors") total.parser_errors += v;
    else if (leaf == "folded") total.folded += v;
    else if (leaf == "filtered") total.filtered += v;
  }
  return total;
}

double QueryHandle::sample_rate() const {
  if (finished_ || monitors.empty()) return final_sample_rate_;
  return monitors.front()->sample_rate();
}

std::string QueryHandle::render(const RenderOptions& opts) const {
  if (registry_ == nullptr) return {};
  // Trailing dot so "q1." never matches "q10.*".
  return registry_->render_text(metrics_prefix_ + "." + std::string(opts.prefix));
}

std::string QueryHandle::export_chrome_trace() const {
  obs::ChromeTraceOptions options;
  options.pid = id_;
  options.process_name = "netalytics " + metrics_prefix_;
  if (engine_ != nullptr) {
    options.max_spans = engine_->config().obs_export.max_spans;
  }
  const common::Timestamp now = engine_ != nullptr ? engine_->now() : 0;
  return obs::ChromeTraceExporter(std::move(options))
      .export_json(*recorder_, ledger_.get(), now);
}

std::string QueryHandle::export_metrics() const {
  if (registry_ == nullptr) return {};
  const obs::ExportOptions options = engine_ != nullptr
                                         ? engine_->config().obs_export
                                         : obs::ExportOptions{};
  return obs::PrometheusExporter(options).export_snapshot(
      registry_->snapshot(metrics_prefix_ + "."));
}

std::string QueryHandle::export_profile() const {
  if (registry_ == nullptr) return {};
  return obs::collapsed_stack(registry_->snapshot(metrics_prefix_ + "."));
}

std::string NetAlytics::export_metrics(std::string_view prefix) const {
  return obs::PrometheusExporter(config_.obs_export)
      .export_snapshot(metrics_.snapshot(prefix));
}

NetAlytics::NetAlytics(Emulation& emu, EngineConfig config)
    : emu_(emu),
      config_(config),
      engine_ledger_(metrics_, "drop"),
      cluster_(config.mq_brokers, config.broker),
      store_(config.tsdb_store) {
  if (auto ok = config_.validate(); !ok) {
    throw std::invalid_argument(ok.error().to_string());
  }
  parsers::register_builtin_parsers();
  cluster_.bind_metrics(metrics_);  // "mq.broker<i>.*"
  cluster_.set_drop_ledger(&engine_ledger_);
  if (config_.timeseries_slots > 0) {
    timeseries_ = std::make_unique<common::SnapshotRing>(config_.timeseries_slots);
  }
  queries_submitted_ = &metrics_.counter("engine.queries_submitted");
  queries_finished_ = &metrics_.counter("engine.queries_finished");
  pumps_ = &metrics_.counter("engine.pumps");
  // Chaos wiring: a plan installed on the emulation reaches every layer
  // this engine builds (see Emulation::install_faults).
  if (emu_.fault_plan() != nullptr) cluster_.install_faults(emu_.fault_plan());
}

common::Expected<QueryHandle*> NetAlytics::submit(std::string_view text,
                                                  common::Timestamp now) {
  now_ = now;
  if (auto ok = config_.validate(); !ok) return ok.error();
  auto validated = query::parse_and_validate(text);
  if (!validated) return validated.error();
  auto plan = compile_query(*validated, emu_, config_.monitor_strategy);
  if (!plan) return plan.error();

  auto handle = std::make_unique<QueryHandle>();
  handle->id_ = next_query_id_;  // consumed only if the query deploys
  handle->plan_ = std::move(*plan);
  handle->start_time = now;
  handle->last_tick = now;
  if (handle->plan_.duration > 0) handle->end_time = now + handle->plan_.duration;
  // Pushed partials ship to topics the query owns, so no other query's
  // spout reads them and no raw-record reader meets a partial.
  for (std::size_t i = 0; i < handle->plan_.pushdowns.size(); ++i) {
    auto& push = handle->plan_.pushdowns[i];
    if (!push) continue;
    if (!pushdown_) {
      push.reset();
      continue;
    }
    push->topic = "q" + std::to_string(handle->id_) + ".proc" +
                  std::to_string(i) + "." + push->parser;
  }

  // Everything this query publishes lives under "q<id>." in the engine's
  // registry; the tracer owns the per-stage latency histograms.
  handle->registry_ = &metrics_;
  handle->engine_ = this;
  handle->metrics_prefix_ = "q" + std::to_string(handle->id_);
  handle->tracer_ = std::make_unique<common::StageTracer>(
      metrics_, handle->metrics_prefix_);
  handle->ledger_ = std::make_unique<common::DropLedger>(
      metrics_, handle->metrics_prefix_ + ".drop");
  handle->recorder_ = std::make_unique<common::TraceRecorder>(
      common::TraceRecorder::Config{
          .sample_denominator = config_.trace_sample_denominator,
          .capacity_per_thread = config_.trace_span_capacity});

  // Every processor spec is built and checked before anything deploys: a
  // rejected parameter leaves no monitor, mirror rule or query behind.
  auto specs = build_processors(*handle);
  if (!specs) return specs.error();
  ++next_query_id_;
  deploy_monitors(*handle, now);
  start_processors(*handle, std::move(*specs));
  queries_submitted_->inc();

  common::log_info("engine", "query ", handle->id_, " deployed: ",
                   handle->monitors.size(), " monitors, ",
                   handle->rule_cookies.size(), " rules, ",
                   handle->topologies.size(), " processors");
  queries_.push_back(std::move(handle));
  return queries_.back().get();
}

void NetAlytics::deploy_monitors(QueryHandle& q, common::Timestamp now) {
  for (const auto& mp : q.plan_.monitors) {
    const auto j = q.monitors.size();
    // One producer per monitor; its key spreads this monitor's batches
    // across brokers while keeping them ordered.
    auto producer = std::make_unique<mq::Producer>(
        cluster_, next_producer_id_++, nullptr, config_.producer_retry,
        config_.producer_batch);
    producer->bind_metrics(metrics_,
                           q.metrics_prefix_ + ".producer" + std::to_string(j),
                           q.tracer_.get(), q.recorder_.get(), q.ledger_.get());
    mq::Producer* producer_ptr = producer.get();

    nf::MonitorConfig mcfg;
    for (const auto& topic : q.plan_.topics) {
      mcfg.parsers.push_back({topic, 1, q.plan_.ships_raw(topic)});
    }
    for (const auto& push : q.plan_.pushdowns) {
      if (push) mcfg.combiners.push_back(*push);
    }
    mcfg.sample_rate = q.plan_.initial_sample_rate;
    mcfg.output_batch_records = config_.monitor_output_batch;
    mcfg.metrics = &metrics_;
    mcfg.metrics_prefix = q.metrics_prefix_ + ".mon" + std::to_string(j);
    mcfg.tracer = q.tracer_.get();
    mcfg.trace_recorder = q.recorder_.get();
    mcfg.drop_ledger = q.ledger_.get();

    nf::BatchSink sink = [this, producer_ptr](std::string_view topic,
                                              std::vector<std::byte> payload,
                                              const nf::BatchInfo& info) {
      producer_ptr->send(topic, std::move(payload), now_, info.records,
                         {info.traces.begin(), info.traces.end()});
    };

    const std::string host_name = "host-" + std::to_string(mp.host);
    const std::string id = orchestrator_.deploy(host_name, mcfg, std::move(sink));
    nf::Monitor* monitor = orchestrator_.find(id);
    monitor->install_faults(emu_.fault_plan());

    // Wire the monitor to its ToR switch (inline processing keeps the
    // emulation deterministic) and mirror the matched pairs to it.
    const auto port = emu_.attach_monitor(
        mp.tor, [monitor](const net::DecodedPacket& pkt) { monitor->process(pkt); });

    for (const auto pair_index : mp.pair_indices) {
      const EndpointPair& pair = q.plan_.pairs[pair_index];
      sdn::FlowMatch fwd;
      fwd.eth_type = net::kEtherTypeIpv4;
      fwd.src_prefix = pair.src_prefix;
      fwd.src_port = pair.src_port;
      fwd.dst_prefix = pair.dst_prefix;
      fwd.dst_port = pair.dst_port;
      // Mirror both directions: connection-time, HTTP and MySQL parsers
      // all need the server's responses too.
      sdn::FlowMatch rev;
      rev.eth_type = net::kEtherTypeIpv4;
      rev.src_prefix = pair.dst_prefix;
      rev.src_port = pair.dst_port;
      rev.dst_prefix = pair.src_prefix;
      rev.dst_port = pair.src_port;

      for (const auto& match : {fwd, rev}) {
        const auto cookie = emu_.controller().install_mirror(
            Emulation::switch_id(mp.tor), match, Emulation::kDeliveryPort, port,
            config_.mirror_rule_priority, now, q.plan_.duration);
        if (cookie) {
          q.rule_cookies.emplace_back(Emulation::switch_id(mp.tor), *cookie);
        }
      }
    }

    q.monitor_ids.push_back(id);
    q.monitors.push_back(monitor);
    q.producers.push_back(std::move(producer));
  }
}

common::Expected<std::vector<stream::TopologySpec>> NetAlytics::build_processors(
    QueryHandle& q) {
  std::vector<stream::TopologySpec> specs;
  QueryHandle* qp = &q;
  for (std::size_t i = 0; i < q.plan_.processors.size(); ++i) {
    const auto& call = q.plan_.processors[i];
    stream::ProcessorContext ctx;
    ctx.cluster = &cluster_;
    ctx.consumer_group =
        "q" + std::to_string(q.id_) + "-" + call.name + std::to_string(i);
    ctx.topics = q.plan_.topics;
    ctx.pushdown = q.plan_.pushdowns[i];
    ctx.parallelism = config_.processor_parallelism;
    ctx.spout_group_size = config_.spout_group_size;
    ctx.fault_plan = emu_.fault_plan();
    ctx.metrics = &metrics_;
    ctx.metrics_prefix = q.metrics_prefix_ + ".proc" + std::to_string(i);
    ctx.tracer = q.tracer_.get();
    ctx.trace_recorder = q.recorder_.get();
    ctx.drop_ledger = q.ledger_.get();
    // End-to-end latency needs the result tuple to still carry the packet's
    // ingress timestamp; only identity preserves the record schema
    // ([id, ts:u64, ...]), so the e2e stage is stamped on its sink alone.
    // The sink collects the origins; flush_e2e() stamps them at now_ in one
    // batch before the pump returns.
    const bool stamp_e2e = call.name == "identity";
    // Windowed emissions (rankings, group aggregates) are per-tick values
    // worth a history; per-event shapes (identity, join, diffs) are not —
    // their cardinality is the packet stream's.
    const bool capture_results =
        store_.enabled() &&
        (call.name == "top-k" || call.name.rfind("group-", 0) == 0);
    const std::string result_prefix =
        q.metrics_prefix_ + ".result.proc" + std::to_string(i) + ".";
    common::TraceRecorder* recorder = q.recorder_.get();
    ctx.result_sink = [this, qp, recorder, stamp_e2e, capture_results,
                       result_prefix](const stream::Tuple& t) {
      qp->results_.push_back(t);
      const bool has_ts =
          t.size() > 1 && std::holds_alternative<std::uint64_t>(t.at(1));
      if (t.trace != 0) {
        // Only record-schema tuples ([id, ts, ...], i.e. identity) carry
        // the ingress timestamp at index 1; aggregated shapes (rankings,
        // group rows) reach here too now that traces continue through
        // windowed bolts, and their at(1) is a count, not a time.
        recorder->stamp(t.trace, common::TraceStage::deliver,
                        stamp_e2e && has_ts ? stream::as_u64(t.at(1)) : now_,
                        now_);
      }
      if (stamp_e2e && has_ts) qp->e2e_origins_.push_back(stream::as_u64(t.at(1)));
      if (capture_results) {
        if (auto kv = result_series(t)) {
          store_.ingest(result_prefix + kv->first, tsdb::SeriesKind::gauge,
                        now_, kv->second);
        }
      }
    };
    if (automation_store_ != nullptr && call.name == "top-k") {
      ctx.kvstore = automation_store_;
      ctx.updater_config = automation_config_;
      ctx.on_scale_up = automation_up_;
      ctx.on_scale_down = automation_down_;
    }
    stream::ProcessorParams params;
    params.args = call.args;
    // Semantic analysis checked names and topics; a processor's own
    // parameters (a top-k field outside the schema, say) are checked here.
    auto spec = stream::build_processor(call.name, params, ctx);
    if (!spec) return spec.error();
    specs.push_back(std::move(*spec));
  }
  return specs;
}

void NetAlytics::start_processors(QueryHandle& q,
                                  std::vector<stream::TopologySpec> specs) {
  const stream::ExecutorConfig exec{
      .workers = config_.executor_workers != 0 ? config_.executor_workers
                                               : config_.processor_parallelism,
      .mode = config_.executor_mode,
      .inbox_capacity = config_.executor_inbox_capacity,
      .profile = config_.executor_profiler};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    q.topologies.push_back(stream::make_executor(std::move(specs[i]), exec));
    q.topologies.back()->bind_metrics(
        metrics_, q.metrics_prefix_ + ".proc" + std::to_string(i));
    q.topologies.back()->bind_trace(q.recorder_.get());
  }
}

void NetAlytics::apply_feedback(QueryHandle& q, double occupancy) {
  if (occupancy >= config_.feedback_high_occupancy) {
    for (auto* m : q.monitors) m->on_backpressure();
  } else if (occupancy <= config_.feedback_low_occupancy) {
    for (auto* m : q.monitors) m->set_sample_rate(std::min(1.0, m->sample_rate() + 0.05));
  }
}

void NetAlytics::flush_e2e(QueryHandle& q) {
  q.tracer_->stamp_batch(common::StageTracer::Stage::e2e, now_, q.e2e_origins_);
  q.e2e_origins_.clear();
}

void NetAlytics::pump(common::Timestamp now) {
  now_ = now;
  pumps_->inc();
  for (auto& qp : queries_) {
    QueryHandle& q = *qp;
    if (q.finished_) continue;

    // Ship lingering producer batches and give buffered sends their retry
    // window first — occupancy must see every record that reached the
    // aggregation layer, not hide what sat in an open batch.
    for (auto& p : q.producers) p->flush(now);

    // Sample buffer pressure before the processors drain: the aggregation
    // layer's backlog at this instant is the overload signal (§4.2).
    const auto sample_occupancy = [this, &q] {
      double occupancy = 0;
      for (const auto& topic : q.plan_.shipped_topics()) {
        occupancy = std::max(occupancy, cluster_.occupancy(topic));
      }
      return occupancy;
    };
    double occupancy = q.plan_.auto_sample ? sample_occupancy() : 0;

    for (auto& topo : q.topologies) topo->run_until_idle(now);

    if (now - q.last_tick >= config_.tick_interval) {
      // Monitor ticks flush aggregating parsers (tcp_pkt_size windows),
      // then the topologies' windows advance on the fresh data. The ticked
      // records join open producer batches, so drain those immediately —
      // the same pump's window tick must see them.
      for (auto* m : q.monitors) m->tick(now);
      for (auto& p : q.producers) p->drain(now);
      // Sample again now that the tick shipped: a pushed plan's partials
      // reach the aggregation layer only here.
      if (q.plan_.auto_sample) occupancy = std::max(occupancy, sample_occupancy());
      for (auto& topo : q.topologies) {
        topo->run_until_idle(now);
        topo->tick(now);
      }
      if (q.plan_.auto_sample) apply_feedback(q, occupancy);
      q.last_tick = now;
    }

    const bool time_up = q.end_time != 0 && now >= q.end_time;
    const bool packets_up = q.plan_.packet_limit != 0 &&
                            q.monitor_stats().parsed >= q.plan_.packet_limit;
    if (time_up || packets_up) stop_query(q, now);
    flush_e2e(q);
  }

  // One registry snapshot per tick interval feeds both the tiered store
  // and the deprecated SnapshotRing (first pump captures immediately).
  if ((timeseries_ != nullptr || store_.enabled()) &&
      (!captured_once_ || now - last_capture_ >= config_.tick_interval)) {
    const auto snap = metrics_.snapshot();
    if (timeseries_ != nullptr) timeseries_->capture(now, snap);
    store_.capture(now, snap);
    last_capture_ = now;
    captured_once_ = true;
  }
}

RangeResult NetAlytics::query_range(const RangeQuery& q) const {
  // The live head is the registry's current cumulative state, filtered to
  // the selector (the store filters by the same prefix internally).
  const auto snap = metrics_.snapshot(q.selector);
  return store_.query_range(q, tsdb::LiveHead{now_, &snap});
}

ReconcileReport NetAlytics::reconcile(const QueryHandle& q) const {
  ReconcileReport r;
  // Monitor-side terms come out of the registry, so the report works
  // identically for live and finished queries (the counters outlive the
  // monitors). The leaf names are unique to the monitor prefix.
  const auto snap = metrics_.snapshot(q.metrics_prefix_ + ".");
  for (const auto& c : snap.counters) {
    const auto leaf = leaf_name(c.name);
    if (leaf == "rx_packets") r.packets_in += c.value;
    else if (leaf == "tick_records") r.tick_records += c.value;
    else if (leaf == "extra_records") r.extra_records += c.value;
    else if (leaf == "folded" || leaf == "filtered") r.folded += c.value;
  }
  // Spout buffers: record batches polled off the brokers but not yet
  // re-emitted as tuples (absolute gauges, one per spout task).
  for (const auto& g : snap.gauges) {
    if (leaf_name(g.name) == "buffered_records" && g.value > 0) {
      r.in_flight += static_cast<std::uint64_t>(g.value);
    }
  }

  r.tuples_out = q.results_.size();
  // The query ledger holds every monitor/producer-side loss; retention
  // evictions land in the engine ledger because the broker is shared.
  r.losses = q.drop_ledger().total_losses() +
             engine_ledger_.value(common::DropCause::broker_retention);

  for (const auto& p : q.producers) r.in_flight += p->held_records();
  for (const auto& topic : q.plan_.shipped_topics()) {
    r.in_flight += cluster_.unread_records(topic);
  }
  r.duplicated = cluster_.aggregate_stats().duplicated_records;
  return r;
}

void NetAlytics::stop_query(QueryHandle& q, common::Timestamp now) {
  if (q.finished_) return;
  emu_.controller().remove_rules(q.rule_cookies);
  q.rule_cookies.clear();

  // Flush parser state and pending batches, then drain the analytics side
  // completely: data -> final window tick -> cleanup flush.
  for (auto* m : q.monitors) m->close(now);
  for (auto& p : q.producers) p->drain(now);
  for (auto& topo : q.topologies) {
    topo->run_until_idle(now);
    topo->tick(now);
    topo->run_until_idle(now);
    topo->close(now);
  }
  flush_e2e(q);
  // The counters stay readable after undeploy (they live in metrics_);
  // only the live sample rate must be captured before the monitors go.
  q.final_sample_rate_ = q.sample_rate();
  for (const auto& id : q.monitor_ids) orchestrator_.undeploy(id);
  q.monitors.clear();
  q.monitor_ids.clear();
  q.finished_ = true;
  queries_finished_->inc();
  common::log_info("engine", "query ", q.id_, " finished with ",
                   q.results_.size(), " result tuples");
}

void NetAlytics::stop_all(common::Timestamp now) {
  for (auto& q : queries_) stop_query(*q, now);
}

void NetAlytics::set_automation(stream::KvStore* store,
                                stream::UpdaterConfig config,
                                stream::UpdaterBolt::ScaleCallback on_scale_up,
                                stream::UpdaterBolt::ScaleCallback on_scale_down) {
  automation_store_ = store;
  automation_config_ = config;
  automation_up_ = std::move(on_scale_up);
  automation_down_ = std::move(on_scale_down);
}

}  // namespace netalytics::core
