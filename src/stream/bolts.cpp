#include "stream/bolts.hpp"

#include <algorithm>

#include "common/byte_io.hpp"
#include "nf/record.hpp"

namespace netalytics::stream {

static_assert(std::is_same_v<Value, nf::FieldValue>,
              "record fields decode in place as tuple values");

namespace {

/// Decodes a record batch into [id, ts, fields...] tuples.
class TupleDecoder final : public nf::BatchVisitor {
 public:
  explicit TupleDecoder(std::vector<Tuple>& out) : out_(out) {}
  void begin(std::size_t records) override { out_.reserve(records); }
  std::vector<Value>& record(std::string_view, std::uint64_t id,
                             common::Timestamp timestamp,
                             std::size_t field_count) override {
    auto& values = out_.emplace_back().values;
    values.reserve(2 + field_count);
    values.emplace_back(std::uint64_t{id});
    values.emplace_back(std::uint64_t{timestamp});
    return values;
  }
  void trace(std::size_t index, std::uint64_t trace) override {
    out_[index].trace = trace;
  }

 private:
  std::vector<Tuple>& out_;
};

}  // namespace

void ParsingBolt::execute(Tuple input, Collector& out) {
  // Input: [payload:string] — the serialized batch from an mq message. The
  // whole batch decodes before anything is emitted: trace ids trail the
  // records, and a corrupt batch must emit nothing.
  batch_.clear();
  TupleDecoder decoder(batch_);
  nf::read_batch(common::as_bytes(as_str(input.at(0))), decoder);
  for (auto& t : batch_) out.emit(std::move(t));
}

void DiffBolt::execute(Tuple input, Collector& out) {
  const auto id = as_u64(input.at(config_.id_index));
  const auto& event = as_str(input.at(config_.event_index));

  if (event == config_.start_token) {
    if (pending_.size() >= config_.max_pending) {  // shed load
      if (ledger_ != nullptr) {
        ledger_->add(common::DropCause::stream_window_eviction, pending_.size());
      }
      pending_.clear();
    }
    pending_.insert_or_assign(id, std::move(input));
    return;
  }
  if (event != config_.end_token) return;

  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // end without observed start
  const auto start_ts = as_u64(it->second.at(config_.ts_index));
  const auto end_ts = as_u64(input.at(config_.ts_index));
  const std::uint64_t diff = end_ts >= start_ts ? end_ts - start_ts : 0;

  Tuple result;
  // Provenance follows the end event (it closed the pair), falling back to
  // the start tuple's trace.
  result.trace = input.trace != 0 ? input.trace : it->second.trace;
  result.values.reserve(2 + config_.passthrough.size());
  result.values.emplace_back(std::uint64_t{id});
  result.values.emplace_back(std::uint64_t{diff});
  for (const auto idx : config_.passthrough) {
    result.values.push_back(it->second.at(idx));
  }
  pending_.erase(it);
  out.emit(std::move(result));
}

void JoinByIdBolt::execute(Tuple input, Collector& out) {
  bool is_left;
  if (config_.by_tag) {
    is_left = as_str(input.values.back()) == config_.left_tag;
    input.values.pop_back();  // strip the marker
  } else {
    is_left = input.size() == config_.left_arity;
  }
  auto& mine = is_left ? pending_left_ : pending_right_;
  const std::size_t id_index =
      is_left ? config_.left_id_index : config_.right_id_index;
  const auto id = as_u64(input.at(id_index));
  if (mine.size() >= config_.max_pending) {  // shed load
    if (ledger_ != nullptr) {
      ledger_->add(common::DropCause::stream_window_eviction, mine.size());
    }
    mine.clear();
  }
  // 1:1 join, first record per id wins (a flow's first HTTP request pairs
  // with its first timing event; later same-id records are dropped).
  mine.try_emplace(id, std::move(input));
  try_join(id, out);
}

void JoinByIdBolt::try_join(std::uint64_t id, Collector& out) {
  const auto lit = pending_left_.find(id);
  const auto rit = pending_right_.find(id);
  if (lit == pending_left_.end() || rit == pending_right_.end()) return;

  Tuple result;
  result.trace = lit->second.trace != 0 ? lit->second.trace : rit->second.trace;
  result.values.reserve(1 + config_.left_passthrough.size() +
                        config_.right_passthrough.size());
  result.values.emplace_back(std::uint64_t{id});
  for (const auto idx : config_.left_passthrough) {
    result.values.push_back(lit->second.at(idx));
  }
  for (const auto idx : config_.right_passthrough) {
    result.values.push_back(rit->second.at(idx));
  }
  pending_left_.erase(lit);
  pending_right_.erase(rit);
  out.emit(std::move(result));
}

void GroupAggBolt::execute(Tuple input, Collector&) {
  std::string key;
  std::vector<Value> group_values;
  group_values.reserve(config_.group_indices.size());
  for (const auto idx : config_.group_indices) {
    key += format_value(input.at(idx));
    key += '\x1f';
    group_values.push_back(input.at(idx));
  }

  auto [it, inserted] = groups_.try_emplace(key);
  Agg& agg = it->second;
  if (inserted) agg.group_values = std::move(group_values);

  // A raw tuple is a partial of one sample.
  std::uint64_t n = 1;
  double sum = 0, min = 0, max = 0;
  if (config_.count_index != GroupAggConfig::kRawInput) {
    const std::size_t c = config_.count_index;
    n = as_u64(input.at(c));
    if (config_.op != AggOp::count) {
      sum = as_f64(input.at(c + 1));
      min = as_f64(input.at(c + 2));
      max = as_f64(input.at(c + 3));
    }
  } else if (config_.op != AggOp::count) {
    sum = min = max = as_number(input.at(config_.value_index));
  }
  if (agg.count == 0) {
    agg.max = max;
    agg.min = min;
  } else {
    agg.max = std::max(agg.max, max);
    agg.min = std::min(agg.min, min);
  }
  agg.sum += sum;
  agg.count += n;
  agg.trace = std::max(agg.trace, input.trace);
  report_window();
}

void GroupAggBolt::report_window() {
  const auto current = static_cast<std::int64_t>(groups_.size());
  if (window_gauge_ != nullptr) window_gauge_->add(current - last_window_);
  last_window_ = current;
}

void GroupAggBolt::emit_groups(Collector& out) {
  for (const auto& [key, agg] : groups_) {
    if (agg.count == 0) continue;
    double result = 0;
    switch (config_.op) {
      case AggOp::sum: result = agg.sum; break;
      case AggOp::avg: result = agg.sum / static_cast<double>(agg.count); break;
      case AggOp::max: result = agg.max; break;
      case AggOp::min: result = agg.min; break;
      case AggOp::count: result = static_cast<double>(agg.count); break;
    }
    Tuple t;
    t.values = agg.group_values;
    t.values.emplace_back(result);
    t.values.emplace_back(std::uint64_t{agg.count});
    t.trace = agg.trace;
    out.emit(std::move(t));
  }
  if (config_.reset_after_emit) {
    groups_.clear();
    report_window();
  }
}

void GroupAggBolt::tick(common::Timestamp, Collector& out) {
  if (config_.emit_on_tick) emit_groups(out);
}

void GroupAggBolt::cleanup(common::Timestamp, Collector& out) {
  if (!config_.emit_on_tick || config_.reset_after_emit) emit_groups(out);
}

}  // namespace netalytics::stream
