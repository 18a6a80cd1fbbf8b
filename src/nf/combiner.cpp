#include "nf/combiner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/hash.hpp"

namespace netalytics::nf {

namespace {

/// Schema field `i` of `r` ([id, ts, fields...]).
FieldView field_at(const RecordView& r, std::size_t i) {
  if (i == 0) return r.id;
  if (i == 1) return std::uint64_t{r.timestamp};
  if (i - 2 >= r.fields.size()) throw std::out_of_range("combiner: field index");
  return r.fields[i - 2];
}

double as_number(const FieldView& v) {
  return std::visit(
      [](const auto& x) -> double {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string_view>) {
          throw std::invalid_argument("combiner: value field is a string");
        } else {
          return static_cast<double>(x);
        }
      },
      v);
}

/// Hash of one key field; the type index is mixed in, so the string "1"
/// and the integer 1 land apart (equality checks the type too).
std::uint64_t hash_field(const FieldView& v) {
  std::uint64_t h = 0;
  switch (v.index()) {
    case 0: h = static_cast<std::uint64_t>(std::get<0>(v)); break;
    case 1: h = std::get<1>(v); break;
    case 2: h = std::bit_cast<std::uint64_t>(std::get<2>(v)); break;
    default: h = std::hash<std::string_view>{}(std::get<3>(v)); break;
  }
  return common::mix64(h + v.index());
}

/// Owned key field == viewed record field, type included. Doubles compare
/// by bits, as keys are told apart by their rendering downstream.
bool same_field(const FieldValue& a, const FieldView& b) {
  if (a.index() != b.index()) return false;
  switch (b.index()) {
    case 0: return std::get<0>(a) == std::get<0>(b);
    case 1: return std::get<1>(a) == std::get<1>(b);
    case 2:
      return std::bit_cast<std::uint64_t>(std::get<2>(a)) ==
             std::bit_cast<std::uint64_t>(std::get<2>(b));
    default: return std::get<3>(a) == std::get<3>(b);
  }
}

FieldValue own(const FieldView& v) {
  return std::visit(
      [](auto x) -> FieldValue {
        if constexpr (std::is_same_v<decltype(x), std::string_view>) {
          return std::string(x);
        } else {
          return x;
        }
      },
      v);
}

}  // namespace

Combiner::Combiner(CombinerSpec spec, RecordSink& out, RecordSink* next)
    : spec_(std::move(spec)), out_(out), next_(next) {}

void Combiner::emit(const RecordView& record) {
  ++received_;
  bool keep = true;
  if (spec_.filter_field != kNoField) {
    const FieldView v = field_at(record, spec_.filter_field);
    const auto* s = std::get_if<std::string_view>(&v);
    keep = s != nullptr && *s == spec_.filter_equals;
  }
  if (keep) {
    fold(record);
    if (folded_ctr_ != nullptr) folded_ctr_->inc();
  } else if (filtered_ctr_ != nullptr) {
    filtered_ctr_->inc();
  }
  if (next_ != nullptr) next_->emit(record);
}

void Combiner::fold(const RecordView& record) {
  key_scratch_.clear();
  std::uint64_t h = 0;
  for (const auto i : spec_.key_fields) {
    key_scratch_.push_back(field_at(record, i));
    h = common::hash_combine(h, hash_field(key_scratch_.back()));
  }
  const double v = spec_.has_value() ? as_number(field_at(record, spec_.value_field)) : 0;

  if ((partials_.size() + 1) * 2 > index_.size()) grow_index();
  std::size_t pos = h & (index_.size() - 1);
  Partial* p = nullptr;
  for (;; pos = (pos + 1) & (index_.size() - 1)) {
    const std::uint32_t n = index_[pos];
    if (n == kEmpty) break;
    Partial& candidate = partials_[n];
    if (candidate.hash == h &&
        std::equal(candidate.key.begin(), candidate.key.end(), key_scratch_.begin(),
                   key_scratch_.end(), same_field)) {
      p = &candidate;
      break;
    }
  }
  if (p == nullptr) {
    index_[pos] = static_cast<std::uint32_t>(partials_.size());
    p = &partials_.emplace_back();
    p->hash = h;
    p->key.reserve(key_scratch_.size());
    for (const auto& f : key_scratch_) p->key.push_back(own(f));
    p->min = p->max = v;
  } else {
    p->min = std::min(p->min, v);
    p->max = std::max(p->max, v);
  }
  p->sum += v;
  ++p->count;
  p->timestamp = std::max(p->timestamp, record.timestamp);
  p->trace = std::max(p->trace, record.trace != 0 ? record.trace : current_trace_);
}

void Combiner::grow_index() {
  index_.assign(index_.empty() ? 64 : index_.size() * 2, kEmpty);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t n = 0; n < partials_.size(); ++n) {
    std::size_t pos = partials_[n].hash & mask;
    while (index_[pos] != kEmpty) pos = (pos + 1) & mask;
    index_[pos] = static_cast<std::uint32_t>(n);
  }
}

std::size_t Combiner::flush(common::Timestamp now) {
  if (partials_.empty()) return 0;
  order_.resize(partials_.size());
  for (std::size_t n = 0; n < order_.size(); ++n) order_[n] = static_cast<std::uint32_t>(n);
  std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return partials_[a].key < partials_[b].key;
  });
  for (const auto n : order_) {
    const Partial& p = partials_[n];
    fields_scratch_.clear();
    for (const auto& k : p.key) fields_scratch_.push_back(view_of(k));
    fields_scratch_.emplace_back(p.count);
    if (spec_.has_value()) {
      fields_scratch_.emplace_back(p.sum);
      fields_scratch_.emplace_back(p.min);
      fields_scratch_.emplace_back(p.max);
    }
    out_.emit({spec_.topic, 0, p.timestamp != 0 ? p.timestamp : now,
               fields_scratch_, p.trace});
  }
  const std::size_t emitted = partials_.size();
  partials_.clear();
  std::fill(index_.begin(), index_.end(), kEmpty);
  return emitted;
}

}  // namespace netalytics::nf
