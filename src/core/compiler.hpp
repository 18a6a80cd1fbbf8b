// Query instantiation (§3.4): translate a validated query into a
// deployment plan — which monitors to start and where (via the placement
// algorithms), which OpenFlow mirror rules to install, and how long the
// deployment lives.
#pragma once

#include <optional>

#include "common/expected.hpp"
#include "core/emulation.hpp"
#include "nf/combiner.hpp"
#include "placement/strategies.hpp"
#include "query/semantic.hpp"

namespace netalytics::core {

/// One concrete (from, to) endpoint pair after address resolution. The
/// match fields follow the original query addresses; host nodes guide
/// monitor placement.
struct EndpointPair {
  std::optional<net::Ipv4Prefix> src_prefix;
  std::optional<net::Port> src_port;
  std::optional<net::Ipv4Prefix> dst_prefix;
  std::optional<net::Port> dst_port;
  std::optional<dcn::NodeId> src_host;
  std::optional<dcn::NodeId> dst_host;
};

struct MonitorPlan {
  dcn::NodeId host = 0;
  dcn::NodeId tor = 0;
  std::vector<std::size_t> pair_indices;  // EndpointPairs it monitors
};

struct DeploymentPlan {
  std::vector<EndpointPair> pairs;
  std::vector<MonitorPlan> monitors;
  std::vector<std::string> topics;  // parser topics to run on every monitor
  double initial_sample_rate = 1.0;
  bool auto_sample = false;
  common::Duration duration = 0;    // 0 = unlimited (packet limit or manual)
  std::uint64_t packet_limit = 0;   // 0 = none
  std::vector<query::ProcessorCall> processors;
  /// Per processor: the filter and combiner pushed into every monitor
  /// (stream::pushdown_of), or nullopt when the processor reads raw parser
  /// records. The engine names each pushed topic after the query.
  std::vector<std::optional<nf::CombinerSpec>> pushdowns;

  /// Whether monitors ship `parser`'s raw records: some processor reads
  /// them unpushed, or no pushed combiner folds them.
  bool ships_raw(const std::string& parser) const;
  /// Every topic this plan's monitors produce to (raw parser topics, then
  /// pushed topics) — what its spouts, occupancy and backlog read.
  std::vector<std::string> shipped_topics() const;
};

/// Compile a validated query against the emulation's host table and
/// topology. `strategy` picks the monitor-placement flavour (greedy covers
/// with the fewest monitors).
common::Expected<DeploymentPlan> compile_query(
    const query::ValidatedQuery& vq, const Emulation& emu,
    placement::MonitorStrategy strategy = placement::MonitorStrategy::greedy);

}  // namespace netalytics::core
