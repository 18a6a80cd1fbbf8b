#include "core/compiler.hpp"

#include <map>

#include "common/rng.hpp"
#include "stream/processors.hpp"

namespace netalytics::core {

namespace {

common::Error err(std::string message) {
  return common::Error{"compile", std::move(message)};
}

/// A resolved address: concrete bound endpoints (host node + the IP that
/// matched) plus the match fields. An `any` address resolves to an empty
/// endpoint list and no match restriction.
struct Resolved {
  struct HostIp {
    dcn::NodeId node;
    net::Ipv4Addr ip;
  };
  std::vector<HostIp> hosts;
  std::optional<net::Ipv4Prefix> prefix;
  std::optional<net::Port> port;
  bool is_any = false;
};

common::Expected<Resolved> resolve(const query::Address& addr, const Emulation& emu) {
  Resolved r;
  r.port = addr.port;
  switch (addr.kind) {
    case query::Address::Kind::any:
      r.is_any = true;
      return r;
    case query::Address::Kind::hostname: {
      const auto ip = emu.ip_of_name(addr.text);
      if (!ip) return err("unknown hostname '" + addr.text + "'");
      r.prefix = net::Ipv4Prefix{*ip, 32};
      r.hosts = {{*emu.node_of_ip(*ip), *ip}};
      return r;
    }
    case query::Address::Kind::ip: {
      r.prefix = addr.prefix;
      const auto node = emu.node_of_ip(addr.prefix->addr);
      if (!node) {
        return err("ip " + net::format_ipv4(addr.prefix->addr) +
                   " is not bound to any host");
      }
      r.hosts = {{*node, addr.prefix->addr}};
      return r;
    }
    case query::Address::Kind::subnet: {
      r.prefix = addr.prefix;
      for (const auto& [node, ip] : emu.endpoints_in_prefix(*addr.prefix)) {
        r.hosts.push_back({node, ip});
      }
      if (r.hosts.empty()) {
        return err("subnet " + net::format_ipv4_prefix(*addr.prefix) +
                   " contains no bound hosts");
      }
      return r;
    }
  }
  return err("unreachable address kind");
}

}  // namespace

bool DeploymentPlan::ships_raw(const std::string& parser) const {
  bool folded = false;
  for (const auto& push : pushdowns) {
    if (!push) return true;
    folded = folded || push->parser == parser;
  }
  return !folded;
}

std::vector<std::string> DeploymentPlan::shipped_topics() const {
  std::vector<std::string> out;
  for (const auto& topic : topics) {
    if (ships_raw(topic)) out.push_back(topic);
  }
  for (const auto& push : pushdowns) {
    if (push) out.push_back(push->topic);
  }
  return out;
}

common::Expected<DeploymentPlan> compile_query(const query::ValidatedQuery& vq,
                                               const Emulation& emu,
                                               placement::MonitorStrategy strategy) {
  DeploymentPlan plan;
  plan.topics = vq.topics;
  plan.processors = vq.query.processors;
  for (const auto& call : plan.processors) {
    stream::ProcessorParams params;
    params.args = call.args;
    plan.pushdowns.push_back(stream::pushdown_of(call.name, params, plan.topics));
  }

  switch (vq.query.sample.mode) {
    case query::SampleSpec::Mode::disabled:
      plan.initial_sample_rate = 1.0;
      break;
    case query::SampleSpec::Mode::fixed:
      plan.initial_sample_rate = vq.query.sample.rate;
      break;
    case query::SampleSpec::Mode::automatic:
      plan.initial_sample_rate = 1.0;
      plan.auto_sample = true;
      break;
  }
  if (vq.query.limit.kind == query::LimitSpec::Kind::duration) {
    plan.duration = vq.query.limit.duration;
  } else if (vq.query.limit.kind == query::LimitSpec::Kind::packets) {
    plan.packet_limit = vq.query.limit.packets;
  }

  // Resolve FROM/TO address lists; an absent clause acts as a single "*".
  std::vector<Resolved> from, to;
  for (const auto& a : vq.query.from) {
    auto r = resolve(a, emu);
    if (!r) return r.error();
    from.push_back(std::move(*r));
  }
  for (const auto& a : vq.query.to) {
    auto r = resolve(a, emu);
    if (!r) return r.error();
    to.push_back(std::move(*r));
  }
  Resolved any;
  any.is_any = true;
  if (from.empty()) from.push_back(any);
  if (to.empty()) to.push_back(any);

  // Cross product, expanding subnets to their bound hosts so each pair has
  // concrete endpoints for placement. Expanded pairs match at /32
  // granularity so no two monitors mirror the same flow.
  using MaybeEndpoint = std::optional<Resolved::HostIp>;
  const auto endpoints_of = [](const Resolved& r) {
    std::vector<MaybeEndpoint> v;
    if (r.is_any) {
      v.emplace_back(std::nullopt);
    } else {
      for (const auto& h : r.hosts) v.emplace_back(h);
    }
    return v;
  };
  for (const auto& f : from) {
    for (const auto& t : to) {
      if (f.is_any && t.is_any) continue;  // rejected by semantic analysis
      for (const auto& src : endpoints_of(f)) {
        for (const auto& dst : endpoints_of(t)) {
          EndpointPair pair;
          pair.src_port = f.port;
          pair.dst_port = t.port;
          if (src) {
            pair.src_host = src->node;
            pair.src_prefix = net::Ipv4Prefix{src->ip, 32};
          }
          if (dst) {
            pair.dst_host = dst->node;
            pair.dst_prefix = net::Ipv4Prefix{dst->ip, 32};
          }
          plan.pairs.push_back(pair);
        }
      }
    }
  }
  if (plan.pairs.empty()) return err("query matches no traffic");

  // Monitor placement over the pairs, reusing Algorithm 1. Each pair acts
  // as one "flow" with unit rate; pairs missing one endpoint anchor on the
  // known side.
  std::vector<dcn::Flow> flows;
  flows.reserve(plan.pairs.size());
  for (const auto& pair : plan.pairs) {
    dcn::Flow flow;
    flow.src_host = pair.src_host.value_or(pair.dst_host.value_or(0));
    flow.dst_host = pair.dst_host.value_or(pair.src_host.value_or(0));
    flow.rate_bps = 1.0;
    flows.push_back(flow);
  }

  dcn::Topology scratch = emu.topology();  // placement consumes resources
  common::Rng rng(0xdeadbeef);
  placement::ProcessSpec spec;
  placement::Placement placement;
  placement::place_monitors(scratch, flows, spec, strategy, rng, placement);

  std::map<int, std::size_t> monitor_index;  // placement process -> plan index
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const int m = placement.flow_to_monitor[f];
    if (m < 0) continue;
    auto it = monitor_index.find(m);
    if (it == monitor_index.end()) {
      MonitorPlan mp;
      mp.host = placement.processes[m].host;
      mp.tor = emu.topology().tor_of_host(mp.host);
      it = monitor_index.emplace(m, plan.monitors.size()).first;
      plan.monitors.push_back(std::move(mp));
    }
    plan.monitors[it->second].pair_indices.push_back(f);
  }
  if (plan.monitors.empty()) return err("no monitor placement found");
  return plan;
}

}  // namespace netalytics::core
