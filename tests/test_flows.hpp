#pragma once

// Shorthand for the point-to-point traffic most tests drive.

#include <cstdint>

#include "traffic/flowset.hpp"

namespace mvpn::testutil {

/// Register `from` (host `src`) and `to` (host `dst`) on `fs` and return a
/// CBR FlowDef for flow `id` at `rate_bps` between them; callers adjust
/// the remaining fields and add_flow() it.
inline traffic::FlowSet::FlowDef flow_between(traffic::FlowSet& fs,
                                              std::uint32_t id,
                                              vpn::Router& from,
                                              const char* src,
                                              vpn::Router& to,
                                              const char* dst,
                                              double rate_bps,
                                              vpn::VpnId vpn) {
  traffic::FlowSet::FlowDef d;
  d.flow_id = id;
  d.from_site = fs.add_site(from, ip::Ipv4Address::must_parse(src));
  d.to_site = fs.add_site(to, ip::Ipv4Address::must_parse(dst));
  d.rate_bps = rate_bps;
  d.vpn = vpn;
  return d;
}

}  // namespace mvpn::testutil
