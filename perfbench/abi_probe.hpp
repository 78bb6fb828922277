#pragma once

#include <cstddef>

#include "net/packet.hpp"
#include "net/topology.hpp"

namespace perfbench {

/// Sizes that change with the compile definitions the simulator depends
/// on (PacketPool grows debug-only owner fields without NDEBUG).
struct AbiFacts {
  std::size_t packet_pool = 0;
  std::size_t packet_factory = 0;
  std::size_t topology = 0;
  bool ndebug = false;
};

/// The calling translation unit's view.
inline AbiFacts local_abi() noexcept {
  AbiFacts f;
  f.packet_pool = sizeof(mvpn::net::PacketPool);
  f.packet_factory = sizeof(mvpn::net::PacketFactory);
  f.topology = sizeof(mvpn::net::Topology);
#ifdef NDEBUG
  f.ndebug = true;
#endif
  return f;
}

/// The simulator library's view (abi_probe.cpp, compiled into mvpn_net).
AbiFacts library_abi() noexcept;

}  // namespace perfbench
