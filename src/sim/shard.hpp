#pragma once

#include <cstdint>

namespace mvpn::sim {

/// Shard identity of the calling thread.
///
/// The parallel engine partitions a topology into K shards, each driven by
/// its own Scheduler on its own thread. Components that were written
/// against one ambient scheduler (links, routers, sources) keep their code
/// shape: Topology's accessors consult the calling thread's shard id and
/// hand back that shard's scheduler / packet factory / recorder. The
/// thread driving the engine carries shard 0 while it runs lane 0's slice
/// and kNoShard between windows (as does every thread in a plain serial
/// run), which routes the accessors to the original serial objects.
inline constexpr std::uint32_t kNoShard = ~std::uint32_t{0};

namespace detail {
inline thread_local std::uint32_t tls_shard_id = kNoShard;
}  // namespace detail

/// Shard id of the calling thread; kNoShard outside a lane's slice.
[[nodiscard]] inline std::uint32_t current_shard() noexcept {
  return detail::tls_shard_id;
}

/// RAII: mark the calling thread as belonging to shard `id` for the guard's
/// lifetime. Peer threads install one for their whole run, the engine's
/// calling thread one per slice of lane 0; tests may nest.
class ShardGuard {
 public:
  explicit ShardGuard(std::uint32_t id) noexcept
      : previous_(detail::tls_shard_id) {
    detail::tls_shard_id = id;
  }
  ~ShardGuard() { detail::tls_shard_id = previous_; }

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  std::uint32_t previous_;
};

}  // namespace mvpn::sim
