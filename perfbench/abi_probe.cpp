// Layout facts as the simulator libraries were compiled. The benchmark's
// CMakeLists adds this file to mvpn_net, so it is built with that
// library's flags and definitions; the driver compares the answer with
// its own compile-time view (abi_probe.hpp) before running anything.
#include "abi_probe.hpp"

namespace perfbench {

AbiFacts library_abi() noexcept { return local_abi(); }

}  // namespace perfbench
