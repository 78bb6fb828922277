#include "mpls/domain.hpp"

namespace mvpn::mpls {

std::size_t MplsDomain::total_labels() const {
  std::size_t n = 0;
  for (const auto& st : states_) {
    if (st) n += st->allocator.allocated_count();
  }
  return n;
}

std::size_t MplsDomain::total_lfib_entries() const {
  std::size_t n = 0;
  for (const auto& st : states_) {
    if (st) n += st->lfib.size();
  }
  return n;
}

}  // namespace mvpn::mpls
