#pragma once

// Readers for the checked-in reference outputs under tests/golden/ (the
// README there names the command behind each file). MVPN_GOLDEN_DIR is
// set by the build to that directory.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace mvpn::golden {

inline std::string path(const std::string& file) {
  return std::string(MVPN_GOLDEN_DIR) + "/" + file;
}

/// Every byte of the file at `full_path`; empty when it cannot be read.
inline std::string slurp(const std::string& full_path) {
  std::ifstream in(full_path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The whole golden file; empty when it cannot be read.
inline std::string read_text(const std::string& file) {
  return slurp(path(file));
}

/// The fields after `key` on the row of a whitespace-separated table file
/// whose first field is `key` ('#' lines are comments); empty when absent.
inline std::vector<std::string> row(const std::string& file,
                                    const std::string& key) {
  std::ifstream in(path(file));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first) || first != key) continue;
    std::vector<std::string> out;
    for (std::string f; fields >> f;) out.push_back(f);
    return out;
  }
  return {};
}

/// 64-bit FNV-1a over the little-endian bytes of each value — the digest
/// every fingerprint in the golden tables uses.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void mix_bytes(const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// FNV-1a over every byte of `bytes` — the digest streams.txt holds.
inline std::string fnv_bytes(const std::string& bytes) {
  Fnv f;
  f.mix_bytes(bytes);
  return f.hex();
}

/// Empty when `bytes` matches row `key` of streams.txt (digest, length);
/// otherwise what differs.
inline std::string stream_mismatch(const std::string& key,
                                   const std::string& bytes) {
  const std::vector<std::string> want = row("streams.txt", key);
  const std::string got = fnv_bytes(bytes) + " " + std::to_string(bytes.size());
  if (want.size() == 2 && got == want[0] + " " + want[1]) return "";
  return key + ": got " + got + ", want " +
         (want.size() == 2 ? want[0] + " " + want[1] : "no row");
}

/// `json` (a metrics.json snapshot series) without the `"node/..."`
/// entries whose name contains `part`; every other byte is kept.
inline std::string strip_node_gauges(const std::string& json,
                                     const std::string& part) {
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t key = json.find("\"node/", pos);
    if (key == std::string::npos) {
      out.append(json, pos, std::string::npos);
      break;
    }
    const std::size_t key_end = json.find('"', key + 1);
    const std::size_t entry_end = json.find_first_of(",}", key_end);
    const std::string name = json.substr(key, key_end - key);
    if (name.find(part) != std::string::npos) {
      out.append(json, pos, key - pos);
      pos = entry_end + (json[entry_end] == ',' ? 1 : 0);
    } else {
      out.append(json, pos, entry_end - pos);
      pos = entry_end;
    }
  }
  return out;
}

/// Fold one speaker's Loc-RIB into `f`: the node id, then each route's
/// key and attributes in Loc-RIB order. The fingerprints in loc_rib.txt
/// fold every speaker this way, in node order.
template <typename Route>
void mix_loc_rib(Fnv& f, std::uint64_t node, const std::vector<Route>& rib) {
  f.mix(node);
  for (const Route& r : rib) {
    f.mix((std::uint64_t{r.rd.asn} << 32) | r.rd.assigned);
    f.mix((std::uint64_t{r.prefix.address().value()} << 8) |
          r.prefix.length());
    f.mix(r.next_hop.value());
    f.mix(r.next_hop_node);
    f.mix(r.vpn_label);
    f.mix(r.local_pref);
    f.mix(r.originator);
    for (const auto& rt : r.route_targets) {
      f.mix((std::uint64_t{rt.asn} << 32) | rt.assigned);
    }
  }
}

}  // namespace mvpn::golden
