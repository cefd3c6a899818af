// The benchmark's own answer key. Everything here is written apart from
// the program: it reads the inference CSV with its own parser, answers
// longest-prefix matches by probing one hash map per prefix length (the
// obviously-correct method, with no trie), and coalesces HISTORY replays
// itself. The served answers are checked against it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Group labels in the order of their one-byte wire code (the binary
/// protocol carries the raw code; docs/SERVING.md).
inline constexpr std::array<std::string_view, 6> kGroupNames = {
    "unused",     "aggregated-customer", "isp-customer",
    "leased(g3)", "delegated-customer",  "leased(g4)"};

std::optional<std::uint8_t> group_code(std::string_view name);
inline bool group_leased(std::uint8_t code) { return code == 3 || code == 5; }

std::optional<std::pair<std::uint32_t, std::uint8_t>> parse_prefix(
    std::string_view text);
std::string format_addr(std::uint32_t addr);
std::string format_prefix(std::uint32_t addr, std::uint8_t len);
inline std::uint32_t prefix_mask(std::uint8_t len) {
  return len == 0 ? 0u : ~0u << (32 - len);
}

/// One leaf of an inference CSV (only the columns the checks compare).
struct Leaf {
  std::uint32_t addr = 0;
  std::uint8_t len = 0;
  std::uint8_t group = 0;
  bool leased = false;
  std::string rir;
};

/// Parse an inference CSV (header + rows; RFC 4180 quoting). Throws
/// std::runtime_error on a malformed row or unknown group label.
std::vector<Leaf> read_leaves(const std::string& path);

struct Answer {
  bool found = false;
  std::uint32_t addr = 0;
  std::uint8_t len = 0;
  std::uint8_t group = 0;
  bool operator==(const Answer&) const = default;
};

class LpmOracle {
 public:
  explicit LpmOracle(const std::vector<Leaf>& leaves);
  /// Most specific leaf covering addr/len (an exact leaf included).
  Answer longest(std::uint32_t addr, std::uint8_t len = 32) const;
  /// The leaf stored exactly at addr/len.
  Answer exact(std::uint32_t addr, std::uint8_t len) const;
  const std::vector<Leaf>& leaves() const { return leaves_; }

 private:
  std::vector<Leaf> leaves_;
  std::array<std::unordered_map<std::uint32_t, std::uint32_t>, 33> by_len_;
};

/// One run of identical answers across consecutive epochs.
struct Segment {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  Answer answer;
  bool operator==(const Segment&) const = default;
};

/// Coalesce per-epoch answers (oldest first) into segments: a new segment
/// starts whenever found/prefix/group differ from the previous epoch's.
std::vector<Segment> coalesce(const std::vector<std::uint32_t>& epochs,
                              const std::vector<Answer>& answers);

/// FNV-1a over a byte string; the request-schedule digest.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 0);

}  // namespace perfbench
