#include "oracle.h"

#include <charconv>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::optional<std::uint8_t> group_code(std::string_view name) {
  for (std::size_t i = 0; i < kGroupNames.size(); ++i) {
    if (kGroupNames[i] == name) return static_cast<std::uint8_t>(i);
  }
  return std::nullopt;
}

std::optional<std::pair<std::uint32_t, std::uint8_t>> parse_prefix(
    std::string_view text) {
  std::uint32_t addr = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int octet = 0; octet < 4; ++octet) {
    unsigned value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc() || next == p || value > 255) return std::nullopt;
    addr = (addr << 8) | value;
    p = next;
    if (octet < 3) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  unsigned len = 32;
  if (p != end) {
    if (*p != '/') return std::nullopt;
    ++p;
    auto [next, ec] = std::from_chars(p, end, len);
    if (ec != std::errc() || next != end || len > 32) return std::nullopt;
  }
  return std::pair{addr, static_cast<std::uint8_t>(len)};
}

std::string format_addr(std::uint32_t addr) {
  return std::to_string(addr >> 24) + "." + std::to_string((addr >> 16) & 255) +
         "." + std::to_string((addr >> 8) & 255) + "." +
         std::to_string(addr & 255);
}

std::string format_prefix(std::uint32_t addr, std::uint8_t len) {
  return format_addr(addr) + "/" + std::to_string(len);
}

namespace {

// One CSV record, honouring quotes that may span lines. False at EOF.
bool read_record(std::istream& in, std::vector<std::string>& fields) {
  fields.assign(1, std::string());
  bool quoted = false;
  bool any = false;
  char c;
  while (in.get(c)) {
    any = true;
    if (quoted) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          fields.back() += '"';
        } else {
          quoted = false;
        }
      } else {
        fields.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
    } else if (c == '\n') {
      return true;
    } else if (c != '\r') {
      fields.back() += c;
    }
  }
  return any;
}

}  // namespace

std::vector<Leaf> read_leaves(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> fields;
  if (!read_record(in, fields) || fields.size() < 4 || fields[0] != "prefix" ||
      fields[2] != "group" || fields[3] != "leased") {
    throw std::runtime_error(path + ": not an inference CSV");
  }
  std::vector<Leaf> leaves;
  std::size_t line = 1;
  while (read_record(in, fields)) {
    ++line;
    if (fields.size() < 4) {
      throw std::runtime_error(path + ":" + std::to_string(line) +
                               ": short row");
    }
    auto prefix = parse_prefix(fields[0]);
    auto group = group_code(fields[2]);
    if (!prefix || !group || (fields[3] != "0" && fields[3] != "1")) {
      throw std::runtime_error(path + ":" + std::to_string(line) +
                               ": bad prefix, group or leased flag");
    }
    leaves.push_back(Leaf{prefix->first, prefix->second, *group,
                          fields[3] == "1", fields[1]});
  }
  return leaves;
}

LpmOracle::LpmOracle(const std::vector<Leaf>& leaves) : leaves_(leaves) {
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const Leaf& leaf = leaves_[i];
    // A later duplicate overwrites an earlier one, as the snapshot does.
    by_len_[leaf.len][leaf.addr & prefix_mask(leaf.len)] =
        static_cast<std::uint32_t>(i);
  }
}

Answer LpmOracle::exact(std::uint32_t addr, std::uint8_t len) const {
  auto it = by_len_[len].find(addr & prefix_mask(len));
  if (it == by_len_[len].end()) return Answer{};
  const Leaf& leaf = leaves_[it->second];
  return Answer{true, leaf.addr & prefix_mask(leaf.len), leaf.len, leaf.group};
}

Answer LpmOracle::longest(std::uint32_t addr, std::uint8_t len) const {
  for (int l = len; l >= 0; --l) {
    Answer hit = exact(addr, static_cast<std::uint8_t>(l));
    if (hit.found) return hit;
  }
  return Answer{};
}

std::vector<Segment> coalesce(const std::vector<std::uint32_t>& epochs,
                              const std::vector<Answer>& answers) {
  std::vector<Segment> segments;
  for (std::size_t i = 0; i < epochs.size() && i < answers.size(); ++i) {
    if (!segments.empty() && segments.back().answer == answers[i]) {
      segments.back().to = epochs[i];
    } else {
      segments.push_back(Segment{epochs[i], epochs[i], answers[i]});
    }
  }
  return segments;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
