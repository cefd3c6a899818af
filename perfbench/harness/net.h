// A blocking loopback client written from the protocol documentation
// (docs/SERVING.md): newline-terminated text requests with one-line JSON
// answers, and 20-byte little-endian binary frame headers carrying LPM or
// exact batches. Kept apart from the program's own client so the client
// side of every measured round trip is fixed across commits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "oracle.h"

namespace perfbench {

inline constexpr std::uint32_t kFrameMagic = 0x544C42B5u;
inline constexpr std::size_t kFrameHeader = 20;
inline constexpr std::size_t kResultBytes = 8;
/// Seconds without an expected answer after which a run gives up.
inline constexpr int kStallSeconds = 30;

class Conn {
 public:
  /// Connect to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(std::string_view bytes);
  /// Next response line without its newline; throws on EOF.
  std::string read_line();
  /// Exactly n bytes; throws on EOF.
  std::string read_exact(std::size_t n);
  /// Whether a full line is already buffered (no syscall).
  bool line_buffered() const;
  /// Whether a whole binary frame (header + payload) is buffered.
  bool frame_buffered() const;
  /// Read whatever the socket has without blocking; false on EOF.
  bool fill_nonblocking();
  int fd() const { return fd_; }

 private:
  bool fill(bool block);
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Opcode 1 (LPM batch) or 2 (exact batch) request frame.
std::string encode_lpm_frame(std::uint32_t request_id, std::uint32_t epoch,
                             const std::uint32_t* addrs, std::size_t count);
std::string encode_exact_frame(std::uint32_t request_id, std::uint32_t epoch,
                               const std::vector<Leaf>& leaves,
                               std::size_t first, std::size_t count);

struct FrameReply {
  std::uint8_t opcode = 0;
  std::uint8_t status = 0;
  std::uint32_t request_id = 0;
  std::uint32_t epoch = 0;
  std::string payload;
};
/// Read one response frame; throws on bad magic or EOF.
FrameReply read_frame(Conn& conn);

/// Decode result entry i of an ok payload into an Answer.
Answer decode_result(const std::string& payload, std::size_t i,
                     bool* leased_flag = nullptr);

/// Raw value of the first `"key":` (at any depth) in a one-line JSON
/// object: string contents unquoted, other tokens verbatim. nullopt if
/// absent.
std::optional<std::string> json_field(std::string_view json,
                                      std::string_view key);

/// Parse a text EXACT/LPM answer into an Answer (+ the "leased" flag).
/// nullopt if it is an error object or unparseable.
std::optional<Answer> parse_text_answer(std::string_view json,
                                        bool* leased = nullptr);

/// Parse a HISTORY answer's segments (nullopt on an error object).
std::optional<std::vector<Segment>> parse_history(std::string_view json);

}  // namespace perfbench
