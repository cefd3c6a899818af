#include "net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::string frame_header(std::uint8_t opcode, std::uint32_t request_id,
                         std::uint32_t payload_len, std::uint32_t epoch) {
  std::string out;
  out.reserve(kFrameHeader + payload_len);
  put_u32(out, kFrameMagic);
  out += static_cast<char>(opcode);
  out += '\0';  // status
  out += '\0';  // reserved
  out += '\0';
  put_u32(out, request_id);
  put_u32(out, payload_len);
  put_u32(out, epoch);
  return out;
}

}  // namespace

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect: " + std::string(strerror(err)));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A server that stops answering fails the run instead of hanging it.
  timeval timeout{kStallSeconds, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool Conn::fill(bool block) {
  if (pos_ > 0) {  // drop consumed bytes; at most a partial answer remains
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (!block && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    throw std::runtime_error("recv: " + std::string(strerror(errno)));
  }
}

bool Conn::fill_nonblocking() { return fill(false); }

bool Conn::line_buffered() const {
  return buf_.find('\n', pos_) != std::string::npos;
}

bool Conn::frame_buffered() const {
  std::size_t have = buf_.size() - pos_;
  return have >= kFrameHeader &&
         have >= kFrameHeader + get_u32(buf_.data() + pos_ + 12);
}

std::string Conn::read_line() {
  for (;;) {
    std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      return line;
    }
    if (!fill(true)) throw std::runtime_error("connection closed");
  }
}

std::string Conn::read_exact(std::size_t n) {
  while (buf_.size() - pos_ < n) {
    if (!fill(true)) throw std::runtime_error("connection closed");
  }
  std::string out = buf_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::string encode_lpm_frame(std::uint32_t request_id, std::uint32_t epoch,
                             const std::uint32_t* addrs, std::size_t count) {
  std::string out = frame_header(1, request_id,
                                 static_cast<std::uint32_t>(count * 4), epoch);
  for (std::size_t i = 0; i < count; ++i) put_u32(out, addrs[i]);
  return out;
}

std::string encode_exact_frame(std::uint32_t request_id, std::uint32_t epoch,
                               const std::vector<Leaf>& leaves,
                               std::size_t first, std::size_t count) {
  std::string out = frame_header(2, request_id,
                                 static_cast<std::uint32_t>(count * 8), epoch);
  for (std::size_t i = first; i < first + count; ++i) {
    put_u32(out, leaves[i].addr);
    out += static_cast<char>(leaves[i].len);
    out.append(3, '\0');
  }
  return out;
}

FrameReply read_frame(Conn& conn) {
  std::string header = conn.read_exact(kFrameHeader);
  if (get_u32(header.data()) != kFrameMagic) {
    throw std::runtime_error("bad frame magic in response");
  }
  FrameReply reply;
  reply.opcode = static_cast<std::uint8_t>(header[4]);
  reply.status = static_cast<std::uint8_t>(header[5]);
  reply.request_id = get_u32(header.data() + 8);
  std::uint32_t len = get_u32(header.data() + 12);
  reply.epoch = get_u32(header.data() + 16);
  reply.payload = conn.read_exact(len);
  return reply;
}

Answer decode_result(const std::string& payload, std::size_t i,
                     bool* leased_flag) {
  const char* p = payload.data() + i * kResultBytes;
  auto len = static_cast<std::uint8_t>(p[4]);
  if (leased_flag) *leased_flag = (static_cast<std::uint8_t>(p[6]) & 1) != 0;
  if (len == 0xFF) return Answer{};
  return Answer{true, get_u32(p), len, static_cast<std::uint8_t>(p[5])};
}

std::optional<std::string> json_field(std::string_view json,
                                      std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t p = at + needle.size();
  if (p < json.size() && json[p] == '"') {
    std::string out;
    for (++p; p < json.size() && json[p] != '"'; ++p) {
      if (json[p] == '\\' && p + 1 < json.size()) ++p;
      out += json[p];
    }
    return out;
  }
  std::size_t end = json.find_first_of(",}]", p);
  return std::string(json.substr(p, end == std::string_view::npos
                                        ? std::string_view::npos
                                        : end - p));
}

namespace {

std::optional<Answer> answer_from(std::string_view obj, bool* leased) {
  auto found = json_field(obj, "found");
  if (!found) return std::nullopt;
  if (*found == "false") {
    if (leased) *leased = false;
    return Answer{};
  }
  auto prefix = json_field(obj, "prefix");
  auto group = json_field(obj, "group");
  auto leased_text = json_field(obj, "leased");
  if (*found != "true" || !prefix || !group || !leased_text) return std::nullopt;
  auto parsed = parse_prefix(*prefix);
  auto code = group_code(*group);
  if (!parsed || !code) return std::nullopt;
  if (leased) *leased = *leased_text == "true";
  return Answer{true, parsed->first, parsed->second, *code};
}

}  // namespace

std::optional<Answer> parse_text_answer(std::string_view json, bool* leased) {
  if (json.find("\"error\"") != std::string_view::npos) return std::nullopt;
  return answer_from(json, leased);
}

std::optional<std::vector<Segment>> parse_history(std::string_view json) {
  std::size_t at = json.find("\"segments\":[");
  if (at == std::string_view::npos) return std::nullopt;
  std::vector<Segment> segments;
  std::size_t p = at;
  for (;;) {
    std::size_t open = json.find('{', p);
    std::size_t close_arr = json.find(']', p);
    if (open == std::string_view::npos || close_arr < open) break;
    std::size_t close = json.find('}', open);
    if (close == std::string_view::npos) return std::nullopt;
    std::string_view obj = json.substr(open, close - open + 1);
    auto from = json_field(obj, "from_epoch");
    auto to = json_field(obj, "to_epoch");
    bool leased = false;
    auto answer = answer_from(obj, &leased);
    if (!from || !to || !answer) return std::nullopt;
    if (answer->found && leased != group_leased(answer->group)) {
      return std::nullopt;
    }
    segments.push_back(Segment{static_cast<std::uint32_t>(std::stoul(*from)),
                               static_cast<std::uint32_t>(std::stoul(*to)),
                               *answer});
    p = close + 1;
  }
  return segments;
}

}  // namespace perfbench
