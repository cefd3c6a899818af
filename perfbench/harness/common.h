// Shared helpers of the benchmark harness: clocks, a seeded generator
// that does not depend on the program's own RNG, a flat argument parser
// and a one-level JSON object writer for results.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// SplitMix64: tiny, seedable, and stable across platforms and compilers,
/// so a seed names the same request schedule everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) over ranks [0, n) by inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(std::size_t n, double alpha) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// `--key value` pairs after the subcommand; `--flag` alone maps to "1".
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::runtime_error("unexpected argument " + key);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  double num(const std::string& key, double fallback) const {
    return has(key) ? num(key) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Flat JSON object: numbers, booleans and strings, in insertion order.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value) {
    std::ostringstream s;
    s.precision(17);
    s << value;
    return raw(key, std::isfinite(value) ? s.str() : "null");
  }
  JsonOut& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonOut& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  std::string take() const { return "{" + body_ + "}"; }

 private:
  JsonOut& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Sorted-copy quantile with linear interpolation; q in [0, 1].
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
