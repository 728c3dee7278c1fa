// The digest the golden tests fold a run into: FNV-1a over the
// little-endian bytes of each folded value, doubles as their bit patterns,
// so any change to any folded bit changes the digest.

#pragma once

#include <cstdint>
#include <cstring>

#include "util/stats.h"

namespace sqs {

class Digest {
 public:
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void i64(long x) { u64(static_cast<std::uint64_t>(x)); }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void stat(const RunningStat& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace sqs
