// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Primary fingerprint for the dedup index (collision-resistant enough that
// the engine treats fingerprint equality as content equality). Whole blocks
// go through the x86 SHA extensions when the CPU has them, else a portable
// kernel; the choice is made once by cpuid (util/sha256_kernels.hpp).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/digest.hpp"

namespace cloudsync {

/// Incremental SHA-256 hasher; same usage contract as md5_hasher.
class sha256_hasher {
 public:
  sha256_hasher();

  sha256_hasher& update(byte_view data);
  sha256_digest finish();

 private:
  void process_blocks(const std::uint8_t* data, std::size_t blocks);

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
sha256_digest sha256(byte_view data);

}  // namespace cloudsync
