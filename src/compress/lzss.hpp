// LZSS dictionary compressor, implemented from scratch.
//
// Greedy/lazy hash-chain matcher over a 64 KiB sliding window. The encoded
// stream is flag-grouped: one control byte per 8 tokens, each token either a
// literal byte or a (offset, length) back-reference.
//
// The `level` knob (0-9) trades CPU for ratio exactly like zlib's: it bounds
// the hash-chain walk and enables lazy matching at higher levels. Level 0
// stores the input uncompressed (used to model services that upload raw).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace cloudsync {

struct lzss_params {
  int level = 6;  ///< 0 = store, 1 = fastest, 9 = best ratio.
};

/// Compress `input` into a self-describing frame (magic, original size,
/// token stream, CRC-32 trailer).
byte_buffer lzss_compress(byte_view input, lzss_params params = {});

/// Decompress a frame produced by lzss_compress.
/// Throws std::runtime_error on malformed input or CRC mismatch.
byte_buffer lzss_decompress(byte_view frame);

/// Cheap compressibility probe: compresses up to `sample_budget` bytes of
/// evenly spaced windows and returns the estimated ratio original/compressed
/// (>= 1.0 means compressible).
double estimate_compression_ratio(byte_view input,
                                  std::size_t sample_budget = 64 * 1024);

/// The window layout the probe samples for a `size`-byte input: the whole
/// input when it fits the budget, otherwise 8 evenly spaced budget/8-byte
/// windows. Exposed so non-contiguous representations (ropes, streamed delta
/// wire) can be probed with the identical layout and therefore return the
/// identical estimate.
struct sample_window {
  std::size_t offset = 0;
  std::size_t length = 0;
};
std::vector<sample_window> compression_sample_windows(
    std::size_t size, std::size_t sample_budget);

/// Shared probe core: ratio sum(in) / max(1, sum(out)) over level-5
/// compressions of the sampled windows. estimate_compression_ratio ==
/// estimate_ratio_of_windows over compression_sample_windows' views.
double estimate_ratio_of_windows(const std::vector<byte_view>& windows);

/// Exact streamed frame sizing: feed the input in windows of any size and
/// finish() returns precisely lzss_compress(concatenation, params).size() —
/// including the stored-frame fallback — while holding O(1) state instead of
/// the input: a linear history window of min(input, 256 KiB) that slides
/// when full, and 32-bit hash chains (~0.6 MB in all). This is how
/// multi-GB upload payloads are priced without ever being flat in memory.
class lzss_stream_sizer {
 public:
  /// The total input size must be known up front (frame headers and
  /// end-of-input match limits depend on it).
  explicit lzss_stream_sizer(std::uint64_t total_size, lzss_params params = {});

  void feed(byte_view window);
  /// Throws std::logic_error unless exactly total_size bytes were fed.
  std::uint64_t finish();

 private:
  struct match {
    std::size_t length = 0;
    std::size_t distance = 0;
  };

  const std::uint8_t* at(std::uint64_t pos) const {
    return win_.data() + (pos - base_);
  }
  match find(std::uint64_t pos, std::uint32_t hash) const;
  void insert(std::uint64_t pos, std::uint32_t hash);
  void insert(std::uint64_t pos);
  void drain(bool final_window);
  void slide();
  void count_token(bool is_match);

  std::uint64_t total_;
  bool stored_only_;       ///< level <= 0 or input too short: pure stored frame
  std::size_t max_chain_ = 0;
  std::size_t nice_len_ = 0;
  std::size_t accept_len_ = 0;
  bool lazy_ = false;

  /// Input bytes [base_, fed_), at win_[0 .. fed_ - base_).
  byte_buffer win_;
  /// Chain links are positions relative to base_, plus one (0 = no link);
  /// slide() rebases them, so inputs of any size fit 32 bits.
  std::vector<std::uint32_t> head_;  ///< hash -> most recent position
  std::vector<std::uint32_t> prev_;  ///< position mod 64 KiB -> older one
  std::uint64_t base_ = 0;           ///< absolute position of win_[0]
  std::uint64_t fed_ = 0;            ///< absolute write position
  std::uint64_t pos_ = 0;            ///< absolute scan position
  std::uint64_t out_ = 0;            ///< counted frame bytes so far
  unsigned bit_ = 8;                 ///< token slot within the open flag byte
  /// Lazy matching found a better match at pos_ + 1 and deferred to it:
  /// this is find(pos_) already, with its hash.
  bool deferred_ = false;
  match deferred_match_;
  std::uint32_t deferred_hash_ = 0;
  bool finished_ = false;
};

}  // namespace cloudsync
