#include "compress/lzss.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "compress/varint.hpp"
#include "util/crc32.hpp"

namespace cloudsync {

namespace {

constexpr std::uint8_t kMagic0 = 'c';
constexpr std::uint8_t kMagic1 = 'z';
constexpr std::uint8_t kFormatStored = 0;
constexpr std::uint8_t kFormatLzss = 1;

constexpr std::size_t kWindowSize = 64 * 1024;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;  // length fits one byte
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

struct level_config {
  std::size_t max_chain;  ///< How many previous positions to examine.
  std::size_t nice_len;   ///< Stop searching once a match this long is found.
  bool lazy;              ///< Defer one byte to look for a better match.
  std::size_t accept_len; ///< Shortest match worth emitting (>= kMinMatch).
                          ///< Low levels skip short matches entirely — the
                          ///< "quite low" compression of mobile clients.
};

level_config config_for(int level) {
  switch (std::clamp(level, 1, 9)) {
    case 1: return {2, 16, false, 8};
    case 2: return {4, 24, false, 7};
    case 3: return {16, 32, false, kMinMatch};
    case 4: return {24, 48, false, kMinMatch};
    case 5: return {32, 64, true, kMinMatch};
    case 6: return {64, 96, true, kMinMatch};
    case 7: return {128, 128, true, kMinMatch};
    case 8: return {256, 192, true, kMinMatch};
    default: return {1024, kMaxMatch, true, kMinMatch};
  }
}

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Hash-chain match finder over the input. Chain links are 32-bit (inputs
/// are bounded by the simulator's 2 GiB file cap, and in practice by the
/// 2 MiB fleet clamp) and the head/prev arrays live in thread-local scratch
/// reused across calls, so a compression call costs zero heap allocations
/// after warm-up. `prev_` needs no clearing: chains are only entered through
/// `head_`, and every reachable `prev_` slot was written by insert().
class match_finder {
 public:
  match_finder(byte_view input, const level_config& cfg)
      : input_(input), cfg_(cfg), head_(scratch_head()),
        prev_(scratch_prev(input.size())) {
    head_.assign(kHashSize, kNone);
  }

  struct match {
    std::size_t length = 0;
    std::size_t distance = 0;
  };

  /// Best match at `pos` against the preceding window.
  match find(std::size_t pos) const {
    match best;
    if (pos + kMinMatch > input_.size()) return best;
    const std::size_t limit =
        pos >= kWindowSize ? pos - kWindowSize : 0;
    const std::size_t max_len = std::min(kMaxMatch, input_.size() - pos);
    std::uint32_t cand = head_[hash4(input_.data() + pos)];
    std::size_t chain = cfg_.max_chain;
    while (cand != kNone && cand >= limit && chain-- > 0 &&
           best.length < max_len) {
      // Quick reject: check the byte just past the current best.
      if (best.length == 0 ||
          input_[cand + best.length] == input_[pos + best.length]) {
        std::size_t len = 0;
        while (len < max_len && input_[cand + len] == input_[pos + len]) {
          ++len;
        }
        if (len > best.length) {
          best.length = len;
          best.distance = pos - cand;
          if (len >= cfg_.nice_len) break;
        }
      }
      cand = prev_[cand];
    }
    if (best.length < cfg_.accept_len) best = {};
    return best;
  }

  /// Register position `pos` in the hash chains.
  void insert(std::size_t pos) {
    if (pos + 4 > input_.size()) return;
    const std::uint32_t h = hash4(input_.data() + pos);
    prev_[pos] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  static std::vector<std::uint32_t>& scratch_head() {
    thread_local std::vector<std::uint32_t> head;
    return head;
  }
  static std::vector<std::uint32_t>& scratch_prev(std::size_t n) {
    thread_local std::vector<std::uint32_t> prev;
    if (prev.size() < n) prev.resize(n);
    return prev;
  }

  byte_view input_;
  const level_config& cfg_;
  std::vector<std::uint32_t>& head_;
  std::vector<std::uint32_t>& prev_;
};

/// Token emitter with one flag byte per 8 tokens (bit set = match).
class token_writer {
 public:
  explicit token_writer(byte_buffer& out) : out_(out) {}

  void literal(std::uint8_t b) {
    begin_token(false);
    out_.push_back(b);
  }

  void match(std::size_t distance, std::size_t length) {
    begin_token(true);
    out_.push_back(static_cast<std::uint8_t>(distance - 1));
    out_.push_back(static_cast<std::uint8_t>((distance - 1) >> 8));
    out_.push_back(static_cast<std::uint8_t>(length - kMinMatch));
  }

 private:
  void begin_token(bool is_match) {
    if (bit_ == 8) {
      flag_pos_ = out_.size();
      out_.push_back(0);
      bit_ = 0;
    }
    if (is_match) out_[flag_pos_] |= static_cast<std::uint8_t>(1u << bit_);
    ++bit_;
  }

  byte_buffer& out_;
  std::size_t flag_pos_ = 0;
  unsigned bit_ = 8;
};

byte_buffer make_stored_frame(byte_view input) {
  byte_buffer out;
  out.reserve(input.size() + 16);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatStored);
  put_varint(out, input.size());
  append(out, input);
  const std::uint32_t crc = crc32(input);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

}  // namespace

byte_buffer lzss_compress(byte_view input, lzss_params params) {
  if (params.level <= 0 || input.size() < kMinMatch + 4) {
    return make_stored_frame(input);
  }
  const level_config cfg = config_for(params.level);

  byte_buffer out;
  out.reserve(input.size() / 2 + 32);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatLzss);
  put_varint(out, input.size());

  match_finder finder(input, cfg);
  token_writer writer(out);

  std::size_t pos = 0;
  while (pos < input.size()) {
    match_finder::match cur = finder.find(pos);
    if (cur.length >= kMinMatch) {
      if (cfg.lazy && pos + 1 < input.size()) {
        finder.insert(pos);
        const match_finder::match next = finder.find(pos + 1);
        if (next.length > cur.length + 1) {
          // The deferred match is better: emit a literal and continue from
          // pos+1 where the loop will rediscover `next`.
          writer.literal(input[pos]);
          ++pos;
          continue;
        }
      } else {
        finder.insert(pos);
      }
      writer.match(cur.distance, cur.length);
      // Register the covered positions so later matches can reference them.
      for (std::size_t i = 1; i < cur.length; ++i) finder.insert(pos + i);
      pos += cur.length;
    } else {
      finder.insert(pos);
      writer.literal(input[pos]);
      ++pos;
    }
  }

  const std::uint32_t crc = crc32(input);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }

  // If the "compressed" stream expanded, fall back to a stored frame: the
  // consumer always gets min(original, compressed) semantics, like gzip.
  if (out.size() >= input.size() + 7 + 4) {
    return make_stored_frame(input);
  }
  return out;
}

byte_buffer lzss_decompress(byte_view frame) {
  std::size_t pos = 0;
  auto fail = [](const char* why) -> byte_buffer {
    throw std::runtime_error(std::string("lzss_decompress: ") + why);
  };
  if (frame.size() < 7 || frame[0] != kMagic0 || frame[1] != kMagic1) {
    return fail("bad magic");
  }
  const std::uint8_t format = frame[2];
  pos = 3;
  const auto orig_size = get_varint(frame, pos);
  if (!orig_size) return fail("truncated header");
  if (frame.size() < pos + 4) return fail("truncated frame");
  const std::size_t body_end = frame.size() - 4;

  byte_buffer out;
  out.reserve(*orig_size);

  if (format == kFormatStored) {
    if (body_end - pos != *orig_size) return fail("stored size mismatch");
    out.assign(frame.begin() + static_cast<std::ptrdiff_t>(pos),
               frame.begin() + static_cast<std::ptrdiff_t>(body_end));
  } else if (format == kFormatLzss) {
    std::uint8_t flags = 0;
    unsigned bit = 8;
    while (out.size() < *orig_size) {
      if (bit == 8) {
        if (pos >= body_end) return fail("truncated token stream");
        flags = frame[pos++];
        bit = 0;
      }
      if (flags & (1u << bit)) {
        if (pos + 3 > body_end) return fail("truncated match");
        const std::size_t distance =
            (static_cast<std::size_t>(frame[pos]) |
             static_cast<std::size_t>(frame[pos + 1]) << 8) + 1;
        const std::size_t length = frame[pos + 2] + kMinMatch;
        pos += 3;
        if (distance > out.size()) return fail("match before start");
        // Byte-by-byte copy: overlapping matches (distance < length) are the
        // RLE case and must replicate.
        std::size_t src = out.size() - distance;
        for (std::size_t i = 0; i < length; ++i) {
          out.push_back(out[src + i]);
        }
      } else {
        if (pos >= body_end) return fail("truncated literal");
        out.push_back(frame[pos++]);
      }
      ++bit;
    }
    if (out.size() != *orig_size) return fail("size mismatch");
  } else {
    return fail("unknown format");
  }

  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(frame[body_end + i]) << (8 * i);
  }
  if (crc32(out) != crc) return fail("crc mismatch");
  return out;
}

std::vector<sample_window> compression_sample_windows(
    std::size_t size, std::size_t sample_budget) {
  std::vector<sample_window> windows;
  if (size == 0) return windows;
  if (size <= sample_budget) {
    windows.push_back({0, size});
    return windows;
  }
  // Sample up to 8 evenly spaced windows.
  const std::size_t window = sample_budget / 8;
  windows.reserve(8);
  for (int i = 0; i < 8; ++i) {
    const std::size_t off = (size - window) * static_cast<std::size_t>(i) / 7;
    windows.push_back({off, window});
  }
  return windows;
}

double estimate_ratio_of_windows(const std::vector<byte_view>& windows) {
  std::size_t total_in = 0, total_out = 0;
  for (const byte_view chunk : windows) {
    const byte_buffer c = lzss_compress(chunk, {.level = 5});
    total_in += chunk.size();
    total_out += c.size();
  }
  if (total_in == 0) return 1.0;
  return static_cast<double>(total_in) /
         static_cast<double>(std::max<std::size_t>(1, total_out));
}

double estimate_compression_ratio(byte_view input, std::size_t sample_budget) {
  if (input.empty()) return 1.0;
  std::vector<byte_view> views;
  for (const sample_window& w : compression_sample_windows(input.size(),
                                                           sample_budget)) {
    views.push_back(input.subspan(w.offset, w.length));
  }
  return estimate_ratio_of_windows(views);
}

namespace {
/// Linear history window of the stream sizer: the 64 KiB match window, the
/// lookahead, and room for new input. Inputs no longer than this never slide.
constexpr std::size_t kSizerWindowBytes = 4 * kWindowSize;
/// Chain links are kept for the last kWindowSize positions, indexed by
/// position mod kWindowSize. A chain only visits candidates at most
/// kWindowSize behind the position being matched, and a candidate's slot is
/// reused only when the position kWindowSize after it is inserted — never
/// before that position has been matched.
constexpr std::uint64_t kSizerPrevMask = kWindowSize - 1;
/// drain() holds a position back until this much input past it is fed: a
/// match reads up to kMaxMatch bytes, and inserting the positions it covers
/// hashes three bytes past its end.
constexpr std::size_t kSizerLookahead = kMaxMatch + 3;

/// Length of the common prefix of a and b, at most max_len: eight bytes a
/// step (the first differing byte is the lowest set byte of the XOR on a
/// little-endian load), then byte by byte.
inline std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t max_len) {
  std::size_t len = 0;
#if (defined(__GNUC__) || defined(__clang__)) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (len + 8 <= max_len) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      return len + static_cast<std::size_t>(__builtin_ctzll(diff)) / 8;
    }
    len += 8;
  }
#endif
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

std::uint64_t stored_frame_size(std::uint64_t size) {
  byte_buffer varint;
  put_varint(varint, size);
  return 2 + 1 + varint.size() + size + 4;
}
}  // namespace

lzss_stream_sizer::lzss_stream_sizer(std::uint64_t total_size,
                                     lzss_params params)
    : total_(total_size),
      stored_only_(params.level <= 0 || total_size < kMinMatch + 4) {
  if (stored_only_) return;
  const level_config cfg = config_for(params.level);
  max_chain_ = cfg.max_chain;
  nice_len_ = cfg.nice_len;
  accept_len_ = cfg.accept_len;
  lazy_ = cfg.lazy;
  win_.resize(static_cast<std::size_t>(
      std::min<std::uint64_t>(total_, kSizerWindowBytes)));
  head_.assign(kHashSize, 0);
  prev_.assign(static_cast<std::size_t>(
                   std::min<std::uint64_t>(total_, kWindowSize)),
               0);
  out_ = stored_frame_size(total_) - total_ - 4;  // shared frame header
}

// find, insert and count_token run once or more per input position; drain
// keeps pace with lzss_compress only with them inlined into its loop.
[[gnu::always_inline]] inline lzss_stream_sizer::match
lzss_stream_sizer::find(std::uint64_t pos, std::uint32_t hash) const {
  match best;
  if (pos + kMinMatch > total_) return best;
  const std::uint64_t limit = pos >= kWindowSize ? pos - kWindowSize : 0;
  const std::size_t max_len =
      static_cast<std::size_t>(std::min<std::uint64_t>(kMaxMatch,
                                                       total_ - pos));
  const std::uint8_t* p = at(pos);
  std::uint32_t link = head_[hash];
  std::size_t chain = max_chain_;
  while (link != 0 && chain-- > 0 && best.length < max_len) {
    const std::uint64_t cand = base_ + link - 1;
    if (cand < limit) break;
    const std::uint8_t* q = at(cand);
    // Quick reject: check the byte just past the current best.
    if (best.length == 0 || q[best.length] == p[best.length]) {
      const std::size_t len = common_prefix(q, p, max_len);
      if (len > best.length) {
        best.length = len;
        best.distance = static_cast<std::size_t>(pos - cand);
        if (len >= nice_len_) break;
      }
    }
    link = prev_[cand & kSizerPrevMask];
  }
  if (best.length < accept_len_) best = {};
  return best;
}

[[gnu::always_inline]] inline void lzss_stream_sizer::insert(
    std::uint64_t pos, std::uint32_t hash) {
  if (pos + 4 > total_) return;
  prev_[pos & kSizerPrevMask] = head_[hash];
  head_[hash] = static_cast<std::uint32_t>(pos - base_ + 1);
}

void lzss_stream_sizer::insert(std::uint64_t pos) {
  if (pos + 4 > total_) return;
  insert(pos, hash4(at(pos)));
}

[[gnu::always_inline]] inline void lzss_stream_sizer::count_token(
    bool is_match) {
  if (bit_ == 8) {
    ++out_;  // flag byte
    bit_ = 0;
  }
  ++bit_;
  out_ += is_match ? 3 : 1;
}

void lzss_stream_sizer::drain(bool final_window) {
  // The same token decisions as lzss_compress, position by position. Each
  // position waits for kSizerLookahead bytes past it; the remainder resolves
  // at finish(), where the true end-of-input match limits apply. Each
  // position is hashed once, and a deferred lazy match is reused rather than
  // searched again (nothing is inserted in between, so it is unchanged).
  while (pos_ < total_) {
    if (!final_window && pos_ + kSizerLookahead > fed_) return;
    std::uint32_t hash = 0;
    match cur;
    if (deferred_) {
      deferred_ = false;
      cur = deferred_match_;
      hash = deferred_hash_;
    } else if (pos_ + kMinMatch <= total_) {
      hash = hash4(at(pos_));
      cur = find(pos_, hash);
    }
    if (cur.length < kMinMatch) {
      insert(pos_, hash);
      count_token(false);
      ++pos_;
      continue;
    }
    insert(pos_, hash);
    std::size_t covered = 1;  // positions of the match already inserted
    if (lazy_ && pos_ + 1 < total_) {
      const std::uint64_t next_pos = pos_ + 1;
      std::uint32_t next_hash = 0;
      match next;
      if (next_pos + kMinMatch <= total_) {
        next_hash = hash4(at(next_pos));
        next = find(next_pos, next_hash);
      }
      if (next.length > cur.length + 1) {
        // The deferred match is better: emit a literal and continue from
        // pos+1, where `next` is the match.
        count_token(false);
        ++pos_;
        deferred_ = true;
        deferred_match_ = next;
        deferred_hash_ = next_hash;
        continue;
      }
      insert(next_pos, next_hash);
      covered = 2;
    }
    count_token(true);
    // Register the covered positions so later matches can reference them.
    for (std::size_t i = covered; i < cur.length; ++i) insert(pos_ + i);
    pos_ += cur.length;
  }
}

void lzss_stream_sizer::slide() {
  // Keep the match window behind the scan position. Nothing older can be a
  // candidate again, so links into it are dropped as the rest are rebased.
  const std::uint64_t keep = pos_ > kWindowSize ? pos_ - kWindowSize : 0;
  const auto shift = static_cast<std::uint32_t>(keep - base_);
  std::memmove(win_.data(), win_.data() + shift,
               static_cast<std::size_t>(fed_ - keep));
  base_ = keep;
  const auto rebase = [shift](std::vector<std::uint32_t>& links) {
    for (std::uint32_t& link : links) link = link > shift ? link - shift : 0;
  };
  rebase(head_);
  rebase(prev_);
}

void lzss_stream_sizer::feed(byte_view window) {
  // Past the declared size nothing is sized; finish() reports the misuse.
  if (stored_only_ || window.size() > total_ - std::min(fed_, total_)) {
    fed_ += window.size();
    return;
  }
  while (!window.empty()) {
    if (fed_ - base_ == win_.size()) slide();
    const auto used = static_cast<std::size_t>(fed_ - base_);
    const std::size_t take = std::min(window.size(), win_.size() - used);
    std::memcpy(win_.data() + used, window.data(), take);
    fed_ += take;
    window = window.subspan(take);
    drain(/*final_window=*/false);
  }
}

std::uint64_t lzss_stream_sizer::finish() {
  if (fed_ != total_) {
    throw std::logic_error("lzss_stream_sizer: fed size != declared size");
  }
  if (finished_) throw std::logic_error("lzss_stream_sizer: already finished");
  finished_ = true;
  if (stored_only_) return stored_frame_size(total_);
  drain(/*final_window=*/true);
  out_ += 4;  // CRC-32 trailer
  // Expansion fallback: the consumer gets min(original, compressed), so the
  // priced frame is the stored one whenever the token stream expanded.
  if (out_ >= total_ + 7 + 4) return stored_frame_size(total_);
  return out_;
}

}  // namespace cloudsync
