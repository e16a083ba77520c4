#include "chunking/rsync.hpp"

#include <algorithm>
#include <stdexcept>

#include "chunking/fixed_chunker.hpp"
#include "compress/varint.hpp"
#include "util/crc32.hpp"

namespace cloudsync {

namespace {
/// Feed granularity of the whole-buffer pumps: large enough that the
/// per-window overhead vanishes, small enough that the job's internal
/// buffer stays a rounding error next to the block size.
constexpr std::size_t kPumpWindowBytes = 256 * 1024;

/// Compact the job buffer once this many consumed bytes pile up in front.
constexpr std::size_t kCompactBytes = 256 * 1024;

/// No old block proven (delta_job::proven_block).
constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

/// Weak and strong sums of one block read out of a rope — exactly what
/// sig_job computes for the same bytes.
block_signature block_sums(const content_ref& data, std::size_t off,
                           std::size_t len) {
  std::uint32_t a = 0, b = 0;
  md5_hasher strong;
  data.walk_range(off, len, [&](byte_view piece) {
    weak_accumulate(piece, a, b);
    strong.update(piece);
  });
  return {(b << 16) | (a & 0xffffu), strong.finish()};
}
}  // namespace

sig_job::sig_job(std::size_t block_size, std::uint64_t size_hint) {
  if (block_size == 0) throw invalid_block_size();
  sig_.block_size = block_size;
  if (size_hint > 0) {
    sig_.blocks.reserve(
        static_cast<std::size_t>(size_hint / block_size + 1));
  }
}

void sig_job::feed(byte_view window) {
  sig_.file_size += window.size();
  while (!window.empty()) {
    const std::size_t take =
        std::min(window.size(), sig_.block_size - fill_);
    const byte_view piece = window.first(take);
    weak_accumulate(piece, a_, b_);
    strong_.update(piece);
    fill_ += take;
    window = window.subspan(take);
    if (fill_ == sig_.block_size) {
      sig_.blocks.push_back({(b_ << 16) | (a_ & 0xffffu), strong_.finish()});
      a_ = b_ = 0;
      strong_ = md5_hasher{};
      fill_ = 0;
    }
  }
}

file_signature sig_job::finish() {
  if (!finished_) {
    finished_ = true;
    if (fill_ > 0) {
      sig_.blocks.push_back({(b_ << 16) | (a_ & 0xffffu), strong_.finish()});
    }
  }
  return std::move(sig_);
}

file_signature compute_signature(byte_view data, std::size_t block_size) {
  sig_job job(block_size, data.size());
  // Pump in bounded windows: the job splits at block boundaries itself, and
  // both per-block sums stream, so windowing cannot change the result.
  for (std::size_t off = 0; off < data.size(); off += kPumpWindowBytes) {
    job.feed(data.subspan(off, std::min(kPumpWindowBytes,
                                        data.size() - off)));
  }
  return job.finish();
}

file_signature compute_signature_ref(const content_ref& data,
                                     std::size_t block_size) {
  sig_job job(block_size, data.size());
  data.walk([&](byte_view seg) { job.feed(seg); });
  return job.finish();
}

file_signature compute_signature_reusing(const content_ref& data,
                                         std::size_t block_size,
                                         const content_ref& prev,
                                         const file_signature& prev_sig) {
  if (block_size == 0) throw invalid_block_size();
  if (prev_sig.block_size != block_size ||
      prev_sig.file_size != prev.size()) {
    return compute_signature_ref(data, block_size);
  }
  file_signature sig;
  sig.block_size = block_size;
  sig.file_size = data.size();
  sig.blocks.reserve((data.size() + block_size - 1) / block_size);
  for (std::size_t off = 0; off < data.size(); off += block_size) {
    const std::size_t len = std::min(block_size, data.size() - off);
    // Block j of both versions: reusable only at the same length (a
    // resized tail block has other sums) and over the same chunk runs.
    const bool same = off < prev.size() &&
                      std::min(block_size, prev.size() - off) == len &&
                      data.shares_range(off, prev, off, len);
    sig.blocks.push_back(same ? prev_sig.blocks[off / block_size]
                              : block_sums(data, off, len));
  }
  return sig;
}

void delta_op::walk_literal(const std::function<void(byte_view)>& fn) const {
  if (op != kind::literal) return;
  if (ref.empty()) {
    if (!bytes.empty()) fn(bytes);
  } else {
    ref.walk(fn);
  }
}

std::uint64_t file_delta::literal_bytes() const {
  std::uint64_t n = 0;
  for (const delta_op& op : ops) n += op.literal_size();
  return n;
}

std::uint64_t file_delta::copied_bytes(std::uint64_t old_file_size) const {
  if (block_size == 0) return 0;
  const std::uint64_t full_blocks = old_file_size / block_size;
  const std::uint64_t tail = old_file_size % block_size;
  std::uint64_t n = 0;
  for (const delta_op& op : ops) {
    if (op.op != delta_op::kind::copy) continue;
    for (std::uint64_t b = op.block_index;
         b < op.block_index + op.block_count; ++b) {
      n += b < full_blocks ? block_size : tail;
    }
  }
  return n;
}

delta_job::delta_job(const file_signature& sig, block_oracle proves)
    : sig_(sig),
      bs_(sig.block_size),
      degenerate_(sig.block_size == 0 || sig.blocks.empty()),
      proves_(std::move(proves)),
      rc_(sig.block_size == 0 ? 1 : sig.block_size) {
  if (!degenerate_) {
    // Index full-size signature blocks by weak checksum. The (possibly
    // short) final block is handled separately at the tail.
    full_blocks_ = sig.file_size / bs_;
    weak_index_.reserve(sig.blocks.size());
    for (std::uint64_t i = 0; i < full_blocks_; ++i) {
      weak_index_.emplace(sig.blocks[i].weak, i);
    }
  }
}

byte_view delta_job::buffered(std::uint64_t pos, std::size_t len) const {
  return byte_view(buf_).subspan(static_cast<std::size_t>(pos - base_), len);
}

void delta_job::compact() {
  const std::size_t consumed = static_cast<std::size_t>(pos_ - base_);
  if (consumed < kCompactBytes) return;
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  base_ = pos_;
}

void delta_job::emit_copy(std::uint64_t block) {
  if (!events_.empty() && events_.back().copy &&
      events_.back().block_index + events_.back().block_count == block) {
    ++events_.back().block_count;
    return;
  }
  events_.push_back({true, block, 1, 0, 0});
}

void delta_job::emit_literal(std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return;
  // Literal runs are emitted in file order, so a literal following a
  // literal is always adjacent — merging by kind matches the whole-buffer
  // implementation's trailing-op merge exactly.
  if (!events_.empty() && !events_.back().copy) {
    events_.back().length += length;
    return;
  }
  events_.push_back({false, 0, 0, offset, length});
}

void delta_job::feed(byte_view window) {
  fed_ += window.size();
  if (degenerate_) {
    // The whole file resolves at finish(); only its strong sum is needed
    // (for the short-old-file identity check), so nothing is buffered.
    whole_md5_.update(window);
    return;
  }
  append(buf_, window);
  drain(/*final_window=*/false);
  compact();
}

std::uint64_t delta_job::proven_block() const {
  if (!proves_) return kNoBlock;
  const std::int64_t old_off = static_cast<std::int64_t>(pos_) + shift_;
  if (old_off < 0) return kNoBlock;
  const std::uint64_t off = static_cast<std::uint64_t>(old_off);
  if (off % bs_ != 0 || off / bs_ >= full_blocks_) return kNoBlock;
  return proves_(pos_, off / bs_) ? off / bs_ : kNoBlock;
}

void delta_job::drain(bool final_window) {
  // During feed, stop one byte short of the fed horizon: an unmatched
  // position needs the byte at pos + bs to roll, and whether that byte
  // exists (vs. the file simply ending) is only known at finish().
  if (!final_window && fed_ <= bs_) return;
  const std::uint64_t horizon = final_window ? fed_ : fed_ - 1;

  while (pos_ + bs_ <= horizon) {
    // A proven window equals an old block byte for byte, so that block's
    // weak and strong sums are the window's: seed and compare them instead
    // of hashing. The candidate walk below is unchanged either way.
    const std::uint64_t proven = proven_block();
    if (!window_valid_) {
      if (proven != kNoBlock) {
        rc_.seed(sig_.blocks[proven].weak);
      } else {
        rc_.reset(buffered(pos_, bs_));
      }
      window_valid_ = true;
    }
    bool matched = false;
    auto [it, end] = weak_index_.equal_range(rc_.value());
    if (it != end) {
      const md5_digest strong = proven != kNoBlock
                                    ? sig_.blocks[proven].strong
                                    : md5(buffered(pos_, bs_));
      for (; it != end; ++it) {
        if (sig_.blocks[it->second].strong == strong) {
          emit_copy(it->second);
          shift_ = static_cast<std::int64_t>(it->second * bs_) -
                   static_cast<std::int64_t>(pos_);
          pos_ += bs_;
          window_valid_ = false;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      emit_literal(pos_, 1);
      if (pos_ + bs_ < fed_) {
        rc_.roll(buf_[pos_ - base_], buf_[pos_ + bs_ - base_]);
      } else {
        window_valid_ = false;
      }
      ++pos_;
    }
  }
}

const std::vector<delta_job::event>& delta_job::finish() {
  if (finished_) return events_;
  finished_ = true;
  const std::uint64_t size = fed_;

  if (degenerate_ || size < bs_) {
    // Nothing matchable at full-block granularity: check whether the whole
    // new file equals the old short file; otherwise ship it as one literal.
    const auto whole_strong = [&]() -> md5_digest {
      if (degenerate_) return whole_md5_.finish();
      return md5(buffered(0, static_cast<std::size_t>(size)));
    };
    if (sig_.file_size == size && sig_.blocks.size() == 1 && size > 0 &&
        sig_.blocks[0].strong == whole_strong()) {
      emit_copy(0);
    } else {
      emit_literal(0, size);
    }
    return events_;
  }

  drain(/*final_window=*/true);

  // Tail: the old file's final short block can only align with the last
  // tail_size bytes of the new file. If it matches there, everything between
  // the scan position and that point is literal; otherwise the whole
  // remainder is.
  const bool has_tail = sig_.file_size % bs_ != 0;
  const std::size_t tail_size = static_cast<std::size_t>(sig_.file_size % bs_);
  if (has_tail && size >= tail_size) {
    const std::uint64_t tail_pos = size - tail_size;
    if (tail_pos >= pos_) {
      const byte_view tail_view = buffered(tail_pos, tail_size);
      const bool proven = proves_ && proves_(tail_pos, full_blocks_);
      if (!tail_view.empty() &&
          (proven ||
           (sig_.blocks[full_blocks_].weak == weak_checksum(tail_view) &&
            sig_.blocks[full_blocks_].strong == md5(tail_view)))) {
        emit_literal(pos_, tail_pos - pos_);
        emit_copy(full_blocks_);
        return events_;
      }
    }
  }
  emit_literal(pos_, size - pos_);
  return events_;
}

file_delta compute_delta(const file_signature& sig, byte_view new_data) {
  delta_job job(sig);
  for (std::size_t off = 0; off < new_data.size(); off += kPumpWindowBytes) {
    job.feed(new_data.subspan(off, std::min(kPumpWindowBytes,
                                            new_data.size() - off)));
  }
  file_delta delta;
  delta.block_size = sig.block_size;
  delta.new_file_size = new_data.size();
  for (const delta_job::event& ev : job.finish()) {
    delta_op op;
    if (ev.copy) {
      op.op = delta_op::kind::copy;
      op.block_index = ev.block_index;
      op.block_count = ev.block_count;
    } else {
      const byte_view run = new_data.subspan(
          static_cast<std::size_t>(ev.offset),
          static_cast<std::size_t>(ev.length));
      op.bytes.assign(run.begin(), run.end());
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

std::vector<delta_job::event> compute_delta_events(const file_signature& sig,
                                                   const content_ref& new_data,
                                                   const content_ref* old_data,
                                                   std::size_t window_bytes) {
  if (window_bytes == 0) window_bytes = kPumpWindowBytes;
  delta_job::block_oracle proves;
  if (old_data != nullptr && old_data->size() == sig.file_size &&
      sig.block_size > 0) {
    proves = [&new_data, old_data, bs = sig.block_size](std::uint64_t offset,
                                                        std::uint64_t block) {
      const std::size_t start = static_cast<std::size_t>(block) * bs;
      if (start >= old_data->size()) return false;
      return new_data.shares_range(static_cast<std::size_t>(offset),
                                   *old_data, start,
                                   std::min(bs, old_data->size() - start));
    };
  }
  delta_job job(sig, std::move(proves));
  // Rope segments can be arbitrarily large (a lazy chunk spans the whole
  // file), so re-window them: the job's buffer is bounded by block_size +
  // window_bytes either way.
  new_data.walk([&](byte_view seg) {
    for (std::size_t off = 0; off < seg.size(); off += window_bytes) {
      job.feed(seg.subspan(off, std::min(window_bytes, seg.size() - off)));
    }
  });
  return job.finish();
}

file_delta delta_from_events(std::size_t block_size,
                             const content_ref& new_data,
                             const std::vector<delta_job::event>& events) {
  file_delta delta;
  delta.block_size = block_size;
  delta.new_file_size = new_data.size();
  delta.ops.reserve(events.size());
  for (const delta_job::event& ev : events) {
    delta_op op;
    if (ev.copy) {
      op.op = delta_op::kind::copy;
      op.block_index = ev.block_index;
      op.block_count = ev.block_count;
    } else {
      // Zero-copy literal: pin the run's chunks out of the new file's rope.
      op.ref = new_data.substr(static_cast<std::size_t>(ev.offset),
                               static_cast<std::size_t>(ev.length));
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

file_delta compute_delta_ref(const file_signature& sig,
                             const content_ref& new_data,
                             std::size_t window_bytes) {
  return delta_from_events(sig.block_size, new_data,
                           compute_delta_events(sig, new_data, nullptr,
                                                window_bytes));
}

byte_buffer apply_delta(byte_view old_data, const file_delta& delta) {
  byte_buffer out;
  out.reserve(delta.new_file_size);
  const std::size_t bs = delta.block_size;
  const std::vector<chunk_ref> old_blocks =
      bs > 0 ? fixed_chunks(old_data, bs) : std::vector<chunk_ref>{};

  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::literal) {
      op.walk_literal([&](byte_view run) { append(out, run); });
      continue;
    }
    if (op.block_index + op.block_count > old_blocks.size()) {
      throw std::runtime_error("apply_delta: block index out of range");
    }
    for (std::uint64_t b = op.block_index;
         b < op.block_index + op.block_count; ++b) {
      append(out, slice(old_data, old_blocks[b]));
    }
  }
  if (out.size() != delta.new_file_size) {
    throw std::runtime_error("apply_delta: reconstructed size mismatch");
  }
  return out;
}

patch_job::patch_job(content_ref old_data, std::size_t block_size,
                     std::uint64_t new_file_size)
    : old_(std::move(old_data)),
      bs_(block_size),
      new_file_size_(new_file_size),
      old_blocks_(bs_ > 0 ? (old_.size() + bs_ - 1) / bs_ : 0) {}

void patch_job::feed(const delta_op& op) {
  if (op.op == delta_op::kind::literal) {
    if (op.ref.empty()) {
      out_.append_bytes(op.bytes);
    } else {
      out_.append(op.ref);
    }
    return;
  }
  if (op.block_index + op.block_count > old_blocks_) {
    throw std::runtime_error("apply_delta: block index out of range");
  }
  const std::size_t start = static_cast<std::size_t>(op.block_index) * bs_;
  const std::size_t end = std::min<std::size_t>(
      old_.size(),
      static_cast<std::size_t>(op.block_index + op.block_count) * bs_);
  out_.append(old_, start, end - start);
}

content_ref patch_job::finish() {
  if (out_.size() != new_file_size_) {
    throw std::runtime_error("apply_delta: reconstructed size mismatch");
  }
  return out_.build();
}

content_ref apply_delta_ref(const content_ref& old_data,
                            const file_delta& delta) {
  patch_job job(old_data, delta.block_size, delta.new_file_size);
  for (const delta_op& op : delta.ops) job.feed(op);
  return job.finish();
}

namespace {
constexpr std::uint8_t kDeltaMagic0 = 'd';
constexpr std::uint8_t kDeltaMagic1 = 'l';
constexpr std::uint8_t kOpCopy = 0;
constexpr std::uint8_t kOpLiteral = 1;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void delta_wire_header(byte_buffer& out, const file_delta& delta) {
  out.push_back(kDeltaMagic0);
  out.push_back(kDeltaMagic1);
  put_varint(out, delta.block_size);
  put_varint(out, delta.new_file_size);
  put_varint(out, delta.ops.size());
}

void delta_op_header(byte_buffer& out, const delta_op& op) {
  if (op.op == delta_op::kind::copy) {
    out.push_back(kOpCopy);
    put_varint(out, op.block_index);
    put_varint(out, op.block_count);
  } else {
    out.push_back(kOpLiteral);
    put_varint(out, op.literal_size());
  }
}
}  // namespace

std::uint64_t delta_wire_size(const file_delta& delta) {
  std::uint64_t n = 2 + varint_size(delta.block_size) +
                    varint_size(delta.new_file_size) +
                    varint_size(delta.ops.size());
  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::copy) {
      n += 1 + varint_size(op.block_index) + varint_size(op.block_count);
    } else {
      const std::uint64_t lit = op.literal_size();
      n += 1 + varint_size(lit) + lit;
    }
  }
  return n + 4;  // CRC-32 trailer
}

void walk_delta_wire(const file_delta& delta,
                     const std::function<void(byte_view)>& fn) {
  std::uint32_t crc = 0;
  const auto ship = [&](byte_view piece) {
    if (piece.empty()) return;
    crc = crc32(piece, crc);
    fn(piece);
  };
  byte_buffer scratch;
  delta_wire_header(scratch, delta);
  ship(scratch);
  for (const delta_op& op : delta.ops) {
    scratch.clear();
    delta_op_header(scratch, op);
    ship(scratch);
    op.walk_literal(ship);
  }
  std::uint8_t trailer[4];
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  fn(byte_view(trailer, 4));
}

byte_buffer serialize_delta(const file_delta& delta) {
  byte_buffer out;
  out.reserve(static_cast<std::size_t>(delta_wire_size(delta)));
  delta_wire_header(out, delta);
  for (const delta_op& op : delta.ops) {
    delta_op_header(out, op);
    op.walk_literal([&](byte_view run) { append(out, run); });
  }
  const std::uint32_t crc = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

file_delta parse_delta(byte_view wire) {
  auto fail = [](const char* why) -> file_delta {
    throw std::runtime_error(std::string("parse_delta: ") + why);
  };
  if (wire.size() < 6 || wire[0] != kDeltaMagic0 || wire[1] != kDeltaMagic1) {
    return fail("bad magic");
  }
  const std::size_t body_end = wire.size() - 4;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(wire[body_end + i]) << (8 * i);
  }
  if (crc32(wire.first(body_end)) != crc) return fail("crc mismatch");

  const byte_view body = wire.first(body_end);
  std::size_t pos = 2;
  file_delta delta;
  const auto bs = get_varint(body, pos);
  const auto nfs = get_varint(body, pos);
  const auto nops = get_varint(body, pos);
  if (!bs || !nfs || !nops) return fail("truncated header");
  delta.block_size = static_cast<std::size_t>(*bs);
  delta.new_file_size = *nfs;
  delta.ops.reserve(static_cast<std::size_t>(*nops));
  for (std::uint64_t i = 0; i < *nops; ++i) {
    if (pos >= body.size()) return fail("truncated op");
    const std::uint8_t tag = body[pos++];
    delta_op op;
    if (tag == kOpCopy) {
      op.op = delta_op::kind::copy;
      const auto bi = get_varint(body, pos);
      const auto bc = get_varint(body, pos);
      if (!bi || !bc) return fail("truncated copy op");
      op.block_index = *bi;
      op.block_count = *bc;
    } else if (tag == kOpLiteral) {
      op.op = delta_op::kind::literal;
      const auto len = get_varint(body, pos);
      if (!len || pos + *len > body.size()) return fail("truncated literal");
      op.bytes.assign(body.begin() + static_cast<std::ptrdiff_t>(pos),
                      body.begin() + static_cast<std::ptrdiff_t>(pos + *len));
      pos += static_cast<std::size_t>(*len);
    } else {
      return fail("unknown op tag");
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

}  // namespace cloudsync
