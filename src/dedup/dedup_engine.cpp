#include "dedup/dedup_engine.hpp"

#include <algorithm>

#include "pipeline/byte_pipeline.hpp"
#include "util/parallel_runner.hpp"

namespace cloudsync {

fingerprint_memo& global_fingerprint_cache() {
  static fingerprint_memo memo;
  return memo;
}

fingerprint dedup_engine::fp(byte_view data) const {
  if (memo_ == nullptr) return fingerprint_of(data);
  return memo_->get_or_compute(data, /*salt=*/0,
                               [&] { return fingerprint_of(data); });
}

std::vector<chunk_ref> dedup_engine::chunk_layout(byte_view data) const {
  return policy_.granularity == dedup_granularity::content_defined
             ? content_defined_chunks(data, policy_.cdc)
             : fixed_chunks(data, policy_.block_size);
}

fingerprint dedup_engine::fp_range(const content_ref& data, std::size_t off,
                                   std::size_t len) const {
  const auto compute = [&] {
    sha256_hasher h;
    data.walk_range(off, len, [&](byte_view v) { h.update(v); });
    return h.finish();
  };
  if (memo_ == nullptr) return compute();
  // hash64_range matches content_hash64 of the flat bytes, so rope and flat
  // paths share memo entries.
  return memo_->get_or_compute_keyed(data.hash64_range(off, len), len,
                                     /*salt=*/0, compute);
}

std::vector<chunk_ref> dedup_engine::chunk_layout(
    const content_ref& data) const {
  if (policy_.granularity == dedup_granularity::content_defined) {
    content_request req;
    req.cdc = policy_.cdc;
    return analyze_content(data, req).cdc_chunks;
  }
  // Fixed layout depends only on the size — same blocks as fixed_chunks().
  std::vector<chunk_ref> out;
  out.reserve(data.size() / policy_.block_size + 1);
  for (std::size_t off = 0; off < data.size(); off += policy_.block_size) {
    out.push_back({off, std::min(policy_.block_size, data.size() - off)});
  }
  return out;
}

std::uint64_t expected_fingerprint_count(const dedup_policy& policy,
                                         std::uint64_t size) {
  if (size == 0) return 0;
  switch (policy.granularity) {
    case dedup_granularity::none:
      return 0;
    case dedup_granularity::full_file:
      return 1;
    case dedup_granularity::fixed_block: {
      const std::uint64_t bs = std::max<std::uint64_t>(policy.block_size, 1);
      return (size + bs - 1) / bs;
    }
    case dedup_granularity::content_defined: {
      // Cut decisions start after the min-size skip and fire geometrically
      // with mean avg_size, so the expected chunk length is min + avg,
      // bounded by the hard max.
      const cdc_params& p = policy.cdc;
      const std::uint64_t expect = std::min<std::uint64_t>(
          p.max_size, static_cast<std::uint64_t>(p.min_size) + p.avg_size);
      return std::max<std::uint64_t>(1, size / std::max<std::uint64_t>(
                                               expect, 1));
    }
  }
  return 0;
}

dedup_result dedup_engine::analyze(user_id user, byte_view data) const {
  dedup_result res;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      res.new_bytes = data.size();
      if (!data.empty()) res.new_chunks.push_back({0, data.size()});
      return res;

    case dedup_granularity::full_file: {
      res.fingerprints_sent = 1;
      if (!data.empty() &&
          index_.contains(scope_for(user), fp(data))) {
        res.duplicate_bytes = data.size();
        res.whole_file_duplicate = true;
      } else {
        res.new_bytes = data.size();
        if (!data.empty()) res.new_chunks.push_back({0, data.size()});
      }
      return res;
    }

    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block: {
      const auto chunks = chunk_layout(data);
      res.fingerprints_sent = chunks.size();
      if (memo_ == nullptr) {
        // No fingerprint memo: fuse the per-chunk hashing into one walk of
        // the buffer instead of re-entering sha256 per lookup.
        const auto fps = chunk_digests(data, chunks);
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          if (index_.contains(scope_for(user), fps[i])) {
            res.duplicate_bytes += chunks[i].size;
          } else {
            res.new_bytes += chunks[i].size;
            res.new_chunks.push_back(chunks[i]);
          }
        }
      } else {
        for (const chunk_ref& c : chunks) {
          if (index_.contains(scope_for(user), fp(slice(data, c)))) {
            res.duplicate_bytes += c.size;
          } else {
            res.new_bytes += c.size;
            res.new_chunks.push_back(c);
          }
        }
      }
      res.whole_file_duplicate = !data.empty() && res.new_bytes == 0;
      return res;
    }
  }
  return res;
}

void dedup_engine::commit(user_id user, byte_view data) {
  if (data.empty()) return;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      return;
    case dedup_granularity::full_file:
      index_.add(scope_for(user), fp(data));
      return;
    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block:
      for (const chunk_ref& c : chunk_layout(data)) {
        index_.add(scope_for(user), fp(slice(data, c)));
      }
      return;
  }
}

dedup_result dedup_engine::analyze(user_id user,
                                   const content_ref& data) const {
  dedup_result res;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      res.new_bytes = data.size();
      if (!data.empty()) res.new_chunks.push_back({0, data.size()});
      return res;

    case dedup_granularity::full_file: {
      res.fingerprints_sent = 1;
      if (!data.empty() &&
          index_.contains(scope_for(user), fp_range(data, 0, data.size()))) {
        res.duplicate_bytes = data.size();
        res.whole_file_duplicate = true;
      } else {
        res.new_bytes = data.size();
        if (!data.empty()) res.new_chunks.push_back({0, data.size()});
      }
      return res;
    }

    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block: {
      const auto chunks = chunk_layout(data);
      res.fingerprints_sent = chunks.size();
      // Fingerprints are pure functions of immutable ranges, so they fan out
      // across cores (Dropbox's 4 MB blocks are hashed independently); the
      // index is then probed serially, in chunk order.
      const auto fps = fan_out_map<fingerprint>(
          chunks.size(), data.size(), [&](std::size_t i) {
            return fp_range(data, chunks[i].offset, chunks[i].size);
          });
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (index_.contains(scope_for(user), fps[i])) {
          res.duplicate_bytes += chunks[i].size;
        } else {
          res.new_bytes += chunks[i].size;
          res.new_chunks.push_back(chunks[i]);
        }
      }
      res.whole_file_duplicate = !data.empty() && res.new_bytes == 0;
      return res;
    }
  }
  return res;
}

void dedup_engine::commit(user_id user, const content_ref& data) {
  if (data.empty()) return;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      return;
    case dedup_granularity::full_file:
      index_.add(scope_for(user), fp_range(data, 0, data.size()));
      return;
    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block:
      for (const chunk_ref& c : chunk_layout(data)) {
        index_.add(scope_for(user), fp_range(data, c.offset, c.size));
      }
      return;
  }
}

void dedup_engine::retract(user_id user, const content_ref& data) {
  if (data.empty()) return;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      return;
    case dedup_granularity::full_file:
      index_.remove(scope_for(user), fp_range(data, 0, data.size()));
      return;
    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block:
      for (const chunk_ref& c : chunk_layout(data)) {
        index_.remove(scope_for(user), fp_range(data, c.offset, c.size));
      }
      return;
  }
}

void dedup_engine::retract(user_id user, byte_view data) {
  if (data.empty()) return;
  switch (policy_.granularity) {
    case dedup_granularity::none:
      return;
    case dedup_granularity::full_file:
      index_.remove(scope_for(user), fp(data));
      return;
    case dedup_granularity::content_defined:
    case dedup_granularity::fixed_block:
      for (const chunk_ref& c : chunk_layout(data)) {
        index_.remove(scope_for(user), fp(slice(data, c)));
      }
      return;
  }
}

}  // namespace cloudsync
