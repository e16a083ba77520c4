// Streaming upload sizing vs the flat reference: the wire-payload size the
// planner meters for a rope (wire_payload_size_ref) or a planned delta
// (wire_payload_size_delta) must equal wire_payload_size over the flattened
// bytes, at every compression level a service uploads with. The rsync
// signature/delta pair is covered in test_rsync; the engine-level worlds
// are pinned by the stream_scale golden digests.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "chunking/rsync.hpp"
#include "client/sync_engine.hpp"
#include "fs/file_ops.hpp"

namespace cloudsync {
namespace {

/// Every upload compression level any service uses on any access method,
/// plus 0 (no compression).
std::set<int> upload_levels() {
  std::set<int> levels{0};
  for (const service_profile& s : all_services()) {
    for (const access_method m : all_access_methods) {
      levels.insert(s.method(m).upload_compression_level);
    }
  }
  return levels;
}

/// A rope with deliberately awkward segmentation (7, 15, 31, ... bytes), so
/// the streaming sizer and probe see piece boundaries that line up with
/// nothing.
content_ref chopped_rope(byte_view data) {
  content_ref::builder b;
  std::size_t off = 0;
  for (std::size_t seg = 7; off < data.size(); seg = seg * 2 + 1) {
    const std::size_t len = std::min(seg, data.size() - off);
    b.append_bytes(data.subspan(off, len));
    off += len;
  }
  return b.build();
}

TEST(StreamSync, ContentPayloadSizeMatchesFlatAtEveryUploadLevel) {
  rng r(41);
  // Compressible, text, incompressible (the probe's skip path) and one
  // input below the probe's minimum size.
  const byte_buffer inputs[] = {
      make_compressed_file(r, 96 * KiB), make_text_file(r, 64 * KiB),
      random_bytes(r, 48 * KiB), make_text_file(r, 3000)};
  const std::set<int> levels = upload_levels();
  ASSERT_GE(levels.size(), 3u);
  for (const byte_buffer& data : inputs) {
    const content_ref ref = chopped_rope(data);
    ASSERT_GT(ref.segment_count(), 1u);
    for (const int level : levels) {
      EXPECT_EQ(wire_payload_size_ref(ref, level),
                wire_payload_size(ref.flatten(), level))
          << "size " << data.size() << " level " << level;
    }
  }
}

/// The planner's delta path at one rsync block size: sign the old version,
/// stream the new one through the delta job (as sync_protocol's rsync plan
/// does), and size the delta's wire form without building it. It must equal
/// the flat size of the serialized delta at every upload level.
void expect_delta_sizes_match(std::size_t block_size) {
  rng r(43 + block_size);
  const std::set<int> levels = upload_levels();

  // Compressible base with an interior random patch, a compressible insert
  // and an appended tail: copy runs plus literals of both kinds.
  byte_buffer text_old = make_text_file(r, 320 * KiB);
  byte_buffer text_new = text_old;
  const byte_buffer patch = random_bytes(r, 700);
  std::memcpy(text_new.data() + text_new.size() / 3, patch.data(),
              patch.size());
  const byte_buffer insert = make_text_file(r, 20 * KiB);
  text_new.insert(text_new.begin() + (2 * text_new.size()) / 3,
                  insert.begin(), insert.end());
  const byte_buffer tail = make_text_file(r, 9 * KiB);
  text_new.insert(text_new.end(), tail.begin(), tail.end());

  // Incompressible base with a random insert: the literal region trips the
  // probe's skip path.
  const byte_buffer rand_old = random_bytes(r, 300 * KiB);
  byte_buffer rand_new = rand_old;
  const byte_buffer rand_insert = random_bytes(r, 24 * KiB);
  rand_new.insert(rand_new.begin() + 100 * KiB, rand_insert.begin(),
                  rand_insert.end());

  const std::pair<const byte_buffer*, const byte_buffer*> cases[] = {
      {&text_old, &text_new}, {&rand_old, &rand_new}};
  for (const auto& [old_data, new_data] : cases) {
    const content_ref old_ref = chopped_rope(*old_data);
    const content_ref new_ref = chopped_rope(*new_data);
    const file_signature sig = compute_signature_ref(old_ref, block_size);
    const file_delta d = delta_from_events(
        sig.block_size, new_ref, compute_delta_events(sig, new_ref));
    const byte_buffer wire = serialize_delta(d);
    ASSERT_GT(wire.size(), 4096u);  // large enough for the probe to run
    for (const int level : levels) {
      EXPECT_EQ(wire_payload_size_delta(d, level),
                wire_payload_size(wire, level))
          << "block " << block_size << " wire " << wire.size() << " level "
          << level;
    }
  }
}

TEST(StreamSync, DropboxDeltaPayloadSizeMatchesSerializedWire) {
  expect_delta_sizes_match(dropbox().delta_chunk_size);
}

TEST(StreamSync, SugarSyncLargeDeltaBlocksIdentical) {
  // 128 KiB delta blocks stress different tail/boundary cases than 10 KiB;
  // no golden digest covers SugarSync's block size.
  ASSERT_EQ(sugarsync().delta_chunk_size, 128 * KiB);
  expect_delta_sizes_match(sugarsync().delta_chunk_size);
}

}  // namespace
}  // namespace cloudsync
