// Known-answer and property tests for the from-scratch hash primitives.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/crc32.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace cloudsync {
namespace {

// --- MD5 (RFC 1321 test suite) -------------------------------------------

struct md5_vector {
  const char* input;
  const char* digest;
};

// Names each case by its expected digest; gtest's default would print the
// two pointers, which makes the discovered test names change per build.
void PrintTo(const md5_vector& v, std::ostream* os) { *os << v.digest; }

class Md5KnownAnswers : public ::testing::TestWithParam<md5_vector> {};

TEST_P(Md5KnownAnswers, MatchesRfc1321) {
  const auto& [input, digest] = GetParam();
  EXPECT_EQ(md5(as_bytes(input)).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5KnownAnswers,
    ::testing::Values(
        md5_vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        md5_vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        md5_vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        md5_vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        md5_vector{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        md5_vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                   "56789",
                   "d174ab98d277d9f5a5611c2c9f419d9f"},
        md5_vector{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

// --- SHA-1 (FIPS 180 examples) --------------------------------------------

TEST(Sha1, KnownAnswers) {
  EXPECT_EQ(sha1(as_bytes("")).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1(as_bytes("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1(as_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                          "pnopq"))
                .hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// --- SHA-256 (FIPS 180 examples) -------------------------------------------

TEST(Sha256, KnownAnswers) {
  EXPECT_EQ(sha256(as_bytes("")).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256(as_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256(as_bytes(
                 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// --- SHA-256 block kernels: portable and SHA-NI ------------------------------

/// FIPS 180-4 padding around one block kernel: the digest sha256() gives when
/// that kernel is the one chosen.
sha256_digest sha256_with(detail::sha256_block_fn kernel, byte_view data) {
  std::uint32_t st[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                         0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  const std::size_t whole = data.size() / 64;
  kernel(st, data.data(), whole);
  std::uint8_t tail[128] = {};
  const std::size_t rest = data.size() - whole * 64;
  if (rest > 0) std::memcpy(tail, data.data() + whole * 64, rest);
  tail[rest] = 0x80;
  const std::size_t blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  kernel(st, tail, blocks);
  sha256_digest out;
  for (int i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(st[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

/// Parameter: the kernel's name ("portable" or "sha_ni").
class Sha256Kernels : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "portable") {
      kernel_ = &detail::sha256_blocks_portable;
      return;
    }
    kernel_ = detail::sha256_shani_kernel();
    if (kernel_ == nullptr) {
      GTEST_SKIP() << "this CPU lacks the x86 SHA extensions (cpuid leaf 7 "
                      "EBX bit 29 with SSSE3 and SSE4.1); sha256() runs the "
                      "portable kernel";
    }
  }
  detail::sha256_block_fn kernel_ = nullptr;
};

TEST_P(Sha256Kernels, Fips180Vectors) {
  const std::string million(1'000'000, 'a');
  const struct {
    std::string input;
    const char* digest;
  } vectors[] = {
      {"",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {million,
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(sha256_with(kernel_, as_bytes(v.input)).hex(), v.digest)
        << v.input.size() << " bytes";
    EXPECT_EQ(sha256(as_bytes(v.input)).hex(), v.digest)
        << v.input.size() << " bytes";
  }
}

TEST_P(Sha256Kernels, PaddingBoundaryLengths) {
  rng r(11);
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const byte_buffer data = random_bytes(r, len);
    const sha256_digest want = sha256_with(&detail::sha256_blocks_portable,
                                           data);
    EXPECT_EQ(sha256_with(kernel_, data), want) << len;
    EXPECT_EQ(sha256(data), want) << len;
  }
}

/// Random lengths fed through sha256_hasher::update in random pieces (the
/// kernel sha256() chose, over the buffered and whole-block paths) against
/// this kernel and the portable one over the whole message.
TEST_P(Sha256Kernels, SeededDifferentialThroughUpdate) {
  rng r(12);
  for (int iter = 0; iter < 300; ++iter) {
    const auto len = static_cast<std::size_t>(r.uniform_range(0, 5000));
    const byte_buffer data = random_bytes(r, len);
    sha256_hasher h;
    std::size_t off = 0;
    while (off < len) {
      const auto piece = static_cast<std::size_t>(r.uniform_range(0, len - off));
      h.update(byte_view{data}.subspan(off, piece));
      off += piece;
    }
    const sha256_digest got = h.finish();
    EXPECT_EQ(got, sha256_with(&detail::sha256_blocks_portable, data))
        << "len " << len;
    EXPECT_EQ(got, sha256_with(kernel_, data)) << "len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Kernels,
                         ::testing::Values("portable", "sha_ni"),
                         [](const auto& info) { return info.param; });

TEST(Sha256KernelChoice, ActiveKernelIsNamed) {
  const std::string name = detail::sha256_kernel_name();
  if (detail::sha256_shani_kernel() != nullptr) {
    EXPECT_EQ(name, "sha_ni");
    EXPECT_EQ(detail::sha256_active_kernel(), detail::sha256_shani_kernel());
  } else {
    EXPECT_EQ(name, "portable");
    EXPECT_EQ(detail::sha256_active_kernel(), &detail::sha256_blocks_portable);
  }
}

// --- CRC-32 ------------------------------------------------------------------

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(as_bytes("")), 0u);
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, SeedContinuation) {
  const std::string s = "hello world, this is a split crc test";
  const auto mid = s.size() / 2;
  const std::uint32_t whole = crc32(as_bytes(s));
  const std::uint32_t part1 = crc32(as_bytes(std::string_view(s).substr(0, mid)));
  const std::uint32_t split =
      crc32(as_bytes(std::string_view(s).substr(mid)), part1);
  EXPECT_EQ(whole, split);
}

// --- incremental == one-shot property across chunkings ----------------------

class IncrementalHashing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalHashing, Md5ChunkedEqualsOneShot) {
  rng r(7);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  md5_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), md5(data));
}

TEST_P(IncrementalHashing, Sha1ChunkedEqualsOneShot) {
  rng r(8);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  sha1_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), sha1(data));
}

TEST_P(IncrementalHashing, Sha256ChunkedEqualsOneShot) {
  rng r(9);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  sha256_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), sha256(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, IncrementalHashing,
                         ::testing::Values(1, 3, 63, 64, 65, 127, 1000, 4096));

// --- boundary lengths around the 64-byte block ------------------------------

class HashBlockBoundaries : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashBlockBoundaries, AllThreeHashesAreLengthSensitive) {
  rng r(10);
  const byte_buffer a = random_bytes(r, GetParam());
  byte_buffer b = a;
  if (!b.empty()) {
    b.back() ^= 1;
    EXPECT_NE(md5(a), md5(b));
    EXPECT_NE(sha1(a), sha1(b));
    EXPECT_NE(sha256(a), sha256(b));
  }
  // Appending a byte always changes the digest.
  byte_buffer c = a;
  c.push_back(0);
  EXPECT_NE(md5(a), md5(c));
  EXPECT_NE(sha1(a), sha1(c));
  EXPECT_NE(sha256(a), sha256(c));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, HashBlockBoundaries,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128, 1000));

TEST(Digest, Prefix64IsStable) {
  const md5_digest d = md5(as_bytes("abc"));
  EXPECT_EQ(d.prefix64(), 0x900150983cd24fb0ull);
}

TEST(Digest, Ordering) {
  const md5_digest a = md5(as_bytes("a"));
  const md5_digest b = md5(as_bytes("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

}  // namespace
}  // namespace cloudsync
