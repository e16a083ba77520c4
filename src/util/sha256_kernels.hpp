// SHA-256 block kernels behind sha256_hasher (implementation detail).
//
// Two kernels compress whole 64-byte blocks into the eight-word state: the
// portable scalar one, and one built on the x86 SHA extensions (SHA-NI).
// sha256_hasher picks once per process by cpuid; both give identical digests.
// Exposed so tests can drive each kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cloudsync::detail {

/// Compress `blocks` consecutive 64-byte blocks at `data` into `state`.
using sha256_block_fn = void (*)(std::uint32_t state[8],
                                 const std::uint8_t* data, std::size_t blocks);

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks);

/// The SHA-NI kernel, or nullptr when this CPU lacks the SHA extensions (or
/// SSSE3/SSE4.1), and always on non-x86 builds.
sha256_block_fn sha256_shani_kernel();

/// The kernel sha256_hasher uses: SHA-NI when available, else portable.
sha256_block_fn sha256_active_kernel();

/// "sha_ni" or "portable": which kernel sha256_active_kernel() returns.
const char* sha256_kernel_name();

}  // namespace cloudsync::detail
