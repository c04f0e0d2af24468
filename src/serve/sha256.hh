/**
 * @file
 * SHA-256 (FIPS 180-4) for the serving tier's content-addressed keys.
 *
 * Self-contained: the repo carries no crypto dependency. Sha256
 * buffers input and hands whole 64-byte blocks to one of two
 * compression kernels with the same contract:
 *
 *  - sha256BlocksPortable: the straightforward 64-round compression,
 *    valid everywhere;
 *  - sha256BlocksShaNi: the x86 SHA extensions (SHA256RNDS2 and the
 *    MSG1/MSG2 message schedule), about 5x faster on a serving key.
 *
 * The kernel is picked once per process: SHA-NI when the CPU has it
 * and HYPAR_SIMD is not `scalar` (the same switch that pins the
 * search and sweep kernels, read once in core/simd_kernels.cc). Both
 * kernels are exported so tests compare them directly;
 * `tests/test_serve.cc` pins the pair against each other and against
 * the FIPS 180-4 example digests ("abc", empty string, the two-block
 * message), so the on-disk cache key format can never silently drift.
 */

#ifndef HYPAR_SERVE_SHA256_HH
#define HYPAR_SERVE_SHA256_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hypar::serve {

/** A compression kernel: absorbs `count` consecutive 64-byte blocks
 *  into the eight-word hash `state`. */
using Sha256Blocks = void (*)(std::uint32_t *state,
                              const std::uint8_t *blocks,
                              std::size_t count);

/** The portable kernel; always valid. */
void sha256BlocksPortable(std::uint32_t *state, const std::uint8_t *blocks,
                          std::size_t count);

/** The SHA-extensions kernel. Valid to call only when
 *  sha256ShaNiAvailable(). */
void sha256BlocksShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                       std::size_t count);

/** True when the CPU executes the SHA extensions (checked once). */
bool sha256ShaNiAvailable();

/** The kernel Sha256 uses by default (chosen once per process). */
Sha256Blocks sha256ActiveBlocks();

/** Incremental SHA-256 context (update as many times as you like). */
class Sha256
{
  public:
    /** A context compressing through `blocks` (default: the active
     *  kernel; tests pass one explicitly). */
    explicit Sha256(Sha256Blocks blocks = sha256ActiveBlocks());

    /** Absorb `data`; callable any number of times before digest(). */
    void update(std::string_view data);

    /** Finalize and return the 64-char lowercase hex digest. */
    std::string hexDigest();

  private:
    Sha256Blocks blocks_;
    std::uint32_t state_[8];
    std::uint64_t totalBytes_ = 0;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_ = 0;
};

/** One-shot convenience: lowercase hex SHA-256 of `data`. */
std::string sha256Hex(std::string_view data);

} // namespace hypar::serve

#endif // HYPAR_SERVE_SHA256_HH
