#include "serve/sha256.hh"

#include <bit>
#include <cstring>

#include "core/simd_kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define HYPAR_SHA_X86 1
#include <immintrin.h>
#else
#define HYPAR_SHA_X86 0
#endif

namespace hypar::serve {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRoundK[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

void
compressPortable(std::uint32_t *state, const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t{block[4 * i]} << 24) |
               (std::uint32_t{block[4 * i + 1]} << 16) |
               (std::uint32_t{block[4 * i + 2]} << 8) |
               std::uint32_t{block[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                                 std::rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                                 std::rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kRoundK[i] + w[i];
        const std::uint32_t s0 =
            std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

} // namespace

void
sha256BlocksPortable(std::uint32_t *state, const std::uint8_t *blocks,
                     std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        compressPortable(state, blocks + 64 * i);
}

#if HYPAR_SHA_X86

/**
 * The SHA extensions keep the eight working variables as two
 * registers of four, ABEF and CDGH. SHA256RNDS2 runs two rounds,
 * taking CDGH, ABEF and two (W[t] + K[t]) sums and returning the new
 * ABEF (the old ABEF becomes the new CDGH), and MSG1/MSG2 extend the
 * message schedule four words at a time:
 *
 *   W[t..t+3] = MSG2(MSG1(W[t-16..t-13], W[t-12..t-9]) + W[t-7..t-4],
 *                    W[t-4..t-1])
 */
__attribute__((target("sha,sse4.1"))) void
sha256BlocksShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                  std::size_t count)
{
    // Byte swap within each 32-bit word (the message is big-endian).
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    // Registers are named from the high lane down: state[0..3] loads
    // as DCBA, state[4..7] as HGFE.
    const __m128i cdab = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state)), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4)),
        0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (std::size_t b = 0; b < count; ++b) {
        const std::uint8_t *block = blocks + 64 * b;
        const __m128i abefSave = abef;
        const __m128i cdghSave = cdgh;
        __m128i w[4]; // W[4g..4g+3] lives in w[g % 4]
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            if (g < 4) {
                w[g] = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(block + 16 * g)),
                    bswap);
            } else {
                const __m128i prev1 = w[(g + 3) % 4]; // W[t-4..t-1]
                const __m128i prev2 = w[(g + 2) % 4]; // W[t-8..t-5]
                const __m128i prev3 = w[(g + 1) % 4]; // W[t-12..t-9]
                const __m128i sum = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[g % 4], prev3),
                    _mm_alignr_epi8(prev1, prev2, 4));
                w[g % 4] = _mm_sha256msg2_epu32(sum, prev1);
            }
            __m128i wk = _mm_add_epi32(
                w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                              kRoundK + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
        }
        abef = _mm_add_epi32(abef, abefSave);
        cdgh = _mm_add_epi32(cdgh, cdghSave);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

bool
sha256ShaNiAvailable()
{
    static const bool ok = __builtin_cpu_supports("sha") != 0 &&
                           __builtin_cpu_supports("sse4.1") != 0;
    return ok;
}

#else

void
sha256BlocksShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                  std::size_t count)
{
    sha256BlocksPortable(state, blocks, count); // never selected
}

bool
sha256ShaNiAvailable()
{
    return false;
}

#endif // HYPAR_SHA_X86

Sha256Blocks
sha256ActiveBlocks()
{
    static const Sha256Blocks chosen =
        !core::simd::scalarPinned() && sha256ShaNiAvailable()
            ? sha256BlocksShaNi
            : sha256BlocksPortable;
    return chosen;
}

Sha256::Sha256(Sha256Blocks blocks) : blocks_(blocks)
{
    std::memcpy(state_, kInit, sizeof(state_));
}

void
Sha256::update(std::string_view data)
{
    totalBytes_ += data.size();
    std::size_t pos = 0;
    if (bufferLen_ > 0) {
        const std::size_t take =
            std::min(data.size(), sizeof(buffer_) - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        pos = take;
        if (bufferLen_ == sizeof(buffer_)) {
            blocks_(state_, buffer_, 1);
            bufferLen_ = 0;
        }
    }
    if (const std::size_t whole = (data.size() - pos) / 64; whole > 0) {
        blocks_(state_,
                reinterpret_cast<const std::uint8_t *>(data.data() + pos),
                whole);
        pos += 64 * whole;
    }
    if (pos < data.size()) {
        std::memcpy(buffer_, data.data() + pos, data.size() - pos);
        bufferLen_ = data.size() - pos;
    }
}

std::string
Sha256::hexDigest()
{
    // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
    const std::uint64_t bits = totalBytes_ * 8;
    std::uint8_t pad[72];
    std::size_t pad_len = 0;
    pad[pad_len++] = 0x80;
    while ((bufferLen_ + pad_len) % 64 != 56)
        pad[pad_len++] = 0;
    for (int i = 7; i >= 0; --i)
        pad[pad_len++] = static_cast<std::uint8_t>(bits >> (8 * i));
    update(std::string_view(reinterpret_cast<const char *>(pad), pad_len));

    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (const std::uint32_t word : state_) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out.push_back(kHex[(word >> shift) & 0xf]);
    }
    return out;
}

std::string
sha256Hex(std::string_view data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.hexDigest();
}

} // namespace hypar::serve
