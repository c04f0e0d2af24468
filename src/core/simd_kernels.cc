/**
 * @file
 * Kernel implementations. See simd_kernels.hh for the bit-identity
 * contract; every AVX2 body mirrors its scalar twin addition-for-
 * addition and comparison-for-comparison.
 */

#include "simd_kernels.hh"

#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define HYPAR_SIMD_X86 1
#include <immintrin.h>
#else
#define HYPAR_SIMD_X86 0
#endif

namespace hypar::core::simd {

namespace {

// ---------------------------------------------------------------- scalar

void
expandLevelScalar(double *trans, std::size_t half, const double *row0,
                  const double *row1, const std::uint8_t *pcnt,
                  unsigned h)
{
    for (std::size_t i = 0; i < half; ++i) {
        const unsigned a = h - pcnt[i];
        const double acc = trans[i];
        trans[i] = acc + row0[a];
        trans[i + half] = acc + row1[a];
    }
}

std::uint32_t
argminAddScalar(const double *cost, const double *trans, std::size_t n,
                double *min_out)
{
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_p = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const double c = cost[p] + trans[p];
        if (c < best) {
            best = c;
            best_p = static_cast<std::uint32_t>(p);
        }
    }
    *min_out = best;
    return best_p;
}

void
relaxRowScalar(double *best, std::uint32_t *prev, const double *trans,
               double cost_p, std::uint32_t p, std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s) {
        const double c = cost_p + trans[s];
        if (c < best[s]) {
            best[s] = c;
            prev[s] = p;
        }
    }
}

constexpr Kernels kScalar{"scalar", expandLevelScalar, argminAddScalar,
                          relaxRowScalar};

// ----------------------------------------------------------------- avx2

#if HYPAR_SIMD_X86

/**
 * Compress a 4x64-bit comparison mask into the 4x32-bit shape integer
 * blends want (lane j of the result = low dword of lane j).
 */
__attribute__((target("avx2"))) inline __m128i
mask64to32(__m256d m)
{
    const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const __m256i packed =
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m), idx);
    return _mm256_castsi256_si128(packed);
}

__attribute__((target("avx2"))) void
expandLevelAvx2(double *trans, std::size_t half, const double *row0,
                const double *row1, const std::uint8_t *pcnt, unsigned h)
{
    const __m128i vh = _mm_set1_epi32(static_cast<int>(h));
    std::size_t i = 0;
    for (; i + 4 <= half; i += 4) {
        // a[j] = h - pcnt[i + j]; the rows are tiny (<= H + 1 doubles,
        // L1-resident), so the pair of gathers stays cheap.
        std::uint32_t packed;
        std::memcpy(&packed, pcnt + i, sizeof packed);
        const __m128i pc = _mm_cvtepu8_epi32(
            _mm_cvtsi32_si128(static_cast<int>(packed)));
        const __m128i a = _mm_sub_epi32(vh, pc);
        const __m256d acc = _mm256_loadu_pd(trans + i);
        // Fully-masked gather form: identical result to the plain
        // gather, but with a defined pass-through operand (the plain
        // intrinsic expands to an undefined one, which trips
        // -Wmaybe-uninitialized under gcc).
        const __m256d all =
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        const __m256d zero = _mm256_setzero_pd();
        const __m256d r0 =
            _mm256_mask_i32gather_pd(zero, row0, a, all, 8);
        const __m256d r1 =
            _mm256_mask_i32gather_pd(zero, row1, a, all, 8);
        _mm256_storeu_pd(trans + i, _mm256_add_pd(acc, r0));
        _mm256_storeu_pd(trans + i + half, _mm256_add_pd(acc, r1));
    }
    for (; i < half; ++i) {
        const unsigned a = h - pcnt[i];
        const double acc = trans[i];
        trans[i] = acc + row0[a];
        trans[i + half] = acc + row1[a];
    }
}

__attribute__((target("avx2"))) std::uint32_t
argminAddAvx2(const double *cost, const double *trans, std::size_t n,
              double *min_out)
{
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_p = 0;
    std::size_t i = 0;
    if (n >= 4) {
        // Per-lane running (min, index-of-first-min); the strict <
        // keeps the first occurrence within each lane, and lanes at
        // one iteration hold consecutive indices, so the final
        // lexicographic (value, index) merge reproduces the scalar
        // ascending strict-< winner exactly.
        __m256d vmin =
            _mm256_set1_pd(std::numeric_limits<double>::infinity());
        __m128i vidx = _mm_setzero_si128();
        const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
        for (; i + 4 <= n; i += 4) {
            const __m256d c = _mm256_add_pd(_mm256_loadu_pd(cost + i),
                                            _mm256_loadu_pd(trans + i));
            const __m256d lt = _mm256_cmp_pd(c, vmin, _CMP_LT_OQ);
            vmin = _mm256_blendv_pd(vmin, c, lt);
            const __m128i cur = _mm_add_epi32(
                _mm_set1_epi32(static_cast<int>(i)), lane);
            vidx = _mm_blendv_epi8(vidx, cur, mask64to32(lt));
        }
        alignas(32) double vals[4];
        alignas(16) std::int32_t idxs[4];
        _mm256_store_pd(vals, vmin);
        _mm_store_si128(reinterpret_cast<__m128i *>(idxs), vidx);
        for (int lane_i = 0; lane_i < 4; ++lane_i) {
            const auto p = static_cast<std::uint32_t>(idxs[lane_i]);
            if (vals[lane_i] < best ||
                (vals[lane_i] == best && p < best_p)) {
                best = vals[lane_i];
                best_p = p;
            }
        }
    }
    // Tail indices all exceed the vector winners', so strict < alone
    // preserves the tie-break.
    for (; i < n; ++i) {
        const double c = cost[i] + trans[i];
        if (c < best) {
            best = c;
            best_p = static_cast<std::uint32_t>(i);
        }
    }
    *min_out = best;
    return best_p;
}

__attribute__((target("avx2"))) void
relaxRowAvx2(double *best, std::uint32_t *prev, const double *trans,
             double cost_p, std::uint32_t p, std::size_t n)
{
    const __m256d vc = _mm256_set1_pd(cost_p);
    const __m128i vp = _mm_set1_epi32(static_cast<int>(p));
    std::size_t s = 0;
    for (; s + 4 <= n; s += 4) {
        const __m256d c = _mm256_add_pd(vc, _mm256_loadu_pd(trans + s));
        const __m256d b = _mm256_loadu_pd(best + s);
        const __m256d lt = _mm256_cmp_pd(c, b, _CMP_LT_OQ);
        _mm256_storeu_pd(best + s, _mm256_blendv_pd(b, c, lt));
        __m128i pv;
        std::memcpy(&pv, prev + s, sizeof pv);
        pv = _mm_blendv_epi8(pv, vp, mask64to32(lt));
        std::memcpy(prev + s, &pv, sizeof pv);
    }
    for (; s < n; ++s) {
        const double c = cost_p + trans[s];
        if (c < best[s]) {
            best[s] = c;
            prev[s] = p;
        }
    }
}

constexpr Kernels kAvx2{"avx2", expandLevelAvx2, argminAddAvx2,
                        relaxRowAvx2};

#endif // HYPAR_SIMD_X86

} // namespace

const Kernels &
scalarKernels()
{
    return kScalar;
}

bool
avx2Available()
{
#if HYPAR_SIMD_X86
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
#else
    return false;
#endif
}

const Kernels &
avx2Kernels()
{
#if HYPAR_SIMD_X86
    return kAvx2;
#else
    return kScalar; // never selected; keeps the symbol total
#endif
}

bool
scalarPinned()
{
    // HYPAR_SIMD=scalar pins every portable kernel — the lever for
    // engine-level before/after bench rows and for forcing the
    // portable path on a machine whose vector units are suspect. Unset
    // (the normal case) or any other value means best-available.
    static const bool pinned = [] {
        const char *force = std::getenv("HYPAR_SIMD");
        return force != nullptr && std::strcmp(force, "scalar") == 0;
    }();
    return pinned;
}

const Kernels &
activeKernels()
{
    static const Kernels &chosen =
        !scalarPinned() && avx2Available() ? avx2Kernels()
                                           : scalarKernels();
    return chosen;
}

} // namespace hypar::core::simd
