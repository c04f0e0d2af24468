/**
 * @file
 * Runtime-dispatched scalar/AVX2 kernel pairs for the partition
 * searches' contiguous inner loops.
 *
 * Three loop shapes dominate the table engines (ISSUE 8 / ROADMAP
 * item 5): the level-bit expansion that materializes all 2^H
 * transition sums from one factored row pair, the dense engine's
 * predecessor argmin over cost[p] + trans[p], and the elementwise
 * relax of one predecessor into a (best, prev) row in A*'s incumbent
 * beam pass. All three are branch-light float reduces over contiguous
 * tables — prime AVX2 targets — while the A* predecessor scan stays
 * scalar on purpose: its candidate walk is data-dependent and gathers
 * from state-indexed tables, where Skylake-class gather throughput
 * makes a vector version break-even at best (measured; see
 * bench_partitioner_micro).
 *
 * Bit-identity by construction: every vector kernel performs exactly
 * the additions and exactly the comparisons of its scalar twin — same
 * operands, same association order, same strict-< selection — so the
 * results are bit-identical, not merely close. The per-lane argmin
 * keeps the first (lowest-index) minimum per lane and the horizontal
 * merge is lexicographic in (value, index), which reproduces the
 * ascending strict-< scan's winner exactly; relaxRow keeps the
 * incumbent on exact ties, which equals the shared better() rule
 * whenever predecessors are relaxed in ascending order (beamPass
 * sorts its frontier, so they are). test_simd_kernels pins
 * scalar-vs-AVX2 bit-equivalence across H = 1..16 including
 * non-multiple-of-lane tails, and runs under ASan/UBSan in CI.
 *
 * activeKernels() is also the simulator's switch: the single-level
 * sweep (sim::TrainingSimulator::sweepNeighborhood) scores four masks
 * per pass with sim::sweepMasksAvx2 exactly when the AVX2 set is
 * active, so HYPAR_SIMD=scalar pins both the search kernels above and
 * the scalar sweep kernel.
 */

#ifndef HYPAR_CORE_SIMD_KERNELS_HH
#define HYPAR_CORE_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace hypar::core::simd {

/**
 * One dispatchable kernel set. All pointers are non-null; `name` is
 * "scalar" or "avx2" for logs and bench rows.
 */
struct Kernels {
    const char *name;

    /**
     * One level-bit expansion step: for i in [0, half),
     *
     *   a            = h - popcount(i)   (given as pcnt[i])
     *   trans[i+half] = trans[i] + row1[a]
     *   trans[i]      = trans[i] + row0[a]
     *
     * `row0`/`row1` are the factored-table rows for target bit 0/1 at
     * level h (each h+1 entries, so a <= h keeps reads in range).
     */
    void (*expandLevel)(double *trans, std::size_t half,
                        const double *row0, const double *row1,
                        const std::uint8_t *pcnt, unsigned h);

    /**
     * Argmin of cost[p] + trans[p] over p in [0, n) under the shared
     * tie-break rule (ascending strict <: lowest index among exact
     * minima). Writes the winning sum to *min_out and returns the
     * winning p. n >= 1.
     */
    std::uint32_t (*argminAdd)(const double *cost, const double *trans,
                               std::size_t n, double *min_out);

    /**
     * Elementwise relax of predecessor p into a (best, prev) row:
     * for s in [0, n), when cost_p + trans[s] < best[s], set
     * best[s] = cost_p + trans[s] and prev[s] = p. Exact ties keep
     * the incumbent — equal to better() iff callers relax
     * predecessors in ascending p order.
     */
    void (*relaxRow)(double *best, std::uint32_t *prev,
                     const double *trans, double cost_p,
                     std::uint32_t p, std::size_t n);
};

/** The portable reference set; always valid. */
const Kernels &scalarKernels();

/** True when the CPU executes AVX2 (checked once, cached). */
bool avx2Available();

/**
 * The AVX2 set. Valid to *call* only when avx2Available(); always
 * valid to take (test code compares the two sets directly).
 */
const Kernels &avx2Kernels();

/**
 * True when HYPAR_SIMD=scalar pins the portable kernels. The variable
 * is read here only, once per process; every runtime-dispatched kernel
 * in the tree (these sets, the sweep lanes, the SHA-256 compression in
 * serve/sha256.hh) consults this.
 */
bool scalarPinned();

/** avx2Kernels() when supported and not scalarPinned(),
 *  scalarKernels() otherwise. */
const Kernels &activeKernels();

} // namespace hypar::core::simd

#endif // HYPAR_CORE_SIMD_KERNELS_HH
