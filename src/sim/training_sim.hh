/**
 * @file
 * Event-driven simulation of one DNN training step on the accelerator
 * array (paper Section 6.1: "We use an event-driven simulation ... we
 * modeled the computation cost and the memory access between vaults, we
 * also considered the tensor communication").
 *
 * The array executes in lockstep: every accelerator holds an identical
 * shard (each hierarchy level halves either the batch or the kernel), so
 * per-layer compute is symmetric and the simulator tracks one
 * representative accelerator plus the hierarchical tensor exchanges.
 *
 * A step is a task list, scheduled in emission order:
 *
 *   forward   l = 0..L-1: compute; mp partial-sum reductions (intra);
 *                         dp-mp boundary feature transfers (inter-F)
 *   backward  l = L-1..1: compute; boundary error transfers (inter-E)
 *   gradient  l = 0..L-1: compute; dp gradient reductions (intra)
 *
 * Compute tasks overlap PE time with DRAM streaming (double buffering:
 * task time = max of the two). Exchanges occupy the interconnect; with
 * SimOptions::overlapGradComm the gradient reductions run asynchronously
 * on the network while later layers keep computing (the classic
 * all-reduce overlap; off by default to match the paper).
 *
 * The event-driven schedule has a closed form: two resource clocks
 * (serial chain, network), advanced task by task — async exchanges
 * start at max(network, serial), synchronous exchanges join the two.
 * training_sim.cc writes that algebra once (its private Tapes) and
 * every entry point here — simulate, simulateSteadyState,
 * overlapSchedule, sweepNeighborhood's scalar kernel — schedules
 * through it; the AVX2 sweep kernel replays the same algebra in four
 * lanes and is pinned to the scalar kernel bit for bit
 * (tests/test_sweep_lanes.cc). The discrete-event queue that resolves
 * the same schedule event by event lives in tests/support/ as the
 * oracle that pins the closed form (tests/test_queue_oracle.cc).
 */

#ifndef HYPAR_SIM_TRAINING_SIM_HH
#define HYPAR_SIM_TRAINING_SIM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/energy_model.hh"
#include "arch/row_stationary.hh"
#include "core/comm_model.hh"
#include "core/plan.hh"
#include "noc/topology.hh"
#include "sim/metrics.hh"

namespace hypar::sim {

/** Simulation knobs. */
struct SimOptions
{
    /** Overlap gradient reductions with remaining compute. */
    bool overlapGradComm = false;

    /** Record a per-task trace (examples / debugging). */
    bool recordTrace = false;

    /**
     * Compute-time multiplier for a degraded array (>= 1.0 when some
     * nodes are slow or dead, 1.0 pristine): the lockstep array runs at
     * the pace of the slowest surviving node, which additionally picks
     * up its share of the dead nodes' work, so every compute task's
     * seconds are multiplied by this factor
     * (arch::computeScaleFactor derives it from a FaultMap). Energy is
     * deliberately left unscaled: slow silicon still performs the same
     * MACs and DRAM accesses. Must be positive and finite.
     */
    double computeScale = 1.0;
};

/** One executed task, for trace inspection. */
struct TraceEntry
{
    double start = 0.0;
    double end = 0.0;
    std::string label;
};

/**
 * One task of a training step: the simulator's task list is built as
 * TapeTasks and scheduled through the two-clock algebra. It records
 * which tape the task advances, by how much, and (once resolved by
 * TrainingSimulator::overlapSchedule) its start/end. Compute tasks and
 * synchronous exchanges ride the *serial* tape (the lockstep chain);
 * asynchronous gradient reductions ride the *network* tape. A
 * synchronous exchange additionally joins the two tapes (it occupies
 * the interconnect, so the network tape is busy until it completes).
 */
struct TapeTask
{
    enum class Tape { kSerial, kNetwork };
    Tape tape = Tape::kSerial;
    bool exchange = false; //!< occupies the interconnect
    bool async = false;    //!< network-tape task (overlapped reduction)
    int phase = 0;         //!< 0 fwd, 1 bwd, 2 grad
    double seconds = 0.0;
    double start = 0.0;
    double end = 0.0;
    std::string label; //!< built only under SimOptions::recordTrace
};

/**
 * The two-tape decomposition of one training step: the serial compute
 * chain and the overlapped network chain, with every task's resolved
 * start/end. `stepSeconds` is when the later tape drains (the maximum
 * task end) and equals simulate()'s stepSeconds exactly. The
 * queue-driven oracle in tests/support/queue_reference.hh replays
 * these tasks event by event (tests/test_queue_oracle.cc,
 * tests/test_overlap_schedule.cc).
 */
struct TapeSchedule
{
    std::vector<TapeTask> tasks; //!< in dispatch (emission) order
    double serialEnd = 0.0;      //!< when the serial tape drains
    double networkEnd = 0.0;     //!< when the network tape drains
    double stepSeconds = 0.0;    //!< max task end == simulate()'s
};

/**
 * One task slot of a swept step (TrainingSimulator::sweepProgram) in
 * lane layout: its up-to-4 variants side by side, so the AVX2 kernel
 * selects all four lanes' variants with one in-register permute. Mask
 * m runs variant (m >> layer) & bits. Lane j of a 4-mask group g
 * (g a multiple of 4) therefore runs ((g >> layer) & bits) |
 * ((j >> layer) & bits): a scalar high part plus the slot-constant
 * lane pattern `lanes`.
 */
struct SweepRow
{
    enum class Kind : std::uint8_t { kCompute, kExchange, kAsyncExchange };

    double seconds[4] = {};
    double computeJ[4] = {}; //!< MACs, or an exchange's reduction adds
    double sramJOrBytes[4] = {}; //!< compute: sramJ; exchange: bytes
    double dramJOrCommJ[4] = {}; //!< compute: dramJ; exchange: commJ
    /** All ones when the variant emits a task (addExchange skips zero
     *  bytes), zero when it does not. */
    std::uint64_t present[4] = {};
    /** permutevar8x32 dword indices of lane j's variant for a zero
     *  high part: 2v and 2v + 1 with v = (j >> layer) & bits. */
    std::int32_t lanes[8] = {};
    std::uint32_t layer = 0; //!< variant = (mask >> layer) & bits
    std::uint32_t bits = 1;  //!< 1, or 3 for an inter exchange
    Kind kind = Kind::kCompute;
    std::uint8_t phase = 0; //!< 0 fwd, 1 bwd, 2 grad
};

/** A chain sweep's slot program: every task slot, in emission order. */
struct SweepProgram
{
    std::vector<SweepRow> rows;
    std::vector<std::string> labels; //!< per row, under recordTrace only
    std::size_t numLayers = 0;

    /** Masks 0 .. numMasks() - 1 select one variant per row. */
    std::uint64_t numMasks() const { return std::uint64_t{1} << numLayers; }
};

using SweepVisit =
    std::function<void(std::uint64_t, const StepMetrics &)>;

/**
 * The sweep's kernel pair. Both replay `program` for the masks in
 * [first, last), in ascending order, and visit StepMetrics
 * bit-identical to simulate() of the substituted plan. The scalar
 * kernel schedules one mask at a time through the two-clock algebra
 * and, given `trace`, refills it per mask. The AVX2 kernel scores
 * masks 4k..4k+3 in the four lanes with the same IEEE additions in
 * the same order; a lane whose variant is absent keeps its old values
 * (a blend, never an add of zero), and std::max(a, b) is a blend of b
 * over a where a < b. It needs avx2Available() and `first`, `last`
 * multiples of 4. TrainingSimulator::sweepNeighborhood picks the
 * pair's member through core::simd::activeKernels(), so
 * HYPAR_SIMD=scalar pins the scalar kernel.
 */
void sweepMasksScalar(const SweepProgram &program, std::uint64_t first,
                      std::uint64_t last, const SweepVisit &visit,
                      std::vector<TraceEntry> *trace = nullptr);
void sweepMasksAvx2(const SweepProgram &program, std::uint64_t first,
                    std::uint64_t last, const SweepVisit &visit);

/** Simulates training steps for one (network, array, topology) triple. */
class TrainingSimulator
{
  public:
    /**
     * @param model  communication model (carries network and batch).
     * @param acc    per-accelerator configuration.
     * @param energy per-operation energies.
     * @param topo   interconnect; its level count fixes the array size
     *               and must match the plans passed to simulate().
     */
    TrainingSimulator(const core::CommModel &model,
                      const arch::AcceleratorConfig &acc,
                      const arch::EnergyModel &energy,
                      const noc::Topology &topo,
                      const SimOptions &options = {});

    /** Simulate one training step under `plan`. */
    StepMetrics simulate(const core::HierarchicalPlan &plan) const;

    /**
     * Simulate `steps` back-to-back training steps and report the
     * steady-state step latency: (finish(last) - finish(first)) /
     * (steps - 1). Without gradient overlap this equals the single-
     * step latency exactly; with SimOptions::overlapGradComm the tail
     * gradient reductions of step s drain underneath step s+1's
     * forward compute, and the steady-state latency is lower — the
     * classic all-reduce/forward pipelining. The first synchronous
     * exchange of the next step provides natural backpressure (it
     * waits for the network to drain), which conservatively models
     * the weight-update dependency.
     *
     * Cost: the per-step task list is built once (reusing the
     * prefix-count table like every other entry point) and replayed
     * `steps` times on the same two tapes; only the first and last
     * step boundaries are kept, so memory is O(1) in `steps` (the
     * trace, under recordTrace, holds every replayed task). Exactly
     * equal to replicating the task list `steps` times and playing it
     * through the event queue (tests/test_queue_oracle.cc).
     */
    StepMetrics simulateSteadyState(const core::HierarchicalPlan &plan,
                                    std::size_t steps) const;

    /**
     * Incremental single-level sweep (the Fig. 9/10 building block):
     * visit simulate(base with level `level` replaced by each of the
     * 2^L masks) for all masks in ascending order, without rebuilding
     * per-plan state. Flipping one layer's choice at one level changes
     * at most two values of every task in the step (its own bit for
     * compute/intra tasks, the two endpoint bits for inter exchanges),
     * so every task slot's variants are precomputed once into the
     * sweepProgram() rows and each mask's StepMetrics is a straight
     * replay of the simulator's exact floating-point accumulation
     * order over the selected variants — bit-identical to a full
     * simulate() of the substituted plan (enforced by
     * tests/test_evaluator_batch.cc and tests/test_sweep_lanes.cc).
     *
     * Each mask schedules the selected variants through the same
     * two-clock algebra as simulate(), so under
     * SimOptions::overlapGradComm the async schedule is swept
     * incrementally too. Four consecutive masks share the program's
     * control flow, so with AVX2 (core::simd::activeKernels()) they
     * are scored together by sweepMasksAvx2; the scalar kernel serves
     * HYPAR_SIMD=scalar, CPUs without AVX2, sweeps of fewer than four
     * masks, and recordTrace. Under recordTrace the replay also emits
     * the per-task trace from the rows (labels are slot functions,
     * start/end come from the tapes), so lastTrace() after each visit
     * — and after the sweep — matches a direct simulate() of that
     * mask's plan exactly. Non-chain (DAG) networks are scored by one
     * simulate() per mask. Fatal when `level` is out of range or the
     * network has more than 24 weighted layers (2^L enumeration).
     */
    void sweepNeighborhood(const core::HierarchicalPlan &base,
                           std::size_t level,
                           const SweepVisit &visit) const;

    /**
     * The slot program sweepNeighborhood replays for a chain network:
     * one SweepRow per task slot that some mask emits. Exposed so
     * tests can run both sweep kernels on it directly. Fatal on the
     * sweepNeighborhood argument errors and on non-chain networks.
     */
    SweepProgram sweepProgram(const core::HierarchicalPlan &base,
                              std::size_t level) const;

    /**
     * The two-tape chain decomposition of one step of `plan` under the
     * current SimOptions: the task list simulate() schedules, each task
     * with its tape and resolved start/end (without overlapGradComm the
     * network tape carries no tasks of its own and the schedule
     * degenerates to the serial chain). Exposed so tests can replay it
     * through the queue-driven oracle in tests/support/. Labels are
     * filled only under recordTrace.
     */
    TapeSchedule overlapSchedule(const core::HierarchicalPlan &plan) const;

    /** Trace of the most recent simulate() (needs recordTrace). */
    const std::vector<TraceEntry> &lastTrace() const { return trace_; }

    /**
     * Approximate resident size of the simulator's precomputed state
     * (the prefix-count table and any retained trace). Feeds the
     * serving tier's memory-budgeted session LRU.
     */
    std::size_t approxTableBytes() const
    {
        return sizeof(TrainingSimulator) +
               prefixDp_.capacity() * sizeof(std::uint8_t) +
               trace_.capacity() * sizeof(TraceEntry);
    }

  private:
    /** One step's tasks in emission order (start/end unresolved); adds
     *  the step's commBytes and energy to `metrics`. */
    std::vector<TapeTask> buildTasks(const core::HierarchicalPlan &plan,
                                     StepMetrics &metrics) const;

    /**
     * dp count among the levels above `h` for a layer whose level
     * vector is `state` (bit h set = mp): served from prefixDp_ — the
     * per-column prefix-count table shared across every plan this
     * simulator scores — so buildTasks never materializes a per-plan
     * core::History chain. Falls back to a popcount for depths beyond
     * the table cap.
     */
    unsigned dpAbove(std::uint32_t state, std::size_t h) const;

    /** Fatal on the argument errors shared by the sweep entry points. */
    void validateSweep(const core::HierarchicalPlan &base,
                       std::size_t level) const;

    void addExchange(std::vector<TapeTask> &tasks, std::size_t level,
                     double pair_bytes, bool async, int phase,
                     const char *tag, const std::string &layer_name,
                     StepMetrics &metrics) const;

    const core::CommModel *model_;
    arch::AcceleratorConfig acc_;
    arch::EnergyModel energy_;
    const noc::Topology *topo_;
    SimOptions options_;
    arch::RowStationaryMapper mapper_;

    /**
     * Shared prefix-count table: prefixDp_[s * (levels + 1) + h] is
     * the number of dp choices among levels 0..h-1 of a layer whose
     * level-vector state is s. The counts at level h depend only on
     * that layer's own column bits, so one table per topology depth
     * replaces the per-plan History chain buildTasks used to rebuild —
     * every plan of an evaluateBatch call (and every mask of a sweep)
     * reads the same table. Built in the constructor for depths up to
     * kPrefixTableMaxLevels; deeper arrays use the popcount fallback.
     */
    static constexpr std::size_t kPrefixTableMaxLevels = 12;
    std::vector<std::uint8_t> prefixDp_;

    mutable std::vector<TraceEntry> trace_;
};

} // namespace hypar::sim

#endif // HYPAR_SIM_TRAINING_SIM_HH
