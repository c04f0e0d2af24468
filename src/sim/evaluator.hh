/**
 * @file
 * One-stop evaluation facade: build the communication model, topology
 * and simulator for a configuration, evaluate plans/strategies, and
 * normalize results the way the paper's figures do (everything relative
 * to default Data Parallelism).
 */

#ifndef HYPAR_SIM_EVALUATOR_HH
#define HYPAR_SIM_EVALUATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/energy_model.hh"
#include "arch/fault_map.hh"
#include "core/comm_model.hh"
#include "core/strategies.hh"
#include "dnn/network.hh"
#include "noc/topology.hh"
#include "sim/metrics.hh"
#include "sim/training_sim.hh"
#include "util/thread_pool.hh"

namespace hypar::sim {

/** Interconnect choice (paper Section 6.5.1; mesh is our ablation). */
enum class TopologyKind { kHTree, kTorus, kMesh };

/** Full evaluation configuration; defaults reproduce the paper. */
struct SimConfig
{
    core::CommConfig comm;       //!< batch 256, fp32, partitioned scaling
    arch::AcceleratorConfig acc; //!< 168-PE RS PU on an HMC
    arch::EnergyModel energy;    //!< Horowitz ISSCC'14 numbers
    noc::TopologyConfig noc;     //!< 1600 Mb/s links, 12.8 Gb/s root
    TopologyKind topology = TopologyKind::kHTree;

    /** Hierarchy levels H; the array has 2^H accelerators (paper: 4). */
    std::size_t levels = 4;

    SimOptions options;

    /**
     * Fault/heterogeneity map applied to the array before anything is
     * built (empty = pristine, bit-identical to a config without the
     * field). Node entries derate compute: the lockstep array runs at
     * the slowest surviving node's pace with dead nodes' shards
     * redistributed (arch::computeScaleFactor multiplies
     * SimOptions::computeScale). Link entries derate the interconnect:
     * the topology recomputes its per-level penalties and the CommModel
     * inherits them (CommConfig::levelPenalties), so every search
     * engine re-plans around the degradation. A map that kills every
     * node, or kills a link that carries traffic at some level, is
     * rejected with a fatal error — there is no finite cost to plan
     * for. Ids are validated against the topology's numNodes/numLinks.
     */
    arch::FaultMap faults;
};

/** Instantiate a topology. */
std::unique_ptr<noc::Topology> makeTopology(TopologyKind kind,
                                            std::size_t levels,
                                            const noc::TopologyConfig &cfg);

/**
 * Validate a config's fault map against its own topology — id ranges,
 * link-fault support, no level left without surviving bandwidth —
 * without building a full Evaluator. Fatal on exactly the errors the
 * Evaluator constructor would raise for the map; a no-op for an empty
 * map. The serving tier pre-validates requests with this before
 * touching the warm-session LRU.
 */
void validateFaults(const SimConfig &config);

/**
 * Bundles model + topology + simulator for one (network, config) pair.
 *
 * Build-once / evaluate-many contract: constructing an Evaluator does
 * all the (network, config)-dependent work — the CommModel byte tables,
 * the topology, the simulator — exactly once, and every evaluate /
 * evaluateBatch / sweepNeighborhood call afterwards only reads that
 * shared immutable state. Design-space sweeps (Fig. 9/10) must hoist
 * the Evaluator (and any plan scaffolding) out of their loops and score
 * plans through the batch/sweep entry points; rebuilding an Evaluator,
 * a SimConfig, or per-plan scratch inside a sweep loop forfeits exactly
 * the reuse this class exists to provide.
 *
 * Batch calls are deterministic: evaluateBatch fans the plans over a
 * util::ThreadPool but each plan's simulation is independent and its
 * result is written by index, so the output is bit-identical to calling
 * evaluate() back-to-back, for every thread count (enforced by
 * tests/test_evaluator_batch.cc).
 */
class Evaluator
{
  public:
    Evaluator(const dnn::Network &network, const SimConfig &config);

    /** Simulate one training step under an explicit plan. */
    StepMetrics evaluate(const core::HierarchicalPlan &plan) const;

    /** Build a named strategy's plan, then simulate it. */
    StepMetrics evaluate(core::Strategy strategy) const;

    /**
     * Simulate every plan of a design-space batch, fanned out over
     * `pool` (the process-global pool by default) with the library's
     * deterministic chunking (util::ThreadPool::grainFor). The CommModel
     * tables and topology are shared read-only across threads; each
     * chunk clones the lightweight per-thread TrainingSimulator state.
     * Plans in a batch share the simulator's per-column prefix-count
     * table, so scoring a plan never rebuilds the per-plan History
     * chain — grids whose plans differ in a few layers pay only for
     * the task list itself. results[i] is bit-identical to
     * evaluate(plans[i]). SimOptions::recordTrace is not supported
     * here (per-thread traces would be discarded); lastTrace() is
     * unaffected by batch calls.
     */
    std::vector<StepMetrics>
    evaluateBatch(std::span<const core::HierarchicalPlan> plans) const;
    std::vector<StepMetrics>
    evaluateBatch(std::span<const core::HierarchicalPlan> plans,
                  util::ThreadPool &pool) const;

    /**
     * Strategy-sweep overload: build each named strategy's plan, then
     * batch-evaluate them. results[i] is bit-identical to
     * evaluate(strategies[i]).
     */
    std::vector<StepMetrics>
    evaluateBatch(std::span<const core::Strategy> strategies) const;

    /**
     * Incremental single-level sweep: visit the StepMetrics of `base`
     * with hierarchy level `level` replaced by every 2^L layer mask, in
     * ascending mask order, bit-identical to evaluating each
     * substituted plan — without rebuilding per-plan simulator state
     * (see TrainingSimulator::sweepNeighborhood). This is the Fig. 9
     * fast path and composes with an outer sweepLevelMasks-style
     * substitution for two-level studies. It also covers
     * SimOptions::overlapGradComm: the async schedule replays as two
     * tapes (serial compute chain + overlapped network chain) over the
     * same slot program, and recordTrace emits the per-task trace
     * from it too. With AVX2 (core::simd::activeKernels()) four masks
     * are scored per pass in vector lanes, with the same bits and the
     * same visit order; HYPAR_SIMD=scalar pins the one-mask loop.
     * Non-chain (DAG) networks are scored by one simulate() per mask.
     */
    void sweepNeighborhood(const core::HierarchicalPlan &base,
                           std::size_t level,
                           const SweepVisit &visit) const;

    /**
     * Simulate `steps` back-to-back steps and report the steady-state
     * cadence (see TrainingSimulator::simulateSteadyState).
     */
    StepMetrics evaluateSteadyState(const core::HierarchicalPlan &plan,
                                    std::size_t steps) const;

    /** Plan for a named strategy (HyPar runs Algorithm 2). */
    core::HierarchicalPlan plan(core::Strategy strategy) const;

    /** Analytic total communication of a plan (CommModel). */
    double commBytes(const core::HierarchicalPlan &plan) const;

    const core::CommModel &model() const { return model_; }
    /** The simulator behind evaluate() (tests drive its sweep kernels). */
    const TrainingSimulator &simulator() const { return *simulator_; }
    const noc::Topology &topology() const { return *topology_; }
    const SimConfig &config() const { return config_; }
    const dnn::Network &network() const { return network_; }

    /**
     * Approximate resident size of the warm state this Evaluator owns
     * (network copy, CommModel byte tables, simulator tables). The
     * serving tier's memory-budgeted session LRU evicts by this; an
     * estimate, but deterministic for equal (network, config) pairs.
     */
    std::size_t approxBytes() const;

  private:
    dnn::Network network_;
    SimConfig config_;
    // The topology is built (and degraded by SimConfig::faults) before
    // the CommModel so the model can inherit its level penalties.
    std::unique_ptr<noc::Topology> topology_;
    core::CommModel model_;
    std::unique_ptr<TrainingSimulator> simulator_;
};

/** Metrics of the three headline strategies plus HyPar's plan. */
struct StrategyReport
{
    StepMetrics dataParallel;
    StepMetrics modelParallel;
    StepMetrics hypar;
    core::HierarchicalPlan hyparPlan;

    /** Speedup of X over Data Parallelism (Fig. 6's normalization). */
    double mpSpeedup() const;
    double hyparSpeedup() const;

    /** Energy saving of X relative to Data Parallelism (Fig. 7). */
    double mpEnergyEff() const;
    double hyparEnergyEff() const;
};

/** Run DP / MP / HyPar on one network under one configuration. */
StrategyReport compareStrategies(const dnn::Network &network,
                                 const SimConfig &config);

} // namespace hypar::sim

#endif // HYPAR_SIM_EVALUATOR_HH
