#include "sim/evaluator.hh"

#include <cmath>

#include "noc/htree.hh"
#include "noc/torus.hh"
#include "util/logging.hh"

namespace hypar::sim {

std::unique_ptr<noc::Topology>
makeTopology(TopologyKind kind, std::size_t levels,
             const noc::TopologyConfig &cfg)
{
    switch (kind) {
      case TopologyKind::kHTree:
        return std::make_unique<noc::HTreeTopology>(levels, cfg);
      case TopologyKind::kTorus:
        return std::make_unique<noc::TorusTopology>(levels, cfg);
      case TopologyKind::kMesh:
        return std::make_unique<noc::MeshTopology>(levels, cfg);
    }
    util::panic("unknown TopologyKind");
}

namespace {

/** Build the topology and, for a non-empty fault map, validate the map
 *  against it and apply the link derating. */
std::unique_ptr<noc::Topology>
makeFaultedTopology(const SimConfig &config)
{
    auto topo = makeTopology(config.topology, config.levels, config.noc);
    if (!config.faults.empty()) {
        if (!config.faults.links.empty() &&
            !topo->supportsLinkFaults()) {
            // Reject instead of planning around entries the topology
            // silently ignores; point at the source line when the map
            // came from a file (fault_map.cc's error convention).
            const arch::FaultEntry &first = config.faults.links.front();
            const std::string where =
                first.line > 0
                    ? "fault map line " + std::to_string(first.line)
                    : "fault map";
            util::fatal(where + ": link entry (id " +
                        std::to_string(first.id) + ") against " +
                        topo->name() +
                        ", which has no link-level fault model — "
                        "remove the link entries or use a topology "
                        "that supports them");
        }
        arch::validateFaultMap(config.faults, topo->numNodes(),
                               topo->numLinks());
        if (!config.faults.links.empty())
            topo->applyLinkScales(
                arch::linkScales(config.faults, topo->numLinks()));
    }
    return topo;
}

/** Comm config with the degraded topology's level penalties attached.
 *  Rejects maps that leave a traffic-carrying level with no surviving
 *  bandwidth (infinite penalty) — the CommModel has no finite cost to
 *  offer the search in that case. */
core::CommConfig
faultedCommConfig(const SimConfig &config, const noc::Topology &topo)
{
    core::CommConfig comm = config.comm;
    if (topo.degraded()) {
        std::vector<double> penalties = topo.levelPenalties();
        for (std::size_t h = 0; h < penalties.size(); ++h) {
            if (!std::isfinite(penalties[h]))
                util::fatal("Evaluator: fault map kills every route of "
                            "hierarchy level " + std::to_string(h) +
                            " on " + std::string(topo.name()) +
                            "; the level is unusable — reject the "
                            "fault map instead of planning around it");
        }
        comm.levelPenalties = std::move(penalties);
    }
    return comm;
}

/** Sim options with the compute derating of the fault map folded in. */
SimOptions
faultedOptions(const SimConfig &config, const noc::Topology &topo)
{
    SimOptions options = config.options;
    if (!config.faults.nodes.empty())
        options.computeScale *=
            arch::computeScaleFactor(config.faults, topo.numNodes());
    return options;
}

} // namespace

void
validateFaults(const SimConfig &config)
{
    if (config.faults.empty())
        return;
    const std::unique_ptr<noc::Topology> topo = makeFaultedTopology(config);
    (void)faultedCommConfig(config, *topo);
}

Evaluator::Evaluator(const dnn::Network &network, const SimConfig &config)
    : network_(network), config_(config),
      topology_(makeFaultedTopology(config_)),
      model_(network_, faultedCommConfig(config_, *topology_)),
      simulator_(std::make_unique<TrainingSimulator>(
          model_, config_.acc, config_.energy, *topology_,
          faultedOptions(config_, *topology_)))
{}

StepMetrics
Evaluator::evaluate(const core::HierarchicalPlan &plan) const
{
    return simulator_->simulate(plan);
}

StepMetrics
Evaluator::evaluate(core::Strategy strategy) const
{
    return evaluate(plan(strategy));
}

std::vector<StepMetrics>
Evaluator::evaluateBatch(std::span<const core::HierarchicalPlan> plans,
                         util::ThreadPool &pool) const
{
    std::vector<StepMetrics> results(plans.size());
    if (plans.empty())
        return results;

    // Each chunk clones the (cheap) simulator so the mutable trace
    // buffer is never shared; model/topology are read-only. Results are
    // written by index, so any chunk grid is bit-identical to the
    // sequential loop. The clones carry the fault map's compute
    // derating, exactly like the ctor-built simulator.
    SimOptions options = faultedOptions(config_, *topology_);
    options.recordTrace = false;
    pool.parallelFor(
        0, plans.size(), pool.grainFor(plans.size()),
        [&](std::size_t begin, std::size_t end) {
            TrainingSimulator sim(model_, config_.acc, config_.energy,
                                  *topology_, options);
            for (std::size_t i = begin; i < end; ++i)
                results[i] = sim.simulate(plans[i]);
        });
    return results;
}

std::vector<StepMetrics>
Evaluator::evaluateBatch(
    std::span<const core::HierarchicalPlan> plans) const
{
    return evaluateBatch(plans, util::ThreadPool::global());
}

std::vector<StepMetrics>
Evaluator::evaluateBatch(std::span<const core::Strategy> strategies) const
{
    std::vector<core::HierarchicalPlan> plans;
    plans.reserve(strategies.size());
    for (const core::Strategy s : strategies)
        plans.push_back(plan(s));
    return evaluateBatch(plans);
}

void
Evaluator::sweepNeighborhood(const core::HierarchicalPlan &base,
                             std::size_t level,
                             const SweepVisit &visit) const
{
    simulator_->sweepNeighborhood(base, level, visit);
}

StepMetrics
Evaluator::evaluateSteadyState(const core::HierarchicalPlan &plan,
                               std::size_t steps) const
{
    return simulator_->simulateSteadyState(plan, steps);
}

core::HierarchicalPlan
Evaluator::plan(core::Strategy strategy) const
{
    return core::makePlan(strategy, model_, config_.levels);
}

double
Evaluator::commBytes(const core::HierarchicalPlan &plan) const
{
    return model_.planBytes(plan);
}

std::size_t
Evaluator::approxBytes() const
{
    return sizeof(Evaluator) + network_.approxBytes() +
           model_.approxTableBytes() + simulator_->approxTableBytes();
}

double
StrategyReport::mpSpeedup() const
{
    return dataParallel.stepSeconds / modelParallel.stepSeconds;
}

double
StrategyReport::hyparSpeedup() const
{
    return dataParallel.stepSeconds / hypar.stepSeconds;
}

double
StrategyReport::mpEnergyEff() const
{
    return dataParallel.energy.totalJ() / modelParallel.energy.totalJ();
}

double
StrategyReport::hyparEnergyEff() const
{
    return dataParallel.energy.totalJ() / hypar.energy.totalJ();
}

StrategyReport
compareStrategies(const dnn::Network &network, const SimConfig &config)
{
    Evaluator ev(network, config);
    StrategyReport report;
    report.dataParallel = ev.evaluate(core::Strategy::kDataParallel);
    report.modelParallel = ev.evaluate(core::Strategy::kModelParallel);
    report.hyparPlan = ev.plan(core::Strategy::kHypar);
    report.hypar = ev.evaluate(report.hyparPlan);
    return report;
}

} // namespace hypar::sim
