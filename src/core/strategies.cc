#include "core/strategies.hh"

#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "util/logging.hh"

namespace hypar::core {

HierarchicalPlan
makeDataParallelPlan(const dnn::Network &network, std::size_t levels)
{
    return uniformPlan(network.size(), levels, Parallelism::kData);
}

HierarchicalPlan
makeModelParallelPlan(const dnn::Network &network, std::size_t levels)
{
    return uniformPlan(network.size(), levels, Parallelism::kModel);
}

HierarchicalPlan
makeOneWeirdTrickPlan(const dnn::Network &network, std::size_t levels)
{
    LevelPlan level;
    level.reserve(network.size());
    for (const auto &layer : network.layers()) {
        level.push_back(layer.isConv() ? Parallelism::kData
                                       : Parallelism::kModel);
    }
    HierarchicalPlan plan;
    plan.levels.assign(levels, level);
    return plan;
}

HierarchicalPlan
makeHyparPlan(const CommModel &model, std::size_t levels)
{
    return HierarchicalPartitioner(model).partition(levels).plan;
}

const char *
toString(Strategy s)
{
    switch (s) {
      case Strategy::kDataParallel:
        return "Data Parallelism";
      case Strategy::kModelParallel:
        return "Model Parallelism";
      case Strategy::kOneWeirdTrick:
        return "One Weird Trick";
      case Strategy::kHypar:
        return "HyPar";
    }
    util::panic("unknown Strategy");
}

HierarchicalPlan
makePlan(Strategy s, const CommModel &model, std::size_t levels)
{
    switch (s) {
      case Strategy::kDataParallel:
        return makeDataParallelPlan(model.network(), levels);
      case Strategy::kModelParallel:
        return makeModelParallelPlan(model.network(), levels);
      case Strategy::kOneWeirdTrick:
        return makeOneWeirdTrickPlan(model.network(), levels);
      case Strategy::kHypar:
        return makeHyparPlan(model, levels);
    }
    util::panic("unknown Strategy");
}

namespace {

[[noreturn]] void
unknownStrategy(const std::string &name)
{
    util::fatal("unknown strategy '" + name +
                "' (hypar|dp|mp|owt|optimal)");
}

} // namespace

void
validateStrategyName(const std::string &name)
{
    if (name != "hypar" && name != "dp" && name != "mp" &&
        name != "owt" && name != "optimal")
        unknownStrategy(name);
}

HierarchicalPlan
makeNamedPlan(const std::string &name, const CommModel &model,
              std::size_t levels, util::ThreadPool &pool,
              HierarchicalResult *search)
{
    if (name == "hypar")
        return makeHyparPlan(model, levels);
    if (name == "dp")
        return makeDataParallelPlan(model.network(), levels);
    if (name == "mp")
        return makeModelParallelPlan(model.network(), levels);
    if (name == "owt")
        return makeOneWeirdTrickPlan(model.network(), levels);
    if (name == "optimal") {
        HierarchicalResult result =
            OptimalPartitioner(model, pool).partition(levels);
        if (search != nullptr)
            *search = result;
        return result.plan;
    }
    unknownStrategy(name);
}

} // namespace hypar::core
