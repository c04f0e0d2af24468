#include "workloads.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "dnn/model_zoo.hh"
#include "util/logging.hh"

namespace servebench {

namespace {

/** plan_hit: 8 zoo chains x 8 batch sizes = 64 contexts. */
constexpr const char *kHitModels[] = {"SFC",     "SCONV", "Lenet-c",
                                      "Cifar-c", "AlexNet", "VGG-A",
                                      "VGG-C",   "VGG-E"};
constexpr std::size_t kHitBatches = 8; //!< 64 << k, k < 8: 64..8192
constexpr std::size_t kHitLevels = 10;

/** plan_search: levels past the dense ceiling, batch in [32, 4096]. */
constexpr std::size_t kSearchLevels[] = {12, 13};
constexpr std::size_t kSearchBatchMin = 32;
constexpr std::size_t kSearchBatchMax = 4096;

/** eval_sweep: the chains, two contexts each (at most 11 layers, so a
 *  sweep visits at most 2^11 masks). */
constexpr const char *kEvalChains[] = {"Lenet-c", "Cifar-c", "AlexNet",
                                       "VGG-A"};
constexpr std::size_t kEvalLevels = 8;
constexpr std::size_t kEvalBatch = 256;
constexpr std::size_t kEvalSteps = 64;

constexpr const char *kNamedStrategies[] = {"hypar", "dp", "mp", "owt"};

} // namespace

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
Request::line() const
{
    std::string out = "{\"op\":\"" + op + "\",\"id\":\"" + id + "\"";
    if (op == "stats")
        return out + "}";
    out += ",\"model\":\"" + model + "\",\"levels\":" +
           std::to_string(levels) + ",\"batch\":" + std::to_string(batch);
    if (topology != "htree")
        out += ",\"topology\":\"" + topology + "\"";
    if (overlap)
        out += ",\"overlap\":true";
    if (plan.empty()) {
        out += ",\"strategy\":\"" + strategy + "\"";
    } else {
        out += ",\"plan\":[";
        for (std::size_t h = 0; h < plan.size(); ++h)
            out += (h > 0 ? ",\"" : "\"") + plan[h] + "\"";
        out += "]";
    }
    if (steps != 1)
        out += ",\"steps\":" + std::to_string(steps);
    if (op == "sweep")
        out += ",\"level\":" + std::to_string(level);
    return out + "}";
}

hypar::sim::SimConfig
configFor(const Request &req)
{
    hypar::sim::SimConfig cfg;
    cfg.levels = req.levels;
    cfg.comm.batch = req.batch;
    cfg.topology = req.topology == "torus"
                       ? hypar::sim::TopologyKind::kTorus
                       : hypar::sim::TopologyKind::kHTree;
    cfg.options.overlapGradComm = req.overlap;
    return cfg;
}

hypar::core::Strategy
strategyFor(const std::string &name)
{
    using hypar::core::Strategy;
    if (name == "dp")
        return Strategy::kDataParallel;
    if (name == "mp")
        return Strategy::kModelParallel;
    if (name == "owt")
        return Strategy::kOneWeirdTrick;
    if (name == "hypar")
        return Strategy::kHypar;
    hypar::util::fatal("no named strategy '" + name + "'");
}

hypar::core::HierarchicalPlan
planFromBits(const std::vector<std::string> &levels)
{
    hypar::core::HierarchicalPlan plan;
    for (const std::string &bits : levels) {
        hypar::core::LevelPlan lp;
        for (const char c : bits)
            lp.push_back(c == '1' ? hypar::core::Parallelism::kModel
                                  : hypar::core::Parallelism::kData);
        plan.levels.push_back(std::move(lp));
    }
    return plan;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Workload::Workload(const std::string &name, std::uint64_t seed)
    : name_(name), rng_(seed)
{
    if (name == "plan_hit")
        kind_ = Kind::kPlanHit;
    else if (name == "plan_search")
        kind_ = Kind::kPlanSearch;
    else if (name == "eval_sweep")
        kind_ = Kind::kEvalSweep;
    else
        hypar::util::fatal("unknown workload '" + name +
                           "' (plan_hit|plan_search|eval_sweep)");
    sent_.assign(clients(), 0);
    if (kind_ == Kind::kEvalSweep)
        for (const char *chain : kEvalChains)
            layers_.push_back(hypar::dnn::modelByName(chain).size());
}

std::size_t
Workload::clients() const
{
    return kind_ == Kind::kPlanHit ? 4 : 1;
}

std::size_t
Workload::traceRequests() const
{
    switch (kind_) {
    case Kind::kPlanHit:
        return 4096;
    case Kind::kPlanSearch:
        return 24;
    case Kind::kEvalSweep:
        return 2048;
    }
    return 0;
}

std::vector<Batch>
Workload::warmup() const
{
    std::vector<Batch> batches;
    std::size_t n = 0;
    auto warmId = [&n] { return "warm-" + std::to_string(n++); };
    switch (kind_) {
    case Kind::kPlanHit:
        // Every context once, a client's worth per batch: 64 misses
        // that leave the whole working set in the on-disk cache.
        for (std::size_t ctx = 0; ctx < std::size(kHitModels) * kHitBatches;
             ++ctx) {
            if (ctx % clients() == 0)
                batches.emplace_back();
            Request r;
            r.op = "plan";
            r.id = warmId();
            r.model = kHitModels[ctx / kHitBatches];
            r.levels = kHitLevels;
            r.batch = std::size_t{64} << (ctx % kHitBatches);
            r.strategy = "optimal";
            r.expectCache = "miss";
            batches.back().push_back(std::move(r));
        }
        break;
    case Kind::kPlanSearch: {
        Request r;
        r.op = "stats";
        r.id = warmId();
        batches.push_back({r});
        break;
    }
    case Kind::kEvalSweep:
        // One evaluate per context builds all 8 sessions, one request
        // per batch like the timed phase.
        for (std::size_t context = 0; context < 2; ++context) {
            for (std::size_t chain = 0; chain < std::size(kEvalChains);
                 ++chain) {
                Request r = evalContext(chain, context);
                r.op = "evaluate";
                r.id = warmId();
                r.strategy = "dp";
                batches.push_back({std::move(r)});
            }
        }
        break;
    }
    return batches;
}

Batch
Workload::nextBatch()
{
    Batch batch;
    for (std::size_t c = 0; c < clients(); ++c) {
        switch (kind_) {
        case Kind::kPlanHit:
            batch.push_back(planHitRequest());
            break;
        case Kind::kPlanSearch:
            batch.push_back(planSearchRequest());
            break;
        case Kind::kEvalSweep:
            batch.push_back(evalSweepRequest());
            break;
        }
        batch.back().id = nextId(c);
    }
    return batch;
}

std::string
Workload::nextId(std::size_t client)
{
    std::string id = "c";
    id += std::to_string(client);
    id += '-';
    id += std::to_string(sent_[client]++);
    return id;
}

Request
Workload::planHitRequest()
{
    Request r;
    r.op = "plan";
    r.model = kHitModels[rng_.below(std::size(kHitModels))];
    r.levels = kHitLevels;
    r.batch = std::size_t{64} << rng_.below(kHitBatches);
    r.strategy = "optimal";
    r.expectCache = "hit";
    return r;
}

Request
Workload::planSearchRequest()
{
    // Deal (model, levels) pairs from shuffled decks so every seed sees
    // the same mix of search depths and models; only the order and the
    // batch sizes vary.
    if (deck_.empty()) {
        for (const std::string &model : hypar::dnn::allModelNames())
            for (const std::size_t levels : kSearchLevels)
                deck_.emplace_back(model, levels);
        for (std::size_t i = deck_.size() - 1; i > 0; --i)
            std::swap(deck_[i], deck_[rng_.below(i + 1)]);
    }
    Request r;
    r.op = "plan";
    std::tie(r.model, r.levels) = deck_.back();
    deck_.pop_back();
    do {
        r.batch = kSearchBatchMin +
                  rng_.below(kSearchBatchMax - kSearchBatchMin + 1);
    } while (!used_.emplace(r.model, r.levels, r.batch).second);
    r.strategy = "optimal";
    r.expectCache = "miss";
    return r;
}

Request
Workload::evalContext(std::size_t chain, std::size_t context) const
{
    Request r;
    r.model = kEvalChains[chain];
    r.levels = kEvalLevels;
    r.batch = kEvalBatch;
    if (context == 1) {
        r.topology = "torus";
        r.overlap = true;
    }
    return r;
}

Request
Workload::evalSweepRequest()
{
    const std::size_t k = sent_[0];
    const std::size_t chain = k % std::size(kEvalChains);
    Request r = evalContext(chain, rng_.below(2));
    const auto named = [this] {
        return std::string(
            kNamedStrategies[rng_.below(std::size(kNamedStrategies))]);
    };
    switch (k / std::size(kEvalChains) % 3) {
    case 0: // single step: evaluateBatch of this one plan
        r.op = "evaluate";
        if (rng_.below(2) == 0) {
            r.strategy = named();
        } else {
            for (std::size_t h = 0; h < r.levels; ++h) {
                std::string bits(layers_[chain], '0');
                for (char &b : bits)
                    b = rng_.below(2) == 0 ? '0' : '1';
                r.plan.push_back(std::move(bits));
            }
        }
        break;
    case 1: // steady-state cadence
        r.op = "evaluate";
        r.strategy = named();
        r.steps = kEvalSteps;
        break;
    default: // level sweep over 2^L masks
        r.op = "sweep";
        r.strategy = named();
        r.level = rng_.below(r.levels);
        r.expectCache = "bypass";
        break;
    }
    return r;
}

} // namespace servebench
