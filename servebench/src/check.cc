#include "check.hh"

#include <ostream>

#include "core/optimal_partitioner.hh"
#include "dnn/model_zoo.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"

namespace servebench {

namespace {

using hypar::serve::canonicalDouble;

// The renderings below restate the response format of docs/SERVING.md;
// they are the oracle the response bytes are compared against.

std::string
metricsJson(const hypar::sim::StepMetrics &m)
{
    return "{\"step_seconds\":" + canonicalDouble(m.stepSeconds) +
           ",\"compute_busy_seconds\":" +
           canonicalDouble(m.computeBusySeconds) +
           ",\"network_busy_seconds\":" +
           canonicalDouble(m.networkBusySeconds) +
           ",\"comm_bytes\":" + canonicalDouble(m.commBytes) +
           ",\"phases\":{\"forward\":" + canonicalDouble(m.phases.forward) +
           ",\"backward\":" + canonicalDouble(m.phases.backward) +
           ",\"gradient\":" + canonicalDouble(m.phases.gradient) +
           "},\"energy\":{\"compute_j\":" +
           canonicalDouble(m.energy.computeJ) +
           ",\"sram_j\":" + canonicalDouble(m.energy.sramJ) +
           ",\"dram_j\":" + canonicalDouble(m.energy.dramJ) +
           ",\"comm_j\":" + canonicalDouble(m.energy.commJ) +
           ",\"total_j\":" + canonicalDouble(m.energy.totalJ()) + "}}";
}

std::string
planLevelsJson(const hypar::core::HierarchicalPlan &plan)
{
    std::string out = "[";
    for (std::size_t h = 0; h < plan.levels.size(); ++h)
        out += (h > 0 ? ",\"" : "\"") +
               hypar::core::toBitString(plan.levels[h]) + "\"";
    return out + "]";
}

std::string
searchJson(const hypar::core::HierarchicalResult &r)
{
    return "{\"transitions_evaluated\":" +
           std::to_string(r.transitionsEvaluated) +
           ",\"expanded\":" + std::to_string(r.stats.expanded) +
           ",\"pruned\":" + std::to_string(r.stats.pruned) +
           ",\"certified_exact\":" +
           (r.stats.certifiedExact ? "true" : "false") +
           ",\"width_used\":" + std::to_string(r.stats.widthUsed) + "}";
}

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/** The raw bytes of a numeric member, as the server rendered them. */
std::string
rawMember(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return {};
    const std::size_t begin = at + tag.size();
    return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

std::string
mismatch(const std::string &what, const std::string &line,
         const std::string &expected)
{
    return what + ": response " + line + " does not end with " + expected;
}

} // namespace

OutputCheck::OutputCheck(std::uint64_t seed, std::size_t cap)
    : rng_(~seed), // a stream apart from the workload's
      cap_(cap)
{}

bool
OutputCheck::inspect(const Request &req, const std::string &line)
{
    const std::string head =
        "{\"id\":\"" + req.id + "\",\"ok\":true,\"op\":\"" + req.op + "\"";
    if (line.compare(0, head.size(), head) != 0)
        return false;
    if (!req.expectCache.empty() &&
        line.find(",\"cache\":\"" + req.expectCache + "\"") ==
            std::string::npos)
        return false;
    if (req.op == "stats")
        return true;
    // Reservoir sampling: after n responses, each is in the sample with
    // probability cap / n.
    ++seen_;
    if (sample_.size() < cap_) {
        sample_.push_back({req, line, true});
    } else {
        const std::size_t slot = rng_.below(seen_);
        if (slot < cap_)
            sample_[slot] = {req, line, true};
    }
    if (req.op == "plan") {
        // Identical bodies (cache hits of one context) are checked once.
        const std::size_t body = line.find(",\"context_hash\"");
        if (body == std::string::npos)
            return false;
        if (planBodies_.insert(line.substr(body)).second)
            kept_.push_back({req, line, false});
    }
    return true;
}

std::size_t
OutputCheck::finish(std::ostream &log)
{
    kept_.insert(kept_.end(), sample_.begin(), sample_.end());
    std::size_t failed = 0;
    for (const Kept &k : kept_) {
        std::string error;
        try {
            error = verify(k);
        } catch (const std::exception &e) {
            error = e.what();
        }
        if (!error.empty()) {
            log << "servebench: response '" << k.req.id
                << "' failed the check: " << error << "\n";
            ++failed;
        }
    }
    kept_.clear();
    return failed;
}

std::string
OutputCheck::verify(const Kept &kept)
{
    const Request &req = kept.req;
    const std::string ctx = hypar::serve::contextHash(
        hypar::dnn::modelByName(req.model), configFor(req));
    if (kept.line.find(",\"context_hash\":\"" + ctx + "\"") ==
        std::string::npos)
        return "context_hash is not " + ctx;
    if (req.op == "plan")
        return verifyPlan(kept);
    if (req.op == "evaluate")
        return verifyEvaluate(kept);
    return verifySweep(kept);
}

std::string
OutputCheck::verifyPlan(const Kept &kept)
{
    const Request &req = kept.req;
    const hypar::sim::Evaluator &ev = evaluatorFor(req);
    const std::string hash = hypar::serve::planHash(
        ev.network(), ev.config(), req.strategy, {});
    if (kept.line.find(",\"plan_hash\":\"" + hash + "\"") ==
        std::string::npos)
        return "plan_hash is not " + hash;

    const hypar::serve::JsonValue resp =
        hypar::serve::JsonValue::parse(kept.line);
    const hypar::serve::JsonValue *levels = resp.find("plan");
    if (levels == nullptr)
        return "no plan in the response";
    std::vector<std::string> bits;
    for (const hypar::serve::JsonValue &level : levels->asArray())
        bits.push_back(level.asString());
    const std::string planBytes =
        canonicalDouble(ev.model().planBytes(planFromBits(bits)));
    const std::string comm = rawMember(kept.line, "comm_bytes");
    if (comm != planBytes)
        return "comm_bytes " + comm + " != CommModel::planBytes " +
               planBytes;

    if (!kept.full)
        return {};
    const hypar::core::HierarchicalResult r =
        hypar::core::OptimalPartitioner(ev.model())
            .partition(req.levels, hypar::core::SearchOptions{});
    const std::string expected = ",\"plan\":" + planLevelsJson(r.plan) +
                                 ",\"comm_bytes\":" +
                                 canonicalDouble(r.commBytes) +
                                 ",\"search\":" + searchJson(r) + "}";
    if (!endsWith(kept.line, expected))
        return mismatch("plan", kept.line, expected);
    return {};
}

std::string
OutputCheck::verifyEvaluate(const Kept &kept)
{
    if (!kept.full)
        return {};
    const Request &req = kept.req;
    const hypar::sim::Evaluator &ev = evaluatorFor(req);
    const hypar::core::HierarchicalPlan plan =
        req.plan.empty() ? hypar::core::makePlan(strategyFor(req.strategy),
                                                 ev.model(), req.levels)
                         : planFromBits(req.plan);
    const hypar::sim::StepMetrics m =
        req.steps == 1 ? ev.evaluate(plan)
                       : ev.evaluateSteadyState(plan, req.steps);
    const std::string expected = ",\"metrics\":" + metricsJson(m) + "}";
    if (!endsWith(kept.line, expected))
        return mismatch("evaluate", kept.line, expected);
    return {};
}

std::string
OutputCheck::verifySweep(const Kept &kept)
{
    if (!kept.full)
        return {};
    const Request &req = kept.req;
    const hypar::sim::Evaluator &ev = evaluatorFor(req);
    const hypar::core::HierarchicalPlan base = hypar::core::makePlan(
        strategyFor(req.strategy), ev.model(), req.levels);
    std::uint64_t evaluated = 0;
    std::uint64_t bestMask = 0;
    hypar::sim::StepMetrics best;
    ev.sweepNeighborhood(base, req.level,
                         [&](std::uint64_t mask,
                             const hypar::sim::StepMetrics &m) {
                             if (evaluated == 0 ||
                                 m.stepSeconds < best.stepSeconds) {
                                 bestMask = mask;
                                 best = m;
                             }
                             ++evaluated;
                         });
    const std::string expected =
        ",\"evaluated\":" + std::to_string(evaluated) +
        ",\"best_mask\":" + std::to_string(bestMask) + ",\"best_bits\":\"" +
        hypar::core::toBitString(
            hypar::core::levelPlanFromMask(bestMask, base.numLayers())) +
        "\",\"metrics\":" + metricsJson(best) + "}";
    if (!endsWith(kept.line, expected))
        return mismatch("sweep", kept.line, expected);
    return {};
}

const hypar::sim::Evaluator &
OutputCheck::evaluatorFor(const Request &req)
{
    const std::string key = req.model + "|" + std::to_string(req.levels) +
                            "|" + std::to_string(req.batch) + "|" +
                            req.topology + "|" +
                            (req.overlap ? "overlap" : "sync");
    auto it = evaluators_.find(key);
    if (it == evaluators_.end()) {
        if (evaluators_.size() >= 64) // plan_search: bound the memo
            evaluators_.clear();
        it = evaluators_
                 .emplace(key, std::make_unique<hypar::sim::Evaluator>(
                                   hypar::dnn::modelByName(req.model),
                                   configFor(req)))
                 .first;
    }
    return *it->second;
}

} // namespace servebench
