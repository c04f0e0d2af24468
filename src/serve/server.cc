#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "core/plan.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "dnn/spec_parser.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace hypar::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(const Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One parsed request, CLI-default-aligned where fields overlap. */
struct Request
{
    std::string op;
    std::string id;
    bool hasId = false;
    std::string model;
    std::string spec;
    std::size_t levels = 4;
    std::size_t batch = 256;
    std::string topology = "htree";
    std::string strategy = "hypar";
    bool overlap = false;
    arch::FaultMap faults;
    std::vector<std::string> planBits;
    bool hasPlan = false;
    std::size_t level = 0;
    bool hasLevel = false;
    std::size_t steps = 1;
};

/** Per-request working state inside one admission batch. */
struct Pending
{
    Request req;
    std::optional<dnn::Network> network; //!< Network has no default ctor
    sim::SimConfig config;
    std::optional<ContextKey> key; //!< the context, canonicalized once
    std::string hash;                //!< plan/sweep: the cache key
    core::HierarchicalPlan evalPlan; //!< evaluate: the plan to score
    bool coalesce = false;           //!< joins a shared evaluateBatch
    bool probeHit = false; //!< plan/sweep: answered from the cache at
                           //!< admission, pending the serial fold
    bool done = false;     //!< response already written
    bool errored = false;     //!< folded into ServeStats::errors at a
                              //!< serial point (never touched in a
                              //!< pool body — counters must not race)
    bool sharedBatch = false; //!< folded into ServeStats::coalesced
    std::shared_ptr<Session> session; //!< reserved at admission
    double seconds = 0.0;             //!< measured execution latency
    bool timed = false;
};

std::size_t
asSize(const JsonValue &v, const char *what)
{
    const double d = v.asNumber();
    if (d < 0 || d != static_cast<double>(static_cast<std::size_t>(d)))
        util::fatal(std::string("request field '") + what +
                    "' must be a non-negative integer");
    return static_cast<std::size_t>(d);
}

std::vector<arch::FaultEntry>
parseFaultEntries(const JsonValue &list, const char *what)
{
    std::vector<arch::FaultEntry> out;
    for (const JsonValue &pair : list.asArray()) {
        const JsonValue::Array &p = pair.asArray();
        if (p.size() != 2)
            util::fatal(std::string("request field 'faults." ) + what +
                        "' entries must be [id, scale] pairs");
        out.push_back({asSize(p[0], what), p[1].asNumber()});
    }
    return out;
}

/**
 * Parse into `req` in place (rather than returning one) so that when
 * parsing fails mid-way, whatever already parsed — in particular `op`
 * and `id`, which are pulled out first — still reaches the error
 * response. Clients correlating a mixed batch get the op echoed even
 * on failures.
 */
void
parseRequest(const std::string &line, Request &req)
{
    const JsonValue root = JsonValue::parse(line);
    if (!root.isObject())
        util::fatal("request must be a JSON object");
    if (const JsonValue *id = root.find("id")) {
        req.id = id->asString();
        req.hasId = true;
    }
    if (const JsonValue *op = root.find("op"))
        req.op = op->asString();
    for (const auto &[key, value] : root.asObject()) {
        if (!requestFieldKnown(key))
            util::fatal("unknown request field '" + key + "'");
        (void)value;
    }
    if (root.find("op") == nullptr)
        util::fatal("request needs an \"op\" field");
    if (const JsonValue *v = root.find("model"))
        req.model = v->asString();
    if (const JsonValue *v = root.find("spec"))
        req.spec = v->asString();
    if (const JsonValue *v = root.find("levels"))
        req.levels = asSize(*v, "levels");
    if (const JsonValue *v = root.find("batch"))
        req.batch = asSize(*v, "batch");
    if (const JsonValue *v = root.find("topology"))
        req.topology = v->asString();
    if (const JsonValue *v = root.find("strategy"))
        req.strategy = v->asString();
    if (const JsonValue *v = root.find("overlap"))
        req.overlap = v->asBool();
    if (const JsonValue *v = root.find("faults")) {
        if (!v->isObject())
            util::fatal("request field 'faults' must be an object");
        for (const auto &[key, list] : v->asObject()) {
            if (key == "nodes")
                req.faults.nodes = parseFaultEntries(list, "nodes");
            else if (key == "links")
                req.faults.links = parseFaultEntries(list, "links");
            else
                util::fatal("unknown faults member '" + key + "'");
        }
    }
    if (const JsonValue *v = root.find("plan")) {
        for (const JsonValue &level : v->asArray())
            req.planBits.push_back(level.asString());
        req.hasPlan = true;
    }
    if (const JsonValue *v = root.find("level")) {
        req.level = asSize(*v, "level");
        req.hasLevel = true;
    }
    if (const JsonValue *v = root.find("steps")) {
        req.steps = asSize(*v, "steps");
        if (req.steps == 0)
            util::fatal("request field 'steps' must be at least 1");
        if (req.steps > kMaxSteps)
            util::fatal("request field 'steps' must be at most " +
                        std::to_string(kMaxSteps));
    }
}

dnn::Network
buildNetwork(const Request &req)
{
    if (!req.model.empty() && !req.spec.empty())
        util::fatal("use either \"model\" or \"spec\", not both");
    if (!req.model.empty())
        return dnn::modelByName(req.model);
    if (!req.spec.empty())
        return dnn::parseNetworkSpec(req.spec);
    util::fatal("a network is required: \"model\" or \"spec\"");
}

sim::SimConfig
buildConfig(const Request &req)
{
    sim::SimConfig cfg;
    cfg.levels = req.levels;
    cfg.comm.batch = req.batch;
    cfg.topology = parseTopologyKind(req.topology);
    cfg.options.overlapGradComm = req.overlap;
    cfg.faults = req.faults;
    return cfg;
}

core::HierarchicalPlan
decodePlanBits(const std::vector<std::string> &bits)
{
    core::HierarchicalPlan plan;
    for (const std::string &level : bits) {
        core::LevelPlan lp;
        lp.reserve(level.size());
        for (const char c : level) {
            if (c != '0' && c != '1')
                util::fatal("request field 'plan' must hold bit "
                            "strings of '0' (dp) and '1' (mp)");
            lp.push_back(c == '1' ? core::Parallelism::kModel
                                  : core::Parallelism::kData);
        }
        plan.levels.push_back(std::move(lp));
    }
    return plan;
}

std::string
responseHead(const Request &req, bool ok)
{
    std::string out = "{";
    if (req.hasId)
        out += "\"id\":\"" + jsonEscape(req.id) + "\",";
    out += ok ? "\"ok\":true" : "\"ok\":false";
    // Echo the op whenever one parsed — including on failures, so a
    // client correlating a mixed batch never has to rely on id alone.
    if (!req.op.empty())
        out += ",\"op\":\"" + jsonEscape(req.op) + "\"";
    return out;
}

std::string
errorResponse(const Request &req, const std::string &message)
{
    return responseHead(req, false) +
           ",\"error\":\"" + jsonEscape(message) + "\"}";
}

std::string
metricsJson(const sim::StepMetrics &m)
{
    std::string out = "{";
    out += "\"step_seconds\":" + canonicalDouble(m.stepSeconds);
    out += ",\"compute_busy_seconds\":" +
           canonicalDouble(m.computeBusySeconds);
    out += ",\"network_busy_seconds\":" +
           canonicalDouble(m.networkBusySeconds);
    out += ",\"comm_bytes\":" + canonicalDouble(m.commBytes);
    out += ",\"phases\":{\"forward\":" + canonicalDouble(m.phases.forward) +
           ",\"backward\":" + canonicalDouble(m.phases.backward) +
           ",\"gradient\":" + canonicalDouble(m.phases.gradient) + "}";
    out += ",\"energy\":{\"compute_j\":" +
           canonicalDouble(m.energy.computeJ) +
           ",\"sram_j\":" + canonicalDouble(m.energy.sramJ) +
           ",\"dram_j\":" + canonicalDouble(m.energy.dramJ) +
           ",\"comm_j\":" + canonicalDouble(m.energy.commJ) +
           ",\"total_j\":" + canonicalDouble(m.energy.totalJ()) + "}";
    out += "}";
    return out;
}

std::string
searchJson(const core::HierarchicalResult &result)
{
    return "{\"transitions_evaluated\":" +
           std::to_string(result.transitionsEvaluated) +
           ",\"expanded\":" + std::to_string(result.stats.expanded) +
           ",\"pruned\":" + std::to_string(result.stats.pruned) +
           ",\"certified_exact\":" +
           (result.stats.certifiedExact ? std::string("true")
                                        : std::string("false")) +
           ",\"width_used\":" + std::to_string(result.stats.widthUsed) +
           "}";
}

std::string
planLevelsJson(const core::HierarchicalPlan &plan)
{
    std::string out = "[";
    for (std::size_t h = 0; h < plan.levels.size(); ++h) {
        if (h > 0)
            out += ",";
        out += '"' + core::toBitString(plan.levels[h]) + '"';
    }
    out += "]";
    return out;
}

std::string
planResponse(const Pending &p, const char *outcome,
             const core::HierarchicalResult &result)
{
    return responseHead(p.req, true) + ",\"context_hash\":\"" +
           p.key->hex() + "\"" + ",\"plan_hash\":\"" + p.hash + "\"" +
           ",\"cache\":\"" + outcome + "\"" +
           ",\"plan\":" + planLevelsJson(result.plan) +
           ",\"comm_bytes\":" + canonicalDouble(result.commBytes) +
           ",\"search\":" + searchJson(result) + "}";
}

std::string
sweepResponse(const Pending &p, const char *outcome, const SweepResult &r)
{
    return responseHead(p.req, true) + ",\"context_hash\":\"" +
           p.key->hex() + "\"" + ",\"cache\":\"" + outcome + "\"" +
           ",\"level\":" + std::to_string(r.level) +
           ",\"evaluated\":" + std::to_string(r.evaluated) +
           ",\"best_mask\":" + std::to_string(r.bestMask) +
           ",\"best_bits\":\"" + r.bestBits +
           "\",\"metrics\":" + metricsJson(r.best) + "}";
}

bool
needsSession(const std::string &op)
{
    return op == "plan" || op == "evaluate" || op == "sweep";
}

std::size_t
opIndex(const std::string &op)
{
    for (std::size_t k = 0; k < Server::kOps.size(); ++k)
        if (op == Server::kOps[k])
            return k;
    return 0; // unreachable for requests that execute
}

/**
 * std::getline with a length cap: reads one line into `line` and
 * returns false at end of input. A line longer than kMaxLineBytes
 * keeps only its first kMaxLineBytes + 1 characters — enough for
 * processBatch to reject it — and the rest is read and dropped.
 * sbumpc costs one getc per character on the stdio-synced std::cin
 * that `hyparc serve` reads; std::getline peeks with a getc/ungetc
 * pair per character there.
 */
bool
readLine(std::istream &in, std::string &line)
{
    line.clear();
    std::streambuf *buf = in.rdbuf();
    for (int c = buf->sbumpc();; c = buf->sbumpc()) {
        if (c == std::char_traits<char>::eof()) {
            in.setstate(std::ios::eofbit);
            return !line.empty();
        }
        if (c == '\n')
            return true;
        if (line.size() <= kMaxLineBytes)
            line.push_back(static_cast<char>(c));
    }
}

} // namespace

bool
requestFieldKnown(const std::string &key)
{
    for (const char *field : kRequestFields)
        if (key == field)
            return true;
    return false;
}

Server::Server(const ServeOptions &options)
    : cache_(options.cacheDir.empty() ? PlanCache::defaultDir()
                                      : options.cacheDir,
             !options.noCache),
      sessions_(options.maxSessions, options.maxSessionBytes),
      pool_(options.pool != nullptr ? options.pool
                                    : &util::ThreadPool::global())
{}

bool
Server::processBatch(const std::vector<std::string> &lines,
                     std::ostream &out)
{
    ++stats_.batches;
    const std::size_t n = lines.size();
    std::vector<Pending> pending(n);
    std::vector<std::string> responses(n);
    bool shutdown = false;

    // Pass 1 — parse and validate the *whole* request up front, before
    // the session registry is touched: a request that will answer with
    // an in-band error must never build — or evict — a warm session.
    // A valid plan or sweep also derives its cache key and probes the
    // cache here, so a hit is answered without a session. Requests are
    // independent here and each writes only its own slot, so the pass
    // fans out over the pool (a one-request batch runs inline); error
    // and hit counts are folded serially afterwards.
    auto admit = [&](std::size_t i) {
        Pending &p = pending[i];
        try {
            if (lines[i].size() > kMaxLineBytes)
                util::fatal("request line is longer than " +
                            std::to_string(kMaxLineBytes) + " bytes");
            parseRequest(lines[i], p.req);
            if (!needsSession(p.req.op)) {
                if (p.req.op != "stats" && p.req.op != "evict" &&
                    p.req.op != "shutdown")
                    util::fatal("unknown op '" + p.req.op + "'");
                return;
            }
            p.network = buildNetwork(p.req);
            p.config = buildConfig(p.req);
            core::validateStrategyName(p.req.strategy);
            sim::validateFaults(p.config);
            p.key.emplace(*p.network, p.config);
            if (p.req.op == "evaluate") {
                if (p.req.hasPlan) {
                    p.evalPlan = decodePlanBits(p.req.planBits);
                    if (p.evalPlan.numLevels() != p.req.levels)
                        util::fatal("request plan has " +
                                    std::to_string(p.evalPlan.numLevels()) +
                                    " levels but \"levels\" is " +
                                    std::to_string(p.req.levels));
                    core::validatePlan(p.evalPlan, *p.network);
                }
                p.coalesce = p.req.steps == 1;
            }
            if (p.req.op == "sweep" && !p.req.hasLevel)
                util::fatal("sweep needs a \"level\" field "
                            "(0-based hierarchy level)");
            if (p.req.op == "evaluate")
                return;
            // Whether a probe hit stands is decided in the serial fold.
            const auto t0 = Clock::now();
            if (p.req.op == "plan") {
                p.hash = p.key->planHash(p.req.strategy,
                                         core::SearchOptions{});
                if (const auto hit = cache_.probe(p.hash)) {
                    responses[i] = planResponse(p, "hit", *hit);
                    p.probeHit = true;
                }
            } else {
                p.hash =
                    p.key->sweepHash(p.req.strategy, core::SearchOptions{},
                                     p.req.level);
                if (const auto hit = cache_.probeSweep(p.hash)) {
                    responses[i] = sweepResponse(p, "hit", *hit);
                    p.probeHit = true;
                }
            }
            p.seconds = secondsSince(t0);
        } catch (const std::exception &e) {
            responses[i] = errorResponse(p.req, e.what());
            p.errored = true;
            p.done = true;
        }
    };
    pool_->parallelFor(0, n, pool_->grainFor(n),
                       [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i)
                               admit(i);
                       });

    // Serial fold. An admission hit stands only ahead of the batch's
    // first control op: the lookups of everything before a stats,
    // evict or shutdown complete before it runs, so those hits are
    // counted here exactly as pass 3 would count them. A hit at or
    // after a control op goes through pass 3 unchanged, where an
    // evict may have removed its entry.
    std::size_t barrier = n;
    for (std::size_t i = 0; i < n && barrier == n; ++i)
        if (!pending[i].errored && !needsSession(pending[i].req.op))
            barrier = i;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        if (p.errored)
            ++stats_.errors;
        if (p.probeHit && i < barrier) {
            latency_[opIndex(p.req.op)].record(p.seconds);
            p.done = true;
            ++hits;
        }
    }
    cache_.recordHits(hits);

    // Pass 2 — admission: reserve a session for every request still
    // pending, on this thread, in request order, so LRU motion (touch,
    // create, evict) is identical whether execution below runs serial
    // or parallel. Admission hits are done already and never touch the
    // registry. Builds happen lazily in the execution pass, under the
    // per-session mutex.
    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        if (!p.done && needsSession(p.req.op))
            p.session = sessions_.reserve(*p.network, p.config,
                                          p.key->hex());
    }

    // One context-hash group of session ops, executed in request order
    // under the session's mutex. Runs as a pool body: no server-wide
    // counter may be touched here — per-request flags are folded at
    // the serial points below instead.
    auto runGroup = [&](const std::vector<std::size_t> &members) {
        Session &session = *pending[members.front()].session;
        std::lock_guard<std::mutex> lock(session.mu);
        // Searches and batch evaluations run on the server's pool: as
        // a group body they run inline, and a lone group fans out.
        auto strategyPlan = [&](const Request &req,
                                core::HierarchicalResult *search =
                                    nullptr) {
            return core::makeNamedPlan(req.strategy,
                                       session.evaluator->model(),
                                       req.levels, *pool_, search);
        };

        // Single-step evaluates first, coalesced through one
        // evaluateBatch fan-out (the order is observable only through
        // per-op metrics, which are order-independent).
        std::vector<std::size_t> co;
        for (const std::size_t i : members)
            if (pending[i].coalesce)
                co.push_back(i);
        if (!co.empty()) {
            const auto t0 = Clock::now();
            try {
                session.ensure();
                std::vector<core::HierarchicalPlan> plans;
                plans.reserve(co.size());
                for (const std::size_t i : co) {
                    Pending &p = pending[i];
                    if (!p.req.hasPlan)
                        p.evalPlan = strategyPlan(p.req);
                    plans.push_back(p.evalPlan);
                }
                const std::vector<sim::StepMetrics> metrics =
                    session.evaluator->evaluateBatch(plans, *pool_);
                for (std::size_t k = 0; k < co.size(); ++k) {
                    const std::size_t i = co[k];
                    responses[i] =
                        responseHead(pending[i].req, true) +
                        ",\"context_hash\":\"" + session.contextHash +
                        "\"" +
                        ",\"batched\":" + std::to_string(co.size()) +
                        ",\"steps\":1,\"metrics\":" +
                        metricsJson(metrics[k]) + "}";
                    pending[i].done = true;
                    pending[i].sharedBatch = co.size() > 1;
                }
            } catch (const std::exception &e) {
                for (const std::size_t i : co) {
                    if (pending[i].done)
                        continue;
                    responses[i] = errorResponse(pending[i].req, e.what());
                    pending[i].errored = true;
                    pending[i].done = true;
                }
            }
            // The shared call's duration is attributed to every member
            // (that is each request's observed service time).
            const double secs = secondsSince(t0);
            for (const std::size_t i : co) {
                pending[i].seconds = secs;
                pending[i].timed = true;
            }
        }

        for (const std::size_t i : members) {
            Pending &p = pending[i];
            if (p.done)
                continue;
            const auto t0 = Clock::now();
            try {
                if (p.req.op == "plan") {
                    std::optional<core::HierarchicalResult> cached =
                        cache_.lookup(p.hash);
                    const char *outcome = "hit";
                    core::HierarchicalResult result;
                    if (cached) {
                        result = std::move(*cached);
                    } else {
                        session.ensure();
                        result.plan = strategyPlan(p.req, &result);
                        if (result.commBytes == 0.0 &&
                            p.req.strategy != "optimal")
                            result.commBytes =
                                session.evaluator->model().planBytes(
                                    result.plan);
                        // A store that cannot publish (cache off, or
                        // an I/O failure) still answers: as a bypass.
                        outcome = cache_.store(p.hash, result) ? "miss"
                                                               : "bypass";
                    }
                    responses[i] = planResponse(p, outcome, result);
                } else if (p.req.op == "evaluate") {
                    // Steady-state evaluations are served inline (the
                    // cadence loop is not a batch entry point).
                    session.ensure();
                    if (!p.req.hasPlan)
                        p.evalPlan = strategyPlan(p.req);
                    const sim::StepMetrics m =
                        session.evaluator->evaluateSteadyState(
                            p.evalPlan, p.req.steps);
                    responses[i] =
                        responseHead(p.req, true) +
                        ",\"context_hash\":\"" + p.key->hex() + "\"" +
                        ",\"batched\":1,\"steps\":" +
                        std::to_string(p.req.steps) +
                        ",\"metrics\":" + metricsJson(m) + "}";
                } else if (p.req.op == "sweep") {
                    std::optional<SweepResult> cached =
                        cache_.lookupSweep(p.hash);
                    const char *outcome = "hit";
                    SweepResult r;
                    if (cached) {
                        r = std::move(*cached);
                    } else {
                        session.ensure();
                        const core::HierarchicalPlan base =
                            strategyPlan(p.req);
                        r.level = p.req.level;
                        session.evaluator->sweepNeighborhood(
                            base, p.req.level,
                            [&](std::uint64_t mask,
                                const sim::StepMetrics &m) {
                                if (r.evaluated == 0 ||
                                    m.stepSeconds < r.best.stepSeconds) {
                                    r.bestMask = mask;
                                    r.best = m;
                                }
                                ++r.evaluated;
                            });
                        r.bestBits = core::toBitString(
                            core::levelPlanFromMask(r.bestMask,
                                                    base.numLayers()));
                        outcome = cache_.storeSweep(p.hash, r) ? "miss"
                                                               : "bypass";
                    }
                    responses[i] = sweepResponse(p, outcome, r);
                }
            } catch (const std::exception &e) {
                responses[i] = errorResponse(p.req, e.what());
                p.errored = true;
            }
            p.seconds = secondsSince(t0);
            p.timed = true;
            p.done = true;
        }
    };

    // Pass 3 — execute in segments. Consecutive session ops form a
    // segment whose context-hash groups fan out over the pool (groups
    // are independent: disjoint sessions, disjoint cache keys).
    // Control ops (stats/evict/shutdown) are serial barriers, so the
    // counters they observe — and the totals folded below — are
    // deterministic for any thread count.
    std::vector<std::size_t> segment;
    auto flushSegment = [&]() {
        if (segment.empty())
            return;
        std::map<std::string, std::vector<std::size_t>> groups;
        for (const std::size_t i : segment)
            groups[pending[i].key->hex()].push_back(i);
        std::vector<const std::vector<std::size_t> *> order;
        order.reserve(groups.size());
        for (const auto &[hash, members] : groups)
            order.push_back(&members);
        pool_->parallelFor(0, order.size(), 1,
                           [&](std::size_t b, std::size_t e) {
                               for (std::size_t g = b; g < e; ++g)
                                   runGroup(*order[g]);
                           });
        // Serial fold, in request order: counter and histogram totals
        // are identical whether the groups above ran serial or fanned
        // out.
        for (const std::size_t i : segment) {
            Pending &p = pending[i];
            if (p.errored)
                ++stats_.errors;
            if (p.sharedBatch)
                ++stats_.coalesced;
            if (p.timed)
                latency_[opIndex(p.req.op)].record(p.seconds);
        }
        segment.clear();
    };

    for (std::size_t i = 0; i < n; ++i) {
        Pending &p = pending[i];
        if (p.done)
            continue;
        if (needsSession(p.req.op)) {
            segment.push_back(i);
            continue;
        }
        flushSegment();
        const auto t0 = Clock::now();
        try {
            if (p.req.op == "stats") {
                const PlanCacheStats &c = cache_.stats();
                std::string latency = "{";
                for (std::size_t k = 0; k < kOps.size(); ++k) {
                    const util::LatencyHistogram &h = latency_[k];
                    if (k > 0)
                        latency += ",";
                    latency += std::string("\"") + kOps[k] +
                               "\":{\"count\":" +
                               std::to_string(h.count()) + ",\"p50_us\":" +
                               canonicalDouble(h.quantile(0.50) * 1e6) +
                               ",\"p95_us\":" +
                               canonicalDouble(h.quantile(0.95) * 1e6) +
                               ",\"p99_us\":" +
                               canonicalDouble(h.quantile(0.99) * 1e6) +
                               "}";
                }
                latency += "}";
                responses[i] =
                    responseHead(p.req, true) + ",\"cache\":{\"enabled\":" +
                    (cache_.enabled() ? "true" : "false") + ",\"dir\":\"" +
                    jsonEscape(cache_.dir().string()) +
                    "\",\"hits\":" + std::to_string(c.hits) +
                    ",\"misses\":" + std::to_string(c.misses) +
                    ",\"stores\":" + std::to_string(c.stores) +
                    ",\"store_failures\":" +
                    std::to_string(c.storeFailures) +
                    ",\"quarantined\":" + std::to_string(c.quarantined) +
                    "},\"sessions\":{\"size\":" +
                    std::to_string(sessions_.size()) +
                    ",\"capacity\":" + std::to_string(sessions_.capacity()) +
                    ",\"bytes\":" + std::to_string(sessions_.totalBytes()) +
                    ",\"max_bytes\":" +
                    std::to_string(sessions_.maxBytes()) +
                    ",\"built\":" + std::to_string(sessions_.built()) +
                    ",\"reused\":" + std::to_string(sessions_.reused()) +
                    "},\"server\":{\"requests\":" +
                    std::to_string(stats_.requests) +
                    ",\"errors\":" + std::to_string(stats_.errors) +
                    ",\"batches\":" + std::to_string(stats_.batches) +
                    ",\"coalesced\":" + std::to_string(stats_.coalesced) +
                    // Latency last: the concurrent-serving differential
                    // masks this one (inherently timing-dependent)
                    // object when comparing serial vs parallel output.
                    "},\"latency\":" + latency + "}";
            } else if (p.req.op == "evict") {
                responses[i] = responseHead(p.req, true) +
                               ",\"removed\":" +
                               std::to_string(cache_.evict()) + "}";
            } else if (p.req.op == "shutdown") {
                shutdown = true;
                responses[i] = responseHead(p.req, true) + "}";
            }
            latency_[opIndex(p.req.op)].record(secondsSince(t0));
        } catch (const std::exception &e) {
            responses[i] = errorResponse(p.req, e.what());
            ++stats_.errors;
        }
    }
    flushSegment();

    // End-of-batch serial point: built Evaluators have materialized
    // their sizes, so the byte budget can act (never mid-batch — a
    // pool body may still hold a session reference until here).
    sessions_.enforceBudget();

    for (const std::string &response : responses) {
        out << response << "\n";
        ++stats_.requests;
    }
    out.flush();
    return !shutdown;
}

int
Server::run(std::istream &in, std::ostream &out)
{
    std::vector<std::string> batch;
    std::string line;
    bool keepGoing = true;
    while (keepGoing && readLine(in, line)) {
        // Blank line = admission barrier: flush the buffered batch. An
        // over-long line is a request (answered with an error), even
        // when the part readLine kept is all whitespace.
        const bool blank =
            line.size() <= kMaxLineBytes &&
            line.find_first_not_of(" \t\r") == std::string::npos;
        if (blank) {
            if (!batch.empty()) {
                keepGoing = processBatch(batch, out);
                batch.clear();
            }
            continue;
        }
        batch.push_back(line);
    }
    if (keepGoing && !batch.empty())
        processBatch(batch, out);
    return 0;
}

} // namespace hypar::serve
