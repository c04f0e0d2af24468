#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/optimal_partitioner.hh"
#include "dnn/model_zoo.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"
#include "serve/session.hh"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = hypar::serve;

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

std::vector<std::string>
linesOf(const Batch &batch)
{
    std::vector<std::string> lines;
    for (const Request &r : batch)
        lines.push_back(r.line());
    return lines;
}

/** The root span of each admission batch. */
constexpr const char *kBatchSpan = "serve.batch";

/** Layer spans in report order, with the unit their p50 is shown in. */
struct LayerSpan
{
    const char *name;
    const char *unit; //!< "us" or "ms"
};
constexpr LayerSpan kLayerSpans[] = {
    {"dnn.network_build", "us"}, {"serve.json_parse", "us"},
    {"serve.context_hash", "us"}, {"serve.request_hash", "us"},
    {"serve.cache_lookup", "us"}, {"serve.cache_store", "us"},
    {"serve.session_reserve", "us"}, {"serve.session_build", "ms"},
    {"core.search", "ms"},        {"core.strategy_plan", "us"},
    {"sim.evaluate_batch", "us"}, {"sim.steady_state", "us"},
    {"sim.sweep", "ms"},
};

struct Span
{
    const char *name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::string requestId;
    bool timed;
};

/** In-memory span recorder; spans are written out only at the end. */
class Tracer
{
  public:
    int
    begin(const char *name, int parent, const std::string &requestId)
    {
        spans_.push_back(
            {name, Clock::now(), Clock::time_point{}, parent, requestId,
             timed_});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int span) { spans_[span].end = Clock::now(); }

    /** Spans begun from now on belong to the timed phase. */
    void setTimed(bool timed) { timed_ = timed; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    bool timed_ = false;
};

/** One span around the enclosing block. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int parent,
          const std::string &requestId)
        : tracer_(tracer), span_(tracer.begin(name, parent, requestId))
    {}
    ~Scope() { tracer_.end(span_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int span_;
};

/**
 * Server::processBatch's calls into the library, made one by one under
 * spans. Only the request shapes the workloads generate are handled:
 * `plan` with strategy optimal, `evaluate` and `sweep` with a named
 * strategy or an explicit plan, and `stats` (parsed only).
 */
class TracedPipeline
{
  public:
    TracedPipeline(Tracer &tracer, const std::filesystem::path &cacheDir,
                   bool noCache)
        : tracer_(tracer), cache_(cacheDir, !noCache)
    {}

    void run(const Batch &batch);

    serve::PlanCache &cache() { return cache_; }
    const serve::SessionRegistry &sessions() const { return sessions_; }

    // Counters at the layer boundaries.
    double searchCpuSeconds = 0.0;
    std::uint64_t expanded = 0;
    std::uint64_t pruned = 0;
    std::size_t evaluateBatchCalls = 0;
    std::size_t evaluateBatchPlans = 0;
    std::uint64_t sweepMasks = 0;

  private:
    struct Item
    {
        const Request *req = nullptr;
        std::optional<hypar::dnn::Network> network;
        hypar::sim::SimConfig config;
        std::string ctxHash;
        std::shared_ptr<serve::Session> session;
    };

    void runGroup(std::vector<Item> &items,
                  const std::vector<std::size_t> &members, int root);
    void ensure(serve::Session &s, int root, const std::string &id);
    hypar::core::HierarchicalPlan planFor(const Request &req,
                                          serve::Session &s, int root);

    Tracer &tracer_;
    serve::SessionRegistry sessions_;
    serve::PlanCache cache_;
};

void
TracedPipeline::run(const Batch &batch)
{
    const int root = tracer_.begin(kBatchSpan, -1, "");
    std::vector<Item> items(batch.size());

    // Pass 1: parse, build the network, hash the context.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Item &it = items[i];
        it.req = &batch[i];
        const std::string &id = it.req->id;
        const std::string line = it.req->line();
        {
            Scope s(tracer_, "serve.json_parse", root, id);
            const serve::JsonValue parsed = serve::JsonValue::parse(line);
            (void)parsed;
        }
        if (it.req->op == "stats")
            continue;
        {
            Scope s(tracer_, "dnn.network_build", root, id);
            it.network.emplace(hypar::dnn::modelByName(it.req->model));
        }
        it.config = configFor(*it.req);
        Scope s(tracer_, "serve.context_hash", root, id);
        it.ctxHash = serve::contextHash(*it.network, it.config);
    }

    // Pass 2: admission, in request order.
    for (Item &it : items) {
        if (!it.network)
            continue;
        Scope s(tracer_, "serve.session_reserve", root, it.req->id);
        it.session = sessions_.reserve(*it.network, it.config, it.ctxHash);
    }

    // Pass 3: context groups in the server's (hash) order.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < items.size(); ++i)
        if (items[i].network)
            groups[items[i].ctxHash].push_back(i);
    for (const auto &[hash, members] : groups)
        runGroup(items, members, root);

    sessions_.enforceBudget();
    tracer_.end(root);
}

void
TracedPipeline::ensure(serve::Session &s, int root, const std::string &id)
{
    if (s.evaluator) {
        s.ensure();
        return;
    }
    Scope span(tracer_, "serve.session_build", root, id);
    s.ensure();
}

hypar::core::HierarchicalPlan
TracedPipeline::planFor(const Request &req, serve::Session &s, int root)
{
    if (!req.plan.empty())
        return planFromBits(req.plan);
    Scope span(tracer_, "core.strategy_plan", root, req.id);
    return hypar::core::makePlan(strategyFor(req.strategy),
                                 s.evaluator->model(), req.levels);
}

void
TracedPipeline::runGroup(std::vector<Item> &items,
                         const std::vector<std::size_t> &members, int root)
{
    serve::Session &session = *items[members.front()].session;

    // Single-step evaluates first, through one evaluateBatch call.
    std::vector<std::size_t> co;
    for (const std::size_t i : members)
        if (items[i].req->op == "evaluate" && items[i].req->steps == 1)
            co.push_back(i);
    if (!co.empty()) {
        const std::string &id = items[co.front()].req->id;
        ensure(session, root, id);
        std::vector<hypar::core::HierarchicalPlan> plans;
        for (const std::size_t i : co)
            plans.push_back(planFor(*items[i].req, session, root));
        Scope span(tracer_, "sim.evaluate_batch", root, id);
        const auto metrics = session.evaluator->evaluateBatch(plans);
        (void)metrics;
        ++evaluateBatchCalls;
        evaluateBatchPlans += plans.size();
    }

    for (const std::size_t i : members) {
        Item &it = items[i];
        const Request &req = *it.req;
        if (req.op == "plan") {
            std::string hash;
            {
                Scope span(tracer_, "serve.request_hash", root, req.id);
                hash = serve::planHash(*it.network, it.config, req.strategy,
                                       {});
            }
            std::optional<hypar::core::HierarchicalResult> cached;
            {
                Scope span(tracer_, "serve.cache_lookup", root, req.id);
                cached = cache_.lookup(hash);
            }
            if (cached)
                continue;
            ensure(session, root, req.id);
            hypar::core::HierarchicalResult result;
            const double cpu0 = processCpuSeconds();
            {
                Scope span(tracer_, "core.search", root, req.id);
                result = hypar::core::OptimalPartitioner(
                             session.evaluator->model())
                             .partition(req.levels, {});
            }
            searchCpuSeconds += processCpuSeconds() - cpu0;
            expanded += result.stats.expanded;
            pruned += result.stats.pruned;
            Scope span(tracer_, "serve.cache_store", root, req.id);
            cache_.store(hash, result);
        } else if (req.op == "evaluate" && req.steps > 1) {
            ensure(session, root, req.id);
            const hypar::core::HierarchicalPlan plan =
                planFor(req, session, root);
            Scope span(tracer_, "sim.steady_state", root, req.id);
            const auto m =
                session.evaluator->evaluateSteadyState(plan, req.steps);
            (void)m;
        } else if (req.op == "sweep") {
            std::string hash;
            {
                Scope span(tracer_, "serve.request_hash", root, req.id);
                hash = serve::sweepHash(*it.network, it.config,
                                        req.strategy, {}, req.level);
            }
            std::optional<serve::SweepResult> cached;
            {
                Scope span(tracer_, "serve.cache_lookup", root, req.id);
                cached = cache_.lookupSweep(hash);
            }
            if (cached)
                continue;
            ensure(session, root, req.id);
            const hypar::core::HierarchicalPlan base =
                planFor(req, session, root);
            serve::SweepResult r;
            r.level = req.level;
            {
                Scope span(tracer_, "sim.sweep", root, req.id);
                session.evaluator->sweepNeighborhood(
                    base, req.level,
                    [&r](std::uint64_t mask,
                         const hypar::sim::StepMetrics &m) {
                        if (r.evaluated == 0 ||
                            m.stepSeconds < r.best.stepSeconds) {
                            r.bestMask = mask;
                            r.best = m;
                        }
                        ++r.evaluated;
                    });
            }
            sweepMasks += r.evaluated;
            r.bestBits = hypar::core::toBitString(
                hypar::core::levelPlanFromMask(r.bestMask,
                                               base.numLayers()));
            Scope span(tracer_, "serve.cache_store", root, req.id);
            cache_.storeSweep(hash, r);
        }
    }
}

/** Duration minus the union of the children's intervals, per span. */
std::vector<double>
selfMicros(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[spans[i].parent].push_back(static_cast<int>(i));
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<int> &kids = children[i];
        std::sort(kids.begin(), kids.end(), [&](int a, int b) {
            return spans[a].start < spans[b].start;
        });
        double covered = 0.0;
        Clock::time_point reach = spans[i].start;
        for (const int k : kids) {
            const Clock::time_point from = std::max(reach, spans[k].start);
            const Clock::time_point to = std::min(spans[k].end, spans[i].end);
            if (to > from)
                covered += micros(to - from);
            reach = std::max(reach, to);
        }
        self[i] = micros(spans[i].end - spans[i].start) - covered;
    }
    return self;
}

void
writeChromeTrace(const std::vector<Span> &spans,
                 const std::filesystem::path &path)
{
    if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    const Clock::time_point origin =
        spans.empty() ? Clock::time_point{} : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << (s.timed ? "timed" : "warmup")
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << micros(s.start - origin)
            << ",\"dur\":" << micros(s.end - s.start)
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"request_id\":\"" << serve::jsonEscape(s.requestId)
            << "\"}}";
    }
    out << "\n]}\n";
}

} // namespace

ReplayResult
traceReplay(const ReplayInput &in, std::ostream &log)
{
    const Workload &wl = *in.workload;
    ReplayResult result;

    // 1. Untraced in-process server: processBatch time per timed batch,
    //    and byte-for-byte agreement with the child's responses.
    std::vector<double> processUs;
    {
        serve::ServeOptions opts;
        opts.cacheDir = in.workdir / "replay-server";
        opts.noCache = wl.noCache();
        serve::Server server(opts);
        for (const Batch &b : in.warmup) {
            std::ostringstream sink;
            server.processBatch(linesOf(b), sink);
        }
        for (std::size_t b = 0; b < in.timed.size(); ++b) {
            const std::vector<std::string> lines = linesOf(in.timed[b]);
            std::ostringstream out;
            const auto t0 = Clock::now();
            server.processBatch(lines, out);
            processUs.push_back(micros(Clock::now() - t0));
            std::istringstream got(out.str());
            std::string line;
            for (const std::string &expected : in.responses[b]) {
                if (!std::getline(got, line) || line != expected) {
                    log << "servebench: in-process processBatch answered "
                        << line << " where hyparc serve answered "
                        << expected << "\n";
                    ++result.mismatches;
                }
            }
            result.requests += lines.size();
        }
    }

    // 2. Traced pipeline over the same batches.
    Tracer tracer;
    TracedPipeline pipeline(tracer, in.workdir / "replay-traced",
                            wl.noCache());
    for (const Batch &b : in.warmup)
        pipeline.run(b);
    const serve::PlanCacheStats before = pipeline.cache().stats();
    tracer.setTimed(true);
    for (const Batch &b : in.timed)
        pipeline.run(b);
    const serve::PlanCacheStats after = pipeline.cache().stats();

    const std::vector<Span> &spans = tracer.spans();
    const std::vector<double> self = selfMicros(spans);
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, double> timedSelf;
    double totalSelf = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        durations[spans[i].name].push_back(
            micros(spans[i].end - spans[i].start));
        if (spans[i].timed) {
            timedSelf[spans[i].name] += self[i];
            totalSelf += self[i];
        }
    }
    double processTotal = 0.0;
    for (const double us : processUs)
        processTotal += us;
    const double covered = totalSelf - timedSelf[kBatchSpan];

    // Per-layer table.
    log << "traced run: " << in.warmup.size() << " warm-up + "
        << in.timed.size() << " timed batches (" << result.requests
        << " timed requests)\n"
        << std::left << std::setw(24) << "  span" << std::right
        << std::setw(9) << "calls" << std::setw(14) << "p50/call"
        << std::setw(12) << "self %" << "\n";
    auto pct = [&](const std::string &name) {
        return totalSelf > 0.0 ? 100.0 * timedSelf[name] / totalSelf : 0.0;
    };
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        result.metrics.push_back({name, value, unit});
    };
    std::vector<LayerMetric> shares;
    for (const LayerSpan &ls : kLayerSpans) {
        const std::vector<double> &d = durations[ls.name];
        const double scale = std::string(ls.unit) == "ms" ? 1e-3 : 1.0;
        const double p50 = median(d) * scale;
        log << "  " << std::left << std::setw(22) << ls.name << std::right
            << std::setw(9) << d.size() << std::setw(11)
            << std::setprecision(4) << p50 << " " << ls.unit
            << std::setw(11) << std::setprecision(3) << pct(ls.name)
            << "%\n";
        add(std::string(ls.name) + "_" + ls.unit, p50, ls.unit);
        shares.push_back(
            {std::string(ls.name) + "_self_pct", pct(ls.name), "%"});
    }
    log << "  " << std::left << std::setw(22) << kBatchSpan << std::right
        << std::setw(9) << durations[kBatchSpan].size() << std::setw(26)
        << std::setprecision(3) << pct(kBatchSpan)
        << "%  (benchmark bookkeeping between spans)\n";

    const double lookups = static_cast<double>(
        (after.hits - before.hits) + (after.misses - before.misses));
    const double hitRatio =
        lookups > 0.0 ? (after.hits - before.hits) / lookups : 0.0;
    const double built = static_cast<double>(pipeline.sessions().built());
    const double processP50 = median(processUs);
    const auto totalMicros = [&](const char *name) {
        double sum = 0.0;
        for (const double us : durations[name])
            sum += us;
        return sum;
    };
    const double searchUs = totalMicros("core.search");
    const double roundTripP50 = median(in.roundTripUs);

    add("serve.cache_hit_ratio", hitRatio, "ratio");
    add("serve.session_reuse_ratio",
        pipeline.sessions().reused() / std::max(built, 1.0), "ratio");
    add("serve.process_batch_us", processP50, "us");
    add("serve.protocol_us", roundTripP50 - processP50, "us");
    add("core.search_cpu_per_wall",
        searchUs > 0.0 ? pipeline.searchCpuSeconds * 1e6 / searchUs : 0.0,
        "ratio");
    add("core.expanded", static_cast<double>(pipeline.expanded), "count");
    add("core.pruned", static_cast<double>(pipeline.pruned), "count");
    add("sim.evaluate_batch_size",
        pipeline.evaluateBatchCalls > 0
            ? static_cast<double>(pipeline.evaluateBatchPlans) /
                  pipeline.evaluateBatchCalls
            : 0.0,
        "count");
    add("sim.sweep_ns_per_mask",
        pipeline.sweepMasks > 0
            ? totalMicros("sim.sweep") * 1e3 / pipeline.sweepMasks
            : 0.0,
        "ns");
    add("serve.span_coverage_pct",
        processTotal > 0.0 ? 100.0 * covered / processTotal : 0.0, "%");
    result.metrics.insert(result.metrics.end(), shares.begin(),
                          shares.end());

    log << std::setprecision(4) << "  cache hit ratio (timed) "
        << hitRatio << ", sessions built " << built << " reused "
        << pipeline.sessions().reused() << "\n"
        << "  processBatch p50 " << processP50 << " us, client round trip"
        << " p50 " << roundTripP50 << " us\n"
        << "  layer spans cover " << covered << " us of " << processTotal
        << " us processBatch time ("
        << (processTotal > 0.0 ? 100.0 * covered / processTotal : 0.0)
        << "%); the rest is server work the benchmark cannot see\n";

    writeChromeTrace(spans, in.chromeTrace);
    log << "  spans written to " << in.chromeTrace.string() << "\n";
    return result;
}

} // namespace servebench
