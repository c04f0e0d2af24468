#include "hyparc_app.hh"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arch/fault_map.hh"
#include "core/comm_report.hh"
#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "dnn/spec_parser.hh"
#include "serve/server.hh"
#include "sim/evaluator.hh"
#include "sim/robust.hh"
#include "sim/trace_export.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace hypar::tools {

namespace {

dnn::Network
loadNetwork(const Options &opts)
{
    if (!opts.model.empty() && !opts.spec.empty())
        util::fatal("use either --model or --spec, not both");
    if (!opts.model.empty())
        return dnn::modelByName(opts.model);
    if (!opts.spec.empty())
        return dnn::parseNetworkSpecFile(opts.spec);
    util::fatal("a network is required: --model <name> or --spec <file>");
}

sim::SimConfig
makeConfig(const Options &opts)
{
    sim::SimConfig cfg;
    cfg.levels = opts.levels;
    cfg.comm.batch = opts.batch;
    if (opts.topology == "htree")
        cfg.topology = sim::TopologyKind::kHTree;
    else if (opts.topology == "torus")
        cfg.topology = sim::TopologyKind::kTorus;
    else if (opts.topology == "mesh")
        cfg.topology = sim::TopologyKind::kMesh;
    else
        util::fatal("unknown topology '" + opts.topology +
                    "' (htree|torus|mesh)");
    cfg.options.overlapGradComm = opts.overlap;
    return cfg;
}

core::HierarchicalPlan
makeStrategyPlan(const Options &opts, const core::CommModel &model,
                 core::HierarchicalResult *search_out = nullptr)
{
    if (opts.strategy == "hypar")
        return core::makeHyparPlan(model, opts.levels);
    if (opts.strategy == "dp")
        return core::makeDataParallelPlan(model.network(), opts.levels);
    if (opts.strategy == "mp")
        return core::makeModelParallelPlan(model.network(), opts.levels);
    if (opts.strategy == "owt")
        return core::makeOneWeirdTrickPlan(model.network(), opts.levels);
    if (opts.strategy == "optimal") {
        auto result = core::OptimalPartitioner(model).partition(opts.levels);
        if (search_out != nullptr)
            *search_out = result;
        return result.plan;
    }
    util::fatal("unknown strategy '" + opts.strategy +
                "' (hypar|dp|mp|owt|optimal)");
}

int
cmdModels(std::ostream &os)
{
    util::Table t({"name", "layers", "params", "wiring"});
    for (const auto &net : dnn::allModels()) {
        t.addRow({net.name(), std::to_string(net.size()),
                  std::to_string(net.totalParamElems()), "chain"});
    }
    // The DAG fixtures live outside allModels() (chain-only consumers
    // iterate that list) but resolve through --model like the rest.
    for (const auto &net :
         {dnn::makeResNetBlock(), dnn::makeInceptionBranch()}) {
        t.addRow({net.name(), std::to_string(net.size()),
                  std::to_string(net.totalParamElems()), "dag"});
    }
    t.print(os);
    return 0;
}

int
cmdPlan(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    core::CommConfig comm;
    comm.batch = opts.batch;
    core::CommModel model(net, comm);
    core::HierarchicalResult search;
    const auto plan = makeStrategyPlan(opts, model, &search);

    os << net.describe() << "\n"
       << opts.strategy << " plan over " << plan.numAccelerators()
       << " accelerators:\n"
       << core::toString(plan) << "total communication: "
       << util::formatBytes(model.planBytes(plan)) << "\n";
    // Search-effort diagnostics: only the joint-DP engines count
    // relaxations and carry SearchStats (see HierarchicalResult).
    if (opts.verbose && opts.strategy == "optimal") {
        os << "transitions evaluated: " << search.transitionsEvaluated
           << "\n"
           << "nodes expanded: " << search.stats.expanded
           << ", pruned: " << search.stats.pruned << ", frontier width: "
           << search.stats.widthUsed << "\n"
           << "optimality: "
           << (search.stats.certifiedExact ? "certified exact"
                                           : "no certificate")
           << "\n";
    }
    return 0;
}

int
cmdSimulate(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    sim::Evaluator ev(net, makeConfig(opts));
    const auto plan = makeStrategyPlan(opts, ev.model());
    const auto m = ev.evaluate(plan);
    const auto dp = ev.evaluate(core::Strategy::kDataParallel);

    os << net.name() << " on " << ev.topology().name() << " x"
       << ev.topology().numNodes() << ", batch " << opts.batch << ", "
       << opts.strategy << ":\n  " << m.summary() << "\n"
       << "  speedup vs Data Parallelism: "
       << util::formatRatio(dp.stepSeconds / m.stepSeconds)
       << ", energy saving: "
       << util::formatRatio(dp.energy.totalJ() / m.energy.totalJ())
       << "\n";
    return 0;
}

int
cmdReport(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    core::CommConfig comm;
    comm.batch = opts.batch;
    core::CommModel model(net, comm);
    const auto plan = makeStrategyPlan(opts, model);
    os << core::buildCommReport(model, plan).toString();
    return 0;
}

int
cmdTrace(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    const auto cfg = makeConfig(opts);

    core::CommModel model(net, cfg.comm);
    auto topo = sim::makeTopology(cfg.topology, cfg.levels, cfg.noc);
    sim::SimOptions sim_opts;
    sim_opts.recordTrace = true;
    sim::TrainingSimulator simulator(model, cfg.acc, cfg.energy, *topo,
                                     sim_opts);
    (void)simulator.simulate(makeStrategyPlan(opts, model));

    if (opts.output.empty()) {
        sim::writeChromeTrace(os, simulator.lastTrace());
    } else {
        std::ofstream out(opts.output);
        if (!out)
            util::fatal("cannot write '" + opts.output + "'");
        sim::writeChromeTrace(out, simulator.lastTrace());
        os << "wrote " << simulator.lastTrace().size() << " events to "
           << opts.output << "\n";
    }
    return 0;
}

/** One parsed sweep axis: a hierarchy level ("H1") or a layer name. */
struct SweepAxis
{
    bool isLevel = false;
    std::size_t index = 0; //!< level index (0-based) or layer index
    std::string name;
};

SweepAxis
parseSweepAxis(const std::string &token, const dnn::Network &net,
               std::size_t levels)
{
    if (token.size() >= 2 && token[0] == 'H' &&
        token.find_first_not_of("0123456789", 1) == std::string::npos) {
        std::size_t h = 0;
        try {
            h = std::stoul(token.substr(1));
        } catch (const std::out_of_range &) {
            h = 0; // falls through to the range fatal below
        }
        if (h < 1 || h > levels)
            util::fatal("sweep axis '" + token +
                        "' is outside the hierarchy (H1..H" +
                        std::to_string(levels) + ")");
        return {true, h - 1, token};
    }
    return {false, net.layerIndex(token), token};
}

/** One scored grid point, masks already rendered as bitstrings. */
struct SweepRow
{
    std::string a;
    std::string b;
    double stepSeconds = 0.0;
    double speedup = 0.0;
};

/** Escape a string for embedding in a JSON string value. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void
writeSweepRows(const Options &opts, const std::string &mode,
               const SweepAxis &a, const SweepAxis &b, bool sampled,
               const std::vector<SweepRow> &rows, std::ostream &os)
{
    char buf[128];
    if (opts.format == "csv") {
        os << "# model=" << opts.model << opts.spec << " mode=" << mode
           << " axes=" << a.name << "," << b.name << " levels="
           << opts.levels << " batch=" << opts.batch << " topology="
           << opts.topology << " strategy=" << opts.strategy;
        if (opts.overlap)
            os << " overlap=true";
        if (sampled)
            os << " limit=" << opts.limit << " seed=" << opts.seed
               << " sample=" << opts.sample;
        os << "\n"
           << a.name << "," << b.name
           << ",step_seconds,speedup_vs_dp\n";
        for (const auto &row : rows) {
            std::snprintf(buf, sizeof(buf), "%.17g,%.6g",
                          row.stepSeconds, row.speedup);
            os << row.a << "," << row.b << "," << buf << "\n";
        }
        return;
    }
    os << "{\"model\":\"" << jsonEscape(opts.model + opts.spec)
       << "\",\"mode\":\"" << mode << "\",\"axes\":[\""
       << jsonEscape(a.name) << "\",\"" << jsonEscape(b.name)
       << "\"],\"levels\":" << opts.levels << ",\"batch\":"
       << opts.batch << ",\"topology\":\"" << jsonEscape(opts.topology)
       << "\",\"strategy\":\"" << jsonEscape(opts.strategy) << "\"";
    if (opts.overlap)
        os << ",\"overlap\":true";
    if (sampled)
        os << ",\"limit\":" << opts.limit << ",\"seed\":" << opts.seed
           << ",\"sample\":\"" << jsonEscape(opts.sample) << "\"";
    os << ",\"points\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "\"step_seconds\":%.17g,\"speedup_vs_dp\":%.6g",
                      rows[i].stepSeconds, rows[i].speedup);
        os << (i == 0 ? "" : ",") << "{\"a\":\"" << rows[i].a
           << "\",\"b\":\"" << rows[i].b << "\"," << buf << "}";
    }
    os << "]}\n";
}

int
cmdSweep(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    const auto cfg = makeConfig(opts);
    sim::Evaluator ev(net, cfg);

    // Reject bad output options before the grid is computed (and
    // before -o truncates an existing file).
    if (opts.format != "csv" && opts.format != "json")
        util::fatal("unknown sweep format '" + opts.format +
                    "' (csv|json)");
    if (opts.sample != "uniform" && opts.sample != "biased")
        util::fatal("unknown sweep sampler '" + opts.sample +
                    "' (uniform|biased)");
    if (opts.axes.empty())
        util::fatal("sweep needs --axes A,B (two hierarchy levels like "
                    "H1,H4 or two layer names like conv5_2,fc1)");
    const auto comma = opts.axes.find(',');
    if (comma == std::string::npos ||
        opts.axes.find(',', comma + 1) != std::string::npos)
        util::fatal("--axes takes exactly two comma-separated entries");
    const SweepAxis a =
        parseSweepAxis(opts.axes.substr(0, comma), net, opts.levels);
    const SweepAxis b =
        parseSweepAxis(opts.axes.substr(comma + 1), net, opts.levels);
    if (a.isLevel != b.isLevel)
        util::fatal("--axes must name two hierarchy levels or two "
                    "layers, not a mix");
    if (a.index == b.index)
        util::fatal("--axes entries must differ");

    const double dp_time =
        ev.evaluate(core::Strategy::kDataParallel).stepSeconds;
    const core::HierarchicalPlan base = makeStrategyPlan(opts, ev.model());
    std::vector<SweepRow> rows;

    // --limit N: deterministically sample N distinct grid points
    // (std::mt19937_64 seeded by --seed, emitted in ascending mask
    // order) instead of enumerating the full 4^L / 4^H grid — the only
    // way to sweep level-mask grids past 8 layers or layer-vector
    // grids past H = 8. Sampled points are scored in one
    // evaluateBatch call.
    const std::size_t bits = a.isLevel ? net.size() : opts.levels;
    const std::uint64_t axis_masks =
        bits < 63 ? std::uint64_t{1} << bits : 0;
    const bool sampled =
        opts.limit > 0 &&
        (bits > 31 || opts.limit < axis_masks * axis_masks);
    if (!sampled && opts.limit > 0 && bits > 8)
        util::fatal("--limit " + std::to_string(opts.limit) +
                    " covers the whole grid; sampling a grid too big "
                    "to enumerate needs a limit below its " +
                    std::to_string(axis_masks * axis_masks) +
                    " points");
    if (sampled) {
        if (bits > 31)
            util::fatal("sweep axis exceeds 2^31 masks; nothing that "
                        "size is sampleable");
        std::mt19937_64 rng(opts.seed);
        std::set<std::pair<std::uint64_t, std::uint64_t>> points;
        if (opts.sample == "biased") {
            // Neighborhood-biased sampler: start from the base plan's
            // own axis masks and flip each bit with probability 1/4,
            // concentrating samples around the --strategy plan (the
            // region sweeps usually care about) instead of spreading
            // them uniformly. Same seed -> same points, like uniform.
            auto level_mask = [&](std::size_t h) {
                std::uint64_t m = 0;
                for (std::size_t l = 0; l < bits; ++l)
                    if (base.levels[h][l] == core::Parallelism::kModel)
                        m |= std::uint64_t{1} << l;
                return m;
            };
            auto layer_state = [&](std::size_t layer) {
                std::uint64_t m = 0;
                for (std::size_t h = 0; h < bits; ++h)
                    if (base.levels[h][layer] ==
                        core::Parallelism::kModel)
                        m |= std::uint64_t{1} << h;
                return m;
            };
            const std::uint64_t base_a =
                a.isLevel ? level_mask(a.index) : layer_state(a.index);
            const std::uint64_t base_b =
                a.isLevel ? level_mask(b.index) : layer_state(b.index);
            auto perturb = [&](std::uint64_t m) {
                for (std::size_t bit = 0; bit < bits; ++bit)
                    if (rng() % 4 == 0)
                        m ^= std::uint64_t{1} << bit;
                return m;
            };
            while (points.size() < opts.limit)
                points.insert({perturb(base_a), perturb(base_b)});
        } else {
            while (points.size() < opts.limit)
                points.insert({rng() % axis_masks, rng() % axis_masks});
        }

        std::vector<core::HierarchicalPlan> grid;
        grid.reserve(points.size());
        core::HierarchicalPlan scaffold = base;
        for (const auto &[ma, mb] : points) {
            if (a.isLevel) {
                scaffold.levels[a.index] =
                    core::levelPlanFromMask(ma, bits);
                scaffold.levels[b.index] =
                    core::levelPlanFromMask(mb, bits);
            } else {
                core::assignLayerFromState(scaffold, a.index, ma);
                core::assignLayerFromState(scaffold, b.index, mb);
            }
            grid.push_back(scaffold);
        }
        const auto metrics = ev.evaluateBatch(grid);
        rows.reserve(points.size());
        std::size_t i = 0;
        for (const auto &[ma, mb] : points) {
            const auto &m = metrics[i++];
            rows.push_back(
                {core::toBitString(core::levelPlanFromMask(ma, bits)),
                 core::toBitString(core::levelPlanFromMask(mb, bits)),
                 m.stepSeconds, dp_time / m.stepSeconds});
        }
    } else if (a.isLevel) {
        // Fig. 9 shape: the full 2^L x 2^L grid of layer masks at two
        // hierarchy levels; outer axis substituted into a scaffold,
        // inner axis scored by the incremental sweep.
        const std::size_t num_layers = net.size();
        if (num_layers > 8)
            util::fatal("level-mask sweep is 4^L points; refusing "
                        "networks with more than 8 weighted layers "
                        "(use --limit N to sample)");
        const std::uint64_t masks = std::uint64_t{1} << num_layers;
        rows.reserve(masks * masks);
        core::HierarchicalPlan scaffold = base;
        for (std::uint64_t ma = 0; ma < masks; ++ma) {
            scaffold.levels[a.index] =
                core::levelPlanFromMask(ma, num_layers);
            ev.sweepNeighborhood(
                scaffold, b.index,
                [&](std::uint64_t mb, const sim::StepMetrics &m) {
                    rows.push_back({core::toBitString(
                                        scaffold.levels[a.index]),
                                    core::toBitString(
                                        core::levelPlanFromMask(
                                            mb, num_layers)),
                                    m.stepSeconds,
                                    dp_time / m.stepSeconds});
                });
        }
    } else {
        // Fig. 10 shape: the 2^H x 2^H grid of two layers' level
        // vectors, scored in one evaluateBatch call.
        if (opts.levels > 8)
            util::fatal("layer-vector sweep is 4^H points; refusing "
                        "more than 8 hierarchy levels "
                        "(use --limit N to sample)");
        const std::uint64_t masks = std::uint64_t{1} << opts.levels;
        std::vector<core::HierarchicalPlan> grid;
        grid.reserve(masks * masks);
        core::HierarchicalPlan scaffold = base;
        for (std::uint64_t ma = 0; ma < masks; ++ma) {
            core::assignLayerFromState(scaffold, a.index, ma);
            for (std::uint64_t mb = 0; mb < masks; ++mb) {
                core::assignLayerFromState(scaffold, b.index, mb);
                grid.push_back(scaffold);
            }
        }
        const auto metrics = ev.evaluateBatch(grid);
        rows.reserve(grid.size());
        for (std::uint64_t ma = 0; ma < masks; ++ma) {
            for (std::uint64_t mb = 0; mb < masks; ++mb) {
                const auto &m = metrics[ma * masks + mb];
                rows.push_back({core::toBitString(core::levelPlanFromMask(
                                    ma, opts.levels)),
                                core::toBitString(core::levelPlanFromMask(
                                    mb, opts.levels)),
                                m.stepSeconds,
                                dp_time / m.stepSeconds});
            }
        }
    }

    const std::string mode = a.isLevel ? "levels" : "layers";
    if (opts.output.empty()) {
        writeSweepRows(opts, mode, a, b, sampled, rows, os);
    } else {
        std::ofstream out(opts.output);
        if (!out)
            util::fatal("cannot write '" + opts.output + "'");
        writeSweepRows(opts, mode, a, b, sampled, rows, out);
        os << "wrote " << rows.size() << " grid points to "
           << opts.output << "\n";
    }
    return 0;
}

/** Parse a single floating-point rate in [0, 1]. */
double
parseRate(const std::string &token)
{
    double rate = 0.0;
    try {
        std::size_t used = 0;
        rate = std::stod(token, &used);
        if (used != token.size())
            throw std::invalid_argument(token);
    } catch (const std::exception &) {
        util::fatal("bad fault rate '" + token + "'");
    }
    if (!(rate >= 0.0 && rate <= 1.0))
        util::fatal("fault rate must be in [0, 1], got '" + token + "'");
    return rate;
}

/** One point of a fault-rate curve. */
struct FaultRow
{
    double rate = 0.0;
    double staticSeconds = 0.0;    //!< pristine plan on degraded arrays
    double replannedSeconds = 0.0; //!< per-sample re-planned
};

void
writeFaultRows(const Options &opts, const std::vector<FaultRow> &rows,
               std::ostream &os)
{
    char buf[160];
    if (opts.format == "csv") {
        os << "# model=" << opts.model << opts.spec << " mode=faults"
           << " levels=" << opts.levels << " batch=" << opts.batch
           << " topology=" << opts.topology << " strategy="
           << opts.strategy << " samples=" << opts.samples << " seed="
           << opts.seed << "\n"
           << "rate,static_step_seconds,replanned_step_seconds,"
              "recovery\n";
        for (const auto &row : rows) {
            std::snprintf(buf, sizeof(buf), "%.6g,%.17g,%.17g,%.6g",
                          row.rate, row.staticSeconds,
                          row.replannedSeconds,
                          row.staticSeconds / row.replannedSeconds);
            os << buf << "\n";
        }
        return;
    }
    os << "{\"model\":\"" << jsonEscape(opts.model + opts.spec)
       << "\",\"mode\":\"faults\",\"levels\":" << opts.levels
       << ",\"batch\":" << opts.batch << ",\"topology\":\""
       << jsonEscape(opts.topology) << "\",\"strategy\":\""
       << jsonEscape(opts.strategy) << "\",\"samples\":" << opts.samples
       << ",\"seed\":" << opts.seed << ",\"points\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"rate\":%.6g,\"static_step_seconds\":%.17g,"
            "\"replanned_step_seconds\":%.17g,\"recovery\":%.6g}",
            rows[i].rate, rows[i].staticSeconds, rows[i].replannedSeconds,
            rows[i].staticSeconds / rows[i].replannedSeconds);
        os << (i == 0 ? "" : ",") << buf;
    }
    os << "]}\n";
}

int
cmdFaults(const Options &opts, std::ostream &os)
{
    dnn::Network net = loadNetwork(opts);
    const sim::SimConfig cfg = makeConfig(opts);
    if (!opts.map.empty() && opts.faultSweep)
        util::fatal("use either --map or --sweep, not both");

    if (!opts.map.empty()) {
        // Mode 1: re-plan around a known fault map. The degraded
        // evaluator validates the map, derates the topology, and hands
        // the search the degraded cost tables.
        sim::SimConfig degraded_cfg = cfg;
        degraded_cfg.faults = arch::parseFaultMapFile(opts.map);

        sim::Evaluator pristine(net, cfg);
        sim::Evaluator degraded(net, degraded_cfg);
        const auto static_plan = makeStrategyPlan(opts, pristine.model());
        const auto replanned = makeStrategyPlan(opts, degraded.model());

        const double healthy = pristine.evaluate(static_plan).stepSeconds;
        const double stale = degraded.evaluate(static_plan).stepSeconds;
        const double fresh = degraded.evaluate(replanned).stepSeconds;

        os << net.name() << " on " << degraded.topology().name() << " x"
           << degraded.topology().numNodes() << " with fault map "
           << opts.map << " (" << degraded_cfg.faults.nodes.size()
           << " node, " << degraded_cfg.faults.links.size()
           << " link entries):\n"
           << "  compute slowdown: "
           << util::formatRatio(arch::computeScaleFactor(
                  degraded_cfg.faults, degraded.topology().numNodes()))
           << ", level penalties:";
        for (const double p : degraded.topology().levelPenalties())
            os << " " << util::formatRatio(p);
        os << "\n  healthy array, " << opts.strategy << " plan:    "
           << util::formatSeconds(healthy) << "/step\n"
           << "  degraded array, same plan:   "
           << util::formatSeconds(stale) << "/step\n"
           << "  degraded array, re-planned:  "
           << util::formatSeconds(fresh) << "/step  (recovers "
           << util::formatRatio(stale / fresh) << ")\n";
        if (!(replanned == static_plan))
            os << "re-planned layout:\n" << core::toString(replanned);
        return 0;
    }

    if (opts.faultSweep) {
        // Mode 2: cost-vs-failure-rate curves. --rate R0:R1:N sweeps N
        // rate points; each point averages `samples` fault maps drawn
        // from independent seeded streams, scoring the pristine plan
        // as-is ("static") against a per-sample re-planned layout.
        const auto c1 = opts.rate.find(':');
        const auto c2 =
            c1 == std::string::npos ? c1 : opts.rate.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            util::fatal("--sweep needs --rate R0:R1:N (e.g. 0:0.3:7)");
        const double r0 = parseRate(opts.rate.substr(0, c1));
        const double r1 = parseRate(opts.rate.substr(c1 + 1, c2 - c1 - 1));
        std::size_t n = 0;
        try {
            n = std::stoul(opts.rate.substr(c2 + 1));
        } catch (const std::exception &) {
            n = 0;
        }
        if (n == 0)
            util::fatal("--rate R0:R1:N needs at least one rate point");
        if (opts.samples == 0)
            util::fatal("--samples must be at least 1");

        sim::Evaluator pristine(net, cfg);
        const std::size_t num_nodes = pristine.topology().numNodes();
        // No link-level fault model (mesh): sample node faults only.
        const std::size_t num_links =
            pristine.topology().supportsLinkFaults()
                ? pristine.topology().numLinks()
                : 0;
        const auto base_plan = makeStrategyPlan(opts, pristine.model());

        std::vector<FaultRow> rows;
        rows.reserve(n);
        for (std::size_t ri = 0; ri < n; ++ri) {
            const double rate =
                n == 1 ? r0
                       : r0 + (r1 - r0) * static_cast<double>(ri) /
                                  static_cast<double>(n - 1);
            double static_sum = 0.0;
            double replanned_sum = 0.0;
            for (std::size_t k = 0; k < opts.samples; ++k) {
                sim::SimConfig sample_cfg = cfg;
                sample_cfg.faults = arch::sampleFaultMap(
                    rate, num_nodes, num_links,
                    arch::mixSeed(opts.seed, ri * opts.samples + k));
                sim::Evaluator ev(net, sample_cfg);
                static_sum += ev.evaluate(base_plan).stepSeconds;
                replanned_sum +=
                    ev.evaluate(makeStrategyPlan(opts, ev.model()))
                        .stepSeconds;
            }
            const double k = static_cast<double>(opts.samples);
            rows.push_back({rate, static_sum / k, replanned_sum / k});
        }

        if (opts.output.empty()) {
            writeFaultRows(opts, rows, os);
        } else {
            std::ofstream out(opts.output);
            if (!out)
                util::fatal("cannot write '" + opts.output + "'");
            writeFaultRows(opts, rows, out);
            os << "wrote " << rows.size() << " rate points to "
               << opts.output << "\n";
        }
        return 0;
    }

    // Mode 3 (default): robust planning — one plan minimizing the
    // expected step time over the sampled fault distribution.
    if (opts.rate.find(':') != std::string::npos)
        util::fatal("--rate R0:R1:N is only for --sweep; robust "
                    "planning takes a single --rate R");
    sim::RobustOptions ropts;
    ropts.rate = parseRate(opts.rate);
    ropts.samples = opts.samples;
    ropts.seed = opts.seed;
    const sim::RobustResult result = sim::robustPlan(net, cfg, ropts);

    os << net.name() << ": robust plan over " << opts.samples
       << " fault maps at rate " << ropts.rate << " (seed " << opts.seed
       << ", " << result.candidates.size() << " candidate plans):\n"
       << core::toString(result.plan) << "expected step time: "
       << util::formatSeconds(result.expectedStepSeconds)
       << " (pristine-optimal plan would average "
       << util::formatSeconds(result.pristineExpectedStepSeconds)
       << ")\n";
    return 0;
}

int
cmdServe(const Options &opts, std::ostream &os, std::istream &in)
{
    serve::ServeOptions sopts;
    if (!opts.cacheDir.empty())
        sopts.cacheDir = opts.cacheDir;
    sopts.noCache = opts.noCache;
    if (opts.maxSessions != 0)
        sopts.maxSessions = opts.maxSessions;
    sopts.maxSessionBytes = opts.maxSessionBytes;
    serve::Server server(sopts);
    if (opts.evict) {
        os << "evicted " << server.cache().evict()
           << " plan cache entries from " << server.cache().dir().string()
           << "\n";
        return 0;
    }
    return server.run(in, os);
}

} // namespace

std::string
usage()
{
    return "usage: hyparc "
           "<plan|simulate|report|trace|sweep|faults|serve|models>\n"
           "  --model <zoo name> | --spec <file>\n"
           "  [--levels N] [--batch B] [--topology htree|torus|mesh]\n"
           "  [--strategy hypar|dp|mp|owt|optimal] [-o|--output <file>]\n"
           "    (strategy=optimal: the exact joint search, to H=16;\n"
           "     its engine is picked from H)\n"
           "  [--verbose]  (plan: search diagnostics for --strategy\n"
           "     optimal: transitions evaluated, expanded/pruned\n"
           "     counts, frontier width, optimality certificate)\n"
           "  [--overlap]  (simulate/sweep/trace: overlap gradient\n"
           "     reductions with remaining compute — the async\n"
           "     all-reduce schedule; swept incrementally via the\n"
           "     two-tape replay)\n"
           "  sweep: --axes A,B [--format csv|json] [--limit N]\n"
           "         [--seed S] [--sample uniform|biased]\n"
           "    A,B = two hierarchy levels (H1,H4 -> Fig. 9 grid) or\n"
           "    two layer names (conv5_2,fc1 -> Fig. 10 grid), scored\n"
           "    around the --strategy base plan via the batched\n"
           "    evaluator; --limit N samples N grid points\n"
           "    deterministically (--seed, default 0), opening\n"
           "    level-mask grids past 8 layers and layer-vector grids\n"
           "    past H = 8; --sample biased concentrates the points\n"
           "    around the base plan (each of its mask bits flips with\n"
           "    probability 1/4) instead of drawing uniformly\n"
           "  faults: [--map <file>] | [--sweep --rate R0:R1:N] |\n"
           "          [--rate R] [--samples K] [--seed S]\n"
           "          [--format csv|json]\n"
           "    --map: score the degraded array described by a fault\n"
           "    map file ('node <id> <scale>' / 'link <id> <scale>'\n"
           "    lines) and re-plan around it; --sweep: emit a\n"
           "    cost-vs-failure-rate curve over N rate points from R0\n"
           "    to R1, averaging K sampled fault maps per point;\n"
           "    neither: robust planning — return the plan minimizing\n"
           "    the expected step time over K fault maps drawn at\n"
           "    --rate R (all modes deterministic for a fixed --seed)\n"
           "  serve: [--cache-dir <dir>] [--no-cache] [--evict]\n"
           "         [--max-sessions N] [--max-session-bytes B]\n"
           "    long-lived planner service: newline-delimited JSON\n"
           "    requests on stdin, one JSON response line each, blank\n"
           "    line flushes an admission batch (docs/SERVING.md has\n"
           "    the schema); plan results are cached content-addressed\n"
           "    under --cache-dir (default ~/.cache/hyparc/plans);\n"
           "    --no-cache bypasses reads and writes; --evict clears\n"
           "    the cache and exits; --max-sessions sizes the warm\n"
           "    Evaluator LRU (>= 1, default 8) to the serving mix;\n"
           "    --max-session-bytes caps the LRU's approximate\n"
           "    resident size instead (0 = unlimited, never evicts\n"
           "    below one session); independent requests of a batch\n"
           "    execute in parallel over the process thread pool,\n"
           "    byte-identical to serial execution";
}

Options
parseArgs(const std::vector<std::string> &args)
{
    if (args.empty())
        util::fatal("missing command\n" + usage());

    Options opts;
    opts.command = args[0];

    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            util::fatal("flag '" + args[i] + "' needs a value");
        return args[++i];
    };

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--model") {
            opts.model = value(i);
        } else if (arg == "--spec") {
            opts.spec = value(i);
        } else if (arg == "--levels") {
            opts.levels = std::stoul(value(i));
        } else if (arg == "--batch") {
            opts.batch = std::stoul(value(i));
        } else if (arg == "--topology") {
            opts.topology = value(i);
        } else if (arg == "--strategy") {
            opts.strategy = value(i);
        } else if (arg == "--axes") {
            opts.axes = value(i);
        } else if (arg == "--format") {
            opts.format = value(i);
        } else if (arg == "--limit") {
            opts.limit = std::stoul(value(i));
        } else if (arg == "--seed") {
            opts.seed = std::stoul(value(i));
        } else if (arg == "--sample") {
            opts.sample = value(i);
        } else if (arg == "--map") {
            opts.map = value(i);
        } else if (arg == "--rate") {
            opts.rate = value(i);
        } else if (arg == "--samples") {
            opts.samples = std::stoul(value(i));
        } else if (arg == "--sweep") {
            opts.faultSweep = true;
        } else if (arg == "--cache-dir") {
            opts.cacheDir = value(i);
        } else if (arg == "--max-sessions") {
            opts.maxSessions = std::stoul(value(i));
            if (opts.maxSessions == 0)
                util::fatal("--max-sessions must be at least 1");
        } else if (arg == "--max-session-bytes") {
            opts.maxSessionBytes = std::stoul(value(i));
        } else if (arg == "--no-cache") {
            opts.noCache = true;
        } else if (arg == "--evict") {
            opts.evict = true;
        } else if (arg == "--overlap") {
            opts.overlap = true;
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "-o" || arg == "--output") {
            opts.output = value(i);
        } else {
            util::fatal("unknown flag '" + arg + "'\n" + usage());
        }
    }
    return opts;
}

int
runCommand(const Options &opts, std::ostream &os, std::istream &in)
{
    if (opts.command == "models")
        return cmdModels(os);
    if (opts.command == "plan")
        return cmdPlan(opts, os);
    if (opts.command == "simulate")
        return cmdSimulate(opts, os);
    if (opts.command == "report")
        return cmdReport(opts, os);
    if (opts.command == "trace")
        return cmdTrace(opts, os);
    if (opts.command == "sweep")
        return cmdSweep(opts, os);
    if (opts.command == "faults")
        return cmdFaults(opts, os);
    if (opts.command == "serve")
        return cmdServe(opts, os, in);
    util::fatal("unknown command '" + opts.command + "'\n" + usage());
}

int
runCommand(const Options &opts, std::ostream &os)
{
    return runCommand(opts, os, std::cin);
}

} // namespace hypar::tools
