#include "serve/canonical.hh"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "dnn/spec_parser.hh"
#include "serve/sha256.hh"
#include "util/logging.hh"

namespace hypar::serve {

namespace {

/** Longest "%.17g" rendering: sign, 17 digits, point, "e-308". */
constexpr std::size_t kMaxDoubleChars = 32;

/** Append the canonical rendering of `value` to `out`. */
void
appendDouble(std::string &out, double value)
{
    char buf[kMaxDoubleChars];
    // General format at precision 17 is defined as printf's %.17g,
    // digit for digit (C++17 [charconv.to.chars]).
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

void
appendKV(std::string &out, const char *key, std::string_view value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

void
appendKV(std::string &out, const char *key, double value)
{
    out += key;
    out += '=';
    appendDouble(out, value);
    out += '\n';
}

void
appendKV(std::string &out, const char *key, std::size_t value)
{
    appendKV(out, key, std::to_string(value));
}

void
appendFaults(std::string &out, const char *key,
             std::vector<arch::FaultEntry> entries)
{
    // Sorted by id so listing order never forks the key. Duplicate ids
    // are rejected downstream (arch::nodeScales/linkScales), so id
    // order is total here.
    std::sort(entries.begin(), entries.end(),
              [](const arch::FaultEntry &a, const arch::FaultEntry &b) {
                  return a.id < b.id;
              });
    out += key;
    out += '=';
    for (const arch::FaultEntry &e : entries) {
        out += std::to_string(e.id);
        out += ':';
        appendDouble(out, e.scale);
        out += ';';
    }
    out += '\n';
}

/** The `[plan]` section canonicalPlanRequest appends to the context. */
std::string
planSuffix(const std::string &strategy, const core::SearchOptions &search)
{
    std::string out = "[plan]\n";
    appendKV(out, "strategy", strategy);
    appendKV(out, "engine", searchEngineName(search.engine));
    // The server always renders `engine=auto`, and the retired beam
    // engine's knobs are frozen at their old defaults. Keeping the
    // lines keeps every default request's key text, so the pinned
    // golden digests hold without a kCanonicalVersion bump.
    appendKV(out, "beam_width", "0");
    appendKV(out, "adaptive_beam", "1");
    return out;
}

/** The `[sweep]` section canonicalSweepRequest appends to the plan. */
std::string
sweepSuffix(std::size_t level)
{
    std::string out = "[sweep]\n";
    appendKV(out, "level", level);
    return out;
}

} // namespace

std::string
canonicalDouble(double value)
{
    std::string out;
    appendDouble(out, value);
    return out;
}

const char *
topologyKindName(sim::TopologyKind kind)
{
    switch (kind) {
      case sim::TopologyKind::kHTree: return "htree";
      case sim::TopologyKind::kTorus: return "torus";
      case sim::TopologyKind::kMesh: return "mesh";
    }
    util::fatal("unknown topology kind");
}

const char *
searchEngineName(core::SearchEngine engine)
{
    switch (engine) {
      case core::SearchEngine::kAuto: return "auto";
      case core::SearchEngine::kDense: return "dense";
      case core::SearchEngine::kAStar: return "astar";
    }
    util::fatal("unknown search engine");
}

const char *
strategyName(core::Strategy strategy)
{
    switch (strategy) {
      case core::Strategy::kDataParallel: return "dp";
      case core::Strategy::kModelParallel: return "mp";
      case core::Strategy::kOneWeirdTrick: return "owt";
      case core::Strategy::kHypar: return "hypar";
    }
    util::fatal("unknown strategy");
}

std::string
canonicalContext(const dnn::Network &network, const sim::SimConfig &config)
{
    std::string out;
    out.reserve(1024);
    appendKV(out, "hyparc-canonical-version",
             std::to_string(kCanonicalVersion));

    // The network, normalized through parse -> toSpec round-trip.
    out += "[network]\n";
    out += dnn::toSpec(network);

    out += "[comm]\n";
    appendKV(out, "batch", config.comm.batch);
    appendKV(out, "word_bytes", config.comm.wordBytes);
    appendKV(out, "exchange_factor", config.comm.exchangeFactor);
    appendKV(out, "scaling",
             config.comm.scaling == core::CommConfig::Scaling::kPartitioned
                 ? "partitioned"
                 : "none");
    // CommConfig::levelPenalties is derived state (the Evaluator
    // rebuilds it from topology + faults), so it is deliberately NOT
    // part of the key: the faults section below is the source of truth.

    out += "[accelerator]\n";
    appendKV(out, "pe_rows", config.acc.peRows);
    appendKV(out, "pe_cols", config.acc.peCols);
    appendKV(out, "clock_hz", config.acc.clockHz);
    appendKV(out, "buffer_bytes", config.acc.bufferBytes);
    appendKV(out, "dram_bandwidth", config.acc.dramBandwidth);
    appendKV(out, "dram_capacity", config.acc.dramCapacity);

    out += "[energy]\n";
    appendKV(out, "add_j", config.energy.addJ);
    appendKV(out, "mult_j", config.energy.multJ);
    appendKV(out, "sram_word_j", config.energy.sramWordJ);
    appendKV(out, "dram_word_j", config.energy.dramWordJ);
    appendKV(out, "link_word_per_hop_j", config.energy.linkWordPerHopJ);

    out += "[noc]\n";
    appendKV(out, "link_bandwidth", config.noc.linkBandwidth);
    appendKV(out, "root_bisection", config.noc.rootBisection);
    appendKV(out, "per_hop_latency", config.noc.perHopLatency);

    out += "[topology]\n";
    appendKV(out, "kind", topologyKindName(config.topology));
    appendKV(out, "levels", config.levels);

    out += "[options]\n";
    appendKV(out, "overlap_grad_comm",
             config.options.overlapGradComm ? "1" : "0");
    appendKV(out, "compute_scale", config.options.computeScale);
    // SimOptions::recordTrace is excluded by design (observability
    // only; never changes computed metrics or plans).

    out += "[faults]\n";
    appendFaults(out, "nodes", config.faults.nodes);
    appendFaults(out, "links", config.faults.links);

    return out;
}

std::string
canonicalPlanRequest(const dnn::Network &network,
                     const sim::SimConfig &config,
                     const std::string &strategy,
                     const core::SearchOptions &search)
{
    return canonicalContext(network, config) + planSuffix(strategy, search);
}

std::string
canonicalSweepRequest(const dnn::Network &network,
                      const sim::SimConfig &config,
                      const std::string &strategy,
                      const core::SearchOptions &search, std::size_t level)
{
    return canonicalPlanRequest(network, config, strategy, search) +
           sweepSuffix(level);
}

ContextKey::ContextKey(const dnn::Network &network,
                       const sim::SimConfig &config)
{
    context_.update(canonicalContext(network, config));
    Sha256 done = context_;
    hex_ = done.hexDigest();
}

std::string
ContextKey::planHash(const std::string &strategy,
                     const core::SearchOptions &search) const
{
    Sha256 h = context_;
    h.update(planSuffix(strategy, search));
    return h.hexDigest();
}

std::string
ContextKey::sweepHash(const std::string &strategy,
                      const core::SearchOptions &search,
                      std::size_t level) const
{
    Sha256 h = context_;
    h.update(planSuffix(strategy, search));
    h.update(sweepSuffix(level));
    return h.hexDigest();
}

std::string
contextHash(const dnn::Network &network, const sim::SimConfig &config)
{
    return ContextKey(network, config).hex();
}

std::string
planHash(const dnn::Network &network, const sim::SimConfig &config,
         const std::string &strategy, const core::SearchOptions &search)
{
    return ContextKey(network, config).planHash(strategy, search);
}

std::string
sweepHash(const dnn::Network &network, const sim::SimConfig &config,
          const std::string &strategy, const core::SearchOptions &search,
          std::size_t level)
{
    return ContextKey(network, config).sweepHash(strategy, search, level);
}

} // namespace hypar::serve
