/**
 * @file
 * Canonical serialization + content hashing of serving-tier inputs.
 *
 * The plan cache and the warm-session registry are both keyed by
 * SHA-256 over a canonical *text* rendering of their inputs, so that
 * two requests describing the same problem — regardless of request
 * field order, spec whitespace, or which client produced them — land
 * on the same key. Canonicalization rules (documented for clients in
 * docs/SERVING.md; changing any of them requires bumping
 * kCanonicalVersion, which invalidates every existing cache entry):
 *
 *  - The network is rendered with dnn::toSpec(), i.e. parsed and
 *    re-serialized — spec comments, blank lines, and attribute
 *    spelling variants do not affect the key.
 *  - Every double is printed as printf "%.17g" would print it (rendered
 *    with std::to_chars, general format, precision 17 — the standard
 *    defines that as %.17g), which round-trips IEEE 754 binary64
 *    exactly; integers print in decimal.
 *  - Fault entries are sorted by id (per kind) before rendering.
 *  - SimOptions::recordTrace is *excluded*: it changes what is
 *    recorded, never what is computed, so tracing must not fork the
 *    cache key space.
 *  - Fields appear in one fixed order with one `key=value` per line;
 *    a format-version line leads.
 *
 * Two keys exist on purpose (see docs/SERVING.md "Cache keys"):
 *
 *  - contextHash(network, config): identifies everything a warm
 *    sim::Evaluator depends on. The session registry keys on it.
 *  - planHash(network, config, strategy, search): contextHash's
 *    payload plus the strategy and core::SearchOptions. The on-disk
 *    plan cache keys on it, because the searched plan's SearchStats
 *    depend on the engine too (the server always passes the default).
 *
 * sweepHash(network, config, strategy, search, level) extends the plan
 * payload with the swept hierarchy level; the on-disk sweep-result
 * cache keys on it.
 *
 * The three texts are prefixes of one another: plan text = context
 * text + a `[plan]` section, sweep text = plan text + a `[sweep]`
 * section. ContextKey exploits that to canonicalize a request once: it
 * absorbs the context text into a SHA-256 state, finalizes a copy for
 * the context hash, and derives a plan or sweep hash by copying the
 * state again and feeding only the suffix. The digests are the ones
 * sha256Hex gives over the full texts (pinned in tests/test_serve.cc);
 * planHash and sweepHash are one-shot wrappers over a ContextKey.
 */

#ifndef HYPAR_SERVE_CANONICAL_HH
#define HYPAR_SERVE_CANONICAL_HH

#include <string>

#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/network.hh"
#include "serve/sha256.hh"
#include "sim/evaluator.hh"

namespace hypar::serve {

/** Bump when any canonicalization rule changes (invalidates keys). */
inline constexpr int kCanonicalVersion = 1;

/** Canonical text of one (network, SimConfig) evaluation context. */
std::string canonicalContext(const dnn::Network &network,
                             const sim::SimConfig &config);

/**
 * Canonical text of one plan request (context + strategy + search).
 * `strategy` is the canonical name: "hypar", "dp", "mp", "owt", or
 * "optimal" (the joint search — the one case where SearchOptions
 * actually steer the result; they are keyed for every strategy so
 * equal keys always mean equal requests).
 */
std::string canonicalPlanRequest(const dnn::Network &network,
                                 const sim::SimConfig &config,
                                 const std::string &strategy,
                                 const core::SearchOptions &search);

/**
 * The hash state of one canonicalized context: the network and config
 * are rendered and hashed once, and every key of a request derives
 * from that state.
 */
class ContextKey
{
  public:
    ContextKey(const dnn::Network &network, const sim::SimConfig &config);

    /** contextHash: SHA-256 hex of canonicalContext. */
    const std::string &hex() const { return hex_; }

    /** planHash: SHA-256 hex of canonicalPlanRequest. */
    std::string planHash(const std::string &strategy,
                         const core::SearchOptions &search) const;

    /** sweepHash: SHA-256 hex of canonicalSweepRequest. */
    std::string sweepHash(const std::string &strategy,
                          const core::SearchOptions &search,
                          std::size_t level) const;

  private:
    Sha256 context_; //!< absorbed canonicalContext, never finalized
    std::string hex_;
};

/** SHA-256 hex of canonicalContext. */
std::string contextHash(const dnn::Network &network,
                        const sim::SimConfig &config);

/** SHA-256 hex of canonicalPlanRequest. */
std::string planHash(const dnn::Network &network,
                     const sim::SimConfig &config,
                     const std::string &strategy,
                     const core::SearchOptions &search);

/** Canonical text of one sweep request (plan payload + level). */
std::string canonicalSweepRequest(const dnn::Network &network,
                                  const sim::SimConfig &config,
                                  const std::string &strategy,
                                  const core::SearchOptions &search,
                                  std::size_t level);

/** SHA-256 hex of canonicalSweepRequest. */
std::string sweepHash(const dnn::Network &network,
                      const sim::SimConfig &config,
                      const std::string &strategy,
                      const core::SearchOptions &search,
                      std::size_t level);

/** Canonical short name of a topology kind ("htree"/"torus"/"mesh"). */
const char *topologyKindName(sim::TopologyKind kind);

/** Canonical short name of a search engine ("auto"/"dense"/...). */
const char *searchEngineName(core::SearchEngine engine);

/** Canonical short name of a strategy ("dp"/"mp"/"owt"/"hypar"). */
const char *strategyName(core::Strategy strategy);

/** printf "%.17g" of a double (round-trips binary64 exactly), via
 *  std::to_chars. */
std::string canonicalDouble(double value);

} // namespace hypar::serve

#endif // HYPAR_SERVE_CANONICAL_HH
