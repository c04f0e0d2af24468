/**
 * @file
 * Warm-instance registry for the serving tier.
 *
 * A Session owns everything the Evaluator's build-once / evaluate-many
 * contract says to build exactly once per (network, SimConfig):
 * the parsed network, the config, and the sim::Evaluator (which in
 * turn owns the degraded topology, the CommModel byte tables, and the
 * simulator with its prefix-count table). Sessions are keyed by
 * serve::contextHash — the SHA-256 of the canonical context text — so
 * any request that re-states the same problem reuses the warm state
 * no matter how it spelled its spec.
 *
 * The registry is a small LRU bounded two ways: by entry count
 * (`capacity`, the historical knob) and, when `maxBytes` is nonzero,
 * by the approximate resident bytes of the built Evaluators
 * (`--max-session-bytes`) — serving workloads touch a handful of
 * models repeatedly, and an unbounded map would let a spec-fuzzing
 * client grow memory without bound. Eviction order is
 * least-recently-*acquired*; the budget never evicts the most
 * recently touched entry. Capacity 0 is rejected.
 *
 * Concurrency contract (used by the parallel batch executor in
 * server.cc): LRU motion — reserve()/acquire(), eviction,
 * enforceBudget() — must happen on one thread at a time (the server
 * does it at serial points, in request order, which also keeps the
 * counters deterministic). Session::ensure() may run from pool
 * threads: distinct sessions build concurrently, requests sharing a
 * session serialize on Session::mu. Entries are held by shared_ptr so
 * an eviction never invalidates a session a running batch still uses.
 */

#ifndef HYPAR_SERVE_SESSION_HH
#define HYPAR_SERVE_SESSION_HH

#include <atomic>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dnn/network.hh"
#include "sim/evaluator.hh"

namespace hypar::serve {

/** One warm (network, SimConfig, Evaluator) bundle. */
struct Session
{
    std::string contextHash;
    dnn::Network network;
    sim::SimConfig config;

    /** Requests sharing this session serialize on this (server.cc's
     *  per-session locking rule); the registry itself never takes it. */
    std::mutex mu;

    /** Built lazily by ensure(). A plan-cache hit answered during
     *  execution (an entry an earlier request of its batch stored, or
     *  a hit behind a control op) reserves a session but never pays
     *  the build; a hit answered at admission reserves none. */
    std::unique_ptr<sim::Evaluator> evaluator;

    Session(std::string hash, dnn::Network net, sim::SimConfig cfg,
            std::atomic<std::size_t> *built_counter = nullptr);

    /**
     * Build the Evaluator if this session is still cold (and bump the
     * owning registry's built counter). Callers off the serial path
     * must hold `mu`. Fatal errors propagate and leave the session
     * cold.
     */
    void ensure();

    /**
     * Approximate resident bytes: the network/config copies plus, once
     * built, the Evaluator's tables (sim::Evaluator::approxBytes).
     */
    std::size_t approxBytes() const;

  private:
    std::atomic<std::size_t> *builtCounter_;
};

/** LRU registry of warm sessions keyed by context hash. */
class SessionRegistry
{
  public:
    /** Default capacity: plenty for a serving mix, bounded memory. */
    static constexpr std::size_t kDefaultCapacity = 8;

    /**
     * `capacity` bounds the entry count; `maxBytes` (0 = unlimited)
     * additionally bounds the summed Session::approxBytes.
     */
    explicit SessionRegistry(std::size_t capacity = kDefaultCapacity,
                             std::size_t maxBytes = 0);

    /**
     * The warm session for (network, config), building it (and
     * computing its context hash) on first use. Touches the LRU; may
     * evict the least-recently-acquired session when over capacity.
     * The returned reference stays valid until `capacity` further
     * distinct contexts are acquired.
     */
    Session &acquire(const dnn::Network &network,
                     const sim::SimConfig &config);

    /** Same, with a precomputed context hash (skips re-hashing). */
    Session &acquire(const dnn::Network &network,
                     const sim::SimConfig &config,
                     const std::string &hash);

    /**
     * Touch-or-create without building: the LRU entry (and the
     * reused/evicted bookkeeping) moves now, on the admission thread,
     * while the expensive Evaluator build happens later via
     * Session::ensure() — possibly on a pool thread. The shared_ptr
     * keeps the session alive across a concurrent eviction.
     */
    std::shared_ptr<Session> reserve(const dnn::Network &network,
                                     const sim::SimConfig &config,
                                     const std::string &hash);

    /**
     * Evict least-recently-acquired entries until the byte budget is
     * met (never below one entry). Call at serial points only; the
     * server runs it after each parallel segment, once builds have
     * materialized their sizes.
     */
    void enforceBudget();

    std::size_t size() const { return lru_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Byte budget (0 = unlimited) and current approximate usage. */
    std::size_t maxBytes() const { return maxBytes_; }
    std::size_t totalBytes() const;

    /** Total sessions built (cold constructions), for the stats op. */
    std::size_t built() const { return built_.load(); }

    /** Total acquire()/reserve() calls answered from a warm session. */
    std::size_t reused() const { return reused_; }

  private:
    std::size_t capacity_;
    std::size_t maxBytes_;
    std::atomic<std::size_t> built_{0};
    std::size_t reused_ = 0;
    /** Most recently acquired at the front. */
    std::list<std::shared_ptr<Session>> lru_;
    std::map<std::string, std::list<std::shared_ptr<Session>>::iterator>
        byHash_;
};

} // namespace hypar::serve

#endif // HYPAR_SERVE_SESSION_HH
