/**
 * @file
 * On-disk content-addressed plan cache for the serving tier.
 *
 * Entries live at `<dir>/<planHash>.json` — one JSON object with a
 * versioned header (`format`/`version`), the request's plan hash
 * echoed back (self-describing; detects a file renamed onto the wrong
 * key), and the full core::HierarchicalResult: the plan (one bit
 * string per level, layer 0 leftmost, '1' = mp — core::toBitString's
 * convention), commBytes as %.17g (round-trips binary64 exactly, so a
 * cache hit is bit-identical to the search that produced it), and the
 * SearchStats certificate.
 *
 * Robustness contract (pinned by tests/test_serve.cc):
 *
 *  - Writes are atomic: the entry is written to a staging file
 *    `<hash>.<pid>.<seq>.tmp` (`<hash>.sweep.<pid>.<seq>.tmp` for
 *    sweeps; the sequence number is process-wide) in the same
 *    directory and std::filesystem::rename'd into place, so a reader
 *    never observes a torn entry, two writers of one hash — threads or
 *    processes — never interleave into one staging file, and a crashed
 *    writer leaves at worst a stale .tmp (ignored by lookups, removed
 *    by evict()).
 *  - A failed write (unwritable or missing directory, full disk) is
 *    not an error: store() returns false and counts it in
 *    PlanCacheStats::storeFailures, and the server answers with the
 *    computed result as a bypass.
 *  - A corrupt entry — truncated JSON, trailing garbage, wrong format
 *    string, wrong version, wrong hash, malformed plan — is
 *    *quarantined*: renamed to `<hash>.quarantine` (best effort) and
 *    reported as a miss, so the server re-plans and overwrites rather
 *    than crashing or looping on the bad file.
 *  - A disabled cache (--no-cache) never reads or writes the
 *    directory; lookups miss and stores are dropped.
 *
 * Sweep results are cached alongside plans with the same discipline:
 * entries live at `<dir>/<sweepHash>.sweep.json` (format tag
 * kSweepCacheFormat), store the argmin of the level sweep plus its
 * full StepMetrics with %.17g doubles, and share the quarantine /
 * atomic-rename / evict machinery. The hit/miss/store/quarantine
 * counters are shared across both entry kinds.
 *
 * In-memory memo: a bounded map from the 64-hex plan/sweep hash to
 * the decoded result sits in front of the disk. lookup(),
 * lookupSweep() and the probes read it first, so a repeated hit costs
 * a map read and a copy instead of a file read and a JSON decode.
 *
 *  - Only a clean disk decode or a successful publish inserts an
 *    entry; a failed store (bypass) and a disabled cache never do.
 *  - It holds at most kMemoCapacity entries and drops the
 *    oldest-inserted one first; evict() clears it.
 *  - Entries are content-addressed and immutable, so a memo hit
 *    returns exactly the bits a disk hit would decode to. The memo is
 *    per process: another process's `--evict` (or a file deleted by
 *    hand) does not clear it, and this server keeps answering those
 *    keys from memory until its own evict or the cap drops them.
 *
 * Probes: probe()/probeSweep() read like lookup() but have no
 * visible side effect. They count nothing and quarantine nothing, and
 * a corrupt entry reads as a probe miss. The server probes every
 * `plan`/`sweep` at admission and counts the hits it accepts through
 * recordHits().
 *
 * Thread safety: the server's parallel admission pass probes, and its
 * parallel request groups look up and store, concurrently. Disk reads
 * take no lock: a published entry is immutable once renamed into
 * place, so lookups read and decode it outside the internal mutex,
 * which guards the memo, the counters, the quarantine rename and
 * evict(). Writes stage into unique files, so they need no lock
 * either until the memo and counter update. Counter totals still only
 * make sense at the server's serial points. Cross-*process* safety
 * comes from the unique staging names and the atomic rename
 * (concurrent servers may redundantly re-plan, never corrupt).
 */

#ifndef HYPAR_SERVE_PLAN_CACHE_HH
#define HYPAR_SERVE_PLAN_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>

#include "core/hierarchical_partitioner.hh"
#include "sim/metrics.hh"

namespace hypar::serve {

/** On-disk format version; bump on any layout change. Version 2: the
 *  canonical plan-key text changed, so version-1 entries — keyed under
 *  the old text — quarantine instead of lingering as unreachable stale
 *  files. Version 3: the key text held, but the stored `search` stats
 *  moved — DAG searches run one early-break scan, and H <= 2 searches
 *  count their 4^H (L-1) transitions — so version-2 entries quarantine
 *  as misses instead of answering with the old stats. Version 4: A*'s
 *  incumbent pass narrowed (width 64 -> 8), which moves the stored
 *  `search` stats (transitions, and expanded/pruned in a few searches)
 *  of every H > 10 plan; plans and comm_bytes are unchanged. Entries
 *  keyed under a retired engine or beam knob are never read again (no
 *  request renders that text any more). */
inline constexpr int kPlanCacheVersion = 4;

/** Format tag every plan entry must carry. */
inline constexpr const char *kPlanCacheFormat = "hyparc-plan-cache";

/** Format tag every sweep entry must carry. */
inline constexpr const char *kSweepCacheFormat = "hyparc-sweep-cache";

/**
 * Most decoded results (plans and sweeps together) the in-memory memo
 * keeps. 1024 is 16x the 64-context working set of servebench's
 * `plan_hit` workload. The cap counts entries, not bytes: an entry is
 * one plan (layers x levels parallelism choices) or one sweep argmin,
 * about a kilobyte or less for a zoo network.
 */
inline constexpr std::size_t kMemoCapacity = 1024;

/** Lookup/store counters (reported by the server's `stats` op). */
struct PlanCacheStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    std::size_t storeFailures = 0; //!< writes that could not publish
    std::size_t quarantined = 0;
};

/** Cached outcome of a `sweep` op: the argmin over one level's masks.
 *  bestBits is stored (not recomputed) so a hit renders byte-identical
 *  responses without rebuilding the base plan. */
struct SweepResult
{
    std::size_t level = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t bestMask = 0;
    std::string bestBits;
    sim::StepMetrics best;
};

class PlanCache
{
    using MemoEntry = std::variant<core::HierarchicalResult, SweepResult>;

  public:
    /**
     * A cache over `dir` (created lazily on first store). `enabled`
     * false (--no-cache) turns every operation into a no-op miss.
     */
    PlanCache(std::filesystem::path dir, bool enabled);

    /**
     * Default cache directory: $HYPARC_CACHE_DIR if set, else
     * $XDG_CACHE_HOME/hyparc/plans, else $HOME/.cache/hyparc/plans,
     * else ./.hyparc-cache/plans.
     */
    static std::filesystem::path defaultDir();

    /**
     * Fetch the entry for `planHash`. Returns the cached result on a
     * clean hit; nullopt on miss, disabled cache, or a quarantined
     * corrupt entry.
     */
    std::optional<core::HierarchicalResult>
    lookup(const std::string &planHash);

    /** Atomically persist `result` under `planHash`. Returns true
     *  when the entry was published; false when the cache is disabled
     *  or the write failed (the directory cannot be created or the
     *  entry cannot be written — counted in storeFailures). */
    bool store(const std::string &planHash,
               const core::HierarchicalResult &result);

    /**
     * Fetch the sweep entry for `sweepHash` (same hit/miss/quarantine
     * semantics as lookup()).
     */
    std::optional<SweepResult> lookupSweep(const std::string &sweepHash);

    /** Atomically persist a sweep result under `sweepHash` (same
     *  return value as store()). */
    bool storeSweep(const std::string &sweepHash, const SweepResult &r);

    /** lookup() without side effects: counts nothing, quarantines
     *  nothing (a corrupt entry is a nullopt). */
    std::optional<core::HierarchicalResult>
    probe(const std::string &planHash);

    /** lookupSweep() without side effects, like probe(). */
    std::optional<SweepResult> probeSweep(const std::string &sweepHash);

    /** Count `n` probe hits the caller accepted as answers. */
    void recordHits(std::size_t n);

    /** Results the in-memory memo holds (for tests). */
    std::size_t memoSize() const;

    /** Delete every entry (including .tmp/.quarantine debris) and
     *  clear the memo; returns the number of files removed. Works even
     *  when disabled — eviction is an explicit administrative
     *  request. */
    std::size_t evict();

    /** Serialize a result to the entry JSON (exposed for tests). */
    static std::string entryJson(const std::string &planHash,
                                 const core::HierarchicalResult &result);

    /** Same for a sweep entry. */
    static std::string sweepEntryJson(const std::string &sweepHash,
                                      const SweepResult &r);

    /** Counters; read at serial points only (no lock is taken). */
    const PlanCacheStats &stats() const { return stats_; }
    const std::filesystem::path &dir() const { return dir_; }
    bool enabled() const { return enabled_; }

  private:
    std::filesystem::path entryPath(const std::string &planHash) const;
    std::filesystem::path sweepPath(const std::string &sweepHash) const;
    /** Caller holds mu_. */
    void quarantine(const std::filesystem::path &path);
    /** lookup()/lookupSweep() (`record` true) and the probes. */
    template <typename Result>
    std::optional<Result> read(const std::string &hash, bool record);
    /** store()/storeSweep(): publish, then remember. */
    template <typename Result>
    bool write(const std::string &hash, const Result &result);
    bool publish(const std::filesystem::path &final,
                 const std::string &payload);
    /** Insert into the memo, dropping the oldest entry past
     *  kMemoCapacity. Caller holds mu_. */
    void remember(std::string key, MemoEntry entry);

    std::filesystem::path dir_;
    bool enabled_;
    /** Guards stats_, the memo, quarantine renames and evict(). */
    mutable std::mutex mu_;
    PlanCacheStats stats_;
    /** Plans keyed by hash, sweeps by hash + ".sweep" (one hash may
     *  name both kinds of entry, as on disk). */
    std::unordered_map<std::string, MemoEntry> memo_;
    std::deque<std::string> memoOrder_; //!< keys, oldest first
};

} // namespace hypar::serve

#endif // HYPAR_SERVE_PLAN_CACHE_HH
