#include "serve/plan_cache.hh"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include <unistd.h>

#include "core/plan.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace hypar::serve {

namespace {

/** Hex plan-hash sanity check: entries are files named by the hash. */
bool
validHash(const std::string &hash)
{
    if (hash.size() != 64)
        return false;
    for (const char c : hash) {
        const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!ok)
            return false;
    }
    return true;
}

/** Read a whole file; nullopt when it does not exist / can't be read. */
std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return std::move(ss).str();
}

/**
 * A staging name no other writer uses: `final`'s name with its
 * ".json" replaced by ".<pid>.<seq>.tmp". The sequence number is
 * process-wide, so two PlanCache instances (or two threads) storing
 * one hash never share a staging file, and the pid separates
 * processes.
 */
fs::path
stagingPath(const fs::path &final)
{
    static std::atomic<std::uint64_t> sequence{0};
    std::string extension = ".";
    extension += std::to_string(::getpid());
    extension += '.';
    extension += std::to_string(sequence.fetch_add(1));
    extension += ".tmp";
    return fs::path(final).replace_extension(extension);
}

/** Non-negative integral JSON field -> uint64 (fatal on mismatch). */
std::uint64_t
asCount(const JsonValue &v, const char *what)
{
    const double d = v.asNumber();
    if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d)))
        util::fatal(std::string("plan cache: ") + what +
                    " is not a non-negative integer");
    return static_cast<std::uint64_t>(d);
}

/**
 * Decode the entry body into a result. Fatal (util::FatalError) on any
 * structural problem — the caller turns that into quarantine-and-miss.
 */
core::HierarchicalResult
decodeEntry(const std::string &text, const std::string &planHash)
{
    const JsonValue root = JsonValue::parse(text);
    const JsonValue *format = root.find("format");
    if (format == nullptr || format->asString() != kPlanCacheFormat)
        util::fatal("plan cache: missing or wrong format tag");
    const JsonValue *version = root.find("version");
    if (version == nullptr ||
        asCount(*version, "version") !=
            static_cast<std::uint64_t>(kPlanCacheVersion))
        util::fatal("plan cache: unsupported version");
    const JsonValue *hash = root.find("plan_hash");
    if (hash == nullptr || hash->asString() != planHash)
        util::fatal("plan cache: entry hash does not match its key");

    core::HierarchicalResult result;
    const JsonValue *levels = root.find("levels");
    if (levels == nullptr)
        util::fatal("plan cache: missing levels");
    for (const JsonValue &level : levels->asArray()) {
        const std::string &bits = level.asString();
        core::LevelPlan lp;
        lp.reserve(bits.size());
        for (const char c : bits) {
            if (c != '0' && c != '1')
                util::fatal("plan cache: bad plan bit string");
            lp.push_back(c == '1' ? core::Parallelism::kModel
                                  : core::Parallelism::kData);
        }
        result.plan.levels.push_back(std::move(lp));
    }
    for (const core::LevelPlan &lp : result.plan.levels) {
        if (lp.size() != result.plan.levels.front().size())
            util::fatal("plan cache: ragged plan levels");
    }

    const JsonValue *comm = root.find("comm_bytes");
    if (comm == nullptr)
        util::fatal("plan cache: missing comm_bytes");
    result.commBytes = comm->asNumber();

    const JsonValue *trans = root.find("transitions_evaluated");
    if (trans == nullptr)
        util::fatal("plan cache: missing transitions_evaluated");
    result.transitionsEvaluated = asCount(*trans, "transitions_evaluated");

    const JsonValue *stats = root.find("stats");
    if (stats == nullptr || !stats->isObject())
        util::fatal("plan cache: missing stats");
    const JsonValue *expanded = stats->find("expanded");
    const JsonValue *pruned = stats->find("pruned");
    const JsonValue *certified = stats->find("certified_exact");
    const JsonValue *width = stats->find("width_used");
    if (expanded == nullptr || pruned == nullptr || certified == nullptr ||
        width == nullptr)
        util::fatal("plan cache: incomplete stats");
    result.stats.expanded = asCount(*expanded, "expanded");
    result.stats.pruned = asCount(*pruned, "pruned");
    result.stats.certifiedExact = certified->asBool();
    result.stats.widthUsed =
        static_cast<std::size_t>(asCount(*width, "width_used"));
    return result;
}

/** Required numeric field of a JSON object (fatal when absent). */
double
requireNumber(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        util::fatal(std::string("sweep cache: missing metrics field '") +
                    key + "'");
    return v->asNumber();
}

/**
 * Decode a sweep entry body. Fatal (util::FatalError) on any
 * structural problem — the caller turns that into quarantine-and-miss.
 */
SweepResult
decodeSweepEntry(const std::string &text, const std::string &sweepHash)
{
    const JsonValue root = JsonValue::parse(text);
    const JsonValue *format = root.find("format");
    if (format == nullptr || format->asString() != kSweepCacheFormat)
        util::fatal("sweep cache: missing or wrong format tag");
    const JsonValue *version = root.find("version");
    if (version == nullptr ||
        asCount(*version, "version") !=
            static_cast<std::uint64_t>(kPlanCacheVersion))
        util::fatal("sweep cache: unsupported version");
    const JsonValue *hash = root.find("sweep_hash");
    if (hash == nullptr || hash->asString() != sweepHash)
        util::fatal("sweep cache: entry hash does not match its key");

    SweepResult r;
    const JsonValue *level = root.find("level");
    if (level == nullptr)
        util::fatal("sweep cache: missing level");
    r.level = static_cast<std::size_t>(asCount(*level, "level"));
    const JsonValue *evaluated = root.find("evaluated");
    if (evaluated == nullptr)
        util::fatal("sweep cache: missing evaluated");
    r.evaluated = asCount(*evaluated, "evaluated");
    const JsonValue *mask = root.find("best_mask");
    if (mask == nullptr)
        util::fatal("sweep cache: missing best_mask");
    r.bestMask = asCount(*mask, "best_mask");
    const JsonValue *bits = root.find("best_bits");
    if (bits == nullptr)
        util::fatal("sweep cache: missing best_bits");
    r.bestBits = bits->asString();
    for (const char c : r.bestBits)
        if (c != '0' && c != '1')
            util::fatal("sweep cache: bad best_bits string");

    const JsonValue *metrics = root.find("metrics");
    if (metrics == nullptr || !metrics->isObject())
        util::fatal("sweep cache: missing metrics");
    r.best.stepSeconds = requireNumber(*metrics, "step_seconds");
    r.best.computeBusySeconds =
        requireNumber(*metrics, "compute_busy_seconds");
    r.best.networkBusySeconds =
        requireNumber(*metrics, "network_busy_seconds");
    r.best.commBytes = requireNumber(*metrics, "comm_bytes");
    r.best.phases.forward = requireNumber(*metrics, "forward");
    r.best.phases.backward = requireNumber(*metrics, "backward");
    r.best.phases.gradient = requireNumber(*metrics, "gradient");
    r.best.energy.computeJ = requireNumber(*metrics, "compute_j");
    r.best.energy.sramJ = requireNumber(*metrics, "sram_j");
    r.best.energy.dramJ = requireNumber(*metrics, "dram_j");
    r.best.energy.commJ = requireNumber(*metrics, "comm_j");
    return r;
}

} // namespace

PlanCache::PlanCache(fs::path dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{}

fs::path
PlanCache::defaultDir()
{
    if (const char *env = std::getenv("HYPARC_CACHE_DIR"); env != nullptr &&
                                                           *env != '\0')
        return fs::path(env);
    if (const char *xdg = std::getenv("XDG_CACHE_HOME");
        xdg != nullptr && *xdg != '\0')
        return fs::path(xdg) / "hyparc" / "plans";
    if (const char *home = std::getenv("HOME"); home != nullptr &&
                                                *home != '\0')
        return fs::path(home) / ".cache" / "hyparc" / "plans";
    return fs::path(".hyparc-cache") / "plans";
}

fs::path
PlanCache::entryPath(const std::string &planHash) const
{
    return dir_ / (planHash + ".json");
}

fs::path
PlanCache::sweepPath(const std::string &sweepHash) const
{
    // Ends in ".json" so evict()'s suffix filter covers both kinds.
    return dir_ / (sweepHash + ".sweep.json");
}

void
PlanCache::quarantine(const fs::path &path)
{
    ++stats_.quarantined;
    std::error_code ec;
    fs::rename(path, fs::path(path) += ".quarantine", ec);
    if (ec) {
        // Best effort: fall back to deleting so the next store wins.
        fs::remove(path, ec);
    }
}

namespace {

/** The memo key, error-message name and decoder of one entry kind. */
template <typename Result>
struct EntryKind;

template <>
struct EntryKind<core::HierarchicalResult>
{
    static constexpr const char *kWhat = "plan";
    static const std::string &key(const std::string &hash) { return hash; }
    static constexpr auto decode = decodeEntry;
};

template <>
struct EntryKind<SweepResult>
{
    static constexpr const char *kWhat = "sweep";
    static std::string key(const std::string &hash)
    {
        return hash + ".sweep";
    }
    static constexpr auto decode = decodeSweepEntry;
};

} // namespace

template <typename Result>
std::optional<Result>
PlanCache::read(const std::string &hash, bool record)
{
    using Kind = EntryKind<Result>;
    if (!enabled_) {
        if (record) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.misses;
        }
        return std::nullopt;
    }
    if (!validHash(hash))
        util::fatal(std::string(Kind::kWhat) + " cache: malformed " +
                    Kind::kWhat + " hash '" + hash + "'");
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = memo_.find(Kind::key(hash)); it != memo_.end()) {
            if (record)
                ++stats_.hits;
            return std::get<Result>(it->second);
        }
    }

    // Published entries are immutable (a store renames a complete file
    // into place), so the read and the decode need no lock; only the
    // memo, the counters and the quarantine rename do.
    const fs::path path = std::is_same_v<Result, SweepResult>
                              ? sweepPath(hash)
                              : entryPath(hash);
    std::optional<Result> result;
    bool corrupt = false;
    if (std::optional<std::string> text = readFile(path)) {
        try {
            result = Kind::decode(*text, hash);
        } catch (const util::FatalError &) {
            corrupt = true;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (result)
        remember(Kind::key(hash), *result);
    if (!record)
        return result;
    if (corrupt)
        quarantine(path);
    if (result)
        ++stats_.hits;
    else
        ++stats_.misses;
    return result;
}

std::optional<core::HierarchicalResult>
PlanCache::lookup(const std::string &planHash)
{
    return read<core::HierarchicalResult>(planHash, true);
}

std::optional<SweepResult>
PlanCache::lookupSweep(const std::string &sweepHash)
{
    return read<SweepResult>(sweepHash, true);
}

std::optional<core::HierarchicalResult>
PlanCache::probe(const std::string &planHash)
{
    return read<core::HierarchicalResult>(planHash, false);
}

std::optional<SweepResult>
PlanCache::probeSweep(const std::string &sweepHash)
{
    return read<SweepResult>(sweepHash, false);
}

void
PlanCache::recordHits(std::size_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.hits += n;
}

std::size_t
PlanCache::memoSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return memo_.size();
}

void
PlanCache::remember(std::string key, MemoEntry entry)
{
    if (!memo_.try_emplace(key, std::move(entry)).second)
        return; // content-addressed: the held result is the same
    memoOrder_.push_back(std::move(key));
    if (memoOrder_.size() > kMemoCapacity) {
        memo_.erase(memoOrder_.front());
        memoOrder_.pop_front();
    }
}

std::string
PlanCache::entryJson(const std::string &planHash,
                     const core::HierarchicalResult &result)
{
    std::string out = "{\n";
    out += "  \"format\": \"";
    out += kPlanCacheFormat;
    out += "\",\n";
    out += "  \"version\": " + std::to_string(kPlanCacheVersion) + ",\n";
    out += "  \"plan_hash\": \"" + planHash + "\",\n";
    out += "  \"levels\": [";
    for (std::size_t h = 0; h < result.plan.levels.size(); ++h) {
        if (h > 0)
            out += ", ";
        out += '"' + core::toBitString(result.plan.levels[h]) + '"';
    }
    out += "],\n";
    out += "  \"comm_bytes\": " + canonicalDouble(result.commBytes) + ",\n";
    out += "  \"transitions_evaluated\": " +
           std::to_string(result.transitionsEvaluated) + ",\n";
    out += "  \"stats\": {\"expanded\": " +
           std::to_string(result.stats.expanded) +
           ", \"pruned\": " + std::to_string(result.stats.pruned) +
           ", \"certified_exact\": " +
           (result.stats.certifiedExact ? "true" : "false") +
           ", \"width_used\": " + std::to_string(result.stats.widthUsed) +
           "}\n";
    out += "}\n";
    return out;
}

bool
PlanCache::publish(const fs::path &final, const std::string &payload)
{
    // The staging name is unique to this write, so the write itself
    // needs no lock; the rename publishes the entry atomically.
    const fs::path tmp = stagingPath(final);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    bool ok = !ec;
    if (ok) {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << payload;
        out.flush();
        ok = static_cast<bool>(out);
    }
    if (ok) {
        fs::rename(tmp, final, ec);
        ok = !ec;
    }
    if (!ok)
        fs::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(mu_);
    if (ok)
        ++stats_.stores;
    else
        ++stats_.storeFailures;
    return ok;
}

template <typename Result>
bool
PlanCache::write(const std::string &hash, const Result &result)
{
    using Kind = EntryKind<Result>;
    if (!enabled_)
        return false;
    if (!validHash(hash))
        util::fatal(std::string(Kind::kWhat) + " cache: malformed " +
                    Kind::kWhat + " hash '" + hash + "'");
    bool ok;
    if constexpr (std::is_same_v<Result, SweepResult>)
        ok = publish(sweepPath(hash), sweepEntryJson(hash, result));
    else
        ok = publish(entryPath(hash), entryJson(hash, result));
    if (ok) {
        std::lock_guard<std::mutex> lock(mu_);
        remember(Kind::key(hash), result);
    }
    return ok;
}

bool
PlanCache::store(const std::string &planHash,
                 const core::HierarchicalResult &result)
{
    return write(planHash, result);
}

bool
PlanCache::storeSweep(const std::string &sweepHash, const SweepResult &r)
{
    return write(sweepHash, r);
}

std::string
PlanCache::sweepEntryJson(const std::string &sweepHash,
                          const SweepResult &r)
{
    const sim::StepMetrics &m = r.best;
    std::string out = "{\n";
    out += "  \"format\": \"";
    out += kSweepCacheFormat;
    out += "\",\n";
    out += "  \"version\": " + std::to_string(kPlanCacheVersion) + ",\n";
    out += "  \"sweep_hash\": \"" + sweepHash + "\",\n";
    out += "  \"level\": " + std::to_string(r.level) + ",\n";
    out += "  \"evaluated\": " + std::to_string(r.evaluated) + ",\n";
    out += "  \"best_mask\": " + std::to_string(r.bestMask) + ",\n";
    out += "  \"best_bits\": \"" + r.bestBits + "\",\n";
    // Every double as %.17g: a hit must re-render the response the
    // miss produced, byte for byte.
    out += "  \"metrics\": {";
    out += "\"step_seconds\": " + canonicalDouble(m.stepSeconds);
    out += ", \"compute_busy_seconds\": " +
           canonicalDouble(m.computeBusySeconds);
    out += ", \"network_busy_seconds\": " +
           canonicalDouble(m.networkBusySeconds);
    out += ", \"comm_bytes\": " + canonicalDouble(m.commBytes);
    out += ", \"forward\": " + canonicalDouble(m.phases.forward);
    out += ", \"backward\": " + canonicalDouble(m.phases.backward);
    out += ", \"gradient\": " + canonicalDouble(m.phases.gradient);
    out += ", \"compute_j\": " + canonicalDouble(m.energy.computeJ);
    out += ", \"sram_j\": " + canonicalDouble(m.energy.sramJ);
    out += ", \"dram_j\": " + canonicalDouble(m.energy.dramJ);
    out += ", \"comm_j\": " + canonicalDouble(m.energy.commJ);
    out += "}\n";
    out += "}\n";
    return out;
}

std::size_t
PlanCache::evict()
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
    memoOrder_.clear();
    std::error_code ec;
    if (!fs::exists(dir_, ec) || ec)
        return 0;
    std::size_t removed = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        const bool ours = name.ends_with(".json") ||
                          name.ends_with(".tmp") ||
                          name.ends_with(".quarantine");
        if (!ours)
            continue;
        std::error_code rm;
        if (fs::remove(entry.path(), rm) && !rm)
            ++removed;
    }
    return removed;
}

} // namespace hypar::serve
