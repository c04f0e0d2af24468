/**
 * @file
 * Serving-tier tests: SHA-256 against the FIPS 180-4 example digests,
 * the strict JSON parser, canonicalization stability (the cache-key
 * contract of docs/SERVING.md), plan-cache robustness (atomic writes,
 * corrupt-entry quarantine, --no-cache bypass), the warm-session LRU,
 * and the server protocol end to end — including the acceptance
 * differential: a warm-cache plan is bit-identical to a cold search
 * (and to both library engines) and across thread counts.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/plan.hh"
#include "core/simd_kernels.hh"
#include "dnn/model_zoo.hh"
#include "dnn/spec_parser.hh"
#include "serve/canonical.hh"
#include "serve/json.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "serve/sha256.hh"
#include "sim/evaluator.hh"
#include "support/sp_dag_gen.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace fs = std::filesystem;
using namespace hypar;

namespace {

/** Fresh per-test scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("hyparc_test_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

/** Run one request batch through a fresh-or-given server, returning
 *  the response lines. */
std::vector<std::string>
runBatch(serve::Server &server, const std::vector<std::string> &lines)
{
    std::ostringstream out;
    server.processBatch(lines, out);
    std::vector<std::string> responses;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        responses.push_back(line);
    return responses;
}

/** A tiny result with awkward doubles, for cache round-trip tests. */
core::HierarchicalResult
sampleResult()
{
    core::HierarchicalResult result;
    result.plan = core::uniformPlan(5, 3, core::Parallelism::kData);
    result.plan.levels[1][2] = core::Parallelism::kModel;
    result.plan.levels[2][0] = core::Parallelism::kModel;
    result.commBytes = 0.1 + 0.2; // not exactly representable — the
                                  // %.17g round-trip must preserve it
    result.transitionsEvaluated = 123456789;
    result.stats.expanded = 42;
    result.stats.pruned = 7;
    result.stats.certifiedExact = true;
    result.stats.widthUsed = 16;
    return result;
}

constexpr const char *kTinySpec =
    "network tiny\n"
    "input 1 28 28\n"
    "conv c1 8 5 pool 2\n"
    "fc f1 10\n";

/** Same network as kTinySpec, spelled differently. */
constexpr const char *kTinySpecVariant =
    "# a comment\n"
    "network tiny\n"
    "\n"
    "input 1 28 28\n"
    "conv c1 8 5\n"
    "pool 2\n"
    "fc f1 10 act relu\n";

} // namespace

// --- SHA-256 (FIPS 180-4 example digests) ----------------------------------

TEST(Sha256, FipsVectors)
{
    EXPECT_EQ(serve::sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(serve::sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(serve::sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                               "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg =
        "The quick brown fox jumps over the lazy dog, repeatedly, "
        "until the message spans more than one 512-bit block and the "
        "buffering path in Sha256::update is actually exercised.";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        serve::Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.hexDigest(), serve::sha256Hex(msg))
            << "split at " << split;
    }
}

TEST(Sha256, MultiBlockBoundaries)
{
    // Lengths straddling the 56-byte padding boundary and the 64-byte
    // block boundary, against an independent property: prefix digests
    // must all differ.
    std::string prev;
    for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
        const std::string digest =
            serve::sha256Hex(std::string(len, 'a'));
        EXPECT_EQ(digest.size(), 64u);
        EXPECT_NE(digest, prev);
        prev = digest;
    }
}

namespace {

/** `n` bytes from `rng`. */
std::string
randomBytes(std::mt19937_64 &rng, std::size_t n)
{
    std::string out(n, '\0');
    for (char &c : out)
        c = static_cast<char>(rng() & 0xff);
    return out;
}

/** Hex digest of `msg` through `kernel`, fed in random-sized pieces
 *  (zero-length ones included) so every buffering path runs. */
std::string
splitDigest(serve::Sha256Blocks kernel, std::string_view msg,
            std::mt19937_64 &rng)
{
    serve::Sha256 h(kernel);
    std::size_t pos = 0;
    while (pos < msg.size()) {
        const std::size_t take =
            std::min<std::size_t>(rng() % 150, msg.size() - pos);
        h.update(msg.substr(pos, take));
        pos += take;
    }
    return h.hexDigest();
}

/** Hex digest of `msg` through `kernel` in one update call. */
std::string
oneShotDigest(serve::Sha256Blocks kernel, std::string_view msg)
{
    serve::Sha256 h(kernel);
    h.update(msg);
    return h.hexDigest();
}

/** Every length 0..300, then 64 random lengths up to 64 KiB. */
std::vector<std::size_t>
digestLengths(std::mt19937_64 &rng)
{
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 300; ++len)
        lengths.push_back(len);
    for (int k = 0; k < 64; ++k)
        lengths.push_back(rng() % (64 * 1024 + 1));
    return lengths;
}

} // namespace

TEST(Sha256, PortableSplitUpdatesMatchOneShotAtEveryLength)
{
    // The portable kernel runs on every CPU and under
    // HYPAR_SIMD=scalar; it must agree with itself however the input
    // is cut, and the dispatched one-shot digest must agree with it.
    std::mt19937_64 rng(17);
    for (const std::size_t len : digestLengths(rng)) {
        const std::string msg = randomBytes(rng, len);
        const std::string want =
            oneShotDigest(serve::sha256BlocksPortable, msg);
        EXPECT_EQ(splitDigest(serve::sha256BlocksPortable, msg, rng), want)
            << "length " << len;
        EXPECT_EQ(serve::sha256Hex(msg), want) << "length " << len;
    }
}

TEST(Sha256, ShaNiCompressionMatchesPortable)
{
    if (!serve::sha256ShaNiAvailable())
        GTEST_SKIP() << "CPU lacks the SHA extensions";
    // The two kernels, called directly on random chaining states (not
    // just the IV) and random blocks, one and several blocks per call.
    std::mt19937_64 rng(2026);
    for (int trial = 0; trial < 10000; ++trial) {
        std::uint32_t portable[8];
        for (std::uint32_t &word : portable)
            word = static_cast<std::uint32_t>(rng());
        std::uint32_t shaNi[8];
        std::copy(portable, portable + 8, shaNi);
        const std::size_t count = 1 + trial % 3;
        const std::string blocks = randomBytes(rng, 64 * count);
        const auto *data =
            reinterpret_cast<const std::uint8_t *>(blocks.data());
        serve::sha256BlocksPortable(portable, data, count);
        serve::sha256BlocksShaNi(shaNi, data, count);
        ASSERT_TRUE(std::equal(portable, portable + 8, shaNi))
            << "trial " << trial;
    }
}

TEST(Sha256, ShaNiDigestsMatchPortableAtEveryLength)
{
    if (!serve::sha256ShaNiAvailable())
        GTEST_SKIP() << "CPU lacks the SHA extensions";
    std::mt19937_64 rng(4242);
    for (const std::size_t len : digestLengths(rng)) {
        const std::string msg = randomBytes(rng, len);
        EXPECT_EQ(splitDigest(serve::sha256BlocksShaNi, msg, rng),
                  oneShotDigest(serve::sha256BlocksPortable, msg))
            << "length " << len;
    }
    EXPECT_EQ(oneShotDigest(serve::sha256BlocksShaNi, "abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ScalarSwitchPinsThePortableKernel)
{
    // HYPAR_SIMD=scalar (read once, in core/simd_kernels.cc) must pin
    // the portable compression too, so the golden digests below run
    // through it on SHA-capable machines.
    if (core::simd::scalarPinned() || !serve::sha256ShaNiAvailable())
        EXPECT_EQ(serve::sha256ActiveBlocks(), &serve::sha256BlocksPortable);
    else
        EXPECT_EQ(serve::sha256ActiveBlocks(), &serve::sha256BlocksShaNi);
}

// --- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers)
{
    const serve::JsonValue v = serve::JsonValue::parse(
        R"({"s":"hi\nA","n":-2.5e2,"b":true,"z":null,)"
        R"("a":[1,2,3],"o":{"k":false}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("s")->asString(), "hi\nA");
    EXPECT_EQ(v.find("n")->asNumber(), -250.0);
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_EQ(v.find("a")->asArray().size(), 3u);
    EXPECT_EQ(v.find("a")->asArray()[2].asNumber(), 3.0);
    EXPECT_FALSE(v.find("o")->asObject().at("k").asBool());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, SurrogatePairDecodesToUtf8)
{
    const serve::JsonValue v =
        serve::JsonValue::parse(R"(["\uD83D\uDE00"])");
    EXPECT_EQ(v.asArray()[0].asString(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(serve::JsonValue::parse("{\"a\":1} trailing"),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"a\":1,}"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"a\" 1}"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("\"bad \\q escape\""),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("\"raw \x01 control\""),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("{\"dup\":1,\"dup\":2}"),
                 util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("01"), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("1."), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse(""), util::FatalError);
    EXPECT_THROW(serve::JsonValue::parse("[1,2"), util::FatalError);
}

TEST(Json, NestingDepthIsCapped)
{
    const auto nesting_error = [](const std::string &text) {
        try {
            (void)serve::JsonValue::parse(text);
        } catch (const util::FatalError &e) {
            return std::string(e.what()).find("nesting") !=
                   std::string::npos;
        }
        return false;
    };
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(serve::JsonValue::parse(nested(serve::kMaxJsonDepth)));
    EXPECT_TRUE(nesting_error(nested(serve::kMaxJsonDepth + 1)));
    // Objects count toward the same depth as arrays, and the cap trips
    // before the parser ever reaches the (missing) closing brackets.
    std::string mixed;
    for (std::size_t d = 0; d <= serve::kMaxJsonDepth; ++d)
        mixed += d % 2 ? "[" : "{\"k\":";
    EXPECT_TRUE(nesting_error(mixed));
    EXPECT_FALSE(nesting_error(std::string(serve::kMaxJsonDepth, '[')));
}

TEST(Json, TypedAccessorsFatalOnKindMismatch)
{
    const serve::JsonValue v = serve::JsonValue::parse("[1]");
    EXPECT_THROW(v.asObject(), util::FatalError);
    EXPECT_THROW(v.asArray()[0].asString(), util::FatalError);
}

TEST(Json, EscapeCoversControlsQuotesBackslashes)
{
    EXPECT_EQ(serve::jsonEscape("a\"b\\c\nd\te\rf"),
              "a\\\"b\\\\c\\nd\\te\\rf");
    EXPECT_EQ(serve::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Canonicalization --------------------------------------------------------

TEST(Canonical, SpecSpellingDoesNotForkTheKey)
{
    const dnn::Network a = dnn::parseNetworkSpec(kTinySpec);
    const dnn::Network b = dnn::parseNetworkSpec(kTinySpecVariant);
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::canonicalContext(a, cfg),
              serve::canonicalContext(b, cfg));
    EXPECT_EQ(serve::contextHash(a, cfg), serve::contextHash(b, cfg));
}

TEST(Canonical, RecordTraceIsExcludedFromTheKey)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig cfg;
    const std::string base = serve::contextHash(net, cfg);
    cfg.options.recordTrace = true;
    EXPECT_EQ(serve::contextHash(net, cfg), base);
    cfg.options.overlapGradComm = true; // this one *is* keyed
    EXPECT_NE(serve::contextHash(net, cfg), base);
}

TEST(Canonical, FaultOrderIsIrrelevantButContentIsKeyed)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig a;
    a.faults.nodes = {{3, 0.5}, {1, 0.25}};
    sim::SimConfig b;
    b.faults.nodes = {{1, 0.25}, {3, 0.5}};
    EXPECT_EQ(serve::contextHash(net, a), serve::contextHash(net, b));

    sim::SimConfig c;
    c.faults.nodes = {{1, 0.25}};
    EXPECT_NE(serve::contextHash(net, a), serve::contextHash(net, c));
    EXPECT_NE(serve::contextHash(net, c),
              serve::contextHash(net, sim::SimConfig{}));
}

TEST(Canonical, EveryKeyedFieldForksTheKey)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    sim::SimConfig cfg;
    const std::string base = serve::contextHash(net, cfg);

    sim::SimConfig batch = cfg;
    batch.comm.batch = 128;
    EXPECT_NE(serve::contextHash(net, batch), base);

    sim::SimConfig topo = cfg;
    topo.topology = sim::TopologyKind::kTorus;
    EXPECT_NE(serve::contextHash(net, topo), base);

    sim::SimConfig levels = cfg;
    levels.levels = 3;
    EXPECT_NE(serve::contextHash(net, levels), base);
}

TEST(Canonical, PlanHashKeysStrategyAndSearchKnobs)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    const sim::SimConfig cfg;
    core::SearchOptions search;
    const std::string base =
        serve::planHash(net, cfg, "optimal", search);

    EXPECT_NE(serve::planHash(net, cfg, "hypar", search), base);

    core::SearchOptions astar = search;
    astar.engine = core::SearchEngine::kAStar;
    EXPECT_NE(serve::planHash(net, cfg, "optimal", astar), base);

    // The retired beam knobs stay in the key text as constants, so
    // every pre-existing default key is unchanged.
    const std::string text =
        serve::canonicalPlanRequest(net, cfg, "optimal", search);
    EXPECT_NE(text.find("[plan]\nstrategy=optimal\nengine=auto\n"
                        "beam_width=0\nadaptive_beam=1\n"),
              std::string::npos)
        << text;

    // The sweep key embeds the plan payload plus the swept level.
    EXPECT_NE(serve::sweepHash(net, cfg, "hypar", search, 1), base);
    EXPECT_NE(serve::sweepHash(net, cfg, "hypar", search, 1),
              serve::sweepHash(net, cfg, "hypar", search, 2));

    // ... and the context payload is embedded: same knobs, different
    // batch, different plan key.
    sim::SimConfig other = cfg;
    other.comm.batch = 128;
    EXPECT_NE(serve::planHash(net, other, "optimal", search), base);
}

TEST(Canonical, DoubleRendersRoundTrip)
{
    const double awkward = 0.1 + 0.2;
    EXPECT_EQ(std::stod(serve::canonicalDouble(awkward)), awkward);
    EXPECT_EQ(serve::canonicalDouble(1.0), "1");
}

namespace {

/** The rendering canonicalDouble promises: printf's "%.17g". */
std::string
printfDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

TEST(Canonical, DoubleMatchesPrintfOnEveryClassOfDouble)
{
    using Limits = std::numeric_limits<double>;
    const std::vector<double> special = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1e22, 1e23, 5e-324, -5e-324,
        Limits::denorm_min(), Limits::min(), -Limits::min(),
        Limits::min() - Limits::denorm_min(), Limits::max(),
        -Limits::max(), Limits::epsilon(), Limits::infinity(),
        -Limits::infinity(), Limits::quiet_NaN(), -Limits::quiet_NaN(),
        123456789012345678.0, 0.30000000000000004, 1e16, 1e17};
    for (const double v : special)
        EXPECT_EQ(serve::canonicalDouble(v), printfDouble(v)) << v;

    // Seeded doubles of every class: raw bit patterns (every exponent,
    // subnormals and NaN payloads included), then values of the scale
    // the configs hold (integers, short decimals, products).
    tests::SplitMix64 rng{20240613};
    for (int k = 0; k < 100000; ++k) {
        const double v = std::bit_cast<double>(rng.next());
        ASSERT_EQ(serve::canonicalDouble(v), printfDouble(v))
            << std::hexfloat << v;
    }
    for (int k = 0; k < 100000; ++k) {
        const double mantissa =
            static_cast<double>(rng.next() >> 11) * 0x1p-53;
        const double v = std::ldexp(mantissa, static_cast<int>(
                                                   rng.range(0, 120)) -
                                                   60) *
                         (rng.coin() ? 1.0 : -1.0);
        const double decimal =
            static_cast<double>(rng.below(100000)) / 1000.0;
        ASSERT_EQ(serve::canonicalDouble(v), printfDouble(v))
            << std::hexfloat << v;
        ASSERT_EQ(serve::canonicalDouble(decimal), printfDouble(decimal))
            << decimal;
    }
}

namespace {

/** The degraded VGG-E context the golden digests below pin. */
sim::SimConfig
goldenFaultedConfig()
{
    sim::SimConfig cfg;
    cfg.levels = 10;
    cfg.comm.batch = 1024;
    cfg.topology = sim::TopologyKind::kTorus;
    cfg.options.overlapGradComm = true;
    cfg.faults.nodes = {{3, 0.5}, {1, 0.25}};
    cfg.faults.links = {{2, 0.75}};
    return cfg;
}

} // namespace

TEST(Canonical, GoldenHashesArePinned)
{
    // Digests captured with the printf-rendered, render-per-key
    // canonicalization. Every on-disk cache entry and warm session is
    // keyed by them, so they must never move without a
    // kCanonicalVersion bump.
    const core::SearchOptions search{};
    const dnn::Network sfc = dnn::makeSfc();
    const sim::SimConfig plain;
    EXPECT_EQ(serve::contextHash(sfc, plain),
              "59a2c4a456e63ccd15a37303697d39c0"
              "ea4344309f0f46b626cc30d6d1982ab8");
    EXPECT_EQ(serve::planHash(sfc, plain, "optimal", search),
              "502055453475c577460f596be4982d11"
              "cd1601e4b6b3942d2409c730a7742c8e");

    const dnn::Network vgg = dnn::makeVggE();
    const sim::SimConfig faulted = goldenFaultedConfig();
    EXPECT_EQ(serve::contextHash(vgg, faulted),
              "e358a37dcb9511a879e9f2dab713c504"
              "a03b10490b278f896122f442f4340c63");
    EXPECT_EQ(serve::planHash(vgg, faulted, "optimal", search),
              "880980183dcaa34133f8173412028769"
              "305213ffbc7172de59ade780062dea7a");
    EXPECT_EQ(serve::sweepHash(vgg, faulted, "hypar", search, 3),
              "a4773dc4021e5a9f7210a50e76362371"
              "4ca3419bb153e2c368fe006b23bf2439");
}

TEST(Canonical, KeyDerivedHashesMatchTheFullTextHashes)
{
    // ContextKey derives the plan and sweep digests from a copy of the
    // context's SHA-256 state. They must equal the one-shot digest of
    // the full canonical request text, whatever the context.
    std::vector<sim::SimConfig> configs;
    for (const sim::TopologyKind topology :
         {sim::TopologyKind::kHTree, sim::TopologyKind::kTorus,
          sim::TopologyKind::kMesh}) {
        sim::SimConfig cfg;
        cfg.topology = topology;
        configs.push_back(cfg);
        sim::SimConfig faulted = goldenFaultedConfig();
        faulted.topology = topology;
        configs.push_back(faulted);
    }
    core::SearchOptions tuned;
    tuned.engine = core::SearchEngine::kAStar;
    const std::vector<core::SearchOptions> searches = {
        core::SearchOptions{}, tuned};

    for (const dnn::Network &net : dnn::allModels()) {
        for (const sim::SimConfig &cfg : configs) {
            const serve::ContextKey key(net, cfg);
            ASSERT_EQ(key.hex(),
                      serve::sha256Hex(serve::canonicalContext(net, cfg)))
                << net.name();
            for (const char *strategy :
                 {"hypar", "dp", "mp", "owt", "optimal"}) {
                for (const core::SearchOptions &search : searches) {
                    EXPECT_EQ(key.planHash(strategy, search),
                              serve::sha256Hex(serve::canonicalPlanRequest(
                                  net, cfg, strategy, search)))
                        << net.name() << " " << strategy;
                    for (const std::size_t level : {0u, 3u}) {
                        EXPECT_EQ(key.sweepHash(strategy, search, level),
                                  serve::sha256Hex(
                                      serve::canonicalSweepRequest(
                                          net, cfg, strategy, search,
                                          level)))
                            << net.name() << " " << strategy << " "
                            << level;
                    }
                }
            }
        }
    }
}

// --- Plan cache --------------------------------------------------------------

namespace {

std::string
hashFor(const core::HierarchicalResult &result)
{
    return serve::sha256Hex(serve::PlanCache::entryJson("x", result));
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

/** Staging files (".tmp") left in `dir`. */
std::size_t
countTmpFiles(const fs::path &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".tmp")
            ++n;
    return n;
}

} // namespace

TEST(PlanCache, StoreThenLookupIsBitIdentical)
{
    TempDir tmp("cache_roundtrip");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    EXPECT_FALSE(cache.lookup(hash).has_value());
    cache.store(hash, result);
    const std::optional<core::HierarchicalResult> back =
        cache.lookup(hash);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->plan.levels, result.plan.levels);
    EXPECT_EQ(back->commBytes, result.commBytes); // exact, %.17g
    EXPECT_EQ(back->transitionsEvaluated, result.transitionsEvaluated);
    EXPECT_EQ(back->stats.expanded, result.stats.expanded);
    EXPECT_EQ(back->stats.pruned, result.stats.pruned);
    EXPECT_EQ(back->stats.certifiedExact, result.stats.certifiedExact);
    EXPECT_EQ(back->stats.widthUsed, result.stats.widthUsed);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // Atomic write: the entry exists, the staging .tmp does not.
    EXPECT_TRUE(fs::exists(tmp.path / (hash + ".json")));
    EXPECT_EQ(countTmpFiles(tmp.path), 0u);
}

TEST(PlanCache, ConcurrentWritersOfOneHashNeverTearTheEntry)
{
    // Two caches over one directory stand in for two server processes;
    // several threads each store the same hash and read it back. Every
    // writer stages into its own <hash>.<pid>.<seq>.tmp, so the
    // published entry always decodes and no staging file survives.
    TempDir tmp("cache_concurrent");
    serve::PlanCache a(tmp.path, true);
    serve::PlanCache b(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    serve::SweepResult sweep;
    sweep.level = 1;
    sweep.evaluated = 32;
    sweep.bestMask = 5;
    sweep.bestBits = "10100";
    sweep.best.stepSeconds = 0.1 + 0.2;

    constexpr int kThreads = 4;
    constexpr int kRounds = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        serve::PlanCache &cache = t % 2 == 0 ? a : b;
        threads.emplace_back([&cache, &hash, &result, &sweep] {
            for (int r = 0; r < kRounds; ++r) {
                EXPECT_TRUE(cache.store(hash, result));
                EXPECT_TRUE(cache.storeSweep(hash, sweep));
                const auto back = cache.lookup(hash);
                ASSERT_TRUE(back.has_value());
                EXPECT_EQ(back->commBytes, result.commBytes);
                const auto sweepBack = cache.lookupSweep(hash);
                ASSERT_TRUE(sweepBack.has_value());
                EXPECT_EQ(sweepBack->bestBits, sweep.bestBits);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const std::size_t stores = kThreads / 2 * kRounds * 2;
    EXPECT_EQ(a.stats().stores, stores);
    EXPECT_EQ(b.stats().stores, stores);
    EXPECT_EQ(a.stats().quarantined + b.stats().quarantined, 0u);
    EXPECT_EQ(countTmpFiles(tmp.path), 0u);
    const auto entry = serve::PlanCache(tmp.path, true).lookup(hash);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->plan.levels, result.plan.levels);
}

TEST(PlanCache, FailedStoreIsCountedNotFatal)
{
    // A regular file where the directory should be: creating the
    // directory fails, whoever the test runs as.
    TempDir tmp("cache_store_fail");
    const fs::path dir = tmp.path / "not-a-dir";
    writeFile(dir, "occupied");
    serve::PlanCache cache(dir, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    EXPECT_FALSE(cache.store(hash, result));
    EXPECT_FALSE(cache.storeSweep(hash, serve::SweepResult{}));
    EXPECT_EQ(cache.stats().storeFailures, 2u);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(cache.lookup(hash).has_value());
    EXPECT_TRUE(fs::is_regular_file(dir));

    // A disabled cache publishes nothing but fails nothing either.
    serve::PlanCache off(dir, false);
    EXPECT_FALSE(off.store(hash, result));
    EXPECT_EQ(off.stats().storeFailures, 0u);
}

TEST(PlanCache, CorruptEntriesAreQuarantinedNotFatal)
{
    TempDir tmp("cache_corrupt");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    const std::string good = serve::PlanCache::entryJson(hash, result);
    const fs::path entry = tmp.path / (hash + ".json");

    struct Case
    {
        const char *label;
        std::string text;
    };
    const std::vector<Case> cases = {
        {"truncated", good.substr(0, good.size() / 2)},
        {"garbage", "not json at all\n"},
        {"trailing", good + "extra"},
        {"wrong-version",
         [&] {
             std::string t = good;
             const auto at = t.find("\"version\":");
             return t.replace(at, std::string("\"version\": 1").size(),
                              "\"version\": 99");
         }()},
        {"wrong-format",
         [&] {
             std::string t = good;
             const auto at = t.find("hyparc-plan-cache");
             return t.replace(at, 17, "someone-elses-fmt");
         }()},
        {"wrong-hash", serve::PlanCache::entryJson(
                           std::string(64, 'f'), result)},
    };

    std::size_t quarantined = 0;
    for (const Case &c : cases) {
        writeFile(entry, c.text);
        EXPECT_FALSE(cache.lookup(hash).has_value()) << c.label;
        EXPECT_FALSE(fs::exists(entry)) << c.label;
        EXPECT_EQ(cache.stats().quarantined, ++quarantined) << c.label;
        fs::remove(tmp.path / (hash + ".quarantine"));
    }

    // Re-planning after quarantine overwrites cleanly.
    cache.store(hash, result);
    EXPECT_TRUE(cache.lookup(hash).has_value());
}

TEST(PlanCache, DisabledCacheNeverTouchesTheDirectory)
{
    TempDir tmp("cache_disabled");
    const fs::path dir = tmp.path / "never-created";
    serve::PlanCache cache(dir, false);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    cache.store(hash, result);
    EXPECT_FALSE(cache.lookup(hash).has_value());
    EXPECT_FALSE(fs::exists(dir)); // store was a no-op
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCache, EvictRemovesEntriesAndDebris)
{
    TempDir tmp("cache_evict");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    cache.store(std::string(64, 'a'), result);
    cache.store(std::string(64, 'b'), result);
    writeFile(tmp.path / (std::string(64, 'c') + ".tmp"), "stale");
    writeFile(tmp.path / (std::string(64, 'e') + ".4242.7.tmp"), "stale");
    writeFile(tmp.path / (std::string(64, 'e') + ".sweep.4242.8.tmp"),
              "stale");
    writeFile(tmp.path / (std::string(64, 'd') + ".quarantine"), "bad");

    EXPECT_EQ(cache.evict(), 6u);
    EXPECT_TRUE(fs::is_empty(tmp.path));
    EXPECT_FALSE(cache.lookup(std::string(64, 'a')).has_value());
}

TEST(PlanCache, MemoHitSurvivesTheDeletionOfItsFile)
{
    TempDir tmp("cache_memo_survives");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    serve::SweepResult sweep;
    sweep.level = 2;
    sweep.evaluated = 32;
    sweep.bestMask = 9;
    sweep.bestBits = "10010";
    sweep.best.stepSeconds = 0.1 + 0.2;

    ASSERT_TRUE(cache.store(hash, result));
    ASSERT_TRUE(cache.storeSweep(hash, sweep)); // same hash, other kind
    EXPECT_EQ(cache.memoSize(), 2u);
    fs::remove(tmp.path / (hash + ".json"));
    fs::remove(tmp.path / (hash + ".sweep.json"));

    const auto back = cache.lookup(hash);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->plan.levels, result.plan.levels);
    EXPECT_EQ(back->commBytes, result.commBytes);
    EXPECT_EQ(back->transitionsEvaluated, result.transitionsEvaluated);
    EXPECT_EQ(back->stats.widthUsed, result.stats.widthUsed);
    const auto sweepBack = cache.lookupSweep(hash);
    ASSERT_TRUE(sweepBack.has_value());
    EXPECT_EQ(sweepBack->bestBits, sweep.bestBits);
    EXPECT_EQ(sweepBack->best.stepSeconds, sweep.best.stepSeconds);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 0u);

    // The memo is per process: a fresh cache sees the empty disk.
    EXPECT_FALSE(serve::PlanCache(tmp.path, true).lookup(hash));
}

TEST(PlanCache, CleanDiskDecodesFillTheMemoAndEvictClearsIt)
{
    TempDir tmp("cache_memo_evict");
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    serve::PlanCache(tmp.path, true).store(hash, result);

    serve::PlanCache cache(tmp.path, true);
    EXPECT_EQ(cache.memoSize(), 0u);
    ASSERT_TRUE(cache.lookup(hash)); // decoded from disk
    EXPECT_EQ(cache.memoSize(), 1u);

    EXPECT_EQ(cache.evict(), 1u);
    EXPECT_EQ(cache.memoSize(), 0u);
    EXPECT_FALSE(cache.lookup(hash));
    EXPECT_FALSE(cache.probe(hash));
}

TEST(PlanCache, DisabledCacheAndFailedStoresNeverFillTheMemo)
{
    TempDir tmp("cache_memo_never");
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);

    serve::PlanCache off(tmp.path, false);
    EXPECT_FALSE(off.store(hash, result));
    EXPECT_FALSE(off.storeSweep(hash, serve::SweepResult{}));
    EXPECT_FALSE(off.lookup(hash));
    EXPECT_EQ(off.memoSize(), 0u);

    // A regular file where the directory should be: every store fails.
    const fs::path blocked = tmp.path / "not-a-dir";
    writeFile(blocked, "occupied");
    serve::PlanCache failing(blocked, true);
    EXPECT_FALSE(failing.store(hash, result));
    EXPECT_FALSE(failing.storeSweep(hash, serve::SweepResult{}));
    EXPECT_EQ(failing.memoSize(), 0u);
    EXPECT_FALSE(failing.lookup(hash));
    EXPECT_EQ(failing.stats().storeFailures, 2u);
}

TEST(PlanCache, MemoStaysAtItsCapacityDroppingTheOldestFirst)
{
    TempDir tmp("cache_memo_cap");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    constexpr std::size_t kStores = serve::kMemoCapacity + 100;
    std::vector<std::string> hashes;
    for (std::size_t k = 0; k < kStores; ++k) {
        hashes.push_back(serve::sha256Hex(std::to_string(k)));
        ASSERT_TRUE(cache.store(hashes.back(), result));
        EXPECT_LE(cache.memoSize(), serve::kMemoCapacity);
    }
    EXPECT_EQ(cache.memoSize(), serve::kMemoCapacity);

    // With the files gone only the memo answers: the first 100 stores
    // were dropped, the rest are held.
    for (const std::string &hash : hashes)
        fs::remove(tmp.path / (hash + ".json"));
    EXPECT_FALSE(cache.lookup(hashes[0]));
    EXPECT_FALSE(cache.lookup(hashes[99]));
    EXPECT_TRUE(cache.lookup(hashes[100]));
    EXPECT_TRUE(cache.lookup(hashes[kStores - 1]));
}

TEST(PlanCache, ProbesCountNothingAndQuarantineNothing)
{
    TempDir tmp("cache_probe");
    serve::PlanCache cache(tmp.path, true);
    const core::HierarchicalResult result = sampleResult();
    const std::string hash = hashFor(result);
    const fs::path entry = tmp.path / (hash + ".json");

    EXPECT_FALSE(cache.probe(hash)); // absent
    writeFile(entry, "{\"truncated\":");
    EXPECT_FALSE(cache.probe(hash)); // corrupt: a probe miss ...
    EXPECT_TRUE(fs::exists(entry));  // ... left in place
    EXPECT_EQ(cache.memoSize(), 0u);

    writeFile(entry, serve::PlanCache::entryJson(hash, result));
    const auto hit = cache.probe(hash);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->commBytes, result.commBytes);
    EXPECT_EQ(cache.memoSize(), 1u); // a clean decode is remembered

    const serve::PlanCacheStats &c = cache.stats();
    EXPECT_EQ(c.hits + c.misses + c.quarantined, 0u);
    cache.recordHits(3);
    EXPECT_EQ(cache.stats().hits, 3u);

    serve::PlanCache off(tmp.path, false);
    EXPECT_FALSE(off.probe(hash));
    EXPECT_EQ(off.stats().misses, 0u);
}

// --- Session registry --------------------------------------------------------

TEST(SessionRegistry, ReusesWarmSessionsAndEvictsLru)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    serve::SessionRegistry registry(2);

    sim::SimConfig a; // three distinct contexts
    sim::SimConfig b;
    b.comm.batch = 128;
    sim::SimConfig c;
    c.comm.batch = 64;

    serve::Session &sa = registry.acquire(net, a);
    EXPECT_EQ(registry.built(), 1u);
    EXPECT_EQ(&registry.acquire(net, a), &sa); // warm hit, same object
    EXPECT_EQ(registry.reused(), 1u);

    registry.acquire(net, b);
    EXPECT_EQ(registry.size(), 2u);
    registry.acquire(net, c); // evicts a (least recently acquired)
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.built(), 3u);

    registry.acquire(net, a); // rebuilt after eviction
    EXPECT_EQ(registry.built(), 4u);
    EXPECT_EQ(registry.reused(), 1u);
}

TEST(SessionRegistry, SessionEvaluatorMatchesColdEvaluator)
{
    const dnn::Network net = dnn::parseNetworkSpec(kTinySpec);
    const sim::SimConfig cfg;
    serve::SessionRegistry registry;
    serve::Session &session = registry.acquire(net, cfg);

    const core::HierarchicalPlan plan =
        core::makeHyparPlan(session.evaluator->model(), cfg.levels);
    const sim::Evaluator cold(net, cfg);
    EXPECT_EQ(session.evaluator->evaluate(plan), cold.evaluate(plan));
}

// --- Server: warm-cache bit-identity (the acceptance differential) ----------

namespace {

struct PlanResponse
{
    std::string cacheOutcome;
    std::vector<std::string> planBits;
    double commBytes = 0.0;
    std::uint64_t transitions = 0;
    std::uint64_t widthUsed = 0;
    bool certified = false;

    static PlanResponse parse(const std::string &line)
    {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        EXPECT_TRUE(v.find("ok")->asBool()) << line;
        PlanResponse r;
        r.cacheOutcome = v.find("cache")->asString();
        for (const serve::JsonValue &level : v.find("plan")->asArray())
            r.planBits.push_back(level.asString());
        r.commBytes = v.find("comm_bytes")->asNumber();
        const serve::JsonValue *search = v.find("search");
        r.transitions = static_cast<std::uint64_t>(
            search->find("transitions_evaluated")->asNumber());
        r.certified = search->find("certified_exact")->asBool();
        r.widthUsed = static_cast<std::uint64_t>(
            search->find("width_used")->asNumber());
        return r;
    }

    /** The returned plan, decoded from its per-level bit strings. */
    core::HierarchicalPlan plan() const
    {
        core::HierarchicalPlan out;
        for (const std::string &bits : planBits) {
            core::LevelPlan lp;
            for (const char c : bits)
                lp.push_back(c == '1' ? core::Parallelism::kModel
                                      : core::Parallelism::kData);
            out.levels.push_back(lp);
        }
        return out;
    }
};

} // namespace

TEST(Server, WarmCachePlanIsBitIdenticalToColdSearch)
{
    TempDir tmp("serve_diff");
    const std::string line =
        R"({"op":"plan","model":"Lenet-c","strategy":"optimal"})";

    // Cold: a fresh server with a fresh cache directory searches.
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server cold(opts);
    const PlanResponse first =
        PlanResponse::parse(runBatch(cold, {line}).at(0));
    EXPECT_EQ(first.cacheOutcome, "miss");

    // Warm: a *new* server over the same directory must replay the
    // stored result bit-identically (plan, bytes, certificate).
    serve::Server warm(opts);
    const PlanResponse second =
        PlanResponse::parse(runBatch(warm, {line}).at(0));
    EXPECT_EQ(second.cacheOutcome, "hit");
    EXPECT_EQ(second.planBits, first.planBits);
    EXPECT_EQ(second.commBytes, first.commBytes); // exact doubles
    EXPECT_EQ(second.transitions, first.transitions);
    EXPECT_TRUE(second.certified);

    // Both exact library engines agree on the served optimum (and its
    // cost), so the cache never depends on which engine filled it.
    const dnn::Network net = dnn::makeLenetC();
    const core::CommModel model(net, core::CommConfig{});
    for (const auto engine :
         {core::SearchEngine::kDense, core::SearchEngine::kAStar}) {
        core::SearchOptions search;
        search.engine = engine;
        const auto direct =
            core::OptimalPartitioner(model).partition(4, search);
        EXPECT_EQ(first.plan(), direct.plan)
            << static_cast<int>(engine);
        EXPECT_EQ(first.commBytes, direct.commBytes)
            << static_cast<int>(engine);
    }
}

TEST(Server, MaxSessionsSizesTheWarmRegistry)
{
    // --max-sessions threads through ServeOptions to the session LRU:
    // capacity 2 keeps two warm contexts and evicts on the third.
    serve::ServeOptions opts;
    opts.noCache = true;
    opts.maxSessions = 2;
    serve::Server server(opts);
    EXPECT_EQ(server.sessions().capacity(), 2u);

    const auto req = [](const char *model) {
        return std::string(R"({"op":"evaluate","model":")") + model +
               R"(","strategy":"dp","levels":2})";
    };
    runBatch(server, {req("Lenet-c")});
    runBatch(server, {req("SFC")});
    EXPECT_EQ(server.sessions().size(), 2u);
    runBatch(server, {req("VGG-A")});
    EXPECT_EQ(server.sessions().size(), 2u); // LRU evicted, not grown
    EXPECT_EQ(server.sessions().built(), 3u);
}

TEST(Server, CachedPlanEvaluatesIdenticallyAtEveryThreadCount)
{
    TempDir tmp("serve_threads");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);
    const std::string line =
        R"({"op":"plan","model":"Lenet-c","strategy":"optimal"})";

    const PlanResponse cold =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    const PlanResponse warm =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    EXPECT_EQ(warm.cacheOutcome, "hit");
    ASSERT_EQ(warm.planBits, cold.planBits);

    // Decode both responses' plans and score them through explicit
    // serial (0 workers) and multi-threaded pools: every combination
    // must produce the same StepMetrics bit for bit.
    const core::HierarchicalPlan plan = warm.plan();
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const std::vector<core::HierarchicalPlan> plans(4, plan);
    util::ThreadPool serial(0);
    util::ThreadPool threaded(3);
    const auto serialOut = evaluator.evaluateBatch(plans, serial);
    const auto threadedOut = evaluator.evaluateBatch(plans, threaded);
    const sim::StepMetrics direct = evaluator.evaluate(plan);
    ASSERT_EQ(serialOut.size(), plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(serialOut[i], direct);
        EXPECT_EQ(threadedOut[i], direct);
    }
}

TEST(Server, NoCacheBypassesReadsAndWrites)
{
    TempDir tmp("serve_nocache");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path / "cache";
    opts.noCache = true;
    serve::Server server(opts);
    const std::string line = R"({"op":"plan","model":"Lenet-c"})";

    const PlanResponse first =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    const PlanResponse second =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    EXPECT_EQ(first.cacheOutcome, "bypass");
    EXPECT_EQ(second.cacheOutcome, "bypass"); // never becomes a hit
    EXPECT_EQ(second.planBits, first.planBits);
    EXPECT_FALSE(fs::exists(opts.cacheDir)); // no writes either
}

TEST(Server, FailedStoreAnswersAsABypass)
{
    // The cache directory path is taken by a regular file, so every
    // store fails. The computed result still goes out, marked
    // "bypass", and stats counts the failures.
    TempDir tmp("serve_store_fail");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path / "not-a-dir";
    writeFile(opts.cacheDir, "occupied");
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server, {R"({"op":"plan","model":"Lenet-c"})",
                 R"({"op":"sweep","model":"Lenet-c","level":1})",
                 R"({"op":"stats"})"});
    ASSERT_EQ(responses.size(), 3u);
    const PlanResponse plan = PlanResponse::parse(responses[0]);
    EXPECT_EQ(plan.cacheOutcome, "bypass");
    EXPECT_FALSE(plan.planBits.empty());
    const serve::JsonValue sweep = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(sweep.find("ok")->asBool()) << responses[1];
    EXPECT_EQ(sweep.find("cache")->asString(), "bypass");

    const serve::JsonValue stats = serve::JsonValue::parse(responses[2]);
    const serve::JsonValue *cache = stats.find("cache");
    EXPECT_EQ(cache->find("store_failures")->asNumber(), 2.0);
    EXPECT_EQ(cache->find("stores")->asNumber(), 0.0);
    EXPECT_EQ(stats.find("server")->find("errors")->asNumber(), 0.0);

    // The same requests against a cache-less server give the same
    // bytes: a failed store is indistinguishable from --no-cache.
    serve::ServeOptions off;
    off.noCache = true;
    serve::Server bypass(off);
    EXPECT_EQ(runBatch(bypass, {R"({"op":"plan","model":"Lenet-c"})"})
                  .at(0),
              responses[0]);
}

TEST(Server, QuarantinedEntryIsReplannedInBand)
{
    TempDir tmp("serve_quarantine");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);
    const std::string line = R"({"op":"plan","model":"Lenet-c"})";

    PlanResponse::parse(runBatch(server, {line}).at(0));
    // Corrupt the single stored entry in place.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().extension() == ".json")
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    writeFile(entry, "{\"truncated\":");

    serve::Server fresh(opts);
    const PlanResponse replanned =
        PlanResponse::parse(runBatch(fresh, {line}).at(0));
    EXPECT_EQ(replanned.cacheOutcome, "miss"); // not a crash, not a hit
    EXPECT_EQ(fresh.cache().stats().quarantined, 1u);
    EXPECT_TRUE(fs::exists(entry)); // rewritten by the re-plan

    serve::Server again(opts);
    EXPECT_EQ(PlanResponse::parse(runBatch(again, {line}).at(0))
                  .cacheOutcome,
              "hit");
}

TEST(Server, PreviousVersionEntryIsQuarantinedAndResearched)
{
    // The migration every kPlanCacheVersion bump relies on: an entry
    // from the previous version carries the right key and plan but
    // stale `search` stats, so it must answer as a miss, be searched
    // again and be overwritten with the current version's entry.
    TempDir tmp("serve_old_version");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    const std::string line = R"({"op":"plan","model":"Lenet-c",)"
                             R"("strategy":"optimal"})";
    serve::Server server(opts);
    const PlanResponse cold =
        PlanResponse::parse(runBatch(server, {line}).at(0));
    ASSERT_EQ(cold.cacheOutcome, "miss");

    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().extension() == ".json")
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    const auto readEntry = [&] {
        std::ifstream in(entry, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string current = readEntry();
    const std::string tag =
        "\"version\": " + std::to_string(serve::kPlanCacheVersion) + ",";
    const std::string stale =
        "\"version\": " + std::to_string(serve::kPlanCacheVersion - 1) +
        ",";
    // A stale entry also carries stale stats: a read of it would show.
    const std::string transitions =
        "\"transitions_evaluated\": " + std::to_string(cold.transitions);
    std::string old = current;
    ASSERT_NE(old.find(tag), std::string::npos) << old;
    ASSERT_NE(old.find(transitions), std::string::npos) << old;
    old.replace(old.find(tag), tag.size(), stale);
    old.replace(old.find(transitions), transitions.size(),
                "\"transitions_evaluated\": " +
                    std::to_string(cold.transitions + 1));
    writeFile(entry, old);

    serve::Server fresh(opts);
    const PlanResponse replanned =
        PlanResponse::parse(runBatch(fresh, {line}).at(0));
    EXPECT_EQ(replanned.cacheOutcome, "miss");
    EXPECT_EQ(fresh.cache().stats().quarantined, 1u);
    EXPECT_EQ(replanned.planBits, cold.planBits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(replanned.commBytes),
              std::bit_cast<std::uint64_t>(cold.commBytes));
    EXPECT_EQ(replanned.transitions, cold.transitions);
    EXPECT_EQ(readEntry(), current); // overwritten at the new version

    serve::Server again(opts);
    EXPECT_EQ(PlanResponse::parse(runBatch(again, {line}).at(0))
                  .cacheOutcome,
              "hit");
}

// --- Server: hits answered at admission ------------------------------------

namespace {

/** A counter of the `cache` object of a `stats` response line. */
double
cacheCounter(const std::string &statsLine, const char *name)
{
    const serve::JsonValue v = serve::JsonValue::parse(statsLine);
    EXPECT_TRUE(v.find("ok")->asBool()) << statsLine;
    return v.find("cache")->find(name)->asNumber();
}

/** The `cache` outcome of a plan or sweep response line. */
std::string
outcomeOf(const std::string &line)
{
    const serve::JsonValue v = serve::JsonValue::parse(line);
    EXPECT_TRUE(v.find("ok")->asBool()) << line;
    return v.find("cache")->asString();
}

constexpr const char *kStats = R"({"op":"stats"})";
constexpr const char *kPlanX =
    R"({"op":"plan","model":"Lenet-c","strategy":"optimal"})";
constexpr const char *kSweepX =
    R"({"op":"sweep","model":"Lenet-c","level":1})";

} // namespace

TEST(Server, AdmissionHitsCountBeforeTheFirstControlOpOnly)
{
    TempDir tmp("serve_admission");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    std::vector<std::string> cold;
    {
        serve::Server seed(opts);
        cold = runBatch(seed, {kPlanX, kSweepX});
        ASSERT_EQ(outcomeOf(cold[0]), "miss");
        ASSERT_EQ(outcomeOf(cold[1]), "miss");
    }

    // [plan X warm, sweep X warm, stats]: the hits stand at admission,
    // the stats reply includes them, and no session is ever reserved.
    {
        serve::Server server(opts);
        const auto r = runBatch(server, {kPlanX, kSweepX, kStats});
        EXPECT_EQ(outcomeOf(r[0]), "hit");
        EXPECT_EQ(outcomeOf(r[1]), "hit");
        EXPECT_EQ(cacheCounter(r[2], "hits"), 2.0);
        EXPECT_EQ(cacheCounter(r[2], "misses"), 0.0);
        const serve::JsonValue stats = serve::JsonValue::parse(r[2]);
        EXPECT_EQ(stats.find("latency")->find("plan")->find("count")
                      ->asNumber(),
                  1.0);
        EXPECT_EQ(stats.find("sessions")->find("size")->asNumber(), 0.0);
        EXPECT_EQ(server.sessions().built(), 0u);
        EXPECT_EQ(server.sessions().reused(), 0u);

        // Byte identity with the miss, apart from the outcome.
        std::string miss = cold[0];
        miss.replace(miss.find("\"miss\""), 6, "\"hit\"");
        EXPECT_EQ(r[0], miss);
    }

    // [stats, plan X warm, stats]: the first stats reply does not
    // include the hit; the second does.
    {
        serve::Server server(opts);
        const auto r = runBatch(server, {kStats, kPlanX, kStats});
        EXPECT_EQ(cacheCounter(r[0], "hits"), 0.0);
        EXPECT_EQ(outcomeOf(r[1]), "hit");
        EXPECT_EQ(cacheCounter(r[2], "hits"), 1.0);
    }

    // [plan X warm, evict, plan X]: hit, removed, miss — the second
    // plan's admission probe hit, but it sits behind the evict.
    {
        serve::Server server(opts);
        const auto r = runBatch(
            server, {kPlanX, R"({"op":"evict"})", kPlanX, kStats});
        EXPECT_EQ(outcomeOf(r[0]), "hit");
        EXPECT_EQ(serve::JsonValue::parse(r[1]).find("removed")->asNumber(),
                  2.0);
        EXPECT_EQ(outcomeOf(r[2]), "miss");
        EXPECT_EQ(cacheCounter(r[3], "hits"), 1.0);
        EXPECT_EQ(cacheCounter(r[3], "misses"), 1.0);
        EXPECT_EQ(cacheCounter(r[3], "stores"), 1.0);
    }
}

TEST(Server, ColdPlanThenRepeatInOneBatchIsMissThenHit)
{
    TempDir tmp("serve_cold_repeat");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);
    const auto r = runBatch(server, {kPlanX, kPlanX, kSweepX, kSweepX});
    EXPECT_EQ(outcomeOf(r[0]), "miss");
    EXPECT_EQ(outcomeOf(r[1]), "hit");
    EXPECT_EQ(outcomeOf(r[2]), "miss");
    EXPECT_EQ(outcomeOf(r[3]), "hit");
    EXPECT_EQ(server.cache().stats().hits, 2u);
    EXPECT_EQ(server.cache().stats().misses, 2u);
}

TEST(Server, CorruptEntryBehindAStatsOpQuarantinesAfterIt)
{
    TempDir tmp("serve_corrupt_behind_stats");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    {
        serve::Server seed(opts);
        runBatch(seed, {kPlanX});
    }
    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().extension() == ".json")
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    writeFile(entry, "{\"truncated\":");

    // The admission probe reads the corrupt entry as a miss without a
    // trace; the quarantine happens in execution, after the stats op.
    serve::Server server(opts);
    const auto r = runBatch(server, {kStats, kPlanX});
    EXPECT_EQ(cacheCounter(r[0], "quarantined"), 0.0);
    EXPECT_EQ(outcomeOf(r[1]), "miss");
    const auto later = runBatch(server, {kStats});
    EXPECT_EQ(cacheCounter(later[0], "quarantined"), 1.0);
    EXPECT_EQ(cacheCounter(later[0], "misses"), 1.0);
}

TEST(Server, UnwritableCacheAnswersEveryRepeatAsABypass)
{
    // A failed store never fills the memo, so the repeat cannot turn
    // into a hit — at admission or in execution.
    TempDir tmp("serve_unwritable_repeat");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path / "not-a-dir";
    writeFile(opts.cacheDir, "occupied");
    serve::Server server(opts);
    for (int round = 0; round < 2; ++round) {
        const auto r = runBatch(server, {kPlanX, kPlanX, kSweepX, kSweepX});
        for (const std::string &line : r)
            EXPECT_EQ(outcomeOf(line), "bypass") << line;
    }
    EXPECT_EQ(server.cache().stats().hits, 0u);
    EXPECT_EQ(server.cache().memoSize(), 0u);
}

TEST(Server, AdmissionHitsNeverChurnTheSessionRegistry)
{
    // Regression: with two warm-session slots, a batch of hits over
    // eight other contexts used to reserve (and evict) a session per
    // context, so the next evaluate of context A rebuilt its
    // Evaluator.
    TempDir tmp("serve_hit_churn");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    opts.maxSessions = 2;
    std::vector<std::string> hits;
    for (int k = 1; k <= 8; ++k)
        hits.push_back(R"({"op":"plan","model":"Lenet-c","levels":2,)"
                       R"("batch":)" +
                       std::to_string(16 * k) + "}");
    {
        serve::Server seed(opts);
        for (const std::string &line : runBatch(seed, hits))
            ASSERT_EQ(outcomeOf(line), "miss");
    }

    serve::Server server(opts);
    const std::string evaluateA =
        R"({"op":"evaluate","model":"SFC","levels":2})";
    runBatch(server, {evaluateA});
    ASSERT_EQ(server.sessions().built(), 1u);
    const std::size_t reused = server.sessions().reused();
    for (const std::string &line : runBatch(server, hits))
        EXPECT_EQ(outcomeOf(line), "hit");
    EXPECT_EQ(server.sessions().size(), 1u);
    runBatch(server, {evaluateA});
    EXPECT_EQ(server.sessions().built(), 1u);
    EXPECT_EQ(server.sessions().reused(), reused + 1);
}

// --- Server: admission batches, coalescing, framing -------------------------

TEST(Server, BatchKeepsResponseOrderAndCoalescesSharedContexts)
{
    TempDir tmp("serve_batch");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> batch = {
        R"({"id":"e1","op":"evaluate","model":"Lenet-c"})",
        R"({"id":"bad","op":"evaluate","model":"Lenet-c","stratgy":"dp"})",
        R"({"id":"e2","op":"evaluate","model":"Lenet-c","strategy":"dp"})",
        R"({"id":"other","op":"evaluate","model":"Lenet-c","batch":128})",
    };
    const std::vector<std::string> responses = runBatch(server, batch);
    ASSERT_EQ(responses.size(), batch.size());

    // Responses come back in request order, ids and ops echoed, the
    // malformed request answered in-band in its slot. "id" and "op"
    // are extracted before the unknown-field gate, so even the bad
    // request's error response carries both.
    for (const std::size_t i : {0u, 1u, 2u, 3u}) {
        const serve::JsonValue v = serve::JsonValue::parse(responses[i]);
        ASSERT_NE(v.find("id"), nullptr) << responses[i];
        EXPECT_EQ(v.find("id")->asString(),
                  serve::JsonValue::parse(batch[i]).find("id")->asString());
        ASSERT_NE(v.find("op"), nullptr) << responses[i];
        EXPECT_EQ(v.find("op")->asString(), "evaluate");
    }
    const serve::JsonValue bad = serve::JsonValue::parse(responses[1]);
    EXPECT_FALSE(bad.find("ok")->asBool());
    EXPECT_NE(bad.find("error")->asString().find("stratgy"),
              std::string::npos);

    // e1 and e2 share a context (same model/config, different plan) and
    // coalesce into one evaluateBatch; "other" has its own context.
    const serve::JsonValue e1 = serve::JsonValue::parse(responses[0]);
    const serve::JsonValue e2 = serve::JsonValue::parse(responses[2]);
    const serve::JsonValue other = serve::JsonValue::parse(responses[3]);
    EXPECT_EQ(e1.find("batched")->asNumber(), 2.0);
    EXPECT_EQ(e2.find("batched")->asNumber(), 2.0);
    EXPECT_EQ(other.find("batched")->asNumber(), 1.0);
    EXPECT_EQ(e1.find("context_hash")->asString(),
              e2.find("context_hash")->asString());
    EXPECT_NE(e1.find("context_hash")->asString(),
              other.find("context_hash")->asString());
    EXPECT_EQ(server.stats().coalesced, 2u);
    EXPECT_EQ(server.stats().errors, 1u);

    // Coalesced metrics are bit-identical to a direct evaluation.
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const sim::StepMetrics direct =
        evaluator.evaluate(core::makeHyparPlan(evaluator.model(), 4));
    EXPECT_EQ(e1.find("metrics")->find("step_seconds")->asNumber(),
              direct.stepSeconds);
    EXPECT_EQ(e1.find("metrics")->find("comm_bytes")->asNumber(),
              direct.commBytes);
    EXPECT_EQ(e1.find("metrics")
                  ->find("energy")
                  ->find("total_j")
                  ->asNumber(),
              direct.energy.totalJ());
}

TEST(Server, ExplicitPlanAndSteadyStateEvaluate)
{
    TempDir tmp("serve_explicit");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const core::HierarchicalPlan dp = core::makeDataParallelPlan(
        evaluator.network(), 4);
    std::string planJson = "[";
    for (std::size_t h = 0; h < dp.levels.size(); ++h)
        planJson += std::string(h ? "," : "") + '"' +
                    core::toBitString(dp.levels[h]) + '"';
    planJson += "]";

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"evaluate","model":"Lenet-c","plan":)" + planJson + "}",
         R"({"op":"evaluate","model":"Lenet-c","plan":)" + planJson +
             R"(,"steps":5})"});
    const serve::JsonValue one = serve::JsonValue::parse(responses[0]);
    const serve::JsonValue steady = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(one.find("ok")->asBool()) << responses[0];
    EXPECT_TRUE(steady.find("ok")->asBool()) << responses[1];
    EXPECT_EQ(one.find("metrics")->find("step_seconds")->asNumber(),
              evaluator.evaluate(dp).stepSeconds);
    EXPECT_EQ(steady.find("steps")->asNumber(), 5.0);
    EXPECT_EQ(steady.find("metrics")->find("step_seconds")->asNumber(),
              evaluator.evaluateSteadyState(dp, 5).stepSeconds);
}

TEST(Server, SweepFindsTheLevelOptimum)
{
    TempDir tmp("serve_sweep");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"sweep","model":"Lenet-c","level":1})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    ASSERT_TRUE(v.find("ok")->asBool()) << responses.at(0);

    // The sweep visits all 2^L masks and its winner matches a direct
    // argmin over sweepNeighborhood.
    const sim::Evaluator evaluator(dnn::modelByName("Lenet-c"),
                                   sim::SimConfig{});
    const core::HierarchicalPlan base =
        core::makeHyparPlan(evaluator.model(), 4);
    EXPECT_EQ(v.find("evaluated")->asNumber(),
              static_cast<double>(std::uint64_t{1} << base.numLayers()));
    std::uint64_t bestMask = 0;
    double bestSeconds = 0.0;
    std::size_t seen = 0;
    evaluator.sweepNeighborhood(
        base, 1, [&](std::uint64_t mask, const sim::StepMetrics &m) {
            if (seen == 0 || m.stepSeconds < bestSeconds) {
                bestMask = mask;
                bestSeconds = m.stepSeconds;
            }
            ++seen;
        });
    EXPECT_EQ(v.find("best_mask")->asNumber(),
              static_cast<double>(bestMask));
    EXPECT_EQ(v.find("metrics")->find("step_seconds")->asNumber(),
              bestSeconds);
}

TEST(Server, RunFramesBatchesOnBlankLinesAndShutsDown)
{
    TempDir tmp("serve_run");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    std::istringstream in(
        R"({"op":"plan","model":"Lenet-c"})" "\n"
        "\n" // admission barrier
        "  \t\r\n" // still blank
        R"({"op":"stats"})" "\n"
        R"({"op":"shutdown"})" "\n"
        "\n" // flushes the batch whose shutdown ends the loop
        R"({"op":"plan","model":"Lenet-c"})" "\n"); // never admitted
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);

    // plan / stats / shutdown answered; the post-shutdown request is
    // never admitted.
    ASSERT_EQ(responses.size(), 3u);
    const serve::JsonValue stats = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(stats.find("ok")->asBool());
    EXPECT_EQ(stats.find("server")->find("batches")->asNumber(), 2.0);
    EXPECT_EQ(stats.find("cache")->find("stores")->asNumber(), 1.0);
    EXPECT_EQ(stats.find("sessions")->find("built")->asNumber(), 1.0);
    EXPECT_TRUE(serve::JsonValue::parse(responses[2]).find("ok")->asBool());
}

TEST(Server, EvictOpClearsTheCache)
{
    TempDir tmp("serve_evict");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    runBatch(server, {R"({"op":"plan","model":"Lenet-c"})"});
    const std::vector<std::string> responses =
        runBatch(server, {R"({"op":"evict"})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    EXPECT_TRUE(v.find("ok")->asBool());
    EXPECT_EQ(v.find("removed")->asNumber(), 1.0);
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(Server, MalformedRequestsAnswerInBand)
{
    TempDir tmp("serve_errors");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {"not json",
         R"({"op":"plan"})",                        // no network
         R"({"op":"plan","model":"x","spec":"y"})", // both
         R"({"op":"bogus","model":"Lenet-c"})",
         R"({"op":"plan","model":"no-such-model"})",
         R"({"op":"sweep","model":"Lenet-c"})",     // missing level
         R"({"op":"evaluate","model":"Lenet-c","plan":["01"]})",
         R"({"op":"plan","model":"Lenet-c","topology":"ring"})"});
    for (const std::string &line : responses) {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        EXPECT_FALSE(v.find("ok")->asBool()) << line;
        EXPECT_NE(v.find("error"), nullptr) << line;
    }
    EXPECT_EQ(server.stats().errors, responses.size());
}

// A hostile line of 200 000 '[' used to overflow the recursive-descent
// parser's stack and kill the process. It must answer one in-band
// error line, and the request after it must still be served.
TEST(Server, DeeplyNestedJsonAnswersInBandAndKeepsServing)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    std::istringstream in(std::string(200000, '[') + "\n" +
                          R"({"op":"stats"})" "\n");
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);
    ASSERT_EQ(responses.size(), 2u);
    const serve::JsonValue deep = serve::JsonValue::parse(responses[0]);
    EXPECT_FALSE(deep.find("ok")->asBool());
    EXPECT_NE(deep.find("error")->asString().find("nesting"),
              std::string::npos)
        << responses[0];
    const serve::JsonValue stats = serve::JsonValue::parse(responses[1]);
    EXPECT_TRUE(stats.find("ok")->asBool()) << responses[1];
    EXPECT_EQ(stats.find("server")->find("errors")->asNumber(), 1.0);
}

// A request line may not grow the server's buffer without bound: past
// kMaxLineBytes the rest of the line is dropped and the slot answers
// in-band; the next request is still served.
TEST(Server, OverlongLineAnswersInBandAndKeepsServing)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    const std::string stats = R"({"op":"stats"})";
    // Exactly at the limit is accepted: leading JSON whitespace.
    const std::string atLimit =
        std::string(serve::kMaxLineBytes - stats.size(), ' ') + stats;
    const std::string overLimit =
        std::string(serve::kMaxLineBytes + 4096, ' ') + stats;
    std::istringstream in(atLimit + "\n" + overLimit + "\n" + stats +
                          "\n");
    std::ostringstream out;
    EXPECT_EQ(server.run(in, out), 0);

    std::vector<std::string> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        responses.push_back(line);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_TRUE(serve::JsonValue::parse(responses[0]).find("ok")->asBool())
        << responses[0];
    const serve::JsonValue over = serve::JsonValue::parse(responses[1]);
    EXPECT_FALSE(over.find("ok")->asBool());
    EXPECT_NE(over.find("error")->asString().find(
                  std::to_string(serve::kMaxLineBytes) + " bytes"),
              std::string::npos)
        << responses[1];
    const serve::JsonValue last = serve::JsonValue::parse(responses[2]);
    EXPECT_TRUE(last.find("ok")->asBool()) << responses[2];
    EXPECT_EQ(last.find("server")->find("errors")->asNumber(), 1.0);
}

TEST(Server, StepsAreCapped)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    const std::string evaluate =
        R"({"op":"evaluate","model":"Lenet-c","steps":)";
    const std::vector<std::string> responses = runBatch(
        server, {evaluate + std::to_string(serve::kMaxSteps) + "}",
                 evaluate + std::to_string(serve::kMaxSteps + 1) + "}"});
    ASSERT_EQ(responses.size(), 2u);
    const serve::JsonValue at_cap = serve::JsonValue::parse(responses[0]);
    EXPECT_TRUE(at_cap.find("ok")->asBool()) << responses[0];
    EXPECT_EQ(at_cap.find("steps")->asNumber(),
              static_cast<double>(serve::kMaxSteps));
    const serve::JsonValue over = serve::JsonValue::parse(responses[1]);
    EXPECT_FALSE(over.find("ok")->asBool());
    EXPECT_NE(over.find("error")->asString().find("at most"),
              std::string::npos)
        << responses[1];
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(Server, ErrorResponsesEchoTheOpWhenItParsed)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"plan"})",                    // parsed op, no network
         R"({"op":"sweep","model":"Lenet-c"})", // parsed op, no level
         "not json",                            // op never parsed
         R"({"model":"Lenet-c"})"});            // object without an op
    const serve::JsonValue plan = serve::JsonValue::parse(responses[0]);
    EXPECT_FALSE(plan.find("ok")->asBool());
    ASSERT_NE(plan.find("op"), nullptr) << responses[0];
    EXPECT_EQ(plan.find("op")->asString(), "plan");
    const serve::JsonValue sweep = serve::JsonValue::parse(responses[1]);
    ASSERT_NE(sweep.find("op"), nullptr) << responses[1];
    EXPECT_EQ(sweep.find("op")->asString(), "sweep");
    // When no op ever parsed there is nothing to echo — the error
    // response simply omits the field instead of inventing one.
    EXPECT_EQ(serve::JsonValue::parse(responses[2]).find("op"), nullptr);
    EXPECT_EQ(serve::JsonValue::parse(responses[3]).find("op"), nullptr);
}

TEST(Server, RetiredSearchFieldsAreRejectedInBand)
{
    // beam_width and width_hint left the schema with the beam engine,
    // and engine left it once the partitioner picked its own: each is
    // an unknown field now, whatever its value. Each answers ok:false;
    // the server carries on with the next request.
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);
    const std::vector<std::string> responses = runBatch(
        server,
        {R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
         R"("beam_width":32})",
         R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
         R"("width_hint":8})",
         R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
         R"("engine":"beam"})",
         R"({"op":"plan","model":"Lenet-c","strategy":"optimal",)"
         R"("engine":"astar"})",
         R"({"op":"plan","model":"Lenet-c","strategy":"optimal"})"});
    ASSERT_EQ(responses.size(), 5u);
    const char *expected[] = {"unknown request field 'beam_width'",
                              "unknown request field 'width_hint'",
                              "unknown request field 'engine'",
                              "unknown request field 'engine'"};
    for (std::size_t i = 0; i < 4; ++i) {
        const serve::JsonValue v = serve::JsonValue::parse(responses[i]);
        EXPECT_FALSE(v.find("ok")->asBool()) << responses[i];
        EXPECT_NE(v.find("error")->asString().find(expected[i]),
                  std::string::npos)
            << responses[i];
    }
    EXPECT_TRUE(serve::JsonValue::parse(responses[4]).find("ok")->asBool())
        << responses[4];
    EXPECT_EQ(server.stats().errors, 4u);
}

TEST(Server, RejectedRequestsNeverTouchTheSessionRegistry)
{
    // Satellite of the admission fix: a request that answers with an
    // in-band error must not build a session — and, worse, must not
    // evict a warm one. Whole-request validation runs before the LRU
    // is touched.
    serve::ServeOptions opts;
    opts.noCache = true;
    opts.maxSessions = 1; // a single zombie admission would evict
    serve::Server server(opts);

    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})"});
    ASSERT_EQ(server.sessions().built(), 1u);
    const std::size_t reused = server.sessions().reused();

    const std::vector<std::string> responses = runBatch(
        server,
        {// same context, but the plan bits fail validation
         R"({"op":"evaluate","model":"Lenet-c","plan":["01"]})",
         // bad fault map: node id out of range for 2^4 nodes
         R"({"op":"evaluate","model":"Lenet-c",)"
         R"("faults":{"nodes":[[99,0.5]]}})",
         // distinct context that would evict, but the strategy is bad
         R"({"op":"evaluate","model":"SFC","strategy":"bogus"})",
         // distinct context carrying an unknown field
         R"({"op":"plan","model":"SFC","strategy":"optimal",)"
         R"("engine":"astar"})"});
    for (const std::string &line : responses)
        EXPECT_FALSE(serve::JsonValue::parse(line).find("ok")->asBool())
            << line;
    EXPECT_EQ(server.sessions().built(), 1u);   // nothing new built
    EXPECT_EQ(server.sessions().reused(), reused); // nothing touched
    EXPECT_EQ(server.sessions().size(), 1u);

    // The warm session survived: the next good request reuses it.
    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})"});
    EXPECT_EQ(server.sessions().built(), 1u);
    EXPECT_EQ(server.sessions().reused(), reused + 1);
}

TEST(Server, SweepResultsArePersistedInTheCache)
{
    TempDir tmp("serve_sweep_cache");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    const std::string line =
        R"({"op":"sweep","model":"Lenet-c","level":1})";

    serve::Server server(opts);
    const serve::JsonValue cold =
        serve::JsonValue::parse(runBatch(server, {line}).at(0));
    ASSERT_TRUE(cold.find("ok")->asBool());
    EXPECT_EQ(cold.find("cache")->asString(), "miss");

    // A fresh server (no warm session) answers from disk,
    // byte-identically — without ever building an Evaluator.
    serve::Server fresh(opts);
    const std::vector<std::string> warmLines = runBatch(fresh, {line});
    const serve::JsonValue warm =
        serve::JsonValue::parse(warmLines.at(0));
    EXPECT_EQ(warm.find("cache")->asString(), "hit");
    EXPECT_EQ(fresh.sessions().built(), 0u);
    EXPECT_EQ(warm.find("best_mask")->asNumber(),
              cold.find("best_mask")->asNumber());
    EXPECT_EQ(warm.find("best_bits")->asString(),
              cold.find("best_bits")->asString());
    EXPECT_EQ(warm.find("metrics")->find("step_seconds")->asNumber(),
              cold.find("metrics")->find("step_seconds")->asNumber());

    // Corrupting the sweep entry quarantines and re-sweeps in band,
    // exactly like plan entries.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(tmp.path))
        if (e.path().string().ends_with(".sweep.json"))
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    writeFile(entry, "{\"evaluated\":");
    serve::Server again(opts);
    const serve::JsonValue reswept =
        serve::JsonValue::parse(runBatch(again, {line}).at(0));
    EXPECT_EQ(reswept.find("cache")->asString(), "miss");
    EXPECT_EQ(again.cache().stats().quarantined, 1u);
    EXPECT_EQ(reswept.find("best_mask")->asNumber(),
              cold.find("best_mask")->asNumber());
}

TEST(Server, MaxSessionBytesEvictsByResidentSize)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server unlimited(opts);
    const auto req = [](const char *model) {
        return std::string(R"({"op":"evaluate","model":")") + model +
               R"(","strategy":"dp","levels":2})";
    };
    runBatch(unlimited, {req("Lenet-c")});
    const std::size_t oneSession = unlimited.sessions().totalBytes();
    ASSERT_GT(oneSession, 0u);

    // A budget that holds one session but not two: the second context
    // evicts the first at the end of its batch.
    serve::ServeOptions tight = opts;
    tight.maxSessionBytes = oneSession + oneSession / 2;
    serve::Server server(tight);
    EXPECT_EQ(server.sessions().maxBytes(), tight.maxSessionBytes);
    runBatch(server, {req("Lenet-c")});
    EXPECT_EQ(server.sessions().size(), 1u);
    runBatch(server, {req("SFC")});
    EXPECT_EQ(server.sessions().size(), 1u); // evicted by bytes
    EXPECT_EQ(server.sessions().built(), 2u);
    EXPECT_LE(server.sessions().totalBytes(), tight.maxSessionBytes);

    // The budget never evicts below one session, however small.
    serve::ServeOptions tiny = opts;
    tiny.maxSessionBytes = 1;
    serve::Server floor(tiny);
    runBatch(floor, {req("Lenet-c")});
    EXPECT_EQ(floor.sessions().size(), 1u);
}

TEST(Server, StatsReportsPerOpLatencyHistograms)
{
    serve::ServeOptions opts;
    opts.noCache = true;
    serve::Server server(opts);

    runBatch(server, {R"({"op":"evaluate","model":"Lenet-c"})",
                      R"({"op":"evaluate","model":"Lenet-c","steps":2})"});
    const std::vector<std::string> responses =
        runBatch(server, {R"({"op":"stats"})"});
    const serve::JsonValue v = serve::JsonValue::parse(responses.at(0));
    ASSERT_TRUE(v.find("ok")->asBool());

    const serve::JsonValue *latency = v.find("latency");
    ASSERT_NE(latency, nullptr);
    for (const char *op : serve::Server::kOps)
        ASSERT_NE(latency->find(op), nullptr) << op;
    EXPECT_EQ(latency->find("evaluate")->find("count")->asNumber(), 2.0);
    EXPECT_EQ(latency->find("plan")->find("count")->asNumber(), 0.0);
    EXPECT_GT(latency->find("evaluate")->find("p99_us")->asNumber(), 0.0);
    EXPECT_LE(latency->find("evaluate")->find("p50_us")->asNumber(),
              latency->find("evaluate")->find("p99_us")->asNumber());

    // The registry's byte accounting is visible alongside.
    EXPECT_GT(v.find("sessions")->find("bytes")->asNumber(), 0.0);
    EXPECT_EQ(v.find("sessions")->find("max_bytes")->asNumber(), 0.0);

    // Histograms accumulate at serial points — the stats op itself is
    // timed too, so a second stats call sees the first.
    const serve::JsonValue second = serve::JsonValue::parse(
        runBatch(server, {R"({"op":"stats"})"}).at(0));
    EXPECT_EQ(second.find("latency")
                  ->find("stats")
                  ->find("count")
                  ->asNumber(),
              1.0);
}

// --- DAG canonicalization ---------------------------------------------------

namespace {

/** A small DAG spec: stem -> {a, b} -> join, then an fc head. */
constexpr const char *kDagSpec =
    "network dag\n"
    "input 1 8 8\n"
    "conv stem 4 3 pad 1\n"
    "conv a 4 3 pad 1\n"
    "conv b 4 3 pad 1\n"
    "edge stem b\n"
    "conv join 4 3 pad 1\n"
    "edge a join\n"
    "edge b join\n"
    "fc f1 10\n";

/** Same network, edge directives in a different order and position. */
constexpr const char *kDagSpecShuffledEdges =
    "network dag\n"
    "input 1 8 8\n"
    "conv stem 4 3 pad 1\n"
    "conv a 4 3 pad 1\n"
    "conv b 4 3 pad 1\n"
    "conv join 4 3 pad 1\n"
    "fc f1 10\n"
    "edge b join\n"
    "edge stem b\n"
    "edge a join\n";

} // namespace

TEST(Canonical, ChainHashesArePinnedAcrossTheDagGeneralization)
{
    // Golden hashes. The context hash was captured before DAG support
    // landed: chain specs canonicalize without edge lines, so context
    // keys must never move — a warm session registry filled by a
    // pre-DAG build keeps hitting. If the first expectation fails,
    // kCanonicalVersion was effectively broken for every deployment.
    // The plan hash was re-pinned when width_hint left the key text
    // (kPlanCacheVersion 2). The beam engine's retirement kept it (its
    // knobs render as constants), and so did kPlanCacheVersion 3, which
    // moved the stored search stats but not the key text.
    const dnn::Network net = dnn::makeLenetC();
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::contextHash(net, cfg),
              "6aacb02bd566f49eea451ce9e7ab0723"
              "e7183076aa4f0a0fd0e21f9a1db2fad9");
    EXPECT_EQ(serve::planHash(net, cfg, "optimal", core::SearchOptions{}),
              "c89e508e8dee83c5059877a1e5dfb4d4"
              "d41b9f8fa62c4061aef9ab7248071ab9");
}

TEST(Canonical, DagEdgeOrderDoesNotForkTheKey)
{
    // toSpec() renders edges in canonical (destination, source)
    // order, so the directive order of the client's spec is invisible
    // to the cache key — same invariance the fault list has.
    const dnn::Network a = dnn::parseNetworkSpec(kDagSpec);
    const dnn::Network b = dnn::parseNetworkSpec(kDagSpecShuffledEdges);
    const sim::SimConfig cfg;
    EXPECT_EQ(serve::canonicalContext(a, cfg),
              serve::canonicalContext(b, cfg));
    EXPECT_EQ(serve::contextHash(a, cfg), serve::contextHash(b, cfg));

    // But the wiring itself *is* keyed: dropping the skip edge (so the
    // layers chain) must fork the key.
    const dnn::Network chain = dnn::parseNetworkSpec(
        "network dag\n"
        "input 1 8 8\n"
        "conv stem 4 3 pad 1\n"
        "conv a 4 3 pad 1\n"
        "conv b 4 3 pad 1\n"
        "conv join 4 3 pad 1\n"
        "fc f1 10\n");
    EXPECT_NE(serve::contextHash(chain, cfg), serve::contextHash(a, cfg));
}

TEST(Server, CachedDagPlanRoundTripsBitIdentically)
{
    // End-to-end on a DAG model: a cold "optimal" search goes through
    // the series-parallel engine, is stored, and a fresh server over
    // the same cache directory replays it bit for bit.
    TempDir tmp("serve_dag");
    serve::ServeOptions opts;
    opts.cacheDir = tmp.path;
    const std::string request =
        R"({"op":"plan","model":"ResNet-block","strategy":"optimal",)"
        R"("levels":3})";

    serve::Server cold(opts);
    const PlanResponse first =
        PlanResponse::parse(runBatch(cold, {request}).at(0));
    EXPECT_EQ(first.cacheOutcome, "miss");
    EXPECT_TRUE(first.certified);

    serve::Server warm(opts);
    const PlanResponse second =
        PlanResponse::parse(runBatch(warm, {request}).at(0));
    EXPECT_EQ(second.cacheOutcome, "hit");
    EXPECT_EQ(second.planBits, first.planBits);
    EXPECT_EQ(second.commBytes, first.commBytes); // exact doubles
    EXPECT_EQ(second.transitions, first.transitions);
    EXPECT_EQ(second.widthUsed, first.widthUsed);
    EXPECT_TRUE(second.certified);

    // And the replayed cost is the series-parallel optimum.
    const dnn::Network net = dnn::makeResNetBlock();
    const core::CommModel model(net, core::CommConfig{});
    const auto direct = core::OptimalPartitioner(model).partition(3);
    EXPECT_EQ(first.commBytes, direct.commBytes);
}
