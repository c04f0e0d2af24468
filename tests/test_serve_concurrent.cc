/**
 * @file
 * Concurrent-serving differential: the tentpole guarantee of the
 * parallel batch executor is that every response byte is identical to
 * serial execution. This suite replays seeded randomized client
 * traffic — zoo models, inline specs, DAGs, malformed lines, control
 * ops, interleaved admission batches — through servers whose injected
 * pools have 0, 1, and 7 workers, and compares the transcripts
 * byte for byte. Only the `stats` op's cache directory (distinct per
 * server) and latency object (inherently timing-dependent) are masked.
 *
 * CI runs this by name under ASan/UBSan and TSan; the latter is the
 * gate that the per-session mutexes and serial counter folds actually
 * cover every shared write.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/optimal_partitioner.hh"
#include "dnn/model_zoo.hh"
#include "serve/json.hh"
#include "serve/server.hh"
#include "sim/robust.hh"
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
               ("hyparc_conc_" + tag + "_" +
                std::to_string(static_cast<unsigned>(::getpid()))))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

/** A DAG spec, escaped for embedding in a request line. */
const std::string kDagSpecJson = serve::jsonEscape(
    "network dag\n"
    "input 1 8 8\n"
    "conv stem 4 3 pad 1\n"
    "conv a 4 3 pad 1\n"
    "conv b 4 3 pad 1\n"
    "edge stem b\n"
    "conv join 4 3 pad 1\n"
    "edge a join\n"
    "edge b join\n"
    "fc f1 10\n");

/**
 * Mask the two legitimately server-specific parts of a `stats`
 * response: the cache directory value and the trailing latency
 * object. Every other byte of every response must match exactly.
 */
std::string
masked(std::string line)
{
    const std::size_t dir = line.find("\"dir\":\"");
    if (dir != std::string::npos) {
        std::size_t end = dir + 7;
        while (end < line.size() && line[end] != '"') {
            if (line[end] == '\\')
                ++end;
            ++end;
        }
        line.erase(dir + 7, end - (dir + 7));
    }
    const std::size_t lat = line.find(",\"latency\":");
    if (lat != std::string::npos)
        line.erase(lat); // trailing object (server.cc keeps it last)
    return line;
}

/**
 * Seeded traffic generator: one admission batch of mixed requests.
 * Everything is drawn from the same engine, so all servers replay the
 * exact same byte stream. `history` carries the plan/sweep request
 * bodies of earlier batches: re-sending them makes admission hits
 * (and, after an `evict`, misses again) common on every side of a
 * control op.
 */
std::vector<std::string>
makeBatch(std::mt19937 &rng, std::size_t size,
          std::vector<std::string> &history)
{
    static const char *models[] = {"Lenet-c", "SFC"};
    static const char *strategies[] = {"hypar", "dp", "mp", "owt",
                                       "optimal"};
    std::vector<std::string> batch;
    std::uniform_int_distribution<int> pick(0, 99);
    std::size_t id = 0;
    while (batch.size() < size) {
        const int roll = pick(rng);
        const std::string model = models[pick(rng) % 2];
        const std::string strategy = strategies[pick(rng) % 5];
        const std::size_t levels = 2 + pick(rng) % 2; // 2 or 3
        const std::string idField =
            "\"id\":\"r" + std::to_string(id++) + "\",";
        std::string head = "{" + idField + "\"op\":";
        if (roll < 35) {
            std::string line = head + "\"evaluate\",\"model\":\"" + model +
                               "\",\"strategy\":\"" + strategy +
                               "\",\"levels\":" + std::to_string(levels);
            if (pick(rng) < 25)
                line += ",\"steps\":3";
            if (pick(rng) < 30)
                line += ",\"batch\":128";
            batch.push_back(line + "}");
        } else if (roll < 48) {
            history.push_back("\"plan\",\"model\":\"" + model +
                              "\",\"strategy\":\"" + strategy +
                              "\",\"levels\":" + std::to_string(levels) +
                              "}");
            batch.push_back(head + history.back());
        } else if (roll < 56) {
            history.push_back("\"sweep\",\"model\":\"" + model +
                              "\",\"levels\":" + std::to_string(levels) +
                              ",\"level\":" +
                              std::to_string(pick(rng) %
                                             static_cast<int>(levels)) +
                              "}");
            batch.push_back(head + history.back());
        } else if (roll < 66) {
            // A plan or sweep sent before: usually a cache hit.
            if (history.empty())
                continue;
            batch.push_back(head + history[pick(rng) % history.size()]);
        } else if (roll < 74) {
            // DAG traffic through an inline spec.
            batch.push_back(head + "\"evaluate\",\"spec\":\"" +
                            kDagSpecJson + "\",\"levels\":2}");
        } else if (roll < 78) {
            batch.push_back(head + "\"stats\"}");
        } else if (roll < 80) {
            batch.push_back(head + "\"evict\"}");
        } else if (roll < 90) {
            // In-band errors: these must land in their slot, leave the
            // registry untouched, and never poison a neighbor.
            static const char *bad[] = {
                "not json",
                R"({"op":"plan"})",
                R"({"op":"evaluate","model":"Lenet-c","stratgy":"dp"})",
                R"({"op":"plan","model":"no-such-model"})",
                R"({"op":"sweep","model":"Lenet-c"})",
            };
            batch.push_back(bad[pick(rng) % 5]);
        } else {
            // Explicit-plan evaluate (all-DP bits, always valid).
            const dnn::Network net = dnn::modelByName(model);
            const std::string row(net.size(), pick(rng) < 50 ? '0' : '1');
            std::string plan = "[";
            for (std::size_t h = 0; h < levels; ++h)
                plan += std::string(h ? "," : "") + '"' + row + '"';
            plan += "]";
            batch.push_back(head + "\"evaluate\",\"model\":\"" + model +
                            "\",\"levels\":" + std::to_string(levels) +
                            ",\"plan\":" + plan + "}");
        }
    }
    return batch;
}

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

/**
 * Holds the process pool busy: one top-level parallelFor from its own
 * thread whose chunks — one per pool thread — wait until release().
 * While it runs, the pool's workers are all taken and its submission
 * mutex is held, so any other top-level call on it waits too.
 */
class ProcessPoolHolder
{
  public:
    ProcessPoolHolder()
        : holder_([this] {
              util::ThreadPool &pool = util::ThreadPool::global();
              pool.parallelFor(0, pool.parallelism(), 1,
                               [this](std::size_t, std::size_t) {
                                   entered_.fetch_add(1);
                                   std::unique_lock<std::mutex> lock(mu_);
                                   cv_.wait(lock, [this] { return released_; });
                               });
          })
    {
        while (entered_.load() == 0)
            std::this_thread::yield();
    }

    ~ProcessPoolHolder()
    {
        release();
        holder_.join();
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            released_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
    std::atomic<std::size_t> entered_{0};
    std::thread holder_;
};

} // namespace

TEST(ServeConcurrent, PrivatePoolWorkNeverWaitsOnTheProcessPool)
{
    // The pool a front end hands in is the only pool its request runs
    // on: with the process pool held busy, a robust plan, an optimal
    // search and a server batch on a private serial pool still finish.
    if (util::ThreadPool::global().parallelism() == 1)
        GTEST_SKIP() << "a 0-worker process pool runs every call inline";
    TempDir tmp("private_pool");
    util::ThreadPool serial(0);
    ProcessPoolHolder busy;

    auto finishes = [&](const char *what, const std::function<void()> &call) {
        std::future<void> done = std::async(std::launch::async, call);
        if (done.wait_for(std::chrono::seconds(10)) !=
            std::future_status::ready) {
            busy.release();
            done.get();
            ADD_FAILURE() << what << " waited on the process pool";
            return;
        }
        done.get();
    };

    const dnn::Network lenet = dnn::makeLenetC();
    finishes("robustPlan", [&] {
        sim::RobustOptions opts;
        opts.rate = 0.2;
        opts.samples = 3;
        const sim::RobustResult r =
            sim::robustPlan(lenet, sim::SimConfig{}, opts, serial);
        EXPECT_EQ(r.sampleMaps.size(), 3u);
    });
    finishes("an H = 8 optimal search", [&] {
        const core::CommModel model(lenet, core::CommConfig{});
        const core::HierarchicalResult r =
            core::OptimalPartitioner(model, serial).partition(8);
        EXPECT_EQ(r.plan.numLevels(), 8u);
    });
    finishes("a server batch", [&] {
        serve::ServeOptions opts;
        opts.cacheDir = tmp.path;
        opts.noCache = true;
        opts.pool = &serial;
        serve::Server server(opts);
        const std::vector<std::string> out = runBatch(
            server,
            {R"({"op":"plan","model":"Lenet-c","levels":8,)"
             R"("strategy":"optimal"})",
             R"({"op":"evaluate","model":"SFC","levels":8})",
             R"({"op":"sweep","model":"Lenet-c","levels":8,"level":0})"});
        ASSERT_EQ(out.size(), 3u);
        for (const std::string &line : out)
            EXPECT_TRUE(serve::JsonValue::parse(line).find("ok")->asBool())
                << line;
    });
}

TEST(ServeConcurrent, RandomTrafficIsByteIdenticalAcrossThreadCounts)
{
    // Same seeded traffic through three servers that differ only in
    // pool size (0 workers = strictly serial inline execution). The
    // masked transcripts — and every observable counter — must agree.
    constexpr std::size_t kWorkers[] = {0, 1, 7};
    constexpr std::size_t kBatches = 32;
    constexpr std::size_t kBatchSize = 9;

    std::vector<std::vector<std::string>> traffic;
    std::vector<std::string> history;
    std::mt19937 rng(20260808);
    for (std::size_t b = 0; b < kBatches; ++b)
        traffic.push_back(makeBatch(rng, kBatchSize, history));

    std::vector<std::vector<std::string>> transcripts;
    std::vector<serve::ServeStats> stats;
    std::vector<serve::PlanCacheStats> cacheStats;
    for (const std::size_t workers : kWorkers) {
        TempDir tmp("w" + std::to_string(workers));
        util::ThreadPool pool(workers);
        serve::ServeOptions opts;
        opts.cacheDir = tmp.path;
        opts.pool = &pool;
        serve::Server server(opts);
        std::vector<std::string> transcript;
        for (const std::vector<std::string> &batch : traffic)
            for (std::string &line : runBatch(server, batch))
                transcript.push_back(masked(std::move(line)));
        transcripts.push_back(std::move(transcript));
        stats.push_back(server.stats());
        cacheStats.push_back(server.cache().stats());
    }

    ASSERT_EQ(transcripts[0].size(), kBatches * kBatchSize);
    for (std::size_t s = 1; s < transcripts.size(); ++s) {
        ASSERT_EQ(transcripts[s].size(), transcripts[0].size());
        for (std::size_t i = 0; i < transcripts[0].size(); ++i)
            EXPECT_EQ(transcripts[s][i], transcripts[0][i])
                << "response " << i << " diverged at "
                << kWorkers[s] << " workers";
        EXPECT_EQ(stats[s].requests, stats[0].requests);
        EXPECT_EQ(stats[s].errors, stats[0].errors);
        EXPECT_EQ(stats[s].coalesced, stats[0].coalesced);
        EXPECT_EQ(cacheStats[s].hits, cacheStats[0].hits);
        EXPECT_EQ(cacheStats[s].misses, cacheStats[0].misses);
        EXPECT_EQ(cacheStats[s].stores, cacheStats[0].stores);
    }
    // The traffic mix actually exercised the interesting paths: errors,
    // coalescing, cache hits, and an evict among plans and sweeps.
    EXPECT_GT(stats[0].errors, 0u);
    EXPECT_GT(stats[0].coalesced, 0u);
    EXPECT_GT(cacheStats[0].hits, 0u);
    std::size_t evicts = 0;
    for (const std::vector<std::string> &batch : traffic)
        for (const std::string &line : batch)
            evicts += line.find("\"op\":\"evict\"") != std::string::npos;
    EXPECT_GT(evicts, 0u);
}

TEST(ServeConcurrent, MemoryBudgetedRegistryStaysDeterministic)
{
    // Byte-budget eviction happens at the end-of-batch serial point,
    // so it too must be invisible to the thread count.
    constexpr std::size_t kWorkers[] = {0, 7};

    std::vector<std::vector<std::string>> traffic;
    std::vector<std::string> history;
    std::mt19937 rng(42);
    for (std::size_t b = 0; b < 6; ++b)
        traffic.push_back(makeBatch(rng, 6, history));

    std::vector<std::vector<std::string>> transcripts;
    std::vector<std::size_t> built;
    for (const std::size_t workers : kWorkers) {
        TempDir tmp("budget_w" + std::to_string(workers));
        util::ThreadPool pool(workers);
        serve::ServeOptions opts;
        opts.cacheDir = tmp.path;
        opts.pool = &pool;
        opts.maxSessionBytes = 1; // evict down to one session per batch
        serve::Server server(opts);
        std::vector<std::string> transcript;
        for (const std::vector<std::string> &batch : traffic)
            for (std::string &line : runBatch(server, batch))
                transcript.push_back(masked(std::move(line)));
        EXPECT_EQ(server.sessions().size(), 1u);
        transcripts.push_back(std::move(transcript));
        built.push_back(server.sessions().built());
    }
    EXPECT_EQ(transcripts[0], transcripts[1]);
    EXPECT_EQ(built[0], built[1]);
    EXPECT_GT(built[0], 6u); // the tight budget really forced rebuilds
}

TEST(ServeConcurrent, SharedContextsSerializeOnTheSessionMutex)
{
    // A batch whose every request shares one context is the worst case
    // for the per-session lock: one group, fully serialized, still
    // byte-identical and still coalescing its single-step evaluates.
    TempDir tmpSerial("shared_serial");
    TempDir tmpParallel("shared_parallel");
    util::ThreadPool serial(0);
    util::ThreadPool parallel(7);

    std::vector<std::string> batch;
    for (int i = 0; i < 12; ++i)
        batch.push_back(
            R"({"id":"c)" + std::to_string(i) +
            R"(","op":"evaluate","model":"Lenet-c"})");

    serve::ServeOptions a;
    a.cacheDir = tmpSerial.path;
    a.pool = &serial;
    serve::Server serverA(a);
    serve::ServeOptions b;
    b.cacheDir = tmpParallel.path;
    b.pool = &parallel;
    serve::Server serverB(b);

    const std::vector<std::string> outA = runBatch(serverA, batch);
    const std::vector<std::string> outB = runBatch(serverB, batch);
    EXPECT_EQ(outA, outB);
    EXPECT_EQ(serverA.stats().coalesced, 12u);
    EXPECT_EQ(serverB.stats().coalesced, 12u);
    EXPECT_EQ(serverB.sessions().built(), 1u);
    for (const std::string &line : outB) {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        EXPECT_TRUE(v.find("ok")->asBool()) << line;
        EXPECT_EQ(v.find("batched")->asNumber(), 12.0);
    }
}
