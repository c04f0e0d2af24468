/**
 * @file
 * Serving-tier latency: cold plan request (content-hash the context,
 * build the warm session's CommModel tables, run the joint search)
 * versus a warm cache hit (the same request answered bit-identically
 * from the on-disk plan cache, at admission, by a fresh server whose
 * in-memory memo is still empty). The headline acceptance number for
 * `hyparc serve` is the warm/cold ratio: a cache hit must be at least
 * an order of magnitude faster than the table construction + search it
 * short-circuits.
 *
 * With an output path argument, writes a google-benchmark-compatible
 * BENCH_serve.json (BM_ServePlan/<model> pairs with
 * BM_ServePlanReference/<model>), so tools/bench_report.py prints the
 * warm-vs-cold speedups for the CI artifact trail.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "dnn/model_zoo.hh"
#include "serve/server.hh"
#include "util/table.hh"

using namespace hypar;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kLevels = 8;
constexpr std::size_t kColdIters = 5;
constexpr std::size_t kWarmIters = 41;

struct Pair
{
    std::string model;
    double coldNs = 0.0; //!< p50 fresh-server miss (build + search)
    double warmNs = 0.0; //!< p50 same-request cache hit
};

double
median(std::vector<double> &samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** One processBatch round-trip, timed. */
double
timedRequest(serve::Server &server, const std::string &line)
{
    std::ostringstream sink;
    const auto start = std::chrono::steady_clock::now();
    server.processBatch({line}, sink);
    const auto end = std::chrono::steady_clock::now();
    if (sink.str().find("\"ok\":true") == std::string::npos) {
        std::cerr << "bench_serve: request failed: " << sink.str();
        std::exit(1);
    }
    return std::chrono::duration<double, std::nano>(end - start).count();
}

Pair
benchModel(const std::string &model, const fs::path &cacheDir)
{
    // H = 8 (256 accelerators): a serving-scale hierarchy where the
    // joint-search tables the cache short-circuits actually dominate
    // the request (at the paper's H = 4 the search is only a few
    // times the protocol overhead).
    const std::string request =
        "{\"op\":\"plan\",\"model\":\"" + model +
        "\",\"strategy\":\"optimal\",\"levels\":" +
        std::to_string(kLevels) + "}";
    serve::ServeOptions opts;
    opts.cacheDir = cacheDir;

    Pair pair;
    pair.model = model;

    // Cold: a fresh server (no warm sessions) over an empty cache —
    // the full context hash + session build + joint search path.
    std::vector<double> cold;
    for (std::size_t i = 0; i < kColdIters; ++i) {
        serve::Server scratch(opts);
        scratch.cache().evict();
        cold.push_back(timedRequest(scratch, request));
    }
    pair.coldNs = median(cold);

    // Warm: one more cold store, then the same request repeatedly
    // against fresh servers — every hit exercises the on-disk read and
    // decode, not the in-memory memo a long-lived server would answer
    // a repeat from.
    {
        serve::Server seed(opts);
        seed.cache().evict();
        timedRequest(seed, request);
    }
    std::vector<double> warm;
    for (std::size_t i = 0; i < kWarmIters; ++i) {
        serve::Server scratch(opts);
        warm.push_back(timedRequest(scratch, request));
    }
    pair.warmNs = median(warm);
    return pair;
}

void
writeJson(const std::vector<Pair> &pairs, std::ostream &os)
{
    char buf[192];
    os << "{\"context\":{\"bench\":\"serve\",\"cold_iters\":"
       << kColdIters << ",\"warm_iters\":" << kWarmIters
       << "},\"benchmarks\":[";
    bool first = true;
    for (const Pair &p : pairs) {
        // Reference = cold search; optimized = warm cache hit, so
        // bench_report.py's reference/optimized ratio is the speedup.
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"BM_ServePlanReference/%s\","
                      "\"run_type\":\"iteration\",\"real_time\":%.17g,"
                      "\"cpu_time\":%.17g,\"time_unit\":\"ns\"}",
                      first ? "" : ",", p.model.c_str(), p.coldNs,
                      p.coldNs);
        os << buf;
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"BM_ServePlan/%s\","
                      "\"run_type\":\"iteration\",\"real_time\":%.17g,"
                      "\"cpu_time\":%.17g,\"time_unit\":\"ns\"}",
                      p.model.c_str(), p.warmNs, p.warmNs);
        os << buf;
        first = false;
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Serving tier: warm plan cache vs cold search",
                  "the hyparc serve acceptance ratio");

    const fs::path cacheDir =
        fs::temp_directory_path() /
        ("hyparc_bench_serve_" +
         std::to_string(static_cast<unsigned>(::getpid())));
    fs::remove_all(cacheDir);

    std::vector<Pair> pairs;
    for (const dnn::Network &net : dnn::allModels())
        pairs.push_back(benchModel(net.name(), cacheDir));
    fs::remove_all(cacheDir);

    util::Table t({"model", "cold (us)", "warm hit (us)", "speedup"});
    double worst = 0.0;
    for (const Pair &p : pairs) {
        const double speedup = p.coldNs / p.warmNs;
        worst = worst == 0.0 ? speedup : std::min(worst, speedup);
        t.addRow({p.model, bench::sig3(1e-3 * p.coldNs),
                  bench::sig3(1e-3 * p.warmNs), bench::ratio(speedup)});
    }
    t.print(std::cout);
    std::cout << "\ncold = fresh server, empty cache (session build + "
                 "joint search); warm = on-disk cache hit answered at "
                 "admission by a fresh server (empty memo), p50 over "
              << kWarmIters << " requests.\n"
              << "minimum warm speedup: " << bench::ratio(worst)
              << " (acceptance floor: 10x)\n";

    if (argc > 1) {
        std::ofstream out(argv[1]);
        writeJson(pairs, out);
        std::cout << "\nwrote " << argv[1] << "\n";
    }
    return worst >= 10.0 ? 0 : 1;
}
