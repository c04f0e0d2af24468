/**
 * @file
 * servebench: a closed-loop benchmark of `hyparc serve`.
 *
 *   servebench --workload <plan_hit|plan_search|eval_sweep> --seed <n>
 *              --seconds <s> --trace <0|1> --hyparc <path>
 *              --workdir <dir> [--trace-out <file>]
 *
 * Spawns `hyparc serve`, brings it into the workload's regime (the
 * set-up, timed from spawn to the last warm-up response), then drives
 * it with one admission batch per round, one request per logical
 * client. The `--seconds` of timed load are split over kSegments fresh
 * servers.
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * replays a fixed prefix of the same requests in-process under spans
 * (replay.hh) and prints the per-layer metrics instead. The last stdout
 * line is one JSON object: correct, attempted, failed, metrics. Exits 1
 * when any response failed the output check (check.hh), 2 on a usage or
 * set-up error. `--workdir` is scratch space for the servers' caches.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.hh"
#include "client.hh"
#include "replay.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace servebench {

namespace {

namespace fs = std::filesystem;

/** An untraced run is cut into kSegments segments, each on its own
 *  freshly spawned and warmed-up server (so a run samples several
 *  server processes, whose speed differs more than one process's speed
 *  drifts), and each segment into the workload's windowsPerSegment()
 *  windows of equal length; each metric is the median of the windows'
 *  values, so seconds-long slow spells of a shared host move it less
 *  than they move a whole-run figure. setup_s
 *  is the median set-up time over the segments plus set-up-only repeats
 *  after each segment, until kSetupMinSeconds of set-up have been timed
 *  (at most kSetupMaxRuns set-ups). A traced run is one segment. */
constexpr std::size_t kSegments = 5;
constexpr std::size_t kSetupMaxRuns = 250;
constexpr double kSetupMinSeconds = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string hyparc;
    fs::path workdir;
    fs::path traceOut;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

/** What one window of a segment's timed phase measured. */
struct Window
{
    double seconds = 0.0;
    double cpuSeconds = 0.0; //!< server utime + stime
    std::vector<double> latencyUs;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            hypar::util::fatal("missing value after " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::stoull(value);
        else if (arg == "--seconds")
            o.seconds = std::stod(value);
        else if (arg == "--trace")
            o.trace = value == "1";
        else if (arg == "--hyparc")
            o.hyparc = value;
        else if (arg == "--workdir")
            o.workdir = value;
        else if (arg == "--trace-out")
            o.traceOut = value;
        else
            hypar::util::fatal("unknown argument " + arg);
    }
    if (o.workload.empty() || o.hyparc.empty() || o.workdir.empty())
        hypar::util::fatal("--workload, --hyparc and --workdir are required");
    if (!(o.seconds > 0.0))
        hypar::util::fatal("--seconds must be positive");
    if (o.traceOut.empty())
        o.traceOut = o.workdir / "trace.json";
    return o;
}

/** Nearest-rank percentile of sorted `v`. */
double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
brief(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/**
 * The end-to-end metrics of the timed windows: each metric is computed
 * per window and the median over windows is reported, so one slow
 * server process or slow spell does not move the result. The tail is
 * the workload's fixed percentile `tailP`.
 */
std::vector<Metric>
summarize(std::vector<Window> windows, double tailP)
{
    std::size_t n = 0;
    std::vector<double> rps, p50, tail, cpu, beyond;
    for (Window &s : windows) {
        std::sort(s.latencyUs.begin(), s.latencyUs.end());
        const double done = static_cast<double>(s.latencyUs.size());
        n += s.latencyUs.size();
        rps.push_back(done / s.seconds);
        p50.push_back(percentile(s.latencyUs, 50.0) * 1e-3);
        tail.push_back(percentile(s.latencyUs, tailP) * 1e-3);
        cpu.push_back(done > 0.0 ? s.cpuSeconds * 1e3 / done : 0.0);
        beyond.push_back(std::floor(done * (100.0 - tailP) / 100.0));    }
    const std::string over = "median of " + std::to_string(windows.size()) +
                             " windows, " + std::to_string(n) +
                             " requests";
    return {
        {"throughput_rps", median(rps), "1/s", over},
        {"latency_p50_ms", median(p50), "ms", over},
        {"latency_tail_ms", median(tail), "ms",
         "p" + brief(tailP) + ", " + brief(median(beyond)) +
             " samples beyond it per window; " + over},
        {"server_cpu_ms_per_req", median(cpu), "ms", over},
    };
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i > 0 ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    std::cout << out << "}}" << std::endl;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
run(const Options &o)
{
    Workload wl(o.workload, o.seed);
    fs::remove_all(o.workdir);
    fs::create_directories(o.workdir);

    // Responses recomputed in full (plan_search's are deep searches).
    const bool search = wl.kind() == Workload::Kind::kPlanSearch;
    OutputCheck check(o.seed, search ? 8 : 48);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    auto account = [&](const Batch &batch, const Exchange &ex) {
        attempted += batch.size();
        for (std::size_t i = 0; i < ex.responses.size(); ++i) {
            if (!check.inspect(batch[i], ex.responses[i])) {
                if (failed < 5)
                    std::cerr << "servebench: bad response to "
                              << batch[i].line() << ": "
                              << ex.responses[i] << "\n";
                ++failed;
            }
        }
        failed += batch.size() - ex.responses.size();
        return ex.responses.size() == batch.size();
    };

    // One set-up: spawn a fresh server on a fresh cache, warm it up.
    const std::vector<Batch> warmup = wl.warmup();
    std::vector<double> setupSeconds;
    bool serverOk = true;
    auto setUp = [&]() {
        const fs::path cacheDir =
            o.workdir / ("cache-" + std::to_string(setupSeconds.size()));
        std::vector<std::string> argv = {o.hyparc, "serve", "--cache-dir",
                                         cacheDir.string()};
        if (wl.noCache())
            argv.push_back("--no-cache");
        const auto t0 = Clock::now();
        auto server = std::make_unique<ServerProcess>(argv);
        for (const Batch &b : warmup)
            if (!account(b, exchange(*server, b)))
                hypar::util::fatal("hyparc serve stopped answering during "
                                   "warm-up");
        setupSeconds.push_back(secondsSince(t0));
        return server;
    };

    // Timed segments: closed loop, one admission batch per round.
    ReplayInput replay;
    replay.workload = &wl;
    replay.warmup = warmup;
    replay.workdir = o.workdir;
    replay.chromeTrace = o.traceOut;
    std::size_t replayRequests = 0;
    std::vector<Window> timed;
    std::vector<double> rssMb;
    double setupTotal = 0.0;
    bool broken = false;
    const std::size_t segments = o.trace ? 1 : kSegments;
    const std::size_t windows = o.trace ? 1 : wl.windowsPerSegment();
    const auto windowLength =
        std::chrono::duration<double>(o.seconds / (segments * windows));
    for (std::size_t seg = 0; seg < segments && !broken; ++seg) {
        std::unique_ptr<ServerProcess> server = setUp();
        setupTotal += setupSeconds.back();
        for (std::size_t w = 0; w < windows && !broken; ++w) {
            Window window;
            const double cpu0 = server->cpuSeconds();
            const auto t0 = Clock::now();
            while (!broken && Clock::now() - t0 < windowLength) {
                const Batch batch = wl.nextBatch();
                const Exchange ex = exchange(*server, batch);
                broken = !account(batch, ex);
                window.latencyUs.insert(window.latencyUs.end(),
                                        ex.latencyUs.begin(),
                                        ex.latencyUs.end());
                if (o.trace && !broken &&
                    replayRequests < wl.traceRequests()) {
                    replay.timed.push_back(batch);
                    replay.roundTripUs.push_back(ex.roundTripUs);
                    replay.responses.push_back(ex.responses);
                    replayRequests += batch.size();
                }
            }
            window.seconds = secondsSince(t0);
            window.cpuSeconds = server->cpuSeconds() - cpu0;
            timed.push_back(std::move(window));
        }
        rssMb.push_back(server->peakRssMb());
        serverOk = server->stop() == 0 && serverOk;

        // Set-up-only repeats, spread over the run, so setup_s is a
        // median over at least kSetupMinSeconds of set-ups.
        const double share = static_cast<double>(seg + 1) / kSegments;
        while (!o.trace && !broken &&
               setupTotal < kSetupMinSeconds * share &&
               setupSeconds.size() < kSetupMaxRuns * share) {
            serverOk = setUp()->stop() == 0 && serverOk;
            setupTotal += setupSeconds.back();
        }
    }
    if (!serverOk)
        std::cerr << "servebench: hyparc serve did not exit cleanly\n";
    failed += check.finish(std::cerr);

    std::cout << "servebench " << wl.name() << " seed=" << o.seed
              << " clients=" << wl.clients() << " seconds=" << o.seconds
              << " check: " << check.sampled()
              << " responses recomputed in full\n";
    std::vector<Metric> metrics;
    if (broken) {
        std::cerr << "servebench: hyparc serve stopped answering\n";
    } else if (o.trace) {
        const ReplayResult traced = traceReplay(replay, std::cout);
        failed += traced.mismatches;
        for (const LayerMetric &m : traced.metrics)
            metrics.push_back({m.name, m.value, m.unit, ""});
    } else {
        metrics = summarize(std::move(timed), wl.tailPercentile());
        metrics.push_back({"server_peak_rss_mb", median(rssMb), "MB",
                           "VmHWM, median of " +
                               std::to_string(rssMb.size()) + " servers"});
        metrics.push_back({"setup_s", median(setupSeconds), "s",
                           "median of " +
                               std::to_string(setupSeconds.size()) +
                               " set-ups"});
    }

    for (const Metric &m : metrics)
        std::printf("  %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("  %-30s %14.6g %-6s %zu of %zu requests\n", "failed_frac",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                "", failed, attempted);
    std::fflush(stdout);

    const bool correct = failed == 0 && serverOk && !broken;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

} // namespace servebench

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN); // a dead server must not kill us
    try {
        return servebench::run(servebench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "servebench: " << e.what() << "\n";
        return 2;
    }
}
