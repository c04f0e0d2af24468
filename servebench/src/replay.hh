/**
 * @file
 * The traced run: the same generated requests replayed in-process.
 *
 * Two replays run back to back over the warm-up batches and a fixed
 * prefix of the timed batches:
 *
 *  1. An in-process serve::Server, untraced. Each timed batch's
 *     Server::processBatch is timed, and its response bytes must equal
 *     what the `hyparc serve` child answered for the same batch.
 *  2. The server's pipeline re-enacted through the library's public
 *     calls, in the order Server::processBatch makes them (parse, build
 *     the network, hash the context for every request; reserve every
 *     session; then each context group: coalesced evaluates first, the
 *     rest in request order). A span from this file wraps each call:
 *     name, start, end, parent, request id. Groups run one after the
 *     other, where the server fans them over its pool.
 *
 * Spans stay in memory and are written as a Chrome trace at the end.
 * A span's self time is its duration minus the part its children
 * cover; the per-layer table reports calls, p50 per call and share of
 * the timed batches' summed self time, plus the share of processBatch
 * time the layer spans account for (the rest is server work the
 * benchmark cannot see from outside: validation, grouping, rendering).
 */

#ifndef SERVEBENCH_REPLAY_HH
#define SERVEBENCH_REPLAY_HH

#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hh"

namespace servebench {

/** What the traced run needs from the closed loop. */
struct ReplayInput
{
    const Workload *workload = nullptr;
    std::vector<Batch> warmup;
    std::vector<Batch> timed;
    /** Client round trip of each timed batch, in microseconds. */
    std::vector<double> roundTripUs;
    /** The child's response lines of each timed batch. */
    std::vector<std::vector<std::string>> responses;
    std::filesystem::path workdir;     //!< scratch cache directories
    std::filesystem::path chromeTrace; //!< where the spans are written
};

/** One per-layer metric, in BENCHMARK.json's naming. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct ReplayResult
{
    std::vector<LayerMetric> metrics;
    std::size_t mismatches = 0; //!< processBatch bytes != child bytes
    std::size_t requests = 0;   //!< timed requests replayed
};

/** Run both replays; the per-layer table is printed on `log`. */
ReplayResult traceReplay(const ReplayInput &in, std::ostream &log);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_HH
