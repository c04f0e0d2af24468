/**
 * @file
 * The hyparc command-line application, split from main() so the
 * argument parsing and command execution are unit-testable.
 *
 *   hyparc plan --model VGG-A [--levels 4] [--batch 256]
 *   hyparc simulate --spec net.hp [--topology torus] [--strategy dp]
 *   hyparc report --model AlexNet            # per-layer comm breakdown
 *   hyparc trace --model Lenet-c -o out.json # chrome://tracing export
 *   hyparc sweep --model Lenet-c --axes H1,H4      # Fig. 9 style grid
 *   hyparc sweep --model VGG-A --axes conv5_2,fc1  # Fig. 10 style grid
 *   hyparc faults --model Lenet-c --map faults.txt # re-plan around map
 *   hyparc faults --model Lenet-c --sweep --rate 0:0.3:7  # cost curves
 *   hyparc faults --model Lenet-c --rate 0.1 --samples 8  # robust plan
 *   hyparc serve                             # planner-as-a-service loop
 *   hyparc serve --evict                     # clear the plan cache
 *   hyparc models                            # list the zoo
 */

#ifndef HYPAR_TOOLS_HYPARC_APP_HH
#define HYPAR_TOOLS_HYPARC_APP_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace hypar::tools {

/** Parsed command line. */
struct Options
{
    std::string command; //!< plan | simulate | report | trace | sweep |
                         //!< faults | serve | models
    std::string model;        //!< zoo model name
    std::string spec;         //!< path to a network spec file
    std::string output;       //!< -o target (trace, sweep, faults)
    std::string topology = "htree"; //!< htree | torus | mesh
    std::string strategy = "hypar"; //!< hypar | dp | mp | owt | optimal
    std::string axes;         //!< sweep axes: "H1,H4" or "conv5_2,fc1"
    std::string format = "csv";     //!< sweep/faults output: csv | json
    std::string map;          //!< faults: fault-map file (--map)
    std::string rate = "0.1"; //!< faults: rate R, or R0:R1:N (--sweep)
    std::string sample = "uniform"; //!< sweep --limit: uniform | biased
    std::string cacheDir; //!< serve: plan cache dir (default: see
                          //!< serve::PlanCache::defaultDir)
    std::size_t levels = 4;
    std::size_t batch = 256;
    std::size_t limit = 0;    //!< sweep: sample at most N grid points
    std::size_t seed = 0;     //!< sweep/faults: deterministic seed
    std::size_t samples = 8;  //!< faults: fault maps per rate point
    std::size_t maxSessions = 0; //!< serve: warm-session capacity
                                 //!< (0 = registry default)
    std::size_t maxSessionBytes = 0; //!< serve: warm-session byte
                                     //!< budget (0 = unlimited)
    bool faultSweep = false;  //!< faults: sweep a rate range (--sweep)
    bool overlap = false;     //!< overlap gradient reductions (async)
    bool verbose = false;     //!< extra search diagnostics (plan)
    bool noCache = false;     //!< serve: bypass plan cache reads+writes
    bool evict = false;       //!< serve: clear the plan cache and exit
};

/**
 * Parse argv into Options; fatal (util::FatalError) on bad usage so
 * tests can assert on messages.
 */
Options parseArgs(const std::vector<std::string> &args);

/**
 * Execute a parsed command, writing human-readable output to `os`
 * (JSON response lines for `serve`). The serve loop reads its
 * newline-delimited requests from std::cin.
 */
int runCommand(const Options &opts, std::ostream &os);

/** Same, with an explicit request stream for `serve` (tests drive the
 *  loop with an istringstream; other commands ignore `in`). */
int runCommand(const Options &opts, std::ostream &os, std::istream &in);

/** One-line usage summary (printed on error and by --help). */
std::string usage();

} // namespace hypar::tools

#endif // HYPAR_TOOLS_HYPARC_APP_HH
