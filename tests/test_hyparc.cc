/**
 * @file
 * Tests for the hyparc command-line application: argument parsing,
 * command execution against a string stream, and error handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "hyparc_app.hh"
#include "serve/json.hh"
#include "util/logging.hh"

using namespace hypar;
using tools::Options;
using tools::parseArgs;
using tools::runCommand;

namespace {

std::string
run(const std::vector<std::string> &args)
{
    std::ostringstream os;
    const int rc = runCommand(parseArgs(args), os);
    EXPECT_EQ(rc, 0);
    return os.str();
}

} // namespace

TEST(HyparcArgs, ParsesFlags)
{
    const auto opts = parseArgs({"simulate", "--model", "VGG-A",
                                 "--levels", "3", "--batch", "64",
                                 "--topology", "torus", "--strategy",
                                 "owt"});
    EXPECT_EQ(opts.command, "simulate");
    EXPECT_EQ(opts.model, "VGG-A");
    EXPECT_EQ(opts.levels, 3u);
    EXPECT_EQ(opts.batch, 64u);
    EXPECT_EQ(opts.topology, "torus");
    EXPECT_EQ(opts.strategy, "owt");
}

TEST(HyparcCommands, OptimalStrategyPicksItsOwnEngine)
{
    // The joint search picks its engine from H: dense below the
    // ceiling, A* past it. No flag reaches either.
    const std::string wide = run({"plan", "--model", "Lenet-c",
                                  "--levels", "12", "--strategy",
                                  "optimal"});
    EXPECT_NE(wide.find("H12:"), std::string::npos);

    // --engine left the CLI: plan and faults reject it as unknown.
    for (const char *cmd : {"plan", "faults"}) {
        try {
            (void)parseArgs({cmd, "--model", "Lenet-c", "--strategy",
                             "optimal", "--engine", "astar"});
            ADD_FAILURE() << cmd << " accepted --engine";
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown flag '--engine'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(HyparcArgs, Rejections)
{
    EXPECT_THROW(parseArgs({}), util::FatalError);
    EXPECT_THROW(parseArgs({"plan", "--model"}), util::FatalError);
    EXPECT_THROW(parseArgs({"plan", "--bogus", "1"}), util::FatalError);
    // --beam-width left with the beam engine.
    EXPECT_THROW(parseArgs({"plan", "--beam-width", "64"}),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"explode"}), std::cout),
                 util::FatalError);
    // plan without any network source.
    std::ostringstream os;
    EXPECT_THROW(runCommand(parseArgs({"plan"}), os), util::FatalError);
    // both sources at once.
    EXPECT_THROW(runCommand(parseArgs({"plan", "--model", "SFC", "--spec",
                                       "x.hp"}),
                            os),
                 util::FatalError);
}

TEST(HyparcCommands, ModelsListsTheZoo)
{
    const std::string out = run({"models"});
    EXPECT_NE(out.find("SFC"), std::string::npos);
    EXPECT_NE(out.find("VGG-E"), std::string::npos);
    EXPECT_NE(out.find("430500"), std::string::npos); // Lenet-c params
}

TEST(HyparcCommands, PlanPrintsLevels)
{
    const std::string out = run({"plan", "--model", "Lenet-c"});
    EXPECT_NE(out.find("H1:"), std::string::npos);
    EXPECT_NE(out.find("H4:"), std::string::npos);
    EXPECT_NE(out.find("total communication"), std::string::npos);
}

TEST(HyparcCommands, StrategySelection)
{
    const std::string dp =
        run({"plan", "--model", "Lenet-c", "--strategy", "dp"});
    EXPECT_EQ(dp.find("mp"), std::string::npos);
    const std::string optimal =
        run({"plan", "--model", "Lenet-c", "--strategy", "optimal"});
    EXPECT_NE(optimal.find("H1:"), std::string::npos);
    EXPECT_THROW(run({"plan", "--model", "SFC", "--strategy", "zen"}),
                 util::FatalError);
}

TEST(HyparcCommands, VerboseOptimalPrintsTransitions)
{
    // ROADMAP PR 2 follow-up: HierarchicalResult::transitionsEvaluated
    // surfaces in verbose plan output for the joint-DP engines only.
    const std::string verbose = run({"plan", "--model", "Lenet-c",
                                     "--strategy", "optimal",
                                     "--verbose"});
    const auto pos = verbose.find("transitions evaluated: ");
    ASSERT_NE(pos, std::string::npos);
    // The dense DP relaxes 2^H * 2^H * (L-1) = 16 * 16 * 3 transitions
    // for Lenet-c at H = 4 — a deterministic count.
    EXPECT_NE(verbose.find("transitions evaluated: 768"),
              std::string::npos)
        << verbose;
    // SearchStats ride along: node accounting and the certificate.
    EXPECT_NE(verbose.find("nodes expanded: 64, pruned: 0"),
              std::string::npos)
        << verbose;
    EXPECT_NE(verbose.find("optimality: certified exact"),
              std::string::npos)
        << verbose;

    // Past the dense ceiling A* reports its own (pruned) accounting
    // and always certifies.
    const std::string astar = run({"plan", "--model", "Lenet-c",
                                   "--strategy", "optimal", "--levels",
                                   "12", "--verbose"});
    EXPECT_NE(astar.find("optimality: certified exact"),
              std::string::npos)
        << astar;
    EXPECT_EQ(astar.find("pruned: 0,"), std::string::npos) << astar;
    EXPECT_EQ(astar.find("(engine"), std::string::npos) << astar;

    const std::string quiet = run({"plan", "--model", "Lenet-c",
                                   "--strategy", "optimal"});
    EXPECT_EQ(quiet.find("transitions evaluated"), std::string::npos);
    EXPECT_EQ(quiet.find("optimality:"), std::string::npos);
    // Not an optimal search: nothing to report even when verbose.
    const std::string hypar =
        run({"plan", "--model", "Lenet-c", "--verbose"});
    EXPECT_EQ(hypar.find("transitions evaluated"), std::string::npos);
}

TEST(HyparcCommands, SweepLevelsGrid)
{
    // Fig. 9 shape: 2^4 x 2^4 masks of Lenet-c at H1 x H4.
    const std::string csv =
        run({"sweep", "--model", "Lenet-c", "--axes", "H1,H4"});
    EXPECT_NE(csv.find("H1,H4,step_seconds,speedup_vs_dp"),
              std::string::npos);
    // Header comment + column header + 256 grid rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2 + 256);
    // Masks render as layer-order bitstrings, ascending from all-dp.
    EXPECT_NE(csv.find("0000,0000,"), std::string::npos);

    const std::string json = run({"sweep", "--model", "Lenet-c",
                                  "--axes", "H1,H4", "--format",
                                  "json"});
    EXPECT_NE(json.find("\"mode\":\"levels\""), std::string::npos);
    EXPECT_NE(json.find("\"step_seconds\":"), std::string::npos);
}

TEST(HyparcCommands, SweepLayersGrid)
{
    // Fig. 10 shape: two layers' level vectors over 2^H x 2^H.
    const std::string csv = run({"sweep", "--model", "Lenet-c",
                                 "--axes", "conv1,fc1"});
    EXPECT_NE(csv.find("conv1,fc1,step_seconds,speedup_vs_dp"),
              std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2 + 256);

    // File output reports the point count instead of the rows.
    const std::string path = "/tmp/hyparc_test_sweep.csv";
    const std::string msg = run({"sweep", "--model", "Lenet-c",
                                 "--axes", "conv1,fc1", "-o", path});
    EXPECT_NE(msg.find("wrote 256 grid points"), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("step_seconds"), std::string::npos);
    std::remove(path.c_str());
}

TEST(HyparcArgs, ParsesSweepSamplingFlags)
{
    const auto opts = parseArgs({"sweep", "--model", "VGG-A", "--axes",
                                 "H1,H4", "--limit", "32", "--seed",
                                 "7", "--overlap"});
    EXPECT_EQ(opts.limit, 32u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_TRUE(opts.overlap);
    // Defaults: full grid, seed 0, synchronous gradients.
    const auto defaults =
        parseArgs({"sweep", "--model", "VGG-A", "--axes", "H1,H4"});
    EXPECT_EQ(defaults.limit, 0u);
    EXPECT_EQ(defaults.seed, 0u);
    EXPECT_FALSE(defaults.overlap);
}

TEST(HyparcCommands, SweepOverlapMode)
{
    // --overlap runs the async gradient schedule through the two-tape
    // incremental sweep; the header records the mode and the grid
    // shape is unchanged.
    const std::string csv = run({"sweep", "--model", "Lenet-c",
                                 "--axes", "H1,H4", "--overlap"});
    EXPECT_NE(csv.find(" overlap=true"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2 + 256);

    const std::string json = run({"sweep", "--model", "Lenet-c",
                                  "--axes", "H1,H4", "--overlap",
                                  "--format", "json"});
    EXPECT_NE(json.find("\"overlap\":true"), std::string::npos);

    // Deterministic, and different from the synchronous schedule.
    EXPECT_EQ(csv, run({"sweep", "--model", "Lenet-c", "--axes",
                        "H1,H4", "--overlap"}));
    const std::string sync =
        run({"sweep", "--model", "Lenet-c", "--axes", "H1,H4"});
    EXPECT_NE(csv, sync);
    EXPECT_EQ(sync.find("overlap=true"), std::string::npos);
}

TEST(HyparcCommands, SweepLimitSamplesBigGrids)
{
    // VGG-A has 11 weighted layers: the full 4^11 level-mask grid is
    // refused, but --limit opens it with a deterministic sample.
    std::ostringstream os;
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "VGG-A",
                                       "--axes", "H1,H4"}),
                            os),
                 util::FatalError);

    const std::vector<std::string> args = {
        "sweep", "--model", "VGG-A", "--axes", "H1,H4",
        "--limit", "12",    "--seed", "3"};
    const std::string csv = run(args);
    EXPECT_NE(csv.find(" limit=12 seed=3"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2 + 12);
    // Same seed -> byte-identical sample; another seed -> another one.
    EXPECT_EQ(csv, run(args));
    const std::string other = run({"sweep", "--model", "VGG-A",
                                   "--axes", "H1,H4", "--limit", "12",
                                   "--seed", "4"});
    EXPECT_NE(csv, other);

    // Layer-vector grids past H = 8 open the same way, in json too.
    const std::string json = run({"sweep", "--model", "Lenet-c",
                                  "--levels", "9", "--axes",
                                  "conv1,fc1", "--limit", "6",
                                  "--format", "json"});
    EXPECT_NE(json.find("\"limit\":6,\"seed\":0"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(json.begin(), json.end(), '{')),
              1u + 6u);
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--levels", "9", "--axes",
                                       "conv1,fc1"}),
                            os),
                 util::FatalError);

    // A limit covering the whole grid degrades to the full
    // enumeration: identical to not passing --limit at all.
    EXPECT_EQ(run({"sweep", "--model", "Lenet-c", "--axes", "H1,H4",
                   "--limit", "256"}),
              run({"sweep", "--model", "Lenet-c", "--axes", "H1,H4"}));

    // ... unless the full grid is too big to enumerate: then a limit
    // that covers it is rejected with its own message (not the
    // confusing 'use --limit' one).
    try {
        runCommand(parseArgs({"sweep", "--model", "VGG-A", "--axes",
                              "H1,H4", "--limit", "5000000"}),
                   os);
        FAIL() << "oversized --limit should be fatal";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("covers the whole grid"),
                  std::string::npos)
            << e.what();
    }
}

TEST(HyparcCommands, SweepRejections)
{
    std::ostringstream os;
    // Missing/odd axes.
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "H1"}),
                            os),
                 util::FatalError);
    // Mixed kinds, duplicate axes, out-of-range level, unknown layer.
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "H1,fc1"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "H2,H2"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "H1,H9"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "conv1,bogus"}),
                            os),
                 util::FatalError);
    // Unknown format.
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "Lenet-c",
                                       "--axes", "H1,H4", "--format",
                                       "xml"}),
                            os),
                 util::FatalError);
}

TEST(HyparcCommands, SimulateReportsSpeedup)
{
    const std::string out =
        run({"simulate", "--model", "AlexNet", "--levels", "2"});
    EXPECT_NE(out.find("speedup vs Data Parallelism"), std::string::npos);
    EXPECT_NE(out.find("H-tree x4"), std::string::npos);
}

TEST(HyparcCommands, MeshTopology)
{
    const std::string out = run({"simulate", "--model", "Lenet-c",
                                 "--topology", "mesh", "--levels", "2"});
    EXPECT_NE(out.find("Mesh"), std::string::npos);
    EXPECT_THROW(run({"simulate", "--model", "SFC", "--topology",
                      "donut"}),
                 util::FatalError);
}

TEST(HyparcCommands, ReportItemizes)
{
    const std::string out = run({"report", "--model", "AlexNet"});
    EXPECT_NE(out.find("conv5"), std::string::npos);
    EXPECT_NE(out.find("grad (dp)"), std::string::npos);
}

TEST(HyparcCommands, SpecFileEndToEnd)
{
    const std::string path = "/tmp/hyparc_test_net.hp";
    {
        std::ofstream f(path);
        f << "network spec-net\ninput 1 28 28\nconv c1 8 5 pool 2\n"
             "fc f1 10\n";
    }
    const std::string out = run({"plan", "--spec", path});
    EXPECT_NE(out.find("spec-net"), std::string::npos);
    std::remove(path.c_str());
}

TEST(HyparcCommands, JsonOutputEscapesControlCharactersInNames)
{
    // A tab in the --spec path lands in the "model" value of every JSON
    // writer; it must come out escaped, or the document does not parse.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("hyparc_test\tnet_" +
          std::to_string(static_cast<unsigned>(::getpid())) + ".hp"))
            .string();
    {
        std::ofstream f(path);
        f << "network spec-net\ninput 1 28 28\nconv c1 8 5 pool 2\n"
             "fc f1 10\n";
    }
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"sweep", "--spec", path, "--axes",
                                   "H1,H4", "--format", "json"},
          std::vector<std::string>{"faults", "--spec", path, "--sweep",
                                   "--rate", "0:0.2:2", "--samples",
                                   "1", "--format", "json"}}) {
        const std::string json = run(args);
        serve::JsonValue doc;
        ASSERT_NO_THROW(doc = serve::JsonValue::parse(json)) << json;
        const serve::JsonValue *model = doc.find("model");
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->asString(), path);
    }
    std::remove(path.c_str());
}

TEST(HyparcCommands, TraceToStreamAndFile)
{
    const std::string json =
        run({"trace", "--model", "Lenet-c", "--levels", "2"});
    EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);

    const std::string path = "/tmp/hyparc_test_trace.json";
    const std::string msg = run(
        {"trace", "--model", "Lenet-c", "--levels", "2", "-o", path});
    EXPECT_NE(msg.find("wrote"), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("hypar"), std::string::npos);
    std::remove(path.c_str());
}

TEST(HyparcArgs, ParsesFaultFlags)
{
    const auto opts = parseArgs({"faults", "--model", "Lenet-c",
                                 "--map", "f.txt", "--rate", "0:0.3:7",
                                 "--samples", "4", "--sweep"});
    EXPECT_EQ(opts.map, "f.txt");
    EXPECT_EQ(opts.rate, "0:0.3:7");
    EXPECT_EQ(opts.samples, 4u);
    EXPECT_TRUE(opts.faultSweep);

    // Defaults: no map, a single 10% rate, 8 samples, uniform sweeps.
    const auto defaults = parseArgs({"faults", "--model", "Lenet-c"});
    EXPECT_TRUE(defaults.map.empty());
    EXPECT_EQ(defaults.rate, "0.1");
    EXPECT_EQ(defaults.samples, 8u);
    EXPECT_FALSE(defaults.faultSweep);
    EXPECT_EQ(defaults.sample, "uniform");
}

TEST(HyparcCommands, FaultsMapModeReplansAroundTheMap)
{
    // Default htree x16: node ids 0..15, link ids 0..14 (level-major).
    const std::string path = "/tmp/hyparc_test_faults.map";
    {
        std::ofstream f(path);
        f << "# one dead node, one throttled level-1 trunk\n"
             "node 3 0\nlink 2 0.5\n";
    }
    const std::string out = run({"faults", "--model", "Lenet-c",
                                 "--strategy", "optimal", "--map",
                                 path});
    EXPECT_NE(out.find("compute slowdown: 1.07x"), std::string::npos)
        << out;
    EXPECT_NE(out.find("level penalties: 1.00x 2.00x 1.00x 1.00x"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("healthy array"), std::string::npos);
    EXPECT_NE(out.find("degraded array, re-planned:"),
              std::string::npos);
    EXPECT_NE(out.find("recovers"), std::string::npos);

    // A map that kills every node is rejected, not planned around.
    {
        std::ofstream f(path);
        for (int i = 0; i < 16; ++i)
            f << "node " << i << " 0\n";
    }
    EXPECT_THROW(run({"faults", "--model", "Lenet-c", "--map", path}),
                 util::FatalError);
    std::remove(path.c_str());
}

TEST(HyparcCommands, FaultsSweepIsDeterministic)
{
    const std::vector<std::string> args = {
        "faults", "--model", "Lenet-c", "--sweep",
        "--rate",  "0:0.3:3", "--samples", "2",
        "--seed",  "5"};
    const std::string csv = run(args);
    EXPECT_NE(csv.find("mode=faults"), std::string::npos);
    EXPECT_NE(csv.find("samples=2 seed=5"), std::string::npos);
    EXPECT_NE(csv.find(
                  "rate,static_step_seconds,replanned_step_seconds,"
                  "recovery"),
              std::string::npos);
    // Header comment + column header + 3 rate points.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2 + 3);
    // Acceptance: byte-identical for a fixed seed; seeds separate.
    EXPECT_EQ(csv, run(args));
    EXPECT_NE(csv, run({"faults", "--model", "Lenet-c", "--sweep",
                        "--rate", "0:0.3:3", "--samples", "2",
                        "--seed", "6"}));

    // Rate 0 draws the empty map: static == replanned, recovery 1.
    EXPECT_NE(csv.find(",1\n"), std::string::npos) << csv;

    const std::string json = run({"faults", "--model", "Lenet-c",
                                  "--sweep", "--rate", "0:0.3:3",
                                  "--samples", "2", "--format",
                                  "json"});
    EXPECT_NE(json.find("\"mode\":\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"replanned_step_seconds\":"),
              std::string::npos);

    const std::string path = "/tmp/hyparc_test_faults.csv";
    const std::string msg = run({"faults", "--model", "Lenet-c",
                                 "--sweep", "--rate", "0:0.3:3",
                                 "--samples", "2", "-o", path});
    EXPECT_NE(msg.find("wrote 3 rate points"), std::string::npos);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::remove(path.c_str());
}

TEST(HyparcCommands, FaultsRobustModeReportsExpectedCost)
{
    const std::string out = run({"faults", "--model", "Lenet-c",
                                 "--rate", "0.25", "--samples", "3",
                                 "--seed", "2"});
    EXPECT_NE(out.find("robust plan over 3 fault maps at rate 0.25"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("H1:"), std::string::npos);
    EXPECT_NE(out.find("expected step time:"), std::string::npos);
    EXPECT_NE(out.find("pristine-optimal plan would average"),
              std::string::npos);
    // Deterministic for a fixed seed.
    EXPECT_EQ(out, run({"faults", "--model", "Lenet-c", "--rate",
                        "0.25", "--samples", "3", "--seed", "2"}));
}

TEST(HyparcCommands, FaultsRejections)
{
    std::ostringstream os;
    // --map and --sweep are mutually exclusive modes.
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--map", "f.txt", "--sweep"}),
                            os),
                 util::FatalError);
    // --sweep needs a R0:R1:N rate range...
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--sweep", "--rate", "0.1"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--sweep", "--rate",
                                       "0:0.3:0"}),
                            os),
                 util::FatalError);
    // ... while robust planning takes a single rate.
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--rate", "0:0.3:7"}),
                            os),
                 util::FatalError);
    // Rates live in [0, 1] and must parse completely.
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--rate", "1.5"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--rate", "0.1x"}),
                            os),
                 util::FatalError);
    // At least one sample everywhere.
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--samples", "0"}),
                            os),
                 util::FatalError);
    EXPECT_THROW(runCommand(parseArgs({"faults", "--model", "Lenet-c",
                                       "--sweep", "--rate", "0:0.3:3",
                                       "--samples", "0"}),
                            os),
                 util::FatalError);
}

TEST(HyparcCommands, SweepBiasedSamplerConcentratesNearHypar)
{
    // The biased sampler perturbs the HyPar plan's masks instead of
    // drawing uniformly; both are seed-deterministic and recorded in
    // the header.
    const std::vector<std::string> args = {
        "sweep",   "--model", "VGG-A", "--axes", "H1,H4",
        "--limit", "12",      "--seed", "3",     "--sample", "biased"};
    const std::string biased = run(args);
    EXPECT_NE(biased.find(" sample=biased"), std::string::npos);
    EXPECT_EQ(std::count(biased.begin(), biased.end(), '\n'), 2 + 12);
    EXPECT_EQ(biased, run(args));

    const std::string uniform =
        run({"sweep", "--model", "VGG-A", "--axes", "H1,H4", "--limit",
             "12", "--seed", "3"});
    EXPECT_NE(uniform.find(" sample=uniform"), std::string::npos);
    EXPECT_NE(biased, uniform);

    const std::string json = run({"sweep", "--model", "VGG-A",
                                  "--axes", "H1,H4", "--limit", "6",
                                  "--sample", "biased", "--format",
                                  "json"});
    EXPECT_NE(json.find("\"sample\":\"biased\""), std::string::npos);

    std::ostringstream os;
    EXPECT_THROW(runCommand(parseArgs({"sweep", "--model", "VGG-A",
                                       "--axes", "H1,H4", "--limit",
                                       "12", "--sample", "bogus"}),
                            os),
                 util::FatalError);
}

TEST(HyparcArgs, ParsesServeFlags)
{
    const auto opts = parseArgs({"serve", "--cache-dir", "/tmp/plans",
                                 "--no-cache"});
    EXPECT_EQ(opts.command, "serve");
    EXPECT_EQ(opts.cacheDir, "/tmp/plans");
    EXPECT_TRUE(opts.noCache);
    EXPECT_FALSE(opts.evict);

    const auto evict = parseArgs({"serve", "--evict"});
    EXPECT_TRUE(evict.evict);
    // Defaults: cache on, default directory, registry-default capacity.
    const auto defaults = parseArgs({"serve"});
    EXPECT_FALSE(defaults.noCache);
    EXPECT_TRUE(defaults.cacheDir.empty());
    EXPECT_EQ(defaults.maxSessions, 0u);

    const auto sized = parseArgs({"serve", "--max-sessions", "3"});
    EXPECT_EQ(sized.maxSessions, 3u);
    // Validated >= 1: a zero capacity would make every request
    // rebuild its Evaluator (and the registry rejects it anyway).
    try {
        parseArgs({"serve", "--max-sessions", "0"});
        FAIL() << "--max-sessions 0 should be fatal";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--max-sessions"),
                  std::string::npos)
            << e.what();
    }

    // The byte budget is a plain size; 0 (the default) = unlimited.
    EXPECT_EQ(defaults.maxSessionBytes, 0u);
    const auto budgeted =
        parseArgs({"serve", "--max-session-bytes", "1048576"});
    EXPECT_EQ(budgeted.maxSessionBytes, 1048576u);
    EXPECT_NE(tools::usage().find("--max-session-bytes"),
              std::string::npos);
}

TEST(HyparcCommands, ServeAnswersRequestsFromAStream)
{
    const std::string dir =
        "/tmp/hyparc_test_cli_serve_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    std::istringstream in(
        "{\"op\":\"plan\",\"model\":\"Lenet-c\"}\n"
        "{\"op\":\"shutdown\"}\n");
    std::ostringstream os;
    const int rc = runCommand(
        parseArgs({"serve", "--cache-dir", dir}), os, in);
    EXPECT_EQ(rc, 0);

    // Two response lines: the plan (a miss on a fresh cache, stored on
    // disk) and the shutdown acknowledgement.
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
    EXPECT_NE(out.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(out.find("\"cache\":\"miss\""), std::string::npos);
    EXPECT_FALSE(std::filesystem::is_empty(dir));

    // A second serve process over the same directory answers warm.
    std::istringstream warm_in(
        "{\"op\":\"plan\",\"model\":\"Lenet-c\"}\n");
    std::ostringstream warm_os;
    EXPECT_EQ(runCommand(parseArgs({"serve", "--cache-dir", dir}),
                         warm_os, warm_in),
              0);
    EXPECT_NE(warm_os.str().find("\"cache\":\"hit\""), std::string::npos);

    // --evict clears it and reports the count.
    std::istringstream none("");
    std::ostringstream evict_os;
    EXPECT_EQ(runCommand(parseArgs({"serve", "--cache-dir", dir,
                                    "--evict"}),
                         evict_os, none),
              0);
    EXPECT_NE(evict_os.str().find("evicted 1 plan cache entr"),
              std::string::npos);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(HyparcCommands, UsageMentionsServe)
{
    const std::string u = tools::usage();
    EXPECT_NE(u.find("serve"), std::string::npos);
    EXPECT_NE(u.find("--cache-dir"), std::string::npos);
    EXPECT_NE(u.find("--no-cache"), std::string::npos);
    EXPECT_NE(u.find("--evict"), std::string::npos);
}
