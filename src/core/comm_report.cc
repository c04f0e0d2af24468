#include "core/comm_report.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace hypar::core {

CommReport
buildCommReport(const CommModel &model, const HierarchicalPlan &plan)
{
    const dnn::Network &net = model.network();
    validatePlan(plan, net);

    CommReport report;
    report.layers.resize(net.size());
    for (std::size_t l = 0; l < net.size(); ++l)
        report.layers[l].layer = net.layer(l).name;
    report.levels.resize(plan.numLevels());

    History hist(net.size());
    for (std::size_t h = 0; h < plan.numLevels(); ++h) {
        auto &level = report.levels[h];
        level.level = h;
        const LevelPlan &lp = plan.levels[h];
        const double weight = model.levelWeight(h);

        for (std::size_t l = 0; l < net.size(); ++l) {
            const double intra =
                weight * model.intraBytes(l, lp[l], hist);
            if (lp[l] == Parallelism::kData)
                report.layers[l].gradBytes += intra;
            else
                report.layers[l].psumBytes += intra;
            level.intraBytes += intra;

            if (l + 1 < net.size()) {
                const double f =
                    weight *
                    model.interBytesF(l, lp[l], lp[l + 1], hist);
                const double e =
                    weight *
                    model.interBytesE(l, lp[l], lp[l + 1], hist);
                // Attribute the boundary to its producing layer l.
                report.layers[l].featBytes += f;
                report.layers[l].errBytes += e;
                level.interBytes += f + e;
            }
        }
        hist.push(lp);
    }

    for (const auto &layer : report.layers)
        report.totalBytes += layer.totalBytes();
    return report;
}

std::string
CommReport::toString() const
{
    std::ostringstream os;

    util::Table by_layer(
        {"layer", "grad (dp)", "psum (mp)", "feat", "err", "total"});
    for (const auto &l : layers) {
        by_layer.addRow({l.layer, util::formatBytes(l.gradBytes),
                         util::formatBytes(l.psumBytes),
                         util::formatBytes(l.featBytes),
                         util::formatBytes(l.errBytes),
                         util::formatBytes(l.totalBytes())});
    }
    by_layer.print(os);

    os << "\n";
    util::Table by_level({"level", "intra", "inter", "total"});
    for (const auto &lv : levels) {
        // Appended rather than "H" + to_string(): GCC 12 reports a
        // false -Wrestrict overlap inside operator+(string&&, string&&).
        std::string name = "H";
        name += std::to_string(lv.level + 1);
        by_level.addRow({name,
                         util::formatBytes(lv.intraBytes),
                         util::formatBytes(lv.interBytes),
                         util::formatBytes(lv.totalBytes())});
    }
    by_level.print(os);
    os << "\ntotal: " << util::formatBytes(totalBytes) << "\n";
    return os.str();
}

} // namespace hypar::core
