#include "sim/training_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/brute_force.hh"
#include "util/logging.hh"

namespace hypar::sim {

namespace {

constexpr int kFwd = 0;
constexpr int kBwd = 1;
constexpr int kGrad = 2;

/** Accumulate a duration into the right phase bucket. */
void
addPhaseSeconds(TimeBreakdown &phases, int phase, double seconds)
{
    switch (phase) {
      case kFwd:
        phases.forward += seconds;
        break;
      case kBwd:
        phases.backward += seconds;
        break;
      default:
        phases.gradient += seconds;
        break;
    }
}

/**
 * The two-clock resource algebra of a training step — the paper's
 * event-driven simulation (Section 6.1) in closed form. The serial
 * clock is the lockstep chain (compute -> exchange -> next layer); the
 * network clock is the interconnect. Compute advances the serial
 * clock. An async exchange (overlapped gradient reduction) waits for
 * its producer (serial) and for the link (network), then advances only
 * the network clock, so it does not block the chain. A synchronous
 * exchange waits for both and joins them. Both clocks only move
 * forward, so the latest task end is drained(). Every simulator entry
 * point schedules through advance(); tests/support/queue_reference.hh
 * replays the same tasks through a discrete-event queue as the oracle.
 */
struct Tapes
{
    double serial = 0.0;  //!< when the lockstep chain may continue
    double network = 0.0; //!< when the interconnect is idle again

    /** Schedule one task of `seconds`; returns its start. */
    double
    advance(double seconds, bool exchange, bool async)
    {
        if (!exchange) {
            const double start = serial;
            serial = start + seconds;
            return start;
        }
        if (async) {
            const double start = std::max(network, serial);
            network = start + seconds;
            return start;
        }
        const double start = std::max(serial, network);
        serial = start + seconds;
        network = serial;
        return start;
    }

    double drained() const { return std::max(serial, network); }
};

/** Schedule `tasks` in emission order, calling visit(task, start). */
template <typename Tasks, typename Visit>
inline void
replay(Tasks &tasks, Tapes &tapes, Visit &&visit)
{
    for (auto &t : tasks)
        visit(t, tapes.advance(t.seconds, t.exchange, t.async));
}

} // namespace

TrainingSimulator::TrainingSimulator(const core::CommModel &model,
                                     const arch::AcceleratorConfig &acc,
                                     const arch::EnergyModel &energy,
                                     const noc::Topology &topo,
                                     const SimOptions &options)
    : model_(&model), acc_(acc), energy_(energy), topo_(&topo),
      options_(options), mapper_(acc)
{
    arch::validateAcceleratorConfig(acc_);
    if (!(options_.computeScale > 0.0) ||
        !std::isfinite(options_.computeScale))
        util::fatal("TrainingSimulator: SimOptions::computeScale must "
                    "be positive and finite");
    const std::size_t levels = topo_->levels();
    if (levels <= kPrefixTableMaxLevels) {
        const std::size_t states = std::size_t{1} << levels;
        prefixDp_.resize(states * (levels + 1));
        for (std::size_t s = 0; s < states; ++s) {
            unsigned dp = 0;
            for (std::size_t h = 0; h <= levels; ++h) {
                prefixDp_[s * (levels + 1) + h] =
                    static_cast<std::uint8_t>(dp);
                if (h < levels && ((s >> h) & 1u) == 0)
                    ++dp;
            }
        }
    }
}

unsigned
TrainingSimulator::dpAbove(std::uint32_t state, std::size_t h) const
{
    if (!prefixDp_.empty())
        return prefixDp_[std::size_t{state} * (topo_->levels() + 1) + h];
    const auto mask =
        static_cast<std::uint32_t>((std::uint64_t{1} << h) - 1u);
    return static_cast<unsigned>(h) -
           static_cast<unsigned>(std::popcount(state & mask));
}

void
TrainingSimulator::addExchange(std::vector<TapeTask> &tasks,
                               std::size_t level, double pair_bytes,
                               bool async, int phase, const char *tag,
                               const std::string &layer_name,
                               StepMetrics &metrics) const
{
    if (pair_bytes <= 0.0)
        return;

    TapeTask t;
    t.tape = async ? TapeTask::Tape::kNetwork : TapeTask::Tape::kSerial;
    t.exchange = true;
    t.seconds = topo_->exchangeSeconds(level, pair_bytes);
    t.async = async;
    t.phase = phase;
    // Labels only feed the trace; skipping them keeps the hot sweep and
    // batch paths free of per-task string allocations.
    if (options_.recordTrace)
        t.label = std::string(tag) + ":" + layer_name + "@H" +
                  std::to_string(level + 1);
    // Bytes summed over all group pairs of the level.
    const double global_bytes =
        pair_bytes * std::ldexp(1.0, static_cast<int>(level));
    metrics.commBytes += global_bytes;

    // Remote word: DRAM read at the producer, link traversal, DRAM
    // write at the consumer; reductions additionally pay one fp32 add
    // per received word (counted as compute energy).
    const double words = global_bytes / model_->config().wordBytes;
    metrics.energy.commJ +=
        words * 2.0 * energy_.dramWordJ +
        energy_.linkEnergy(words, topo_->exchangeHops(level));
    metrics.energy.computeJ += words * energy_.addJ;

    tasks.push_back(std::move(t));
}

std::vector<TapeTask>
TrainingSimulator::buildTasks(const core::HierarchicalPlan &plan,
                              StepMetrics &metrics) const
{
    const dnn::Network &net = model_->network();
    const core::CommConfig &comm = model_->config();
    const std::size_t num_layers = net.size();
    const std::size_t levels = plan.numLevels();
    const double num_accs = std::ldexp(1.0, static_cast<int>(levels));
    const double batch = static_cast<double>(comm.batch);

    core::validatePlan(plan, net);
    if (levels != topo_->levels())
        util::fatal("TrainingSimulator: plan depth does not match the "
                    "topology");

    // Per-layer level-vector columns: bit h of col[l] set = layer l
    // runs model-parallel at level h. All the dp/mp counts the scaling
    // needs are functions of a layer's own column, served by dpAbove()
    // from the shared prefix-count table — no per-plan History chain
    // is rebuilt, so batched/swept plans that differ in a few layers
    // share all of this for free.
    HYPAR_ASSERT(levels < 32, "plan depth exceeds the 32-bit column");
    std::vector<std::uint32_t> col(num_layers, 0);
    for (std::size_t h = 0; h < levels; ++h)
        for (std::size_t l = 0; l < num_layers; ++l)
            if (plan.levels[h][l] == core::Parallelism::kModel)
                col[l] |= std::uint32_t{1} << h;

    // Per-layer shard geometry after all H splits.
    std::vector<double> batch_shard(num_layers);
    std::vector<double> weight_shard(num_layers);
    std::vector<double> in_shard(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        const auto d = static_cast<int>(dpAbove(col[l], levels));
        const auto m = static_cast<int>(levels) - d;
        batch_shard[l] = batch * std::ldexp(1.0, -d);
        weight_shard[l] = static_cast<double>(
                              net.layer(l).weightElems()) *
                          std::ldexp(1.0, -m);
        in_shard[l] = static_cast<double>(
                          net.layer(l).inElemsPerSample()) *
                      std::ldexp(1.0, -m);
    }

    std::vector<TapeTask> tasks;

    // Emit one compute task (PE time overlapped with DRAM streaming).
    auto add_compute = [&](std::size_t l, int phase, double macs,
                           double dram_bytes, const char *tag) {
        const dnn::Layer &layer = net.layer(l);
        const auto map_batch = static_cast<std::size_t>(
            std::max(1.0, std::floor(batch_shard[l])));
        const double pe_sec = mapper_.phaseSeconds(layer, map_batch, macs);
        const double dram_sec = dram_bytes / acc_.dramBandwidth;

        TapeTask t;
        // Slowest-surviving-node derating (1.0 pristine, exact).
        t.seconds = std::max(pe_sec, dram_sec) * options_.computeScale;
        t.phase = phase;
        if (options_.recordTrace)
            t.label = std::string(tag) + ":" + layer.name;

        const arch::Mapping mapping = mapper_.map(layer, map_batch);
        metrics.energy.computeJ +=
            num_accs * energy_.computeEnergy(macs);
        metrics.energy.sramJ += num_accs * energy_.sramEnergy(
            macs * mapping.sramWordsPerMac);
        metrics.energy.dramJ += num_accs * energy_.dramEnergy(
            dram_bytes / comm.wordBytes);
        tasks.push_back(std::move(t));
    };

    // Per-accelerator MACs of one phase of layer l: every hierarchy
    // level halves either the batch or the input channels.
    auto shard_macs = [&](std::size_t l) {
        return net.layer(l).fwdMacsPerSample() * batch / num_accs;
    };

    // --- forward -------------------------------------------------------
    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        const double dram_bytes =
            (in_shard[l] * batch_shard[l] + weight_shard[l] + out_elems) *
            comm.wordBytes;
        add_compute(l, kFwd, shard_macs(l), dram_bytes, "fwd");

        for (std::size_t h = 0; h < levels; ++h) {
            if (plan.levels[h][l] == core::Parallelism::kModel) {
                const unsigned dp = dpAbove(col[l], h);
                addExchange(tasks, h,
                            model_->intraBytesAt(
                                l, core::Parallelism::kModel, dp,
                                static_cast<unsigned>(h) - dp),
                            false, kFwd, "psum", layer.name, metrics);
            }
            // Forward boundary exchanges: one per outgoing DAG edge,
            // destinations ascending. On a chain this is exactly the
            // old single l -> l+1 term.
            for (const std::size_t w : net.succs(l)) {
                addExchange(tasks, h,
                            model_->interBytesFAt(
                                l, plan.levels[h][l],
                                plan.levels[h][w],
                                dpAbove(col[l], h)),
                            false, kFwd, "featx", layer.name, metrics);
            }
        }
    }

    // --- error backward (layer 0 needs no input error) ------------------
    for (std::size_t l = num_layers; l-- > 1;) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        const double dram_bytes =
            (out_elems + weight_shard[l] + in_shard[l] * batch_shard[l]) *
            comm.wordBytes;
        add_compute(l, kBwd, shard_macs(l), dram_bytes, "bwd");

        // The incoming edges u -> l move E_l during backward (its
        // batch dimension follows layer l's upper dp splits); a join
        // layer fans its error back along every incoming edge. On a
        // chain this is exactly the old single l-1 -> l term.
        for (std::size_t h = 0; h < levels; ++h) {
            for (const std::size_t u : net.preds(l)) {
                addExchange(tasks, h,
                            model_->interBytesEAt(
                                u, plan.levels[h][u],
                                plan.levels[h][l], dpAbove(col[l], h)),
                            false, kBwd, "errx", layer.name, metrics);
            }
        }
    }

    // --- gradient + weight update ---------------------------------------
    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double out_elems =
            static_cast<double>(layer.outRawElemsPerSample()) *
            batch_shard[l];
        // Read activations and errors, write the gradient, then
        // read-modify-write the kernel for the update.
        const double dram_bytes =
            (in_shard[l] * batch_shard[l] + out_elems +
             3.0 * weight_shard[l]) * comm.wordBytes;
        add_compute(l, kGrad, shard_macs(l), dram_bytes, "grad");

        for (std::size_t h = 0; h < levels; ++h) {
            if (plan.levels[h][l] == core::Parallelism::kData) {
                const unsigned dp = dpAbove(col[l], h);
                addExchange(tasks, h,
                            model_->intraBytesAt(
                                l, core::Parallelism::kData, dp,
                                static_cast<unsigned>(h) - dp),
                            options_.overlapGradComm, kGrad, "gradx",
                            layer.name, metrics);
            }
        }
    }

    return tasks;
}

StepMetrics
TrainingSimulator::simulate(const core::HierarchicalPlan &plan) const
{
    return simulateSteadyState(plan, 1);
}

StepMetrics
TrainingSimulator::simulateSteadyState(const core::HierarchicalPlan &plan,
                                       std::size_t steps) const
{
    if (steps == 0)
        util::fatal("simulateSteadyState: need at least one step");

    StepMetrics metrics;
    const std::vector<TapeTask> tasks = buildTasks(plan, metrics);

    // Per-step accounting was accumulated once by buildTasks; scale
    // the totals.
    const auto steps_d = static_cast<double>(steps);
    metrics.commBytes *= steps_d;
    metrics.energy.computeJ *= steps_d;
    metrics.energy.sramJ *= steps_d;
    metrics.energy.dramJ *= steps_d;
    metrics.energy.commJ *= steps_d;
    trace_.clear();

    // Replaying the one-step task list `steps` times on the same tapes
    // is the back-to-back schedule; a step is complete once its chain
    // and any async stragglers have drained. Only the first and the
    // last step boundary are needed, so memory does not grow with
    // `steps`.
    Tapes tapes;
    double first_finish = 0.0;
    const bool tracing = options_.recordTrace;
    for (std::size_t s = 0; s < steps; ++s) {
        replay(tasks, tapes, [&](const TapeTask &t, double start) {
            addPhaseSeconds(metrics.phases, t.phase, t.seconds);
            if (t.exchange)
                metrics.networkBusySeconds += t.seconds;
            else
                metrics.computeBusySeconds += t.seconds;
            if (tracing)
                trace_.push_back(
                    TraceEntry{start, start + t.seconds, t.label});
        });
        if (s == 0)
            first_finish = tapes.drained();
    }
    // One step: its latency. Several: the spacing of the step
    // boundaries after warm-up.
    metrics.stepSeconds =
        steps == 1 ? first_finish
                   : (tapes.drained() - first_finish) / (steps_d - 1.0);
    return metrics;
}

TapeSchedule
TrainingSimulator::overlapSchedule(const core::HierarchicalPlan &plan) const
{
    StepMetrics scratch;
    TapeSchedule sched;
    sched.tasks = buildTasks(plan, scratch);
    Tapes tapes;
    replay(sched.tasks, tapes, [](TapeTask &t, double start) {
        t.start = start;
        t.end = start + t.seconds;
    });
    sched.serialEnd = tapes.serial;
    sched.networkEnd = tapes.network;
    sched.stepSeconds = tapes.drained();
    return sched;
}

namespace {

/** Precomputed contributions of one task slot under one variant. */
struct Contrib
{
    bool present = false; //!< emitted (addExchange skips zero bytes)
    double seconds = 0.0;
    double computeJ = 0.0; //!< MACs, or an exchange's reduction adds
    double sramJ = 0.0;
    double dramJ = 0.0;
    double commJ = 0.0; //!< remote DRAM + link energy
    double globalBytes = 0.0;
};

/** One task of the swept step, in emission order. */
struct SweepSlot
{
    const Contrib *variants = nullptr; //!< 2, or 4 for an inter exchange
    unsigned layer = 0; //!< variant = (mask >> layer) & bits
    unsigned bits = 1;  //!< 1, or 3 for an inter exchange
    bool exchange = false;
    bool async = false;
    int phase = 0;
};

} // namespace

void
TrainingSimulator::sweepNeighborhood(
    const core::HierarchicalPlan &base, std::size_t level,
    const std::function<void(std::uint64_t, const StepMetrics &)> &visit)
    const
{
    const dnn::Network &net = model_->network();
    const core::CommConfig &comm = model_->config();
    const std::size_t num_layers = net.size();
    const std::size_t levels = base.numLevels();

    core::validatePlan(base, net);
    if (levels != topo_->levels())
        util::fatal("sweepNeighborhood: plan depth does not match the "
                    "topology");
    if (level >= levels)
        util::fatal("sweepNeighborhood: swept level out of range");
    if (num_layers > 24)
        util::fatal("sweepNeighborhood: more than 24 layers makes the "
                    "2^L sweep unreasonable");

    // DAG networks: the 4-variant incremental tables below key the
    // inter exchanges by the chain transition (l, l+1), which does not
    // hold with joins. Fall back to one full simulate() per
    // substituted mask — bit-identical by definition, just O(2^L)
    // rebuilds. An incremental DAG sweep is a recorded follow-up
    // (ROADMAP).
    if (!net.isChain()) {
        core::sweepLevelMasks(
            base, level,
            [&](std::uint64_t mask, const core::HierarchicalPlan &plan) {
                visit(mask, simulate(plan));
            });
        return;
    }

    const std::uint64_t num_masks = std::uint64_t{1} << num_layers;

    // ---- precompute ---------------------------------------------------
    //
    // Flipping layer l's choice at the swept level changes only values
    // that depend on that bit: layer l's shard geometry (all three
    // compute tasks), its intra exchanges at the swept level (choice)
    // and below it (scaling), and the two adjacent inter exchanges
    // (which also read the neighbor's bit). Every task slot therefore
    // has at most 4 variants; precompute them all with the exact
    // arithmetic buildTasks uses, then score each mask by replaying the
    // accumulator sequence below.

    const double num_accs = std::ldexp(1.0, static_cast<int>(levels));
    const double batch = static_cast<double>(comm.batch);

    // dp/mp counts of the base plan's levels 0..h-1 *excluding* the
    // swept level, per layer; the swept bit is patched in per variant.
    std::vector<unsigned> dp_excl((levels + 1) * num_layers, 0);
    std::vector<unsigned> mp_excl((levels + 1) * num_layers, 0);
    for (std::size_t h = 0; h < levels; ++h) {
        for (std::size_t l = 0; l < num_layers; ++l) {
            unsigned dp = dp_excl[h * num_layers + l];
            unsigned mp = mp_excl[h * num_layers + l];
            if (h != level) {
                if (base.levels[h][l] == core::Parallelism::kData)
                    ++dp;
                else
                    ++mp;
            }
            dp_excl[(h + 1) * num_layers + l] = dp;
            mp_excl[(h + 1) * num_layers + l] = mp;
        }
    }
    // Upper-level counts seen by hierarchy level h for layer l when the
    // swept bit of layer l is `b` (1 = mp). The swept level only counts
    // for levels strictly below it.
    auto dp_above = [&](std::size_t h, std::size_t l, int b) {
        return dp_excl[h * num_layers + l] +
               ((h > level && b == 0) ? 1u : 0u);
    };
    auto mp_above = [&](std::size_t h, std::size_t l, int b) {
        return mp_excl[h * num_layers + l] +
               ((h > level && b == 1) ? 1u : 0u);
    };
    // Effective choice of (level h, layer l) when the swept bit is b.
    auto choice = [&](std::size_t h, std::size_t l, int b) {
        if (h == level)
            return b ? core::Parallelism::kModel
                     : core::Parallelism::kData;
        return base.levels[h][l];
    };

    auto make_exchange = [&](std::size_t h, double pair_bytes) {
        Contrib c;
        if (pair_bytes <= 0.0)
            return c;
        c.present = true;
        c.seconds = topo_->exchangeSeconds(h, pair_bytes);
        c.globalBytes =
            pair_bytes * std::ldexp(1.0, static_cast<int>(h));
        const double words = c.globalBytes / comm.wordBytes;
        c.commJ = words * 2.0 * energy_.dramWordJ +
                  energy_.linkEnergy(words, topo_->exchangeHops(h));
        c.computeJ = words * energy_.addJ;
        return c;
    };

    // comp[(3*l + phase) * 2 + b]; bwd entries of layer 0 stay unused.
    std::vector<Contrib> comp(num_layers * 3 * 2);
    // intra slots: [(l * levels + h) * 2 + b]. A psum (gradx) slot
    // stays absent unless the choice there is mp (dp).
    std::vector<Contrib> psum(num_layers * levels * 2);
    std::vector<Contrib> gradx(num_layers * levels * 2);
    // inter slots of transition l -> l+1: [(l * levels + h) * 4 +
    // (b_l + 2*b_next)], so (mask >> l) & 3 selects the variant
    const std::size_t transitions = num_layers > 0 ? num_layers - 1 : 0;
    std::vector<Contrib> featx(transitions * levels * 4);
    std::vector<Contrib> errx(transitions * levels * 4);

    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double macs =
            net.layer(l).fwdMacsPerSample() * batch / num_accs;
        for (int b = 0; b < 2; ++b) {
            // Shard geometry after all H splits, swept bit = b.
            const auto d_full = static_cast<int>(
                dp_excl[levels * num_layers + l] + (b == 0 ? 1u : 0u));
            const auto m_full = static_cast<int>(
                mp_excl[levels * num_layers + l] + (b == 1 ? 1u : 0u));
            const double batch_shard = batch * std::ldexp(1.0, -d_full);
            const double weight_shard =
                static_cast<double>(layer.weightElems()) *
                std::ldexp(1.0, -m_full);
            const double in_shard =
                static_cast<double>(layer.inElemsPerSample()) *
                std::ldexp(1.0, -m_full);
            const double out_elems =
                static_cast<double>(layer.outRawElemsPerSample()) *
                batch_shard;

            const auto map_batch = static_cast<std::size_t>(
                std::max(1.0, std::floor(batch_shard)));
            const double pe_sec =
                mapper_.phaseSeconds(layer, map_batch, macs);
            const arch::Mapping mapping = mapper_.map(layer, map_batch);
            const double compute_j =
                num_accs * energy_.computeEnergy(macs);
            const double sram_j = num_accs * energy_.sramEnergy(
                macs * mapping.sramWordsPerMac);

            const double dram_bytes[3] = {
                (in_shard * batch_shard + weight_shard + out_elems) *
                    comm.wordBytes,
                (out_elems + weight_shard + in_shard * batch_shard) *
                    comm.wordBytes,
                (in_shard * batch_shard + out_elems +
                 3.0 * weight_shard) * comm.wordBytes,
            };
            for (int phase = 0; phase < 3; ++phase) {
                Contrib &c = comp[(3 * l + phase) * 2 + b];
                c.present = true;
                const double dram_sec =
                    dram_bytes[phase] / acc_.dramBandwidth;
                c.seconds =
                    std::max(pe_sec, dram_sec) * options_.computeScale;
                c.computeJ = compute_j;
                c.sramJ = sram_j;
                c.dramJ = num_accs * energy_.dramEnergy(
                    dram_bytes[phase] / comm.wordBytes);
            }

            for (std::size_t h = 0; h < levels; ++h) {
                if (choice(h, l, b) == core::Parallelism::kModel) {
                    psum[(l * levels + h) * 2 + b] = make_exchange(
                        h, model_->intraBytesAt(
                               l, core::Parallelism::kModel,
                               dp_above(h, l, b), mp_above(h, l, b)));
                } else {
                    gradx[(l * levels + h) * 2 + b] = make_exchange(
                        h, model_->intraBytesAt(
                               l, core::Parallelism::kData,
                               dp_above(h, l, b), mp_above(h, l, b)));
                }
            }
        }
    }
    for (std::size_t l = 0; l + 1 < num_layers; ++l) {
        for (std::size_t h = 0; h < levels; ++h) {
            for (int bl = 0; bl < 2; ++bl) {
                for (int bn = 0; bn < 2; ++bn) {
                    const std::size_t slot =
                        (l * levels + h) * 4 +
                        static_cast<std::size_t>(bl + 2 * bn);
                    featx[slot] = make_exchange(
                        h, model_->interBytesFAt(
                               l, choice(h, l, bl),
                               choice(h, l + 1, bn),
                               dp_above(h, l, bl)));
                    errx[slot] = make_exchange(
                        h, model_->interBytesEAt(
                               l, choice(h, l, bl),
                               choice(h, l + 1, bn),
                               dp_above(h, l + 1, bn)));
                }
            }
        }
    }

    // ---- slot program -------------------------------------------------
    //
    // The step's task slots in buildTasks' emission order, each pointing
    // at its variants. A slot whose variants are all absent (an intra
    // exchange the base plan's choice never emits) is dropped. Labels
    // are slot functions, never of the mask, so under recordTrace one
    // string per slot serves every visited plan.
    const bool tracing = options_.recordTrace;
    std::vector<SweepSlot> slots;
    slots.reserve(num_layers * (3 + 4 * levels)); // upper bound
    std::vector<std::string> labels;
    auto add = [&](const Contrib *variants, std::size_t layer, bool pair,
                   bool exchange, bool async, int phase, const char *tag,
                   const std::string &name, std::size_t h) {
        if (!std::any_of(variants, variants + (pair ? 4 : 2),
                         [](const Contrib &c) { return c.present; }))
            return;
        slots.push_back({variants, static_cast<unsigned>(layer),
                         pair ? 3u : 1u, exchange, async, phase});
        if (tracing)
            labels.push_back(std::string(tag) + ":" + name +
                             (exchange ? "@H" + std::to_string(h + 1)
                                       : std::string()));
    };
    const bool overlap = options_.overlapGradComm;
    for (std::size_t l = 0; l < num_layers; ++l) {
        const std::string &name = net.layer(l).name;
        add(&comp[(3 * l + kFwd) * 2], l, false, false, false, kFwd, "fwd",
            name, 0);
        for (std::size_t h = 0; h < levels; ++h) {
            add(&psum[(l * levels + h) * 2], l, false, true, false, kFwd,
                "psum", name, h);
            if (l + 1 < num_layers)
                add(&featx[(l * levels + h) * 4], l, true, true, false,
                    kFwd, "featx", name, h);
        }
    }
    for (std::size_t l = num_layers; l-- > 1;) {
        const std::string &name = net.layer(l).name;
        add(&comp[(3 * l + kBwd) * 2], l, false, false, false, kBwd, "bwd",
            name, 0);
        for (std::size_t h = 0; h < levels; ++h)
            add(&errx[((l - 1) * levels + h) * 4], l - 1, true, true, false,
                kBwd, "errx", name, h);
    }
    for (std::size_t l = 0; l < num_layers; ++l) {
        const std::string &name = net.layer(l).name;
        add(&comp[(3 * l + kGrad) * 2], l, false, false, false, kGrad,
            "grad", name, 0);
        for (std::size_t h = 0; h < levels; ++h)
            add(&gradx[(l * levels + h) * 2], l, false, true, overlap, kGrad,
                "gradx", name, h);
    }

    // ---- per-mask replay ----------------------------------------------
    //
    // Each mask selects one variant per slot and replays the slots with
    // the same StepMetrics additions the task-list path performs,
    // scheduled through the same Tapes::advance. The accumulation order
    // never changes, so every mask's StepMetrics (and trace) is
    // bit-identical to a full simulate() with and without
    // overlapGradComm.
    for (std::uint64_t mask = 0; mask < num_masks; ++mask) {
        StepMetrics m;
        Tapes tapes;
        if (tracing)
            trace_.clear();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const SweepSlot &s = slots[i];
            const Contrib &c = s.variants[(mask >> s.layer) & s.bits];
            if (!c.present)
                continue;
            m.energy.computeJ += c.computeJ;
            if (s.exchange) {
                m.commBytes += c.globalBytes;
                m.energy.commJ += c.commJ;
                m.networkBusySeconds += c.seconds;
            } else {
                m.energy.sramJ += c.sramJ;
                m.energy.dramJ += c.dramJ;
                m.computeBusySeconds += c.seconds;
            }
            addPhaseSeconds(m.phases, s.phase, c.seconds);
            const double start =
                tapes.advance(c.seconds, s.exchange, s.async);
            if (tracing)
                trace_.push_back(
                    TraceEntry{start, start + c.seconds, labels[i]});
        }
        m.stepSeconds = tapes.drained();
        visit(mask, m);
    }
}

} // namespace hypar::sim
