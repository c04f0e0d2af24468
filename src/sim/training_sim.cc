#include "sim/training_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/brute_force.hh"
#include "core/simd_kernels.hh"
#include "util/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

void
TrainingSimulator::validateSweep(const core::HierarchicalPlan &base,
                                 std::size_t level) const
{
    core::validatePlan(base, model_->network());
    if (base.numLevels() != topo_->levels())
        util::fatal("sweepNeighborhood: plan depth does not match the "
                    "topology");
    if (level >= base.numLevels())
        util::fatal("sweepNeighborhood: swept level out of range");
    if (model_->network().size() > 24)
        util::fatal("sweepNeighborhood: more than 24 layers makes the "
                    "2^L sweep unreasonable");
}

void
TrainingSimulator::sweepNeighborhood(const core::HierarchicalPlan &base,
                                     std::size_t level,
                                     const SweepVisit &visit) const
{
    // DAG networks: the 4-variant incremental rows key the inter
    // exchanges by the chain transition (l, l+1), which does not hold
    // with joins. Fall back to one full simulate() per substituted
    // mask — bit-identical by definition, just O(2^L) rebuilds. An
    // incremental DAG sweep is a recorded follow-up (ROADMAP).
    if (!model_->network().isChain()) {
        validateSweep(base, level);
        core::sweepLevelMasks(
            base, level,
            [&](std::uint64_t mask, const core::HierarchicalPlan &plan) {
                visit(mask, simulate(plan));
            });
        return;
    }

    const SweepProgram program = sweepProgram(base, level);
    const std::uint64_t masks = program.numMasks();
    if (options_.recordTrace)
        sweepMasksScalar(program, 0, masks, visit, &trace_);
    else if (masks >= 4 &&
             &core::simd::activeKernels() != &core::simd::scalarKernels())
        sweepMasksAvx2(program, 0, masks, visit);
    else
        sweepMasksScalar(program, 0, masks, visit);
}

SweepProgram
TrainingSimulator::sweepProgram(const core::HierarchicalPlan &base,
                                std::size_t level) const
{
    validateSweep(base, level);
    const dnn::Network &net = model_->network();
    if (!net.isChain())
        util::fatal("sweepProgram: the slot program needs a chain "
                    "network");
    const core::CommConfig &comm = model_->config();
    const std::size_t num_layers = net.size();
    const std::size_t levels = base.numLevels();

    // ---- precompute ---------------------------------------------------
    //
    // Flipping layer l's choice at the swept level changes only values
    // that depend on that bit: layer l's shard geometry (all three
    // compute tasks), its intra exchanges at the swept level (choice)
    // and below it (scaling), and the two adjacent inter exchanges
    // (which also read the neighbor's bit). Every task slot therefore
    // has at most 4 variants; each row below holds them all, computed
    // with the exact arithmetic buildTasks uses.

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

    // Compute-task inputs of layer l with swept bit b: shards[2l + b].
    struct Shard
    {
        double peSec = 0.0;
        double computeJ = 0.0;
        double sramJ = 0.0;
        double dramBytes[3] = {}; //!< per phase
    };
    std::vector<Shard> shards(2 * num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        const dnn::Layer &layer = net.layer(l);
        const double macs = layer.fwdMacsPerSample() * batch / num_accs;
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
            const arch::Mapping mapping = mapper_.map(layer, map_batch);
            Shard &s = shards[2 * l + static_cast<std::size_t>(b)];
            s.peSec = mapper_.phaseSeconds(layer, map_batch, macs);
            s.computeJ = num_accs * energy_.computeEnergy(macs);
            s.sramJ = num_accs * energy_.sramEnergy(
                macs * mapping.sramWordsPerMac);
            s.dramBytes[kFwd] =
                (in_shard * batch_shard + weight_shard + out_elems) *
                comm.wordBytes;
            s.dramBytes[kBwd] =
                (out_elems + weight_shard + in_shard * batch_shard) *
                comm.wordBytes;
            s.dramBytes[kGrad] = (in_shard * batch_shard + out_elems +
                                  3.0 * weight_shard) *
                                 comm.wordBytes;
        }
    }

    // ---- slot program -------------------------------------------------
    //
    // The step's task slots in buildTasks' emission order, each row
    // filled variant by variant. A row no variant emits (an intra
    // exchange the base plan's choice never emits) is dropped. Labels
    // are slot functions, never of the mask, so under recordTrace one
    // string per row serves every visited plan.
    constexpr std::uint64_t kOn = ~std::uint64_t{0};
    auto set_compute = [&](SweepRow &r, int b, int phase) {
        const Shard &s = shards[2 * r.layer + static_cast<unsigned>(b)];
        const double dram_sec = s.dramBytes[phase] / acc_.dramBandwidth;
        r.present[b] = kOn;
        r.seconds[b] = std::max(s.peSec, dram_sec) * options_.computeScale;
        r.computeJ[b] = s.computeJ;
        r.sramJOrBytes[b] = s.sramJ;
        r.dramJOrCommJ[b] = num_accs * energy_.dramEnergy(
            s.dramBytes[phase] / comm.wordBytes);
    };
    auto set_exchange = [&](SweepRow &r, int v, std::size_t h,
                            double pair_bytes) {
        if (pair_bytes <= 0.0)
            return;
        const double global_bytes =
            pair_bytes * std::ldexp(1.0, static_cast<int>(h));
        const double words = global_bytes / comm.wordBytes;
        r.present[v] = kOn;
        r.seconds[v] = topo_->exchangeSeconds(h, pair_bytes);
        r.computeJ[v] = words * energy_.addJ;
        r.sramJOrBytes[v] = global_bytes;
        r.dramJOrCommJ[v] =
            words * 2.0 * energy_.dramWordJ +
            energy_.linkEnergy(words, topo_->exchangeHops(h));
    };
    auto row = [](std::size_t layer, unsigned bits, SweepRow::Kind kind,
                  int phase) {
        SweepRow r;
        r.layer = static_cast<std::uint32_t>(layer);
        r.bits = bits;
        r.kind = kind;
        r.phase = static_cast<std::uint8_t>(phase);
        for (std::uint32_t j = 0; j < 4; ++j) {
            const auto v = static_cast<std::int32_t>((j >> r.layer) & bits);
            r.lanes[2 * j] = 2 * v;
            r.lanes[2 * j + 1] = 2 * v + 1;
        }
        return r;
    };

    SweepProgram program;
    program.numLayers = num_layers;
    program.rows.reserve(num_layers * (3 + 4 * levels)); // upper bound
    const bool tracing = options_.recordTrace;
    auto emit = [&](const SweepRow &r, const char *tag,
                    const std::string &name, std::size_t h) {
        if (std::none_of(r.present, r.present + 4,
                         [](std::uint64_t p) { return p != 0; }))
            return;
        program.rows.push_back(r);
        if (tracing)
            program.labels.push_back(
                std::string(tag) + ":" + name +
                (r.kind != SweepRow::Kind::kCompute
                     ? "@H" + std::to_string(h + 1)
                     : std::string()));
    };
    using Kind = SweepRow::Kind;
    const Kind gradx_kind =
        options_.overlapGradComm ? Kind::kAsyncExchange : Kind::kExchange;

    for (std::size_t l = 0; l < num_layers; ++l) {
        const std::string &name = net.layer(l).name;
        SweepRow fwd = row(l, 1, Kind::kCompute, kFwd);
        for (int b = 0; b < 2; ++b)
            set_compute(fwd, b, kFwd);
        emit(fwd, "fwd", name, 0);
        for (std::size_t h = 0; h < levels; ++h) {
            SweepRow psum = row(l, 1, Kind::kExchange, kFwd);
            for (int b = 0; b < 2; ++b)
                if (choice(h, l, b) == core::Parallelism::kModel)
                    set_exchange(psum, b, h,
                                 model_->intraBytesAt(
                                     l, core::Parallelism::kModel,
                                     dp_above(h, l, b),
                                     mp_above(h, l, b)));
            emit(psum, "psum", name, h);
            if (l + 1 == num_layers)
                continue;
            SweepRow featx = row(l, 3, Kind::kExchange, kFwd);
            for (int bl = 0; bl < 2; ++bl)
                for (int bn = 0; bn < 2; ++bn)
                    set_exchange(featx, bl + 2 * bn, h,
                                 model_->interBytesFAt(
                                     l, choice(h, l, bl),
                                     choice(h, l + 1, bn),
                                     dp_above(h, l, bl)));
            emit(featx, "featx", name, h);
        }
    }
    for (std::size_t l = num_layers; l-- > 1;) {
        const std::string &name = net.layer(l).name;
        SweepRow bwd = row(l, 1, Kind::kCompute, kBwd);
        for (int b = 0; b < 2; ++b)
            set_compute(bwd, b, kBwd);
        emit(bwd, "bwd", name, 0);
        for (std::size_t h = 0; h < levels; ++h) {
            SweepRow errx = row(l - 1, 3, Kind::kExchange, kBwd);
            for (int bl = 0; bl < 2; ++bl)
                for (int bn = 0; bn < 2; ++bn)
                    set_exchange(errx, bl + 2 * bn, h,
                                 model_->interBytesEAt(
                                     l - 1, choice(h, l - 1, bl),
                                     choice(h, l, bn),
                                     dp_above(h, l, bn)));
            emit(errx, "errx", name, h);
        }
    }
    for (std::size_t l = 0; l < num_layers; ++l) {
        const std::string &name = net.layer(l).name;
        SweepRow grad = row(l, 1, Kind::kCompute, kGrad);
        for (int b = 0; b < 2; ++b)
            set_compute(grad, b, kGrad);
        emit(grad, "grad", name, 0);
        for (std::size_t h = 0; h < levels; ++h) {
            SweepRow gradx = row(l, 1, gradx_kind, kGrad);
            for (int b = 0; b < 2; ++b)
                if (choice(h, l, b) == core::Parallelism::kData)
                    set_exchange(gradx, b, h,
                                 model_->intraBytesAt(
                                     l, core::Parallelism::kData,
                                     dp_above(h, l, b),
                                     mp_above(h, l, b)));
            emit(gradx, "gradx", name, h);
        }
    }
    return program;
}

// ---- per-mask replay ----------------------------------------------------
//
// Each mask selects one variant per row and replays the rows with the
// same StepMetrics additions the task-list path performs, scheduled
// through the same two-clock algebra. The accumulation order never
// changes, so every mask's StepMetrics (and trace) is bit-identical to
// a full simulate() with and without overlapGradComm.

void
sweepMasksScalar(const SweepProgram &program, std::uint64_t first,
                 std::uint64_t last, const SweepVisit &visit,
                 std::vector<TraceEntry> *trace)
{
    HYPAR_ASSERT(first <= last && last <= program.numMasks(),
                 "sweepMasksScalar: mask range out of bounds");
    HYPAR_ASSERT(trace == nullptr ||
                     program.labels.size() == program.rows.size(),
                 "sweepMasksScalar: a trace needs a recordTrace program");
    for (std::uint64_t mask = first; mask < last; ++mask) {
        StepMetrics m;
        Tapes tapes;
        if (trace != nullptr)
            trace->clear();
        for (std::size_t i = 0; i < program.rows.size(); ++i) {
            const SweepRow &r = program.rows[i];
            const auto v = static_cast<unsigned>(mask >> r.layer) & r.bits;
            if (r.present[v] == 0)
                continue;
            const double seconds = r.seconds[v];
            const bool exchange = r.kind != SweepRow::Kind::kCompute;
            m.energy.computeJ += r.computeJ[v];
            if (exchange) {
                m.commBytes += r.sramJOrBytes[v];
                m.energy.commJ += r.dramJOrCommJ[v];
                m.networkBusySeconds += seconds;
            } else {
                m.energy.sramJ += r.sramJOrBytes[v];
                m.energy.dramJ += r.dramJOrCommJ[v];
                m.computeBusySeconds += seconds;
            }
            addPhaseSeconds(m.phases, r.phase, seconds);
            const double start = tapes.advance(
                seconds, exchange, r.kind == SweepRow::Kind::kAsyncExchange);
            if (trace != nullptr)
                trace->push_back(
                    TraceEntry{start, start + seconds, program.labels[i]});
        }
        m.stepSeconds = tapes.drained();
        visit(mask, m);
    }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// AVX2 only — no FMA, so no multiply-add can be contracted and every
// lane performs the scalar kernel's IEEE operations.

/** std::max(a, b) per lane: b where a < b, else a — the same operand
 *  std::max returns, also for signed zeros and NaNs. */
__attribute__((target("avx2"))) inline __m256d
stdMax(__m256d a, __m256d b)
{
    return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}

/** One 4-mask group's StepMetrics and tapes, lane j = mask group + j. */
struct LaneState
{
    __m256d computeJ, sramJ, dramJ, commJ, commBytes;
    __m256d computeBusy, networkBusy, forward, backward, gradient;
    __m256d serial, network;
};

/**
 * acc + x in the lanes where `on` is set; the other lanes keep acc.
 * kAllOn (every lane runs a present variant) drops the blend.
 */
template <bool kAllOn>
__attribute__((target("avx2"), always_inline)) inline void
addWhere(__m256d &acc, __m256d x, __m256d on)
{
    const __m256d sum = _mm256_add_pd(acc, x);
    acc = kAllOn ? sum : _mm256_blendv_pd(acc, sum, on);
}

/** The scalar kernel's row step, lane by lane, on selected variants. */
template <bool kAllOn>
__attribute__((target("avx2"), always_inline)) inline void
replayRow(LaneState &s, const SweepRow &r, __m256d seconds,
          __m256d compute_j, __m256d sram_j_or_bytes,
          __m256d dram_j_or_comm_j, __m256d on)
{
    addWhere<kAllOn>(s.computeJ, compute_j, on);
    if (r.kind == SweepRow::Kind::kCompute) {
        addWhere<kAllOn>(s.sramJ, sram_j_or_bytes, on);
        addWhere<kAllOn>(s.dramJ, dram_j_or_comm_j, on);
        addWhere<kAllOn>(s.computeBusy, seconds, on);
    } else {
        addWhere<kAllOn>(s.commBytes, sram_j_or_bytes, on);
        addWhere<kAllOn>(s.commJ, dram_j_or_comm_j, on);
        addWhere<kAllOn>(s.networkBusy, seconds, on);
    }
    switch (r.phase) {
      case kFwd:
        addWhere<kAllOn>(s.forward, seconds, on);
        break;
      case kBwd:
        addWhere<kAllOn>(s.backward, seconds, on);
        break;
      default:
        addWhere<kAllOn>(s.gradient, seconds, on);
        break;
    }
    // Tapes::advance. A lane whose variant is absent keeps both clocks:
    // even a zero-second synchronous exchange would join them.
    switch (r.kind) {
      case SweepRow::Kind::kCompute:
        addWhere<kAllOn>(s.serial, seconds, on);
        break;
      case SweepRow::Kind::kAsyncExchange: {
        __m256d start = stdMax(s.network, s.serial);
        addWhere<true>(start, seconds, on);
        s.network = kAllOn ? start : _mm256_blendv_pd(s.network, start, on);
        break;
      }
      case SweepRow::Kind::kExchange: {
        __m256d end = stdMax(s.serial, s.network);
        addWhere<true>(end, seconds, on);
        s.serial = kAllOn ? end : _mm256_blendv_pd(s.serial, end, on);
        s.network = kAllOn ? end : _mm256_blendv_pd(s.network, end, on);
        break;
      }
    }
}

/** Lane j of the result = the variant of 4 whose two dwords idx picks. */
__attribute__((target("avx2"))) inline __m256d
pickLanes(const void *variants, __m256i idx)
{
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(
        _mm256_loadu_ps(static_cast<const float *>(variants)), idx));
}

} // namespace

__attribute__((target("avx2"))) void
sweepMasksAvx2(const SweepProgram &program, std::uint64_t first,
               std::uint64_t last, const SweepVisit &visit)
{
    HYPAR_ASSERT(first <= last && last <= program.numMasks() &&
                     first % 4 == 0 && last % 4 == 0,
                 "sweepMasksAvx2: mask range must be whole 4-mask groups");
    const __m256d zero = _mm256_setzero_pd();
    for (std::uint64_t group = first; group < last; group += 4) {
        LaneState s{zero, zero, zero, zero, zero, zero,
                    zero, zero, zero, zero, zero, zero};
        for (const SweepRow &r : program.rows) {
            const auto high = static_cast<unsigned>(group >> r.layer) & r.bits;
            if (r.layer >= 2) {
                // The lane bits are below the slot's layer: all four
                // lanes run variant `high`, present or not.
                if (r.present[high] == 0)
                    continue;
                replayRow<true>(s, r, _mm256_set1_pd(r.seconds[high]),
                                _mm256_set1_pd(r.computeJ[high]),
                                _mm256_set1_pd(r.sramJOrBytes[high]),
                                _mm256_set1_pd(r.dramJOrCommJ[high]), zero);
                continue;
            }
            // Lane j's variant: the slot's lane pattern plus the
            // group's high part (disjoint bits, so + is |).
            const __m256i idx = _mm256_add_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(r.lanes)),
                _mm256_set1_epi32(static_cast<int>(2 * high)));
            replayRow<false>(s, r, pickLanes(r.seconds, idx),
                             pickLanes(r.computeJ, idx),
                             pickLanes(r.sramJOrBytes, idx),
                             pickLanes(r.dramJOrCommJ, idx),
                             pickLanes(r.present, idx));
        }

        alignas(32) double lanes[11][4];
        _mm256_store_pd(lanes[0], stdMax(s.serial, s.network));
        _mm256_store_pd(lanes[1], s.computeBusy);
        _mm256_store_pd(lanes[2], s.networkBusy);
        _mm256_store_pd(lanes[3], s.commBytes);
        _mm256_store_pd(lanes[4], s.forward);
        _mm256_store_pd(lanes[5], s.backward);
        _mm256_store_pd(lanes[6], s.gradient);
        _mm256_store_pd(lanes[7], s.computeJ);
        _mm256_store_pd(lanes[8], s.sramJ);
        _mm256_store_pd(lanes[9], s.dramJ);
        _mm256_store_pd(lanes[10], s.commJ);
        for (int j = 0; j < 4; ++j) {
            StepMetrics m;
            m.stepSeconds = lanes[0][j];
            m.computeBusySeconds = lanes[1][j];
            m.networkBusySeconds = lanes[2][j];
            m.commBytes = lanes[3][j];
            m.phases.forward = lanes[4][j];
            m.phases.backward = lanes[5][j];
            m.phases.gradient = lanes[6][j];
            m.energy.computeJ = lanes[7][j];
            m.energy.sramJ = lanes[8][j];
            m.energy.dramJ = lanes[9][j];
            m.energy.commJ = lanes[10][j];
            visit(group + static_cast<std::uint64_t>(j), m);
        }
    }
}

#else

void
sweepMasksAvx2(const SweepProgram &program, std::uint64_t first,
               std::uint64_t last, const SweepVisit &visit)
{
    sweepMasksScalar(program, first, last, visit); // never selected off x86
}

#endif

} // namespace hypar::sim
