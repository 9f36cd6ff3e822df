/**
 * @file
 * Experiment E19 — shard scaling of the simulator itself.
 *
 * The paper's thesis applied to the host: the fuzzy barrier lets a
 * processor run ahead inside its region because the work there is
 * provably independent of its partners. exec::ShardedMachine applies
 * the same idea to host threads — each shard advances its processors
 * through provably-private ticks up to a sync quantum, and a skew
 * barrier (two swbarrier rendezvous per window) hands every
 * globally-visible interaction back to the coordinator in canonical
 * (cycle, proc-id) order. Determinism is the contract: every shard
 * count must produce a bit-identical RunResult and register file.
 *
 * This bench runs a 64-processor hardware-fuzzy barrier workload with
 * a heavy private-work region (the shardable fraction) at shard
 * counts 1/2/4/8 and reports wall-clock speedup over the sequential
 * core, failing loudly if any fingerprint drifts.
 */

#include "common.hh"
#include "exec/sharded_machine.hh"

#include <chrono>
#include <thread>
#include <vector>

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 64;
// Long enough that the single-shard run lasts over a second on a
// 4-core host: at 25 episodes it lasted ~48 ms and the 4-shard
// speedup was mostly rendezvous and scheduler noise.
constexpr int kEpisodes = 1500;
constexpr int kWork = 2400;   // private instrs per episode: the
                               // parallelizable fraction
constexpr int kRegionInstrs = 8;
constexpr std::uint64_t kQuantum = 4096;

struct ShardRun
{
    double wallSeconds = 0.0;
    std::vector<std::int64_t> fingerprint;
};

/** Fold every externally-observable outcome of the run into one flat
 * vector: RunResult counters, per-processor stats, and the full
 * register file. Equality here is the bench's bit-identical check. */
std::vector<std::int64_t>
fingerprintOf(sim::Machine &m, const sim::RunResult &r)
{
    std::vector<std::int64_t> fp;
    fp.push_back(static_cast<std::int64_t>(r.cycles));
    fp.push_back(r.deadlocked ? 1 : 0);
    fp.push_back(r.timedOut ? 1 : 0);
    fp.push_back(static_cast<std::int64_t>(r.syncEvents));
    fp.push_back(static_cast<std::int64_t>(r.busRequests));
    fp.push_back(static_cast<std::int64_t>(r.busQueueDelay));
    fp.push_back(static_cast<std::int64_t>(r.memAccesses));
    fp.push_back(static_cast<std::int64_t>(r.hotSpotAccesses));
    for (const auto &p : r.perProcessor) {
        fp.push_back(static_cast<std::int64_t>(p.instructions));
        fp.push_back(static_cast<std::int64_t>(p.barrierWaitCycles));
        fp.push_back(static_cast<std::int64_t>(p.barrierEpisodes));
        fp.push_back(static_cast<std::int64_t>(p.stallCycles));
    }
    for (int p = 0; p < kProcs; ++p)
        for (int i = 0; i < isa::numRegisters; ++i)
            fp.push_back(m.processor(p).reg(i));
    return fp;
}

ShardRun
runWithShards(int shards)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    cfg.maxCycles = 500'000'000;
    cfg.busKind = sim::BusKind::Banked;
    cfg.shardCount = shards;
    cfg.shardQuantum = shards > 1 ? kQuantum : 0;
    applyEnvOverrides(cfg);
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      kRegionInstrs));
    exec::ShardedMachine sharded(machine);
    const auto start = std::chrono::steady_clock::now();
    auto r = sharded.run();
    const auto end = std::chrono::steady_clock::now();
    tallyCycles(r);
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E19 run failed at shards=%d\n", shards);
        std::exit(1);
    }
    ShardRun out;
    out.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    out.fingerprint = fingerprintOf(machine, r);
    return out;
}

} // namespace

int
main()
{
    fb::Table table("E19: simulator wall-clock vs shard count "
                    "(64 procs, hw-fuzzy loop, quantum 4096)");
    table.setHeader({"shards", "wall-ms", "speedup", "identical"});

    // Interpretation aid: on a single-core host the speedup is only
    // the private-tick fast path (runPrivate's tight loop vs the
    // general scheduler); true thread-level scaling needs cores.
    std::printf("host-hardware-concurrency: %u\n",
                std::thread::hardware_concurrency());

    const ShardRun base = runWithShards(1);
    std::printf("shard-wall-seconds-1: %.6f\n", base.wallSeconds);

    bool all_identical = true;
    for (int shards : {2, 4, 8}) {
        const ShardRun run = runWithShards(shards);
        const bool identical = run.fingerprint == base.fingerprint;
        all_identical = all_identical && identical;
        const double speedup =
            run.wallSeconds > 0 ? base.wallSeconds / run.wallSeconds : 0;
        table.row()
            .cell(static_cast<std::int64_t>(shards))
            .cell(run.wallSeconds * 1e3, 1)
            .cell(speedup, 2)
            .cell(std::string(identical ? "yes" : "NO"));
        std::printf("shard-speedup-%d: %.2f\n", shards, speedup);
        if (!identical)
            std::fprintf(stderr,
                         "E19 FAIL: shards=%d fingerprint differs from "
                         "sequential core\n",
                         shards);
    }
    table.print(std::cout);

    printClaim("the fuzzy-barrier idea applied to the host: shards run "
               "ahead through provably-private work under a quantum skew "
               "window, so the simulator scales across threads while "
               "staying bit-identical to the sequential core");
    return all_identical ? 0 : 1;
}
