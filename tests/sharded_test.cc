/**
 * @file
 * Differential suite for the sharded executor (INTERNALS section 17):
 * exec::ShardedMachine partitions a machine's processors across host
 * threads under a quantum-bounded skew window, and every observable —
 * each RunResult counter, registers, sync records, the safety oracle,
 * deadlock/timeout verdicts, fault and watchdog statistics, snapshot
 * bytes — must be byte-identical to the sequential core at any shard
 * count and any quantum. The suite sweeps the same 220-scenario
 * corpus as the equivalence suite (tests/harness.hh) across shard
 * counts {1,2,4,7} x quanta {1,16,256,4096}, including fault plans,
 * watchdog recovery, and mid-run checkpoint/restore with snapshots
 * crossing shard settings. Also the TSan target for the shard
 * rendezvous (see .github/workflows/ci.yml).
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "exec/sharded_machine.hh"
#include "harness.hh"
#include "sim/machine.hh"
#include "snapshot/format.hh"
#include "verify/generator.hh"
#include "verify/scenario.hh"

namespace
{

using namespace fb;
using namespace fb::harness;

constexpr int kShardOptions[] = {2, 4, 7};
constexpr std::uint64_t kQuantumOptions[] = {1, 16, 256, 4096};

/** Rotate the (shards, quantum) pair per corpus seed so the sweep
 * covers the whole matrix without running 220 x 12 scenarios. */
void
shardParamsFor(std::uint64_t seed, int &shards, std::uint64_t &quantum)
{
    shards = kShardOptions[seed % 3];
    quantum = kQuantumOptions[(seed / 3) % 4];
}

/** Run one corpus seed sequentially and under (shards, quantum) and
 * require byte-identical observations. */
void
checkSharded(std::uint64_t seed, bool with_faults, int shards,
             std::uint64_t quantum, exec::MachinePool *pool = nullptr,
             exec::ProgramCache *cache = nullptr,
             std::uint64_t *recoveries_seen = nullptr)
{
    verify::ProgramSpec spec = verify::randomSpec(seed);
    verify::Scenario sc = verify::render(spec);
    if (with_faults)
        attachFaults(sc, corpusFaultSeed(seed));
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs, cache))
        << "seed " << seed;

    Knobs k = knobsFor(seed);
    std::string ctx = describeSeed(seed, with_faults, k) +
                      " shards=" + std::to_string(shards) +
                      " quantum=" + std::to_string(quantum);

    sim::MachineConfig cfg_seq = configFor(sc, k, true);
    sim::MachineConfig cfg_sh = cfg_seq;
    cfg_sh.shardCount = shards;
    cfg_sh.shardQuantum = quantum;

    Observation sequential = runOnce(sc, programs, cfg_seq, pool);
    Observation sharded = runOnce(sc, programs, cfg_sh, pool);
    expectIdentical(sharded, sequential, ctx);
    if (recoveries_seen)
        *recoveries_seen += sequential.result.recoveries.size();
}

// The tentpole guarantee, fault-free half: the full corpus matches
// the sequential core with the shard matrix rotated across seeds,
// on pooled machines (shard fields are reset-time parameters).
TEST(Sharded, MatchesSequentialOnFuzzPrograms)
{
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= kFaultFreeSeeds; ++seed) {
        int shards;
        std::uint64_t quantum;
        shardParamsFor(seed, shards, quantum);
        checkSharded(seed, false, shards, quantum, &pool, &cache);
    }
    EXPECT_GT(pool.reuses(), 0u);
}

// Fault half: kills, freezes, pulse drops, IRQ storms, bit flips and
// watchdog mask-shrink recovery must all land on the identical cycle
// under sharding — the window logic must collapse around every
// injector activity and watchdog deadline.
TEST(Sharded, MatchesSequentialUnderFaults)
{
    exec::MachinePool pool;
    exec::ProgramCache cache;
    std::uint64_t recoveries = 0;
    for (std::uint64_t seed = 1; seed <= kFaultSeeds; ++seed) {
        int shards;
        std::uint64_t quantum;
        shardParamsFor(seed, shards, quantum);
        checkSharded(seed, true, shards, quantum, &pool, &cache,
                     &recoveries);
    }
    EXPECT_GT(pool.reuses(), 0u);
    // The sweep must actually exercise watchdog recovery under
    // sharding, or the fault half proves nothing about it.
    EXPECT_GT(recoveries, 0u)
        << "fault sweep never hit the watchdog recovery path";
}

// Full shard x quantum cross product on a handful of seeds (two of
// them with fault plans), including shards=1 (clamp/fallback) and
// shards=7 (uneven ranges over small processor counts).
TEST(Sharded, FullMatrixOnSelectSeeds)
{
    exec::MachinePool pool;
    exec::ProgramCache cache;
    const std::uint64_t seeds[] = {3, 10, 21, 42};
    for (std::uint64_t seed : seeds) {
        const bool with_faults = (seed % 2 == 1);
        for (int shards : {1, 2, 4, 7})
            for (std::uint64_t quantum : kQuantumOptions)
                checkSharded(seed, with_faults, shards, quantum,
                             &pool, &cache);
    }
}

// The paper's Fig. 2 tag-mismatch deadlock: the sharded run must
// diagnose it at the identical cycle with the identical state dump —
// run-ahead must never carry a processor past the no-progress cycle.
TEST(Sharded, DeadlockDetectionMatches)
{
    verify::Scenario sc;
    sc.groupSizes = {2};
    sc.episodes = 1;
    sc.sources = {
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\nnop\n"
        "halt\n",
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\n"
        "settag 2\n.region\nnop\n.endregion\nnop\nhalt\n",
    };
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs));
    Knobs k;
    for (std::uint64_t quantum : kQuantumOptions) {
        sim::MachineConfig cfg_sh = configFor(sc, k, true);
        cfg_sh.shardCount = 2;
        cfg_sh.shardQuantum = quantum;
        Observation sequential =
            runOnce(sc, programs, configFor(sc, k, true));
        Observation sharded = runOnce(sc, programs, cfg_sh);
        EXPECT_TRUE(sequential.result.deadlocked);
        expectIdentical(sharded, sequential,
                        "fig2-deadlock q=" + std::to_string(quantum));
    }
}

// A runaway spinner must trip the maxCycles guard at exactly the same
// cycle: the window bound clamps at maxCycles even when the quantum
// would reach past it.
TEST(Sharded, TimeoutMatches)
{
    verify::Scenario sc;
    sc.groupSizes = {2};
    sc.episodes = 1;
    sc.sources = {
        "settag 1\nsetmask 3\nli r1, 0\nloop:\naddi r1, r1, 1\n"
        "jmp loop\n",
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\nnop\n"
        "halt\n",
    };
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs));
    Knobs k;
    for (std::uint64_t quantum : {16ull, 4096ull}) {
        sim::MachineConfig cfg = configFor(sc, k, true);
        cfg.maxCycles = 5000;
        cfg.shardCount = 2;
        cfg.shardQuantum = quantum;
        sim::Machine m(cfg);
        Observation obs = observeRun(sc, programs, m);
        EXPECT_TRUE(obs.result.timedOut)
            << "quantum " << quantum;
        EXPECT_EQ(obs.result.cycles, 5000u) << "quantum " << quantum;
    }
}

// Mid-run checkpoint/restore across shard settings: a snapshot
// captured during a sharded run restores into a machine running under
// a different shard count (including sequential), and the resumed run
// reproduces the uninterrupted sequential run exactly. Shard fields
// are excluded from the config fingerprint, so the interop is legal
// by construction; this holds it to byte-identical results.
TEST(Sharded, CheckpointRestoreCrossesShardSettings)
{
    // (restore-side shards, quantum) rotated per scenario; 1/0 is the
    // plain sequential core.
    const std::pair<int, std::uint64_t> restore_params[] = {
        {1, 0}, {2, 16}, {7, 4096}};
    int verified = 0;
    for (std::uint64_t seed = 1; seed <= 30 && verified < 6; ++seed) {
        verify::ProgramSpec spec = verify::randomSpec(seed);
        verify::Scenario sc = verify::render(spec);
        if (seed % 3 == 0)
            attachFaults(sc, corpusFaultSeed(seed));
        std::vector<isa::Program> programs;
        ASSERT_TRUE(assemblePrograms(sc, programs)) << "seed " << seed;
        Knobs k = knobsFor(seed);

        // Uninterrupted sequential baseline, and its length.
        Observation base =
            runOnce(sc, programs, configFor(sc, k, true));
        if (base.result.cycles < 32)
            continue; // too short for a mid-run checkpoint

        // Sharded run with a checkpoint sink capturing the first
        // snapshot (roughly mid-run). Checkpointing must not perturb
        // the sharded result either.
        sim::MachineConfig cfg_cap = configFor(sc, k, true);
        cfg_cap.shardCount = 4;
        cfg_cap.shardQuantum = 256;
        cfg_cap.checkpointEveryCycles = base.result.cycles / 2;
        cfg_cap.checkpointRebaseEvery = 1;
        sim::Machine capture(cfg_cap);
        for (int p = 0; p < sc.procs(); ++p)
            capture.loadProgram(p,
                                programs[static_cast<std::size_t>(p)]);
        std::vector<std::uint8_t> snap;
        std::uint64_t snap_cycle = 0;
        capture.setStagedCheckpointSink(
            [&](snapshot::SnapshotHeader header,
                std::vector<snapshot::Section> sections) {
                snap = snapshot::assemble(header, sections);
                snap_cycle = header.cycle;
                sim::Machine::CheckpointAck ack;
                ack.keep = false; // first checkpoint only
                return ack;
            });
        exec::ShardedMachine sharded(capture);
        sim::RunResult captured = sharded.run();
        EXPECT_EQ(captured.cycles, base.result.cycles)
            << "seed " << seed;
        ASSERT_FALSE(snap.empty()) << "seed " << seed;
        ASSERT_GT(snap_cycle, 0u) << "seed " << seed;
        ASSERT_LT(snap_cycle, base.result.cycles) << "seed " << seed;

        // Restore under a different shard setting and finish the run.
        const auto &[rs, rq] =
            restore_params[static_cast<std::size_t>(verified) % 3];
        sim::MachineConfig cfg_res = configFor(sc, k, true);
        cfg_res.shardCount = rs;
        cfg_res.shardQuantum = rq;
        sim::Machine resumed(cfg_res);
        for (int p = 0; p < sc.procs(); ++p)
            resumed.loadProgram(p,
                                programs[static_cast<std::size_t>(p)]);
        std::string err;
        ASSERT_TRUE(resumed.restoreState(snap, err))
            << "seed " << seed << ": " << err;
        exec::ShardedMachine resharded(resumed);
        sim::RunResult rr = resharded.run();

        std::string ctx = describeSeed(seed, sc.hasFaults(), k) +
                          " resume shards=" + std::to_string(rs) +
                          " quantum=" + std::to_string(rq) + " at=" +
                          std::to_string(snap_cycle);
        EXPECT_EQ(rr.cycles, base.result.cycles) << ctx;
        EXPECT_EQ(rr.deadlocked, base.result.deadlocked) << ctx;
        EXPECT_EQ(rr.timedOut, base.result.timedOut) << ctx;
        EXPECT_EQ(rr.syncEvents, base.result.syncEvents) << ctx;
        EXPECT_EQ(rr.memAccesses, base.result.memAccesses) << ctx;
        EXPECT_EQ(rr.busRequests, base.result.busRequests) << ctx;
        for (int p = 0; p < sc.procs(); ++p)
            for (int i = 0; i < isa::numRegisters; ++i)
                EXPECT_EQ(resumed.processor(p).reg(i),
                          base.regs[static_cast<std::size_t>(p)]
                                   [static_cast<std::size_t>(i)])
                    << ctx << " cpu" << p << " r" << i;
        ++verified;
    }
    // The seed range must yield enough long-running scenarios for the
    // rotation to cover every restore-side shard setting.
    EXPECT_GE(verified, 3);
}

// MachinePool leases are shard-aware for free: shard fields are not
// part of the structural key, so a lease taken for a sharded config
// recycles a machine built for a sequential one (and vice versa),
// with reset() reapplying the shard parameters.
TEST(Sharded, PoolLeasesCrossShardSettings)
{
    exec::MachinePool pool;
    sim::MachineConfig cfg;
    cfg.numProcessors = 4;
    cfg.memWords = 1024;
    {
        auto a = pool.acquire(cfg);
        ASSERT_TRUE(bool(a));
        EXPECT_EQ(pool.builds(), 1u);
    }
    sim::MachineConfig sharded = cfg;
    sharded.shardCount = 4;
    sharded.shardQuantum = 256;
    {
        auto b = pool.acquire(sharded);
        EXPECT_EQ(pool.builds(), 1u);
        EXPECT_EQ(pool.reuses(), 1u);
        EXPECT_EQ((*b).config().shardCount, 4);
        EXPECT_EQ((*b).config().shardQuantum, 256u);
    }
    // And the recycled machine still produces identical bytes: one
    // corpus seed, sharded, pooled vs fresh.
    exec::ProgramCache cache;
    checkSharded(5, true, 4, 16, &pool, &cache);
}

/** The full-resolution barrier timeline of one traced run. */
std::string
traceOf(const verify::Scenario &sc,
        const std::vector<isa::Program> &programs,
        sim::MachineConfig cfg)
{
    cfg.traceBarrierStates = true;
    sim::Machine m(cfg);
    observeRun(sc, programs, m);
    const sim::BarrierTrace *trace = m.trace();
    if (trace == nullptr)
        return "(no trace)";
    return trace->render(std::max<std::size_t>(1, trace->cycles()));
}

// Tracing runs in every execution mode: the timeline, one column per
// cycle, must match the per-cycle loop's under fast-forward, windows,
// predecode off and shards, with and without fault plans.
TEST(Sharded, TraceIdenticalAcrossModes)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const bool with_faults = seed % 3 == 0;
        verify::Scenario sc = verify::render(verify::randomSpec(seed));
        if (with_faults)
            attachFaults(sc, corpusFaultSeed(seed));
        std::vector<isa::Program> programs;
        ASSERT_TRUE(assemblePrograms(sc, programs)) << "seed " << seed;
        const Knobs k = knobsFor(seed);
        const std::string ctx = describeSeed(seed, with_faults, k);
        const std::string reference =
            traceOf(sc, programs, configFor(sc, k, false));
        for (const bool ff : {false, true})
            for (const bool predecode : {false, true})
                for (const int shards : {1, 4}) {
                    if (!ff && !predecode && shards == 1)
                        continue;  // the reference itself
                    EXPECT_EQ(traceOf(sc, programs,
                                      configFor(sc, k, ff, predecode,
                                                shards)),
                              reference)
                        << ctx << " ff=" << ff
                        << " predecode=" << predecode
                        << " shards=" << shards;
                }
    }
}

// The executor must fall back to the plain sequential core — zero
// threads — whenever sharding cannot apply, and clamp the shard count
// to the processor count.
TEST(Sharded, FallsBackWhenShardingCannotApply)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = 2;
    cfg.memWords = 256;
    cfg.shardCount = 4;
    cfg.shardQuantum = 0; // the documented off switch
    {
        sim::Machine m(cfg);
        EXPECT_EQ(exec::ShardedMachine(m).shards(), 1);
    }
    cfg.shardQuantum = 16;
    cfg.fastForward = false; // window logic rides on fast-forward
    {
        sim::Machine m(cfg);
        EXPECT_EQ(exec::ShardedMachine(m).shards(), 1);
    }
    cfg.fastForward = true;
    cfg.traceBarrierStates = true; // tracing composes with sharding
    {
        sim::Machine m(cfg);
        EXPECT_EQ(exec::ShardedMachine(m).shards(), 2);
    }
    cfg.traceBarrierStates = false;
    {
        // More shards than processors: clamped, not rejected.
        sim::Machine m(cfg);
        EXPECT_EQ(exec::ShardedMachine(m).shards(), 2);
    }
}

} // namespace
