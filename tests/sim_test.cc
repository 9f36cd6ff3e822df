/**
 * @file
 * Integration tests for the simulated multiprocessor: execution,
 * memory system, and fuzzy-barrier semantics end to end.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hh"
#include "sim/machine.hh"

namespace fb::sim
{
namespace
{

isa::Program
assembleOrDie(const std::string &src)
{
    isa::Program p;
    std::string err;
    if (!isa::Assembler::assemble(src, p, err))
        ADD_FAILURE() << "assembly failed: " << err;
    return p;
}

/**
 * The canonical test workload, shaped like the paper's Fig. 4 loop:
 * per iteration a non-barrier "work" section of @p work_instrs
 * single-cycle instructions followed by a barrier region of
 * @p region_instrs filler instructions plus the loop control. The
 * final r3 value is stored to memory word (100 + store_slot).
 *
 * With region_instrs == 0 the loop control itself still forms a
 * minimal region (the paper's null barrier region is a single
 * marked-bit NOP).
 */
std::string
loopSource(int iters, int work_instrs, int region_instrs, int store_slot,
           std::uint64_t mask = 0b11, int tag = 1)
{
    std::ostringstream oss;
    oss << "settag " << tag << "\n";
    oss << "setmask " << mask << "\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << iters << "\n";
    oss << "loop:\n";
    for (int i = 0; i < work_instrs; ++i)
        oss << "addi r3, r3, 1\n";
    oss << ".region 1\n";
    for (int i = 0; i < region_instrs; ++i)
        oss << "addi r4, r4, 1\n";
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << ".endregion\n";
    oss << "st r3, " << (100 + store_slot) << "(r0)\n";
    oss << "halt\n";
    return oss.str();
}

/**
 * Alternating-load workload, the situation the fuzzy barrier is built
 * for (paper Fig. 7): every iteration executes @p light common
 * instructions, and on alternate iterations — selected by @p phase —
 * an extra @p heavy instructions. Two processors with opposite phases
 * do equal total work but drift apart by @p heavy cycles within each
 * iteration, first one way then the other.
 */
std::string
alternatingSource(int iters, int light, int heavy, int region_instrs,
                  int store_slot, int phase, std::uint64_t mask = 0b11,
                  int tag = 1)
{
    std::ostringstream oss;
    oss << "settag " << tag << "\n";
    oss << "setmask " << mask << "\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << iters << "\n";
    oss << "li r7, 1\n";
    oss << "li r8, " << phase << "\n";
    oss << "loop:\n";
    oss << "and r6, r1, r7\n";        // parity = i & 1
    oss << "bne r6, r8, light\n";     // heavy iff parity == phase
    for (int i = 0; i < heavy; ++i)
        oss << "addi r5, r5, 1\n";
    oss << "light:\n";
    for (int i = 0; i < light; ++i)
        oss << "addi r3, r3, 1\n";
    oss << ".region 1\n";
    for (int i = 0; i < region_instrs; ++i)
        oss << "addi r4, r4, 1\n";
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << ".endregion\n";
    oss << "st r3, " << (100 + store_slot) << "(r0)\n";
    oss << "halt\n";
    return oss.str();
}

MachineConfig
smallConfig(int procs)
{
    MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.memWords = 4096;
    cfg.maxCycles = 5'000'000;
    return cfg;
}

// --------------------------------------------------------- basic execution

TEST(Machine, SingleProcessorArithmetic)
{
    Machine m(smallConfig(1));
    m.loadProgram(0, assembleOrDie(R"(
        li r1, 6
        li r2, 7
        mul r3, r1, r2
        st r3, 100(r0)
        halt
    )"));
    auto result = m.run();
    EXPECT_FALSE(result.deadlocked);
    EXPECT_FALSE(result.timedOut);
    EXPECT_EQ(m.memory().peek(100), 42);
    EXPECT_EQ(m.processor(0).reg(3), 42);
}

TEST(Machine, AllAluOpsExecute)
{
    Machine m(smallConfig(1));
    m.loadProgram(0, assembleOrDie(R"(
        li r1, 12
        li r2, 5
        add r3, r1, r2
        sub r4, r1, r2
        and r5, r1, r2
        or  r6, r1, r2
        xor r7, r1, r2
        slt r8, r2, r1
        li r9, 2
        shl r10, r1, r9
        shr r11, r1, r9
        div r12, r1, r2
        addi r13, r1, -3
        muli r14, r2, 4
        slti r15, r2, 100
        mov r16, r1
        halt
    )"));
    m.run();
    auto &p = m.processor(0);
    EXPECT_EQ(p.reg(3), 17);
    EXPECT_EQ(p.reg(4), 7);
    EXPECT_EQ(p.reg(5), 4);
    EXPECT_EQ(p.reg(6), 13);
    EXPECT_EQ(p.reg(7), 9);
    EXPECT_EQ(p.reg(8), 1);
    EXPECT_EQ(p.reg(10), 48);
    EXPECT_EQ(p.reg(11), 3);
    EXPECT_EQ(p.reg(12), 2);
    EXPECT_EQ(p.reg(13), 9);
    EXPECT_EQ(p.reg(14), 20);
    EXPECT_EQ(p.reg(15), 1);
    EXPECT_EQ(p.reg(16), 12);
}

TEST(Machine, ArithmeticWrapsInEveryExecutionMode)
{
    // Registers are 64-bit two's complement: ADD/SUB/MUL and the
    // immediate forms wrap modulo 2^64, and INT64_MIN / -1 wraps to
    // INT64_MIN. The loop is the fuzz generator's LCG step; with
    // predecode and fast-forward on it runs in the decoded dispatch,
    // otherwise in the per-cycle interpreter.
    const isa::Program program = assembleOrDie(R"(
        li r1, 9223372036854775807
        li r2, -9223372036854775808
        li r3, -1
        addi r4, r1, 1
        add r5, r1, r1
        sub r6, r2, r1
        mul r7, r1, r1
        muli r8, r1, 1103515245
        div r9, r2, r3
        li r10, 7
        li r11, 0
        li r12, 100
    lcg:
        muli r10, r10, 1103515245
        addi r10, r10, 12345
        addi r11, r11, 1
        bne r11, r12, lcg
        halt
    )");
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    for (bool predecode : {true, false}) {
        for (bool fast_forward : {true, false}) {
            MachineConfig cfg = smallConfig(1);
            cfg.predecode = predecode;
            cfg.fastForward = fast_forward;
            Machine m(cfg);
            m.loadProgram(0, program);
            const RunResult r = m.run();
            const std::string ctx =
                std::string("predecode=") + (predecode ? "1" : "0") +
                " fast_forward=" + (fast_forward ? "1" : "0");
            EXPECT_FALSE(r.deadlocked) << ctx;
            EXPECT_FALSE(r.timedOut) << ctx;
            const Processor &p = m.processor(0);
            EXPECT_EQ(p.reg(4), kMin) << ctx;
            EXPECT_EQ(p.reg(5), -2) << ctx;
            EXPECT_EQ(p.reg(6), 1) << ctx;
            EXPECT_EQ(p.reg(7), 1) << ctx;
            EXPECT_EQ(p.reg(8), 9223372035751260563) << ctx;
            EXPECT_EQ(p.reg(9), kMin) << ctx;
            EXPECT_EQ(p.reg(10), 7606285465887967555) << ctx;
        }
    }
}

TEST(Machine, RegisterZeroIsHardwiredZero)
{
    Machine m(smallConfig(1));
    m.loadProgram(0, assembleOrDie(R"(
        li r0, 99
        add r1, r0, r0
        halt
    )"));
    m.run();
    EXPECT_EQ(m.processor(0).reg(0), 0);
    EXPECT_EQ(m.processor(0).reg(1), 0);
}

TEST(Machine, BranchLoopSums)
{
    // r3 = sum of 1..10 = 55
    Machine m(smallConfig(1));
    m.loadProgram(0, assembleOrDie(R"(
        li r1, 0
        li r2, 10
    loop:
        addi r1, r1, 1
        add r3, r3, r1
        bne r1, r2, loop
        st r3, 100(r0)
        halt
    )"));
    auto r = m.run();
    EXPECT_EQ(m.memory().peek(100), 55);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Machine, MemoryRoundTripAndHostPoke)
{
    Machine m(smallConfig(1));
    m.memory().poke(200, 1234);
    m.loadProgram(0, assembleOrDie(R"(
        ld r1, 200(r0)
        addi r1, r1, 1
        st r1, 201(r0)
        halt
    )"));
    m.run();
    EXPECT_EQ(m.memory().peek(201), 1235);
}

TEST(Machine, CacheHitsAfterFirstMiss)
{
    Machine m(smallConfig(1));
    m.loadProgram(0, assembleOrDie(R"(
        ld r1, 100(r0)
        ld r1, 100(r0)
        ld r1, 100(r0)
        halt
    )"));
    auto r = m.run();
    EXPECT_EQ(r.perProcessor[0].cacheMisses, 1u);
    EXPECT_EQ(r.perProcessor[0].cacheHits, 2u);
}

TEST(Machine, CacheMissCostsMoreThanHit)
{
    // Two runs: one hammering a single word (hits), one striding
    // across lines (misses). The miss run must take longer.
    auto build = [](int stride) {
        std::ostringstream oss;
        oss << "li r2, " << stride << "\nli r3, 512\n";
        oss << "loop:\n";
        oss << "ld r4, 100(r1)\n";
        oss << "add r1, r1, r2\n";
        oss << "addi r5, r5, 1\n";
        oss << "bne r5, r3, loop\n";
        oss << "halt\n";
        return oss.str();
    };
    MachineConfig cfg = smallConfig(1);
    cfg.memWords = 1 << 16;
    Machine hits(cfg);
    hits.loadProgram(0, assembleOrDie(build(0)));
    Machine misses(cfg);
    misses.loadProgram(0, assembleOrDie(build(64)));
    auto rh = hits.run();
    auto rm = misses.run();
    EXPECT_GT(rm.cycles, rh.cycles);
    EXPECT_GT(rm.perProcessor[0].cacheMisses,
              rh.perProcessor[0].cacheMisses);
}

TEST(Machine, TimeoutGuard)
{
    MachineConfig cfg = smallConfig(1);
    cfg.maxCycles = 1000;
    Machine m(cfg);
    m.loadProgram(0, assembleOrDie("loop:\njmp loop\n"));
    auto r = m.run();
    EXPECT_TRUE(r.timedOut);
    EXPECT_FALSE(r.deadlocked);
}

TEST(Machine, EmptyProgramHaltsImmediately)
{
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie("halt\n"));
    // Processor 1 keeps its default empty program.
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.timedOut);
}

// ------------------------------------------------------- barrier semantics

TEST(Machine, TwoProcessorBarrierSyncCount)
{
    const int iters = 8;
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(loopSource(iters, 3, 4, 0)));
    m.loadProgram(1, assembleOrDie(loopSource(iters, 3, 4, 1)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.syncEvents, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(r.perProcessor[0].barrierEpisodes,
              static_cast<std::uint64_t>(iters));
    EXPECT_EQ(m.memory().peek(100), 3 * iters);
    EXPECT_EQ(m.memory().peek(101), 3 * iters);
    EXPECT_EQ(m.checkSafetyProperty(), "");
}

TEST(Machine, PointBarrierStallsUnderAlternatingLoad)
{
    // Opposite-phase alternating load: equal total work, but each
    // iteration one processor is ~30 cycles behind. With a point
    // barrier the other one stalls on every iteration.
    const int iters = 10;
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(alternatingSource(iters, 2, 30, 0, 0, 0)));
    m.loadProgram(1, assembleOrDie(alternatingSource(iters, 2, 30, 0, 1, 1)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.syncEvents, static_cast<std::uint64_t>(iters));
    // Each processor is the light one on half the iterations and
    // stalls there.
    EXPECT_GE(r.perProcessor[0].stalledEpisodes, 4u);
    EXPECT_GE(r.perProcessor[1].stalledEpisodes, 4u);
    EXPECT_GT(r.totalBarrierWait(), 100u);
    EXPECT_EQ(m.checkSafetyProperty(), "");
}

TEST(Machine, FuzzyRegionAbsorbsAlternatingLoad)
{
    // Same drift, but the barrier region is larger than the gap: the
    // light processor keeps executing region instructions while it
    // waits and never stalls (section 2: "the larger the barrier
    // regions, the less likely it is that the processors will stall").
    const int iters = 10;
    Machine m(smallConfig(2));
    m.loadProgram(0,
                  assembleOrDie(alternatingSource(iters, 2, 30, 40, 0, 0)));
    m.loadProgram(1,
                  assembleOrDie(alternatingSource(iters, 2, 30, 40, 1, 1)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.syncEvents, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(r.perProcessor[0].stalledEpisodes, 0u);
    EXPECT_EQ(r.perProcessor[1].stalledEpisodes, 0u);
    EXPECT_EQ(m.checkSafetyProperty(), "");
    // Both computed the same (phase-independent) result.
    EXPECT_EQ(m.memory().peek(100), 2 * iters);
    EXPECT_EQ(m.memory().peek(101), 2 * iters);
}

TEST(Machine, StallCyclesDecreaseMonotonicallyWithRegionSize)
{
    const int iters = 10;
    std::uint64_t prev = UINT64_MAX;
    for (int region : {0, 8, 16, 32, 64}) {
        Machine m(smallConfig(2));
        m.loadProgram(
            0, assembleOrDie(alternatingSource(iters, 2, 30, region, 0, 0)));
        m.loadProgram(
            1, assembleOrDie(alternatingSource(iters, 2, 30, region, 1, 1)));
        auto r = m.run();
        EXPECT_FALSE(r.deadlocked);
        std::uint64_t wait = r.totalBarrierWait();
        EXPECT_LE(wait, prev) << "region=" << region;
        prev = wait;
    }
    EXPECT_EQ(prev, 0u);  // a large enough region fully absorbs drift
}

TEST(Machine, HardwareBarrierNeverTouchesMemory)
{
    // Synchronization itself must generate zero shared-memory
    // traffic: the only accesses are the program's own loads/stores.
    const int iters = 4;
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(loopSource(iters, 1, 2, 0)));
    m.loadProgram(1, assembleOrDie(loopSource(iters, 1, 2, 1)));
    auto r = m.run();
    // Each program performs exactly one store (the final st).
    EXPECT_EQ(r.memAccesses, 2u);
}

TEST(Machine, DeadlockWhenPartnerHalts)
{
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(R"(
        settag 1
        setmask 3
        nop
    .region 1
        nop
    .endregion
        halt
    )"));
    m.loadProgram(1, assembleOrDie(R"(
        settag 1
        setmask 3
        halt
    )"));
    auto r = m.run();
    EXPECT_TRUE(r.deadlocked);
    EXPECT_NE(r.deadlockInfo.find("cpu0"), std::string::npos);
}

TEST(Machine, Fig2MergedBarriersDeadlock)
{
    // The invalid-branch scenario of Fig. 2: processor 0's two
    // barrier regions are merged into one (as if a branch jumped
    // directly from barrier 1 into barrier 2), so it synchronizes
    // once and halts; processor 1 then waits forever at barrier 2.
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(R"(
        settag 1
        setmask 3
        nop
    .region 1
        nop
        nop
    .endregion
        halt
    )"));
    m.loadProgram(1, assembleOrDie(R"(
        settag 1
        setmask 3
        nop
    .region 1
        nop
    .endregion
        nop
    .region 1
        nop
    .endregion
        halt
    )"));
    auto r = m.run();
    EXPECT_TRUE(r.deadlocked);
}

TEST(Machine, MarkerEncodingBehavesIdentically)
{
    const int iters = 6;
    auto src0 = loopSource(iters, 2, 5, 0);
    auto src1 = loopSource(iters, 7, 5, 1);

    Machine bits(smallConfig(2));
    bits.loadProgram(0, assembleOrDie(src0));
    bits.loadProgram(1, assembleOrDie(src1));
    auto rb = bits.run();

    Machine markers(smallConfig(2));
    markers.loadProgram(0, assembleOrDie(src0).toMarkerEncoding());
    markers.loadProgram(1, assembleOrDie(src1).toMarkerEncoding());
    auto rm = markers.run();

    EXPECT_FALSE(rb.deadlocked);
    EXPECT_FALSE(rm.deadlocked);
    EXPECT_EQ(rb.syncEvents, rm.syncEvents);
    EXPECT_EQ(bits.memory().peek(100), markers.memory().peek(100));
    EXPECT_EQ(bits.memory().peek(101), markers.memory().peek(101));
    EXPECT_EQ(markers.checkSafetyProperty(), "");
}

TEST(Machine, NonParticipantIgnoresRegions)
{
    // Tag 0: region bits have no synchronization effect.
    Machine m(smallConfig(2));
    m.loadProgram(0, assembleOrDie(loopSource(4, 1, 2, 0, 0b11, 0)));
    m.loadProgram(1, assembleOrDie(loopSource(4, 1, 2, 1, 0b11, 0)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.syncEvents, 0u);
}

TEST(Machine, SoftwareStallCostsContextSwitches)
{
    const int iters = 10;
    MachineConfig hw_cfg = smallConfig(2);
    hw_cfg.stall = StallModel::hardware();
    MachineConfig sw_cfg = smallConfig(2);
    sw_cfg.stall = StallModel::software(400, 400);

    auto src0 = loopSource(iters, 2, 0, 0);
    auto src1 = loopSource(iters, 40, 0, 1);

    Machine hw(hw_cfg);
    hw.loadProgram(0, assembleOrDie(src0));
    hw.loadProgram(1, assembleOrDie(src1));
    auto rh = hw.run();

    Machine sw(sw_cfg);
    sw.loadProgram(0, assembleOrDie(src0));
    sw.loadProgram(1, assembleOrDie(src1));
    auto rs = sw.run();

    EXPECT_FALSE(rh.deadlocked);
    EXPECT_FALSE(rs.deadlocked);
    EXPECT_GT(rs.perProcessor[0].contextSwitches, 0u);
    EXPECT_EQ(rh.perProcessor[0].contextSwitches, 0u);
    // Context save/restore dominates: the software run's barrier
    // overhead is far larger (the section 8 effect).
    EXPECT_GT(rs.perProcessor[0].barrierWaitCycles,
              rh.perProcessor[0].barrierWaitCycles * 3);
    // Both still compute the right answer.
    EXPECT_EQ(sw.memory().peek(100), hw.memory().peek(100));
}

TEST(Machine, PipelinedMachineStillSynchronizesSafely)
{
    const int iters = 6;
    MachineConfig cfg = smallConfig(2);
    cfg.pipelineDepth = 5;
    Machine m(cfg);
    m.loadProgram(0, assembleOrDie(loopSource(iters, 2, 8, 0)));
    m.loadProgram(1, assembleOrDie(loopSource(iters, 9, 8, 1)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.syncEvents, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(m.checkSafetyProperty(), "");
    EXPECT_EQ(m.memory().peek(100), 2 * iters);
}

TEST(Machine, JitterIsDeterministicPerSeed)
{
    auto run_with_seed = [](std::uint64_t seed) {
        MachineConfig cfg = smallConfig(2);
        cfg.jitterMean = 2.0;
        cfg.seed = seed;
        Machine m(cfg);
        m.loadProgram(0, assembleOrDie(loopSource(8, 3, 4, 0)));
        m.loadProgram(1, assembleOrDie(loopSource(8, 3, 4, 1)));
        return m.run().cycles;
    };
    EXPECT_EQ(run_with_seed(7), run_with_seed(7));
    // Different seeds almost surely differ in total cycles.
    EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(Machine, ThreeWaySubsetBarriers)
{
    // Processors 0 and 1 synchronize with each other (tag 1);
    // processor 2 runs free with tag 0.
    Machine m(smallConfig(3));
    m.loadProgram(0, assembleOrDie(loopSource(5, 2, 3, 0, 0b011, 1)));
    m.loadProgram(1, assembleOrDie(loopSource(5, 6, 3, 1, 0b011, 1)));
    m.loadProgram(2, assembleOrDie(loopSource(5, 1, 3, 2, 0b000, 0)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.syncEvents, 5u);
    EXPECT_EQ(m.checkSafetyProperty(), "");
}

TEST(Machine, SyncLatencyHiddenByRegions)
{
    // Broadcast latency adds directly to every point-barrier episode
    // but disappears inside a large barrier region (the processor
    // keeps issuing region instructions while the signal propagates).
    auto run = [&](std::uint32_t latency, int region) {
        MachineConfig cfg = smallConfig(2);
        cfg.syncLatency = latency;
        Machine m(cfg);
        m.loadProgram(0, assembleOrDie(loopSource(10, 3, region, 0)));
        m.loadProgram(1, assembleOrDie(loopSource(10, 3, region, 1)));
        auto r = m.run();
        EXPECT_FALSE(r.deadlocked);
        EXPECT_FALSE(r.timedOut);
        EXPECT_EQ(r.syncEvents, 10u);
        EXPECT_EQ(m.checkSafetyProperty(), "");
        return r.cycles;
    };
    auto point_fast = run(0, 0);
    auto point_slow = run(20, 0);
    // Point barrier: ~latency extra per episode.
    EXPECT_GE(point_slow, point_fast + 10 * 15);
    auto fuzzy_fast = run(0, 64);
    auto fuzzy_slow = run(20, 64);
    // Large region: the latency vanishes into region execution.
    EXPECT_LT(fuzzy_slow, fuzzy_fast + 10 * 5);
}

// ------------------------------------------------ membership oracle

TEST(MembershipOracle, FlagsGroupThatCompletesWithoutAMaskedMember)
{
    // Episode 1: cpu1 and cpu2 name each other and synchronize
    // cleanly. Then cpu2 also names the straggler cpu5, while cpu1
    // still waits only for cpu2: cpu1's AND completes and cpu1 is
    // delivered alone, leaving the live, same-tag cpu2 in its mask
    // behind. That is the fault-safety violation the oracle reports;
    // the clean first group must not mask it.
    Machine m(smallConfig(8));
    for (int p = 0; p < 8; ++p)
        m.loadProgram(p, assembleOrDie("halt\n"));
    m.loadProgram(1, assembleOrDie(R"(
        settag 1
        setmask 4
    .region 1
        addi r4, r4, 1
    .endregion
        addi r3, r3, 1
    .region 1
        addi r4, r4, 1
    .endregion
        halt
    )"));
    m.loadProgram(2, assembleOrDie(R"(
        settag 1
        setmask 2
    .region 1
        addi r4, r4, 1
    .endregion
        setmask 34
    .region 1
        addi r4, r4, 1
    .endregion
        halt
    )"));
    std::ostringstream straggler;
    straggler << "settag 1\nsetmask 4\n";
    for (int i = 0; i < 60; ++i)
        straggler << "addi r3, r3, 1\n";
    straggler << ".region 1\naddi r4, r4, 1\n.endregion\nhalt\n";
    m.loadProgram(5, assembleOrDie(straggler.str()));

    auto r = m.run();
    ASSERT_GE(m.syncRecords().size(), 2u);
    EXPECT_EQ(m.syncRecords()[0].members, (std::vector<int>{1, 2}));
    const SyncRecord &lone = m.syncRecords()[1];
    EXPECT_EQ(lone.members, std::vector<int>{1});
    EXPECT_EQ(r.membershipViolation,
              "fault-safety violation at cycle " +
                  std::to_string(lone.cycle) +
                  ": cpu1 synchronized on tag 1 epoch 0 without live "
                  "member cpu2");
}

TEST(MembershipOracle, FindsMissedMemberInThirdMaskWord)
{
    // The same shape across mask words at 130 processors, with masks
    // set from the host (SETMASK's immediate cannot name processors
    // >= 64). The group {3, 70} completes: cpu3 waits for 70 and 129,
    // cpu70 for 3. cpu129, bit 1 of mask word 2, also waits for the
    // straggler cpu100. cpu3's mask bit 70 comes first and is a group
    // member, so it is passed over; the report names cpu129. cpu128,
    // just before it in the same word, has a different tag and is
    // delivered in the same cycle in a group of its own.
    Machine m(smallConfig(130));
    for (int p = 0; p < 130; ++p)
        m.loadProgram(p, assembleOrDie("halt\n"));
    const std::vector<std::pair<int, std::vector<int>>> masks = {
        {3, {70, 129}}, {70, {3}}, {100, {129}}, {128, {}},
        {129, {3, 100}}};
    for (const auto &[p, mask] : masks) {
        auto &unit = m.network().unit(p);
        unit.setTag(p == 128 ? 2 : 1);
        for (int q : mask)
            unit.setMaskBit(q);
        std::ostringstream oss;
        for (int i = 0; i < (p == 100 ? 60 : 2); ++i)
            oss << "addi r3, r3, 1\n";
        oss << ".region 1\naddi r4, r4, 1\n.endregion\nhalt\n";
        m.loadProgram(p, assembleOrDie(oss.str()));
    }

    auto r = m.run();
    ASSERT_GE(m.syncRecords().size(), 2u);
    const SyncRecord &first = m.syncRecords()[0];
    EXPECT_EQ(first.members, (std::vector<int>{3, 70}));
    EXPECT_EQ(m.syncRecords()[1].members, std::vector<int>{128});
    EXPECT_EQ(m.syncRecords()[1].cycle, first.cycle);
    EXPECT_EQ(r.membershipViolation,
              "fault-safety violation at cycle " +
                  std::to_string(first.cycle) +
                  ": cpu3 synchronized on tag 1 epoch 0 without live "
                  "member cpu129");
}

// -------------------------------------------------- property-style sweeps

struct SweepParam
{
    int procs;
    int region;
};

class BarrierSafetySweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(BarrierSafetySweep, SafetyAndLivenessHold)
{
    const auto param = GetParam();
    const int iters = 6;
    MachineConfig cfg = smallConfig(param.procs);
    cfg.jitterMean = 1.5;  // inject drift
    cfg.seed = 0xC0FFEE + static_cast<std::uint64_t>(param.region);
    Machine m(cfg);
    std::uint64_t mask = (1ull << param.procs) - 1;
    for (int p = 0; p < param.procs; ++p) {
        // Heterogeneous work per processor exercises the drift
        // tolerance; all share one barrier.
        m.loadProgram(p, assembleOrDie(loopSource(
                             iters, 2 + 3 * p, param.region, p, mask, 1)));
    }
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.syncEvents, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(m.checkSafetyProperty(), "");
    for (int p = 0; p < param.procs; ++p) {
        EXPECT_EQ(m.memory().peek(100 + static_cast<std::size_t>(p)),
                  (2 + 3 * p) * iters);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProcsAndRegions, BarrierSafetySweep,
    ::testing::Values(SweepParam{2, 0}, SweepParam{2, 8},
                      SweepParam{2, 32}, SweepParam{4, 0},
                      SweepParam{4, 16}, SweepParam{4, 64},
                      SweepParam{8, 0}, SweepParam{8, 32},
                      SweepParam{16, 8}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        return "p" + std::to_string(info.param.procs) + "_r" +
               std::to_string(info.param.region);
    });

class PipelineDepthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineDepthSweep, DepthPreservesCorrectness)
{
    const int depth = GetParam();
    MachineConfig cfg = smallConfig(3);
    cfg.pipelineDepth = depth;
    Machine m(cfg);
    std::uint64_t mask = 0b111;
    for (int p = 0; p < 3; ++p)
        m.loadProgram(p, assembleOrDie(loopSource(5, 1 + p, 10, p, mask)));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.syncEvents, 5u);
    EXPECT_EQ(m.checkSafetyProperty(), "");
    for (int p = 0; p < 3; ++p)
        EXPECT_EQ(m.memory().peek(100 + static_cast<std::size_t>(p)),
                  (1 + p) * 5);
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthSweep,
                         ::testing::Values(1, 2, 4, 8));

// ------------------------------------------------- paged SharedMemory

TEST(SharedMemoryPaged, PageEdgeAccessesLandOnDistinctPages)
{
    // Words 1023/1024 and 2047/2048 straddle page boundaries; an
    // off-by-one in the page math would alias them into one slab.
    SharedMemory mem(3 * SharedMemory::pageWords);
    mem.write(1023, 11);
    mem.write(1024, 22);
    mem.write(2047, 33);
    mem.write(2048, 44);
    EXPECT_EQ(mem.read(1023), 11);
    EXPECT_EQ(mem.read(1024), 22);
    EXPECT_EQ(mem.read(2047), 33);
    EXPECT_EQ(mem.read(2048), 44);
    EXPECT_EQ(mem.totalAccesses(), 8u);
    // First-touch page order: 0 (word 1023), 1 (1024), 2 (2048).
    const std::vector<std::size_t> expected = {0, 1, 2};
    EXPECT_EQ(mem.touchedPages(), expected);
    // Two accesses each; the hot spot resolves to the lowest address.
    EXPECT_EQ(mem.hotSpotAccesses(), 2u);
    EXPECT_EQ(mem.hotSpotAddress(), 1023u);
}

TEST(SharedMemoryPaged, ResetStatsAfterSparseTouches)
{
    // Touch only the last page of a larger memory; resetStats() must
    // clear exactly that page's counts (it is O(pages touched)) and
    // leave contents alone.
    SharedMemory mem(8 * SharedMemory::pageWords);
    const std::size_t addr = 7 * SharedMemory::pageWords + 123;
    mem.write(addr, 99);
    mem.read(addr);
    ASSERT_EQ(mem.touchedPages().size(), 1u);
    EXPECT_EQ(mem.touchedPages()[0], 7u);
    EXPECT_EQ(mem.hotSpotAccesses(), 2u);

    mem.resetStats();
    EXPECT_TRUE(mem.touchedPages().empty());
    EXPECT_EQ(mem.totalAccesses(), 0u);
    EXPECT_EQ(mem.hotSpotAccesses(), 0u);
    EXPECT_EQ(mem.hotSpotAddress(), 0u);
    EXPECT_EQ(mem.peek(addr), 99); // contents survive a stats reset

    // The recycled slab counts from zero again, and a fresh page
    // allocates cleanly after the reset.
    mem.read(addr);
    mem.read(2 * SharedMemory::pageWords);
    EXPECT_EQ(mem.hotSpotAccesses(), 1u);
    const std::vector<std::size_t> expected = {7, 2};
    EXPECT_EQ(mem.touchedPages(), expected);
}

TEST(SharedMemoryPaged, PeekPokeBypassStatsButNotResetContents)
{
    SharedMemory mem(2 * SharedMemory::pageWords);
    mem.poke(1500, 42);
    EXPECT_EQ(mem.peek(1500), 42);
    EXPECT_EQ(mem.totalAccesses(), 0u);
    EXPECT_TRUE(mem.touchedPages().empty());
    // poke() still marks the page written: resetContents() must zero
    // host-poked words too, or a pooled machine would leak setup
    // state from the previous scenario.
    mem.resetContents();
    EXPECT_EQ(mem.peek(1500), 0);
}

TEST(SharedMemoryPaged, SparseEncodeDecodeRoundTrip)
{
    SharedMemory mem(5 * SharedMemory::pageWords);
    mem.write(3 * SharedMemory::pageWords + 7, -5);
    mem.write(4 * SharedMemory::pageWords - 1, 77); // page-3 last word
    mem.read(3 * SharedMemory::pageWords + 7);

    snapshot::Encoder enc;
    mem.encodeState(enc);
    const auto bytes = enc.buffer();

    SharedMemory restored(5 * SharedMemory::pageWords);
    snapshot::Decoder dec(bytes);
    ASSERT_TRUE(restored.decodeState(dec));
    EXPECT_EQ(restored.peek(3 * SharedMemory::pageWords + 7), -5);
    EXPECT_EQ(restored.peek(4 * SharedMemory::pageWords - 1), 77);
    EXPECT_EQ(restored.peek(0), 0);
    EXPECT_EQ(restored.totalAccesses(), mem.totalAccesses());
    EXPECT_EQ(restored.hotSpotAccesses(), mem.hotSpotAccesses());
    EXPECT_EQ(restored.hotSpotAddress(), mem.hotSpotAddress());
}

// ---------------------------------------------------- paged SharedBus

TEST(SharedBusPaged, BankedBanksGrowOnDemand)
{
    // The banked model allocates busy slabs lazily by word address;
    // far-apart addresses must get independent banks, and only
    // same-word requests queue behind each other.
    SharedBus bus(10, BusKind::Banked);
    EXPECT_EQ(bus.request(0, 500'000), 0u); // grows the table
    EXPECT_EQ(bus.request(0, 500'000), 10u);
    EXPECT_EQ(bus.request(0, 500'001), 0u); // same page, other bank
    EXPECT_EQ(bus.request(0, 3), 0u);       // low page after high page
    EXPECT_EQ(bus.requests(), 4u);
    EXPECT_EQ(bus.totalQueueDelay(), 10u);
}

TEST(SharedBusPaged, BankedPageEdgeBanksAreIndependent)
{
    // Words 1023 and 1024 sit on adjacent slab pages; an off-by-one
    // would make them share a busy slot and queue spuriously.
    SharedBus bus(7, BusKind::Banked);
    EXPECT_EQ(bus.request(0, 1023), 0u);
    EXPECT_EQ(bus.request(0, 1024), 0u);
    EXPECT_EQ(bus.request(0, 1023), 7u);
    EXPECT_EQ(bus.request(0, 1024), 7u);
}

TEST(SharedBusPaged, SharedKindSerializesDistinctWords)
{
    SharedBus bus(5, BusKind::Shared);
    EXPECT_EQ(bus.request(0, 100), 0u);
    EXPECT_EQ(bus.request(0, 999'999), 5u); // one bus, any address
    EXPECT_EQ(bus.totalQueueDelay(), 5u);
}

TEST(SharedBusPaged, ResetClearsBusyStateAndCounters)
{
    SharedBus bus(10, BusKind::Banked);
    bus.request(0, 2048);
    bus.request(0, 2048);
    bus.reset(10, BusKind::Banked);
    EXPECT_EQ(bus.requests(), 0u);
    EXPECT_EQ(bus.totalQueueDelay(), 0u);
    // The previously-busy bank is free again after the reset.
    EXPECT_EQ(bus.request(0, 2048), 0u);
}

TEST(SharedBusPaged, EncodeDecodeRoundTripPreservesBusyBanks)
{
    SharedBus bus(10, BusKind::Banked);
    bus.request(0, 1023);
    bus.request(0, 1024);
    bus.request(0, 1023); // queues: bank busy until 20

    snapshot::Encoder enc;
    bus.encodeState(enc);
    const auto bytes = enc.buffer();

    SharedBus restored(10, BusKind::Banked);
    snapshot::Decoder dec(bytes);
    ASSERT_TRUE(restored.decodeState(dec));
    EXPECT_EQ(restored.requests(), bus.requests());
    EXPECT_EQ(restored.totalQueueDelay(), bus.totalQueueDelay());
    // The restored busy horizon matches: a request at cycle 0 on the
    // hot word queues exactly as it would on the original bus.
    EXPECT_EQ(restored.request(0, 1023), bus.request(0, 1023));
    EXPECT_EQ(restored.request(0, 1024), bus.request(0, 1024));
}

} // namespace
} // namespace fb::sim
