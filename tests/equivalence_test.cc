/**
 * @file
 * Differential equivalence suite for the event-driven fast-forward
 * core (INTERNALS section 14): every counter in RunResult must be
 * bit-identical between MachineConfig::fastForward = true and the
 * legacy per-cycle loop, across a large population of fuzz-generated
 * programs — including fault-plan and watchdog-recovery runs — and
 * across the machine's timing knobs (pipeline depth, stall model,
 * jitter, multi-issue, sync latency, interrupts). The corpus driver
 * (knobs, config assembly, run observer, exact-match oracle) lives in
 * tests/harness.hh, shared with the sharded and campaign suites.
 */

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "barrier/topology.hh"
#include "core/barrierprogs.hh"
#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "verify/generator.hh"
#include "verify/scenario.hh"

namespace
{

using namespace fb;
using namespace fb::harness;

/**
 * Run @p programs under the legacy per-cycle interpreter (the
 * oracle), then under every backend combination the simulator ships
 * — the event-and-window loop with the pre-decoded threaded-code
 * dispatch on and off, each at shard counts 1 and 4 — and require
 * all of them bit-identical. Predecoded runs use the caller's
 * @p decoded blocks when given (null entries decode at load).
 */
void
expectModesMatchOracle(
    const verify::Scenario &sc, const std::vector<isa::Program> &programs,
    const Knobs &k, const std::string &ctx,
    exec::MachinePool *pool = nullptr,
    const std::vector<std::shared_ptr<const sim::DecodedProgram>>
        *decoded = nullptr)
{
    Observation legacy = runOnce(
        sc, programs, configFor(sc, k, false, /*predecode=*/false),
        pool);

    struct Variant
    {
        bool predecode;
        int shards;
        const char *name;
    };
    constexpr Variant variants[] = {
        {true, 1, " [predecode shards=1]"},
        {false, 1, " [legacy-dispatch shards=1]"},
        {true, 4, " [predecode shards=4]"},
        {false, 4, " [legacy-dispatch shards=4]"},
    };
    for (const Variant &v : variants) {
        sim::MachineConfig cfg =
            configFor(sc, k, true, v.predecode, v.shards);
        Observation obs = runOnce(sc, programs, cfg, pool,
                                  v.predecode ? decoded : nullptr);
        expectIdentical(obs, legacy, ctx + v.name);
    }
}

/**
 * One corpus seed through expectModesMatchOracle. Predecoded runs
 * reuse the ProgramCache's interned threaded-code blocks when a cache
 * is supplied, so the sweep also covers Machine::loadProgram's
 * shared-block path.
 */
void
checkSeed(std::uint64_t seed, bool with_faults,
          exec::MachinePool *pool = nullptr,
          exec::ProgramCache *cache = nullptr)
{
    verify::ProgramSpec spec = verify::randomSpec(seed);
    verify::Scenario sc = verify::render(spec);
    if (with_faults)
        attachFaults(sc, corpusFaultSeed(seed));
    std::vector<isa::Program> programs;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decoded;
    ASSERT_TRUE(assemblePrograms(sc, programs, cache, &decoded))
        << "seed " << seed;

    Knobs k = knobsFor(seed);
    expectModesMatchOracle(sc, programs, k,
                           describeSeed(seed, with_faults, k), pool,
                           &decoded);
}

TEST(Equivalence, FastForwardMatchesLegacyOnFuzzPrograms)
{
    // The sweep runs on pooled machines: every seed after the first
    // exercises Machine::reset() reuse on top of the core comparison.
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= kFaultFreeSeeds; ++seed)
        checkSeed(seed, false, &pool, &cache);
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, FastForwardMatchesLegacyUnderFaults)
{
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= kFaultSeeds; ++seed)
        checkSeed(seed, true, &pool, &cache);
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, LoadsAndMemoryTrafficMatchAcrossModes)
{
    // The fuzz generator emits stores only. Loads reach the memory
    // port here: the spin barriers poll shared words with ld and
    // arrive with faa (cross-processor traffic on the same lines),
    // and the own-word program interleaves private ALU work with
    // loads and stores of words only its processor touches (the
    // private_compute shape). Jitter desynchronizes the processors.
    constexpr int procs = 8;
    Knobs k;
    k.jitterMean = 1.5;
    k.syncLatency = 2;

    std::vector<std::pair<std::string, std::vector<isa::Program>>> cases;
    for (core::SimBarrierKind kind :
         {core::SimBarrierKind::Centralized,
          core::SimBarrierKind::Dissemination,
          core::SimBarrierKind::HardwareFuzzy,
          core::SimBarrierKind::HardwarePoint}) {
        std::vector<isa::Program> programs;
        for (int p = 0; p < procs; ++p)
            programs.push_back(
                core::buildBarrierLoop(kind, procs, p, 10, 4 + 3 * p, 6));
        cases.emplace_back(core::simBarrierKindName(kind),
                           std::move(programs));
    }
    std::vector<isa::Program> own_word;
    for (int p = 0; p < procs; ++p) {
        std::ostringstream src;
        src << "settag 1\nsetmask -1\nli r1, 0\nli r2, 10\n"
            << "li r8, " << 1024 + 64 * p << "\nloop:\n";
        for (int i = 0; i < 40 + 5 * p; ++i) {
            const int rd = 3 + i % 5;
            if (i % 8 == 0)
                src << "ld r" << rd << ", " << (7 * i + p) % 32 << "(r8)\n";
            else
                src << "addi r" << rd << ", r" << 3 + (i + 1) % 5 << ", "
                    << i << "\n";
        }
        src << "st r3, " << p % 32 << "(r8)\n.region 1\n"
            << "addi r1, r1, 1\nbne r1, r2, loop\n.endregion\nhalt\n";
        isa::Program prog;
        std::string err;
        ASSERT_TRUE(isa::Assembler::assemble(src.str(), prog, err)) << err;
        own_word.push_back(std::move(prog));
    }
    cases.emplace_back("own-word-loads", std::move(own_word));

    verify::Scenario sc;
    sc.sources.resize(procs);  // the harness reads only procs()
    for (const auto &[name, programs] : cases)
        expectModesMatchOracle(sc, programs, k, name);
}

TEST(Equivalence, TopologySweepPreservesResults)
{
    // Hierarchical barrier topologies move delivery *cycles*, never
    // results: over a slice of the fuzz corpus, flat vs tree vs
    // cluster must agree on every per-processor episode count, the
    // differ's timing-invariant register set, and the safety oracle.
    // (Cycle counts legitimately differ — that is the point of the
    // topology — so the full bit-identity oracle does not apply.)
    constexpr int kDiffedRegs[] = {1, 2, 3, 4, 5, 6, 25};
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        verify::ProgramSpec spec = verify::randomSpec(seed);
        verify::Scenario sc = verify::render(spec);
        std::vector<isa::Program> programs;
        ASSERT_TRUE(assemblePrograms(sc, programs, &cache))
            << "seed " << seed;
        Knobs k = knobsFor(seed);
        const sim::MachineConfig cfg = configFor(sc, k, true);
        Observation flat = runOnce(sc, programs, cfg, &pool);
        ASSERT_FALSE(flat.result.deadlocked) << "seed " << seed;
        ASSERT_FALSE(flat.result.timedOut) << "seed " << seed;

        for (const char *name : {"tree:4", "cluster:8", "tree:2:3"}) {
            sim::MachineConfig tcfg = cfg;
            ASSERT_TRUE(barrier::Topology::parse(name, tcfg.topology));
            Observation obs = runOnce(sc, programs, tcfg, &pool);
            const std::string ctx =
                describeSeed(seed, false, k) + " [" + name + "]";
            EXPECT_EQ(obs.result.deadlocked, flat.result.deadlocked)
                << ctx;
            EXPECT_EQ(obs.result.timedOut, flat.result.timedOut) << ctx;
            EXPECT_EQ(obs.safety, flat.safety) << ctx;
            ASSERT_EQ(obs.result.perProcessor.size(),
                      flat.result.perProcessor.size())
                << ctx;
            for (std::size_t p = 0; p < obs.regs.size(); ++p) {
                EXPECT_EQ(obs.result.perProcessor[p].barrierEpisodes,
                          flat.result.perProcessor[p].barrierEpisodes)
                    << ctx << " cpu" << p;
                for (int r : kDiffedRegs)
                    EXPECT_EQ(
                        obs.regs[p][static_cast<std::size_t>(r)],
                        flat.regs[p][static_cast<std::size_t>(r)])
                        << ctx << " cpu" << p << " r" << r;
            }
        }
    }
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, CoversWatchdogRecovery)
{
    // The fault population must actually exercise the watchdog +
    // mask-shrink recovery path (fatal faults that fence a processor)
    // or the fault-mode half of the suite proves nothing.
    int recoveries = 0;
    for (std::uint64_t seed = 1; seed <= kFaultSeeds; ++seed) {
        fault::FaultPlan plan = fault::randomFaultPlan(
            corpusFaultSeed(seed), verify::randomSpec(seed).procs(),
            verify::randomSpec(seed).groupSizes);
        if (plan.hasFatal())
            ++recoveries;
    }
    EXPECT_GE(recoveries, 10)
        << "fault-seed population exercises too few fatal plans";
}

TEST(Equivalence, DeadlockDetectionMatches)
{
    // Mismatched tags deadlock (the paper's Fig. 2 scenario); both
    // cores must report it at the identical cycle with the identical
    // diagnosis, even though a fast-forward skip could be tempted to
    // jump past the no-progress cycle.
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
    Observation ff = runOnce(sc, programs, k, true);
    Observation legacy = runOnce(sc, programs, k, false);
    EXPECT_TRUE(legacy.result.deadlocked);
    expectIdentical(ff, legacy, "fig2-deadlock");
}

TEST(Equivalence, ProgramCacheSharesDecodedBlocks)
{
    // The intern cache carries one threaded-code block per source ×
    // encoding. Every pooled machine that loads the same interned
    // source must install that exact block (pointer identity — no
    // per-lease re-decode), and a block handed to a *different*
    // program must be rejected by loadProgram's exact check rather
    // than silently executed.
    const std::string src_a =
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\nnop\nhalt\n";
    const std::string src_b =
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\n"
        "addi r1, r1, 7\nhalt\n";

    exec::ProgramCache cache;
    auto interned = cache.intern(src_a);
    ASSERT_TRUE(interned->ok);
    ASSERT_NE(interned->bitsDecoded, nullptr);
    EXPECT_EQ(cache.intern(src_a)->bitsDecoded.get(),
              interned->bitsDecoded.get());

    verify::Scenario sc;
    sc.groupSizes = {2};
    sc.episodes = 1;
    sc.sources = {src_a, src_a};
    std::vector<isa::Program> programs;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decoded;
    ASSERT_TRUE(assemblePrograms(sc, programs, &cache, &decoded));
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0].get(), interned->bitsDecoded.get());

    exec::MachinePool pool;
    Knobs k;
    const sim::MachineConfig cfg = configFor(sc, k, true);
    const sim::DecodedProgram *installed[2] = {nullptr, nullptr};
    for (int lease = 0; lease < 2; ++lease) {
        auto m = pool.acquire(cfg);
        for (int p = 0; p < sc.procs(); ++p)
            m->loadProgram(p, programs[static_cast<std::size_t>(p)],
                           decoded[static_cast<std::size_t>(p)]);
        installed[lease] = m->decodedProgram(0).get();
        EXPECT_EQ(installed[lease], interned->bitsDecoded.get());
        EXPECT_FALSE(m->run().deadlocked);
    }
    // Both leases installed the one cached block.
    EXPECT_EQ(installed[0], installed[1]);
    EXPECT_GT(pool.reuses(), 0u);

    // Wrong-program block: src_b assembles to a different program, so
    // src_a's decode must not be accepted for it.
    auto interned_b = cache.intern(src_b);
    ASSERT_TRUE(interned_b->ok);
    sim::Machine victim(cfg);
    EXPECT_DEATH(victim.loadProgram(0, interned_b->bits,
                                    interned->bitsDecoded),
                 "decoded block does not match");
}

TEST(Equivalence, DecodedBlockMatchesOnlyItsProgram)
{
    // A decode is a function of the length and, per instruction, the
    // opcode, operands, immediate and static region bit: a shared block
    // must match exactly the programs that agree on all of them.
    const std::string src = "settag 1\nsetmask 3\nli r1, 5\n.region\n"
                            "addi r2, r1, 7\n.endregion\n"
                            "add r3, r1, r2\nhalt\n";
    isa::Program a;
    std::string err;
    ASSERT_TRUE(isa::Assembler::assemble(src, a, err)) << err;
    const auto block = sim::decodeProgram(a);
    EXPECT_TRUE(block->matches(a));
    const isa::Program copy = a;
    EXPECT_TRUE(block->matches(copy));

    constexpr std::size_t addi = 3;
    constexpr std::size_t add = 4;
    ASSERT_EQ(a.at(addi).op, isa::Opcode::ADDI);
    ASSERT_TRUE(a.at(addi).inRegion);
    ASSERT_EQ(a.at(add).op, isa::Opcode::ADD);
    ASSERT_FALSE(a.at(add).inRegion);
    using Edit = std::function<void(isa::Program &)>;
    const std::vector<std::pair<std::string, Edit>> edits = {
        {"opcode", [](isa::Program &p) { p.at(addi).op = isa::Opcode::MULI; }},
        {"rd", [](isa::Program &p) { p.at(addi).rd = 4; }},
        {"rs1", [](isa::Program &p) { p.at(addi).rs1 = 3; }},
        {"rs2", [](isa::Program &p) { p.at(add).rs2 = 5; }},
        {"imm", [](isa::Program &p) { p.at(addi).imm = 8; }},
        {"region bit", [](isa::Program &p) { p.at(add).inRegion = true; }},
    };
    for (const auto &[field, edit] : edits) {
        isa::Program b = a;
        edit(b);
        EXPECT_FALSE(block->matches(b)) << field;
    }
    isa::Program longer;
    ASSERT_TRUE(isa::Assembler::assemble(src + "nop\n", longer, err))
        << err;
    EXPECT_FALSE(block->matches(longer)) << "length";
}

TEST(Equivalence, TimeoutMatches)
{
    // A processor spinning forever must hit the maxCycles guard at
    // the same cycle in both cores (the fast-forward clamp must not
    // overshoot the guard).
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
    sim::MachineConfig cfg_ff = configFor(sc, k, true);
    sim::MachineConfig cfg_legacy = configFor(sc, k, false);
    cfg_ff.maxCycles = cfg_legacy.maxCycles = 5000;

    sim::Machine m_ff(cfg_ff);
    sim::Machine m_legacy(cfg_legacy);
    for (int p = 0; p < sc.procs(); ++p) {
        m_ff.loadProgram(p, programs[static_cast<std::size_t>(p)]);
        m_legacy.loadProgram(p, programs[static_cast<std::size_t>(p)]);
    }
    auto ra = m_ff.run();
    auto rb = m_legacy.run();
    EXPECT_TRUE(rb.timedOut);
    EXPECT_EQ(ra.timedOut, rb.timedOut);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.cycles, 5000u);
}

} // namespace
