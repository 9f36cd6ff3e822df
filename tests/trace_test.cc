/**
 * @file
 * Tests for the barrier-state trace and timeline renderer.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

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

TEST(BarrierTrace, EmptyRenders)
{
    BarrierTrace t(2);
    EXPECT_NE(t.render().find("(empty trace)"), std::string::npos);
}

TEST(BarrierTrace, RecordsAndRenders)
{
    BarrierTrace t(2);
    using barrier::BarrierState;
    t.record(0, {BarrierState::NonBarrier, BarrierState::Ready},
             {false, false}, false);
    t.record(1, {BarrierState::Ready, BarrierState::Ready},
             {false, false}, true);
    t.record(2, {BarrierState::Synced, BarrierState::Stalled},
             {false, false}, false);
    EXPECT_EQ(t.cycles(), 3u);
    std::string out = t.render();
    EXPECT_NE(out.find("cpu0 |.rs|"), std::string::npos);
    EXPECT_NE(out.find("cpu1 |rr#|"), std::string::npos);
    // Sync marker in the middle column.
    EXPECT_NE(out.find("| | |"), std::string::npos);
}

TEST(BarrierTrace, DownsamplingKeepsStalls)
{
    BarrierTrace t(1);
    using barrier::BarrierState;
    // 200 cycles of NonBarrier with a single stalled cycle: the stall
    // must survive downsampling to 10 columns.
    for (int k = 0; k < 200; ++k) {
        t.record(static_cast<std::uint64_t>(k),
                 {k == 137 ? BarrierState::Stalled
                           : BarrierState::NonBarrier},
                 {false}, false);
    }
    std::string out = t.render(10);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(BarrierTrace, SkippedCyclesRepeatLastSymbols)
{
    BarrierTrace t(2);
    using barrier::BarrierState;
    t.record(0, {BarrierState::NonBarrier, BarrierState::Ready},
             {false, false}, false);
    t.record(3, {BarrierState::Synced, BarrierState::Ready},
             {false, false}, true);
    t.extendTo(6);
    EXPECT_EQ(t.cycles(), 6u);
    std::string out = t.render();
    EXPECT_NE(out.find("cpu0 |...sss|"), std::string::npos) << out;
    EXPECT_NE(out.find("cpu1 |rrrrrr|"), std::string::npos) << out;
    EXPECT_NE(out.find("sync |   |  |"), std::string::npos) << out;

    // Recording an earlier cycle rewinds the rows to it.
    t.record(2, {BarrierState::Stalled, BarrierState::Stalled},
             {false, false}, false);
    EXPECT_EQ(t.cycles(), 3u);
    EXPECT_NE(t.render().find("cpu0 |..#|"), std::string::npos);
}

TEST(BarrierTrace, WideMachineLabelsAlign)
{
    // With 128 processors the ids reach three digits; every row's
    // first '|' must still sit in one column.
    constexpr int procs = 128;
    BarrierTrace t(procs);
    t.record(0,
             std::vector<barrier::BarrierState>(
                 procs, barrier::BarrierState::Ready),
             std::vector<bool>(procs, false), true);
    std::istringstream lines(t.render());
    std::string line;
    std::size_t column = std::string::npos;
    int rows = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("  cpu", 0) != 0 && line.rfind("  sync", 0) != 0)
            continue;
        ++rows;
        if (column == std::string::npos)
            column = line.find('|');
        EXPECT_EQ(line.find('|'), column) << line;
    }
    EXPECT_EQ(rows, procs + 1);
    EXPECT_EQ(column, 8u);  // "  cpu127|"
}

TEST(BarrierTrace, MachineIntegration)
{
    MachineConfig cfg;
    cfg.numProcessors = 2;
    cfg.memWords = 1024;
    cfg.traceBarrierStates = true;
    Machine m(cfg);
    const std::string src = R"(
        settag 1
        setmask 3
        nop
        nop
    .region 1
        nop
    .endregion
        halt
    )";
    m.loadProgram(0, assembleOrDie(src));
    m.loadProgram(1, assembleOrDie(src));
    auto r = m.run();
    EXPECT_FALSE(r.deadlocked);
    ASSERT_NE(m.trace(), nullptr);
    EXPECT_GT(m.trace()->cycles(), 0u);
    std::string out = m.trace()->render();
    EXPECT_NE(out.find("cpu0"), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(BarrierTrace, DisabledByDefault)
{
    MachineConfig cfg;
    cfg.numProcessors = 1;
    cfg.memWords = 64;
    Machine m(cfg);
    m.loadProgram(0, assembleOrDie("halt\n"));
    m.run();
    EXPECT_EQ(m.trace(), nullptr);
}

} // namespace
} // namespace fb::sim
