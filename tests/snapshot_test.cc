/**
 * @file
 * Tests for the checkpoint/restore subsystem: the byte codec, the
 * versioned CRC-protected container, the durable generation store and
 * its corrupt-snapshot walk-back, the snapshot-corruption injectors,
 * machine-level save/restore exactness, and the resume-equivalence
 * oracle over a large sweep of generated scenarios.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/network.hh"
#include "barrier/topology.hh"
#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "fault/plan.hh"
#include "fault/snapcorrupt.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "snapshot/codec.hh"
#include "snapshot/format.hh"
#include "snapshot/store.hh"
#include "snapshot/writer.hh"
#include "support/logging.hh"
#include "verify/generator.hh"
#include "verify/resume.hh"

namespace fb::snapshot
{
namespace
{

using sim::Machine;
using sim::MachineConfig;

// --- codec -----------------------------------------------------------

TEST(Codec, Crc32KnownVector)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check.data()),
                    check.size()),
              0xcbf43926u);
    EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Codec, RoundTripAllTypes)
{
    Encoder e;
    e.u8(0xab);
    e.u32(0xdeadbeef);
    e.u64(0x0123456789abcdefULL);
    e.i64(-42);
    e.b(true);
    e.b(false);
    e.str("fuzzy");
    e.str("");
    e.boolVec({true, false, true});
    e.u64Vec({1, 0xffffffffffffffffULL, 7});
    BitVector bv(11);
    bv.set(0, true);
    bv.set(9, true);
    e.bits(bv);

    Decoder d(e.buffer());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_TRUE(d.b());
    EXPECT_FALSE(d.b());
    EXPECT_EQ(d.str(), "fuzzy");
    EXPECT_EQ(d.str(), "");
    std::vector<bool> bools;
    d.boolVec(bools);
    EXPECT_EQ(bools, (std::vector<bool>{true, false, true}));
    std::vector<std::uint64_t> words;
    d.u64Vec(words);
    EXPECT_EQ(words,
              (std::vector<std::uint64_t>{1, 0xffffffffffffffffULL, 7}));
    BitVector bv2(0);
    d.bits(bv2);
    ASSERT_EQ(bv2.size(), 11u);
    EXPECT_TRUE(bv2.test(0));
    EXPECT_TRUE(bv2.test(9));
    EXPECT_FALSE(bv2.test(5));
    EXPECT_TRUE(d.done());
}

TEST(Codec, DecoderStickyFailure)
{
    Encoder e;
    e.u32(7);
    Decoder d(e.buffer());
    EXPECT_EQ(d.u32(), 7u);
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(d.u64(), 0u);  // past the end
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.u8(), 0u);  // stays failed even for in-range widths
    EXPECT_FALSE(d.done());
}

TEST(Codec, DecoderRejectsHugeLengthPrefix)
{
    // A length prefix larger than the buffer must fail cleanly, not
    // allocate or wrap.
    Encoder e;
    e.u64(0xffffffffffffff00ULL);
    Decoder d(e.buffer());
    EXPECT_EQ(d.str(), "");
    EXPECT_FALSE(d.ok());
}

// --- container format ------------------------------------------------

std::vector<Section>
sampleSections()
{
    Encoder a;
    a.u64(123);
    a.str("core");
    Encoder b;
    b.u64Vec({9, 8, 7});
    return {{static_cast<std::uint32_t>(SectionId::MachineCore),
             a.take()},
            {static_cast<std::uint32_t>(SectionId::Memory), b.take()}};
}

TEST(Format, AssembleDisassembleRoundTrip)
{
    SnapshotHeader h;
    h.configFingerprint = 0x1122334455667788ULL;
    h.cycle = 99;
    h.generation = 4;
    auto bytes = assemble(h, sampleSections());

    SnapshotHeader h2;
    std::vector<Section> secs;
    std::string err;
    ASSERT_TRUE(disassemble(bytes, h2, secs, err)) << err;
    EXPECT_EQ(h2.version, formatVersion);
    EXPECT_EQ(h2.configFingerprint, h.configFingerprint);
    EXPECT_EQ(h2.cycle, 99u);
    EXPECT_EQ(h2.generation, 4u);
    ASSERT_EQ(secs.size(), 2u);
    EXPECT_EQ(secs[0].id,
              static_cast<std::uint32_t>(SectionId::MachineCore));
    EXPECT_EQ(secs[1].id, static_cast<std::uint32_t>(SectionId::Memory));

    SnapshotHeader peeked;
    ASSERT_TRUE(peekHeader(bytes, peeked, err)) << err;
    EXPECT_EQ(peeked.cycle, 99u);
}

TEST(Format, EveryTruncationIsDetected)
{
    SnapshotHeader h;
    h.cycle = 1;
    auto bytes = assemble(h, sampleSections());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        SnapshotHeader h2;
        std::vector<Section> secs;
        std::string err;
        EXPECT_FALSE(disassemble(cut, h2, secs, err))
            << "truncation to " << len << " bytes went undetected";
    }
}

TEST(Format, EveryBitFlipIsDetected)
{
    SnapshotHeader h;
    h.cycle = 1;
    auto bytes = assemble(h, sampleSections());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        auto mutated = bytes;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        SnapshotHeader h2;
        std::vector<Section> secs;
        std::string err;
        EXPECT_FALSE(disassemble(mutated, h2, secs, err))
            << "bit flip at " << bit << " went undetected";
    }
}

TEST(Format, RejectsTrailingGarbage)
{
    SnapshotHeader h;
    auto bytes = assemble(h, sampleSections());
    bytes.push_back(0);
    SnapshotHeader h2;
    std::vector<Section> secs;
    std::string err;
    EXPECT_FALSE(disassemble(bytes, h2, secs, err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(Format, RejectsWrongMagicAndVersion)
{
    SnapshotHeader h;
    auto bytes = assemble(h, sampleSections());
    auto badMagic = bytes;
    badMagic[0] = 'X';
    SnapshotHeader h2;
    std::string err;
    EXPECT_FALSE(peekHeader(badMagic, h2, err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;

    // A version bump alone also flips the header CRC; rebuild the
    // stream around the foreign version to isolate the version check.
    std::vector<std::uint8_t> empty;
    SnapshotHeader hv;
    auto stream = assemble(hv, {});
    stream[8] ^= 0x02;   // version field (offset 8)
    EXPECT_FALSE(peekHeader(stream, h2, err));
}

// --- durable store ---------------------------------------------------

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "fb_snapshot_test_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A full snapshot: it anchors its own one-element chain. */
std::vector<std::uint8_t>
snapshotBytes(std::uint64_t cycle, std::uint64_t generation)
{
    SnapshotHeader h;
    h.cycle = cycle;
    h.generation = generation;
    h.baseFull = generation;
    h.prev = generation;
    return assemble(h, sampleSections());
}

/**
 * loadLatestChain() on a store of full snapshots: the newest intact
 * file, which must come back as a chain of one.
 */
bool
loadNewestFull(const SnapshotStore &store, std::vector<std::uint8_t> &bytes,
               std::uint64_t &generation, std::vector<std::string> &diags)
{
    std::vector<std::vector<std::uint8_t>> chain;
    if (!store.loadLatestChain(chain, generation, diags))
        return false;
    EXPECT_EQ(chain.size(), 1u);
    bytes = chain.front();
    return true;
}

TEST(Store, SaveLoadAndPrune)
{
    SnapshotStore store(freshDir("prune"), 2);
    std::string err;
    for (std::uint64_t g = 1; g <= 5; ++g)
        ASSERT_TRUE(store.save(g, snapshotBytes(g * 100, g), err)) << err;

    auto entries = store.list();
    ASSERT_EQ(entries.size(), 2u);  // pruned to the newest two
    EXPECT_EQ(entries[0].first, 4u);
    EXPECT_EQ(entries[1].first, 5u);
    EXPECT_EQ(store.newestGeneration(), 5u);

    std::vector<std::uint8_t> bytes;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(loadNewestFull(store, bytes, gen, diags));
    EXPECT_EQ(gen, 5u);
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(bytes, snapshotBytes(500, 5));
}

TEST(Store, EmptyStoreLoadFails)
{
    SnapshotStore store(freshDir("empty"));
    std::vector<std::uint8_t> bytes;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    EXPECT_FALSE(loadNewestFull(store, bytes, gen, diags));
}

TEST(Store, WalkBackPastCorruptNewest)
{
    SnapshotStore store(freshDir("walkback"), 3);
    std::string err;
    for (std::uint64_t g = 1; g <= 3; ++g)
        ASSERT_TRUE(store.save(g, snapshotBytes(g * 10, g), err)) << err;

    // Tear the newest file mid-write and bit-rot the next one.
    {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(readFile(store.pathFor(3), bytes, err)) << err;
        bytes.resize(bytes.size() / 2);
        std::FILE *f = std::fopen(store.pathFor(3).c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }
    {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(readFile(store.pathFor(2), bytes, err)) << err;
        bytes[bytes.size() - 1] ^= 0x01;
        std::FILE *f = std::fopen(store.pathFor(2).c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    std::vector<std::uint8_t> bytes;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(loadNewestFull(store, bytes, gen, diags));
    EXPECT_EQ(gen, 1u);
    EXPECT_EQ(bytes, snapshotBytes(10, 1));
    EXPECT_EQ(diags.size(), 2u);  // one skip message per bad generation
}

TEST(Store, RejectsGenerationMismatch)
{
    SnapshotStore store(freshDir("genmismatch"), 3);
    std::string err;
    ASSERT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
    // Park generation 1's bytes under generation 2's name: valid CRCs,
    // wrong embedded generation.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFile(store.pathFor(1), bytes, err)) << err;
    std::FILE *f = std::fopen(store.pathFor(2).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);

    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(loadNewestFull(store, bytes, gen, diags));
    EXPECT_EQ(gen, 1u);  // the stale copy was skipped, not trusted
    EXPECT_FALSE(diags.empty());
}

// --- corruption injectors --------------------------------------------

TEST(Corruption, EachKindIsNeverSilentlyRestored)
{
    using fault::SnapshotCorruption;
    for (auto kind :
         {SnapshotCorruption::Truncate, SnapshotCorruption::BitFlip,
          SnapshotCorruption::StaleGeneration}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SnapshotStore store(
                freshDir(std::string("inject_") +
                         fault::snapshotCorruptionName(kind) + "_" +
                         std::to_string(seed)),
                4);
            std::string err;
            ASSERT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
            ASSERT_TRUE(store.save(2, snapshotBytes(20, 2), err)) << err;
            ASSERT_TRUE(
                fault::corruptNewestSnapshot(store, kind, seed, err))
                << err;

            std::vector<std::uint8_t> bytes;
            std::uint64_t gen = 0;
            std::vector<std::string> diags;
            // The newest generation is damaged; the loader must fall
            // back to the intact older one, never return the damaged
            // bytes.
            ASSERT_TRUE(loadNewestFull(store, bytes, gen, diags))
                << fault::snapshotCorruptionName(kind);
            EXPECT_EQ(gen, 1u)
                << fault::snapshotCorruptionName(kind) << " seed "
                << seed;
            EXPECT_EQ(bytes, snapshotBytes(10, 1));
            EXPECT_FALSE(diags.empty());
        }
    }
}

TEST(Corruption, SingleGenerationStaleFallsToNothing)
{
    SnapshotStore store(freshDir("stale_single"), 4);
    std::string err;
    ASSERT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
    ASSERT_TRUE(fault::corruptNewestSnapshot(
        store, fault::SnapshotCorruption::StaleGeneration, 7, err))
        << err;
    std::vector<std::uint8_t> bytes;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    EXPECT_FALSE(loadNewestFull(store, bytes, gen, diags));
}

// --- machine save/restore --------------------------------------------

isa::Program
assembleOrDie(const std::string &src)
{
    isa::Program p;
    std::string err;
    if (!isa::Assembler::assemble(src, p, err))
        ADD_FAILURE() << "assembly failed: " << err;
    return p;
}

std::string
loopSource(int iters, int work, int region, std::uint64_t mask)
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << mask << "\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << iters << "\n";
    oss << "loop:\n";
    for (int k = 0; k < work; ++k)
        oss << "addi r3, r3, 1\n";
    oss << ".region 1\n";
    for (int k = 0; k < region; ++k)
        oss << "addi r5, r5, 1\n";
    oss << "st r5, " << 100 << "(r0)\n";
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << ".endregion\n";
    oss << "halt\n";
    return oss.str();
}

MachineConfig
machineConfig(int procs)
{
    MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.memWords = 4096;
    cfg.maxCycles = 500'000;
    cfg.jitterMean = 0.4;  // exercise the per-processor PRNG state
    cfg.seed = 11;
    return cfg;
}

void
loadLoop(Machine &m, int procs)
{
    auto prog = assembleOrDie(
        loopSource(12, 5, 3, (1ULL << procs) - 1));
    for (int p = 0; p < procs; ++p)
        m.loadProgram(p, prog);
}

TEST(MachineSnapshot, CheckpointingPerturbsNothing)
{
    auto cfg = machineConfig(4);
    Machine ref(cfg);
    loadLoop(ref, 4);
    auto refResult = ref.run();

    auto cfg2 = cfg;
    cfg2.checkpointEveryCycles = 64;
    cfg2.checkpointRebaseEvery = 1;
    Machine chk(cfg2);
    loadLoop(chk, 4);
    int snapshots = 0;
    chk.setStagedCheckpointSink([&](SnapshotHeader, std::vector<Section>) {
        ++snapshots;
        return Machine::CheckpointAck{};
    });
    auto chkResult = chk.run();

    EXPECT_GT(snapshots, 0);
    EXPECT_EQ(refResult.cycles, chkResult.cycles);
    EXPECT_EQ(refResult.syncEvents, chkResult.syncEvents);
    EXPECT_EQ(refResult.memAccesses, chkResult.memAccesses);
    for (int p = 0; p < 4; ++p)
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(ref.processor(p).reg(r), chk.processor(p).reg(r))
                << "cpu" << p << " r" << r;
}

TEST(MachineSnapshot, RestoreContinuesBitIdentically)
{
    auto cfg = machineConfig(4);
    Machine ref(cfg);
    loadLoop(ref, 4);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);

    auto cfg2 = cfg;
    cfg2.checkpointEveryCycles = 100;
    cfg2.checkpointRebaseEvery = 1;
    Machine chk(cfg2);
    loadLoop(chk, 4);
    std::vector<std::vector<std::uint8_t>> snaps;
    chk.setStagedCheckpointSink(
        [&](SnapshotHeader h, std::vector<Section> secs) {
            snaps.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    chk.run();
    ASSERT_GE(snaps.size(), 2u);

    // Resume from a mid-run snapshot on a completely fresh machine.
    Machine resumed(cfg);
    loadLoop(resumed, 4);
    std::string err;
    ASSERT_TRUE(resumed.restoreState(snaps[1], err)) << err;
    auto resumedResult = resumed.run();

    EXPECT_EQ(resumedResult.cycles, refResult.cycles);
    EXPECT_EQ(resumedResult.syncEvents, refResult.syncEvents);
    EXPECT_EQ(resumedResult.deadlocked, refResult.deadlocked);
    for (int p = 0; p < 4; ++p)
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(resumed.processor(p).reg(r),
                      ref.processor(p).reg(r))
                << "cpu" << p << " r" << r;
    EXPECT_EQ(resumed.memory().peek(100), ref.memory().peek(100));
    EXPECT_EQ(resumed.checkSafetyProperty(), ref.checkSafetyProperty());
}

TEST(MachineSnapshot, SyncRecordWindowSurvivesChainedRestore)
{
    // A bounded sync-record trail (MachineConfig::syncRecordWindow)
    // rotates old records out mid-run; checkpoints taken across those
    // prunes carry the dropped-count and the retained suffix on the
    // wire, and a delta chain restored on a fresh machine must land on
    // the exact same trail, dropped count and final state as the
    // uninterrupted reference.
    auto cfg = machineConfig(4);
    cfg.syncRecordWindow = 3;
    Machine ref(cfg);
    loadLoop(ref, 4);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);
    // The loop synchronizes once per iteration, so the run crosses
    // the window many times over.
    ASSERT_GT(refResult.syncRecordsDropped, 0u);
    ASSERT_EQ(ref.syncRecords().size(), 3u);

    SnapshotStore store(freshDir("sync_window_chain"), 32);
    AsyncSnapshotWriter writer(store);
    auto cfg2 = cfg;
    cfg2.checkpointEveryCycles = refResult.cycles / 10;
    cfg2.checkpointRebaseEvery = 4;
    Machine chk(cfg2);
    loadLoop(chk, 4);
    chk.setStagedCheckpointSink(
        [&writer](SnapshotHeader h, std::vector<Section> secs) {
            auto v = writer.submit(std::move(h), std::move(secs));
            Machine::CheckpointAck ack;
            ack.keep = v.keep;
            ack.forceFull = v.forceFull;
            ack.deltasOk = v.deltasOk;
            ack.degradation = std::move(v.degradation);
            return ack;
        });
    auto chkResult = chk.run();
    writer.drain();
    EXPECT_EQ(chkResult.cycles, refResult.cycles);
    EXPECT_EQ(chkResult.syncRecordsDropped, refResult.syncRecordsDropped);
    EXPECT_GE(chkResult.checkpointsDelta, 1u);

    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(store.loadLatestChain(chain, gen, diags));
    Machine resumed(cfg);
    loadLoop(resumed, 4);
    std::string err;
    ASSERT_TRUE(resumed.restoreChainState(chain, err)) << err;
    auto result = resumed.run();

    EXPECT_EQ(result.cycles, refResult.cycles);
    EXPECT_EQ(result.syncRecordsDropped, refResult.syncRecordsDropped);
    ASSERT_EQ(resumed.syncRecords().size(), ref.syncRecords().size());
    for (std::size_t i = 0; i < ref.syncRecords().size(); ++i) {
        const sim::SyncRecord &a = resumed.syncRecords()[i];
        const sim::SyncRecord &b = ref.syncRecords()[i];
        EXPECT_EQ(a.cycle, b.cycle) << "record " << i;
        EXPECT_EQ(a.members, b.members) << "record " << i;
        EXPECT_EQ(a.arrivals, b.arrivals) << "record " << i;
        EXPECT_EQ(a.crossings, b.crossings) << "record " << i;
    }
    for (int p = 0; p < 4; ++p)
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(resumed.processor(p).reg(r),
                      ref.processor(p).reg(r))
                << "cpu" << p << " r" << r;
}

/** The per-processor rows of a full-resolution timeline. */
std::vector<std::string>
traceRows(const sim::BarrierTrace &trace)
{
    std::istringstream lines(trace.render(trace.cycles()));
    std::vector<std::string> rows;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  cpu", 0) != 0)
            continue;
        const std::size_t open = line.find('|');
        rows.push_back(line.substr(open + 1, line.size() - open - 2));
    }
    return rows;
}

TEST(MachineSnapshot, TracingComposesWithCheckpointAndRestore)
{
    // The trace is not serialized, so a traced checkpointing run must
    // capture exactly the bytes an untraced one does.
    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = 100;
    cfg.checkpointRebaseEvery = 4;
    auto captureAll = [&](bool traced, Machine &m) {
        std::vector<std::vector<std::uint8_t>> snaps;
        m.setStagedCheckpointSink(
            [&](SnapshotHeader h, std::vector<Section> secs) {
                snaps.push_back(assemble(h, secs));
                return Machine::CheckpointAck{};
            });
        EXPECT_EQ(m.trace() != nullptr, traced);
        m.run();
        return snaps;
    };
    Machine plain(cfg);
    loadLoop(plain, 4);
    const auto plainSnaps = captureAll(false, plain);
    auto tracedCfg = cfg;
    tracedCfg.traceBarrierStates = true;
    Machine traced(tracedCfg);
    loadLoop(traced, 4);
    const auto tracedSnaps = captureAll(true, traced);
    ASSERT_GE(plainSnaps.size(), 3u);
    EXPECT_EQ(tracedSnaps, plainSnaps);

    // A traced machine restores a chain (a full snapshot and two
    // deltas); its timeline starts at the restored cycle and matches
    // the uninterrupted run's from there on.
    Machine resumed(tracedCfg);
    loadLoop(resumed, 4);
    std::string err;
    ASSERT_TRUE(resumed.restoreChainState(
        {tracedSnaps[0], tracedSnaps[1], tracedSnaps[2]}, err))
        << err;
    resumed.run();
    ASSERT_NE(resumed.trace(), nullptr);
    const std::size_t from = 300;  // the third capture's cycle
    ASSERT_EQ(resumed.trace()->cycles() + from, traced.trace()->cycles());
    EXPECT_NE(resumed.trace()->render().find("from cycle 300"),
              std::string::npos);
    const auto full = traceRows(*traced.trace());
    const auto tail = traceRows(*resumed.trace());
    ASSERT_EQ(tail.size(), full.size());
    for (std::size_t p = 0; p < full.size(); ++p)
        EXPECT_EQ(tail[p], full[p].substr(from)) << "cpu" << p;
}

TEST(MachineSnapshot, SinkReturningFalseUninstalls)
{
    auto cfg = machineConfig(2);
    cfg.checkpointEveryCycles = 32;
    cfg.checkpointRebaseEvery = 1;
    Machine m(cfg);
    loadLoop(m, 2);
    int calls = 0;
    m.setStagedCheckpointSink([&](SnapshotHeader, std::vector<Section>) {
        ++calls;
        Machine::CheckpointAck ack;
        ack.keep = false;  // simulated persistence failure
        return ack;
    });
    m.run();
    EXPECT_EQ(calls, 1);
}

TEST(MachineSnapshot, FingerprintRejectsForeignConfig)
{
    auto cfg = machineConfig(2);
    Machine m(cfg);
    loadLoop(m, 2);
    auto bytes = m.saveState();

    auto other = cfg;
    other.seed = cfg.seed + 1;
    Machine m2(other);
    loadLoop(m2, 2);
    std::string err;
    EXPECT_FALSE(m2.restoreState(bytes, err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;

    // Same config, different program: also a fingerprint change.
    Machine m3(cfg);
    auto prog = assembleOrDie("settag 1\nsetmask 3\nhalt\n");
    m3.loadProgram(0, prog);
    m3.loadProgram(1, prog);
    EXPECT_FALSE(m3.restoreState(bytes, err));

    // The checkpoint period itself is deliberately outside the
    // fingerprint: restoring under a different period must work.
    auto differentPeriod = cfg;
    differentPeriod.checkpointEveryCycles = 999;
    Machine m4(differentPeriod);
    loadLoop(m4, 2);
    EXPECT_TRUE(m4.restoreState(bytes, err)) << err;
}

TEST(Codec, WideHierarchicalNetworkRoundTripsMidDelivery)
{
    // A 256-processor network (four payload words of mask bits) on a
    // 4-ary tree, captured while a machine-wide delivery is in flight:
    // the decoded copy must carry the wide masks, the rebuilt sparse
    // sets and the pending delivery cycle, and deliver on schedule.
    barrier::Topology topo;
    ASSERT_TRUE(barrier::Topology::parse("tree:4", topo));
    barrier::BarrierNetwork net(256, 1, topo);
    for (int p = 0; p < 256; ++p) {
        net.unit(p).setTag(1);
        net.unit(p).setMaskAll();
        net.unit(p).arrive();
    }
    // Group completes at cycle 10; span of [0,255] is 4 levels, so
    // delivery is due at 10 + 1 + 2*4 = 19.
    EXPECT_EQ(net.evaluate(10), 0);
    ASSERT_TRUE(net.deliveryPending());

    Encoder e;
    net.encodeState(e);
    barrier::BarrierNetwork copy(256, 1, topo);
    Decoder d(e.buffer());
    ASSERT_TRUE(copy.decodeState(d));

    EXPECT_TRUE(copy.deliveryPending());
    EXPECT_EQ(copy.nextDeliveryCycle(), net.nextDeliveryCycle());
    EXPECT_EQ(copy.readySet().count(), 256u);
    EXPECT_TRUE(copy.unit(0).mask().test(255));
    EXPECT_TRUE(copy.unit(255).mask().test(0));
    EXPECT_FALSE(copy.unit(255).mask().test(255));
    EXPECT_EQ(copy.evaluate(net.nextDeliveryCycle() - 1), 0);
    EXPECT_EQ(copy.evaluate(net.nextDeliveryCycle()), 256);
    EXPECT_EQ(copy.syncEvents(), 1u);
}

std::string
wideLoopSource(int iters, int work, int region)
{
    // Like loopSource, but the machine-wide mask uses the wide
    // SETMASK form (-1 = all processors) so it works beyond 64 CPUs.
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask -1\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << iters << "\n";
    oss << "loop:\n";
    for (int k = 0; k < work; ++k)
        oss << "addi r3, r3, 1\n";
    oss << ".region 1\n";
    for (int k = 0; k < region; ++k)
        oss << "addi r5, r5, 1\n";
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << ".endregion\n";
    oss << "halt\n";
    return oss.str();
}

TEST(MachineSnapshot, WideHierarchicalMachineRestoresBitIdentically)
{
    // 72 processors (wide barrier masks) on a tree topology: a
    // mid-run snapshot restored on a fresh machine must continue to
    // the exact same cycle count, episodes and register files.
    auto cfg = machineConfig(72);
    ASSERT_TRUE(barrier::Topology::parse("tree:4", cfg.topology));
    auto prog = assembleOrDie(wideLoopSource(6, 4, 2));
    auto loadAll = [&prog](Machine &m) {
        for (int p = 0; p < 72; ++p)
            m.loadProgram(p, prog);
    };

    Machine ref(cfg);
    loadAll(ref);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);
    ASSERT_FALSE(refResult.timedOut);

    auto cfg2 = cfg;
    cfg2.checkpointEveryCycles = refResult.cycles / 4;
    cfg2.checkpointRebaseEvery = 1;
    Machine chk(cfg2);
    loadAll(chk);
    std::vector<std::vector<std::uint8_t>> snaps;
    chk.setStagedCheckpointSink(
        [&](SnapshotHeader h, std::vector<Section> secs) {
            snaps.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    chk.run();
    ASSERT_GE(snaps.size(), 2u);

    Machine resumed(cfg);
    loadAll(resumed);
    std::string err;
    ASSERT_TRUE(resumed.restoreState(snaps[1], err)) << err;
    auto resumedResult = resumed.run();

    EXPECT_EQ(resumedResult.cycles, refResult.cycles);
    EXPECT_EQ(resumedResult.syncEvents, refResult.syncEvents);
    for (int p = 0; p < 72; ++p) {
        EXPECT_EQ(resumedResult.perProcessor[static_cast<std::size_t>(p)]
                      .barrierEpisodes,
                  refResult.perProcessor[static_cast<std::size_t>(p)]
                      .barrierEpisodes)
            << "cpu" << p;
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(resumed.processor(p).reg(r),
                      ref.processor(p).reg(r))
                << "cpu" << p << " r" << r;
    }
}

TEST(MachineSnapshot, FingerprintRejectsMismatchedTopology)
{
    // The topology shapes delivery timing, so a snapshot only replays
    // correctly on the machine shape that produced it: the config
    // fingerprint must bind kind, parameter and level latency.
    auto cfg = machineConfig(2);
    Machine m(cfg);
    loadLoop(m, 2);
    auto bytes = m.saveState();

    std::string err;
    for (const char *spec : {"tree:4", "cluster:2", "tree:4:2"}) {
        auto other = cfg;
        ASSERT_TRUE(barrier::Topology::parse(spec, other.topology));
        Machine victim(other);
        loadLoop(victim, 2);
        EXPECT_FALSE(victim.restoreState(bytes, err)) << spec;
        EXPECT_NE(err.find("fingerprint"), std::string::npos)
            << spec << ": " << err;
    }

    // Same non-flat topology on both sides restores fine; the same
    // shape with a different level latency does not.
    auto treeCfg = cfg;
    ASSERT_TRUE(barrier::Topology::parse("tree:4", treeCfg.topology));
    Machine t1(treeCfg);
    loadLoop(t1, 2);
    auto treeBytes = t1.saveState();
    Machine t2(treeCfg);
    loadLoop(t2, 2);
    EXPECT_TRUE(t2.restoreState(treeBytes, err)) << err;
    auto slowCfg = cfg;
    ASSERT_TRUE(barrier::Topology::parse("tree:4:2", slowCfg.topology));
    Machine t3(slowCfg);
    loadLoop(t3, 2);
    EXPECT_FALSE(t3.restoreState(treeBytes, err));
}

/** One loop per processor, each with a different work count. */
std::vector<isa::Program>
distinctLoops(int procs)
{
    std::vector<isa::Program> progs;
    for (int p = 0; p < procs; ++p)
        progs.push_back(assembleOrDie(
            loopSource(12, 5 + p, 3, (1ULL << procs) - 1)));
    return progs;
}

void
loadEach(Machine &m, const std::vector<isa::Program> &progs)
{
    for (std::size_t p = 0; p < progs.size(); ++p)
        m.loadProgram(static_cast<int>(p), progs[p]);
}

TEST(MachineSnapshot, ConfigFingerprintGoldenValues)
{
    // Every snapshot header carries the fingerprint, so stores already
    // written restore only while the hash's inputs, their order and
    // its byte stream stay as they are. The values were recorded from
    // the uncached hash.
    const auto progs = distinctLoops(4);
    Machine plain(machineConfig(4));
    loadEach(plain, progs);
    EXPECT_EQ(plain.configFingerprint(), 0xa6e4029511d4db4eULL);

    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse(
        "drop@100:2:16,fliptag@250:0:3,kill@400:3", 4, plan, err))
        << err;
    auto cfg = machineConfig(4);
    cfg.faultPlan = &plan;
    cfg.watchdog.enabled = true;
    cfg.watchdog.timeoutCycles = 2000;
    cfg.watchdog.maxAttempts = 3;
    ASSERT_TRUE(barrier::Topology::parse("tree:4", cfg.topology));
    Machine faulty(cfg);
    loadEach(faulty, progs);
    EXPECT_EQ(faulty.configFingerprint(), 0x14c617b90ad89ed1ULL);
}

TEST(MachineSnapshot, ConfigFingerprintFollowsResetAndLoad)
{
    // The machine keeps its fingerprint between captures, so every
    // write to the config or the programs must drop the kept value:
    // after each step it must equal a freshly built twin's.
    auto fresh = [](const MachineConfig &cfg,
                    const std::vector<isa::Program> &progs) {
        Machine m(cfg);
        loadEach(m, progs);
        return m.configFingerprint();
    };
    const auto cfg = machineConfig(4);
    const auto progs = distinctLoops(4);
    Machine m(cfg);
    loadEach(m, progs);
    const std::uint64_t first = m.configFingerprint();
    EXPECT_EQ(first, fresh(cfg, progs));

    // (i) A different program on one cpu.
    auto changed = progs;
    changed[2] = assembleOrDie(loopSource(12, 20, 3, 0xf));
    m.loadProgram(2, changed[2]);
    EXPECT_EQ(m.configFingerprint(), fresh(cfg, changed));
    EXPECT_NE(m.configFingerprint(), first);

    // (ii) A config that differs in one mixed field: read once before
    // the reload too, or the reload's own invalidation would hide a
    // reset that kept the old value.
    auto reseeded = cfg;
    reseeded.seed = cfg.seed + 1;
    m.reset(reseeded);
    EXPECT_EQ(m.configFingerprint(), fresh(reseeded, {}));
    loadEach(m, progs);
    EXPECT_EQ(m.configFingerprint(), fresh(reseeded, progs));
    EXPECT_NE(m.configFingerprint(), first);

    // (iii) The first config and programs again: the first value.
    m.reset(cfg);
    loadEach(m, progs);
    EXPECT_EQ(m.configFingerprint(), first);
    EXPECT_EQ(m.configFingerprint(), fresh(cfg, progs));
}

TEST(MachineSnapshot, MismatchedTopologyRestoreDiesLoudly)
{
    // fbsim --restore treats an unrestorable snapshot as fatal; a
    // topology-mismatched checkpoint must take that loud exit with
    // the fingerprint diagnostic, never resume quietly.
    auto cfg = machineConfig(2);
    Machine m(cfg);
    loadLoop(m, 2);
    const auto bytes = m.saveState();
    auto mismatched = cfg;
    ASSERT_TRUE(
        barrier::Topology::parse("cluster:2", mismatched.topology));
    EXPECT_DEATH(
        {
            Machine victim(mismatched);
            loadLoop(victim, 2);
            std::string why;
            const bool restored = victim.restoreState(bytes, why);
            FB_ASSERT(restored,
                      "cannot resume from snapshot: " << why);
        },
        "fingerprint");
}

TEST(MachineSnapshot, CorruptBytesNeverRestore)
{
    auto cfg = machineConfig(2);
    Machine m(cfg);
    loadLoop(m, 2);
    auto bytes = m.saveState();

    Machine victim(cfg);
    loadLoop(victim, 2);
    std::string err;
    // Sampled truncations and bit flips across the whole stream.
    for (std::size_t len = 0; len < bytes.size();
         len += 1 + bytes.size() / 97) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(victim.restoreState(cut, err))
            << "truncation to " << len;
    }
    for (std::size_t bit = 0; bit < bytes.size() * 8;
         bit += 1 + bytes.size() / 13) {
        auto mutated = bytes;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(victim.restoreState(mutated, err))
            << "bit flip at " << bit;
    }
}

// --- delta chains in the store ---------------------------------------

/** A synthetic snapshot with explicit chain linkage. */
std::vector<std::uint8_t>
chainBytes(std::uint64_t cycle, std::uint64_t gen, std::uint64_t base,
           std::uint64_t prev)
{
    SnapshotHeader h;
    h.cycle = cycle;
    h.generation = gen;
    h.baseFull = base;
    h.prev = prev;
    return assemble(h, sampleSections());
}

/** Corrupt one byte deep inside @p path (payload, not header). */
void
rotFile(const std::string &path)
{
    std::string err;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFile(path, bytes, err)) << err;
    ASSERT_GT(bytes.size(), 70u);
    bytes[bytes.size() - 3] ^= 0x40;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

TEST(ChainStore, PruneNeverOrphansALiveChain)
{
    SnapshotStore store(freshDir("chainprune"), 2);
    std::string err;
    ASSERT_TRUE(store.save(1, chainBytes(10, 1, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(2, chainBytes(20, 2, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(3, chainBytes(30, 3, 1, 2), err)) << err;

    // The retention window is {2, 3}, but generation 3's chain runs
    // 3 -> 2 -> 1: pruning the full base would orphan both deltas.
    auto entries = store.list();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, 1u);

    // A re-based chain releases the old one: after full 4 + delta 5
    // nothing retained links below 4 and the window applies again.
    ASSERT_TRUE(store.save(4, chainBytes(40, 4, 4, 4), err)) << err;
    ASSERT_TRUE(store.save(5, chainBytes(50, 5, 4, 4), err)) << err;
    entries = store.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].first, 4u);
    EXPECT_EQ(entries[1].first, 5u);

    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(store.loadLatestChain(chain, gen, diags));
    EXPECT_EQ(gen, 5u);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], chainBytes(40, 4, 4, 4));  // base first
    EXPECT_EQ(chain[1], chainBytes(50, 5, 4, 4));
}

TEST(ChainStore, WalkBackPastCorruptMidDelta)
{
    SnapshotStore store(freshDir("chainmid"), 8);
    std::string err;
    ASSERT_TRUE(store.save(1, chainBytes(10, 1, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(2, chainBytes(20, 2, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(3, chainBytes(30, 3, 1, 2), err)) << err;
    rotFile(store.pathFor(2));

    // Head 3 validates in isolation but its chain crosses the rotten
    // link; head 2 is the rotten file itself; the full base must win.
    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(store.loadLatestChain(chain, gen, diags));
    EXPECT_EQ(gen, 1u);
    ASSERT_EQ(chain.size(), 1u);
    EXPECT_FALSE(diags.empty());
}

TEST(ChainStore, MissingBaseDisqualifiesEveryDependentHead)
{
    SnapshotStore store(freshDir("chainnobase"), 8);
    std::string err;
    ASSERT_TRUE(store.save(1, chainBytes(10, 1, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(2, chainBytes(20, 2, 1, 1), err)) << err;
    ASSERT_TRUE(store.save(3, chainBytes(30, 3, 1, 2), err)) << err;
    std::filesystem::remove(store.pathFor(1));

    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 777;
    std::vector<std::string> diags;
    EXPECT_FALSE(store.loadLatestChain(chain, gen, diags));
    EXPECT_EQ(gen, 777u);  // untouched on failure
    EXPECT_FALSE(diags.empty());
}

TEST(Store, StaleTmpFilesSweptAtConstruction)
{
    const std::string dir = freshDir("tmpsweep");
    std::filesystem::create_directories(dir);
    const std::string stale = dir + "/snap-7.fbsnap.tmp";
    {
        std::FILE *f = std::fopen(stale.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("half-written by a crashed writer", f);
        std::fclose(f);
    }
    SnapshotStore store(dir, 3);
    EXPECT_FALSE(std::filesystem::exists(stale));
    std::string err;
    ASSERT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
    EXPECT_EQ(store.list().size(), 1u);
}

TEST(Store, AllGenerationsCorruptIsCleanNotFound)
{
    SnapshotStore store(freshDir("allrot"), 4);
    std::string err;
    for (std::uint64_t g = 1; g <= 3; ++g)
        ASSERT_TRUE(store.save(g, snapshotBytes(g * 10, g), err)) << err;
    for (std::uint64_t g = 1; g <= 3; ++g) {
        std::FILE *f = std::fopen(store.pathFor(g).c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("rot", f);
        std::fclose(f);
    }

    // The walk-back exhausts every candidate: the result must be a
    // clean not-found with the out-param untouched — not generation
    // zero, which a caller could mistake for a restorable state.
    std::vector<std::uint8_t> bytes{0xaa};
    std::uint64_t gen = 777;
    std::vector<std::string> diags;
    EXPECT_FALSE(loadNewestFull(store, bytes, gen, diags));
    EXPECT_EQ(gen, 777u);
    EXPECT_GE(diags.size(), 3u);  // one rejection per candidate
}

// --- I/O-fault shim ---------------------------------------------------

TEST(IoShim, FailNthWriteSurfacesErrno)
{
    SnapshotStore store(freshDir("shimwrite"), 4);
    IoFaultShim shim;
    shim.failNthWrite = 1;
    store.setIoFaultShim(&shim);
    std::string err;
    EXPECT_FALSE(store.save(1, snapshotBytes(10, 1), err));
    EXPECT_NE(err.find("No space left"), std::string::npos) << err;
    EXPECT_EQ(shim.injected, 1u);
    EXPECT_TRUE(store.list().empty());  // no final-name file appeared

    // The fault was transient: the very next save succeeds.
    EXPECT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
    EXPECT_EQ(store.list().size(), 1u);
}

TEST(IoShim, ShortWriteTornFileIsSkippedOnLoad)
{
    SnapshotStore store(freshDir("shimshort"), 4);
    std::string err;
    ASSERT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;

    IoFaultShim shim;
    shim.shortNthWrite = shim.writeCalls + 1;  // next write is torn
    store.setIoFaultShim(&shim);
    // The kernel "succeeds", so the save fsyncs and renames a torn
    // file into place under its final name — the nastiest crash shape.
    ASSERT_TRUE(store.save(2, snapshotBytes(20, 2), err)) << err;
    ASSERT_EQ(shim.injected, 1u);
    ASSERT_EQ(store.list().size(), 2u);

    std::vector<std::uint8_t> bytes;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(loadNewestFull(store, bytes, gen, diags));
    EXPECT_EQ(gen, 1u);  // torn generation 2 skipped, never trusted
    EXPECT_EQ(bytes, snapshotBytes(10, 1));
    EXPECT_FALSE(diags.empty());
}

TEST(IoShim, FailNthFsyncFailsSave)
{
    SnapshotStore store(freshDir("shimfsync"), 4);
    IoFaultShim shim;
    shim.failNthFsync = 1;
    store.setIoFaultShim(&shim);
    std::string err;
    EXPECT_FALSE(store.save(1, snapshotBytes(10, 1), err));
    EXPECT_NE(err.find("fsync"), std::string::npos) << err;
    EXPECT_EQ(shim.injected, 1u);
}

TEST(IoShim, PersistentFailureKeepsFailing)
{
    SnapshotStore store(freshDir("shimpersist"), 4);
    IoFaultShim shim;
    shim.failNthWrite = 1;
    shim.persistent = true;
    store.setIoFaultShim(&shim);
    std::string err;
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(store.save(1, snapshotBytes(10, 1), err));
    EXPECT_GE(shim.injected, 3u);
    store.setIoFaultShim(nullptr);  // the disk recovers
    EXPECT_TRUE(store.save(1, snapshotBytes(10, 1), err)) << err;
}

// --- background writer ------------------------------------------------

/**
 * Run the standard 4-proc loop with a staged sink feeding @p writer
 * at @p every cycles (re-base every @p rebase captures); returns the
 * RunResult after draining the writer.
 */
sim::RunResult
runWithWriter(AsyncSnapshotWriter &writer, std::uint64_t every,
              std::uint32_t rebase)
{
    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = every;
    cfg.checkpointRebaseEvery = rebase;
    Machine m(cfg);
    loadLoop(m, 4);
    m.setStagedCheckpointSink(
        [&writer](SnapshotHeader h, std::vector<Section> secs) {
            auto v = writer.submit(std::move(h), std::move(secs));
            Machine::CheckpointAck ack;
            ack.keep = v.keep;
            ack.forceFull = v.forceFull;
            ack.deltasOk = v.deltasOk;
            ack.degradation = std::move(v.degradation);
            return ack;
        });
    auto result = m.run();
    writer.drain();
    return result;
}

/** Restore the newest chain in @p store and run it to completion;
 * final state must match the uninterrupted @p ref machine. */
void
expectChainResumesTo(SnapshotStore &store, Machine &ref,
                     const sim::RunResult &refResult)
{
    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(store.loadLatestChain(chain, gen, diags));

    Machine resumed(machineConfig(4));
    loadLoop(resumed, 4);
    std::string err;
    ASSERT_TRUE(resumed.restoreChainState(chain, err)) << err;
    auto result = resumed.run();
    EXPECT_EQ(result.cycles, refResult.cycles);
    EXPECT_EQ(result.syncEvents, refResult.syncEvents);
    for (int p = 0; p < 4; ++p)
        for (int r = 0; r < 32; ++r)
            EXPECT_EQ(resumed.processor(p).reg(r),
                      ref.processor(p).reg(r))
                << "cpu" << p << " r" << r;
    EXPECT_EQ(resumed.memory().peek(100), ref.memory().peek(100));
}

TEST(Writer, AsyncDeltaChainRestoresBitIdentically)
{
    Machine ref(machineConfig(4));
    loadLoop(ref, 4);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);

    SnapshotStore store(freshDir("writer_chain"), 32);
    AsyncSnapshotWriter writer(store);
    auto result = runWithWriter(writer, refResult.cycles / 10, 4);

    EXPECT_EQ(result.cycles, refResult.cycles);
    EXPECT_GE(result.checkpointsFull, 2u);
    EXPECT_GE(result.checkpointsDelta, 4u);
    EXPECT_EQ(result.checkpointDegradations, 0u);
    auto ws = writer.stats();
    EXPECT_EQ(ws.dropped, 0u);
    EXPECT_EQ(ws.persisted, ws.submitted);
    EXPECT_EQ(ws.asyncPersisted, ws.persisted);
    EXPECT_EQ(ws.mode, WriterMode::AsyncDelta);

    expectChainResumesTo(store, ref, refResult);
}

TEST(Writer, TransientWriteFaultRetriesWithoutDegrading)
{
    Machine ref(machineConfig(4));
    loadLoop(ref, 4);
    auto refResult = ref.run();

    SnapshotStore store(freshDir("writer_transient"), 32);
    IoFaultShim shim;
    shim.failNthWrite = 2;
    store.setIoFaultShim(&shim);
    WriterConfig wc;
    wc.backoffInitialMs = 0;  // no sleeping in tests
    AsyncSnapshotWriter writer(store, wc);
    auto result = runWithWriter(writer, refResult.cycles / 10, 4);

    auto ws = writer.stats();
    EXPECT_GE(ws.retries, 1u);
    EXPECT_EQ(ws.dropped, 0u);
    EXPECT_EQ(ws.mode, WriterMode::AsyncDelta);
    EXPECT_EQ(result.checkpointDegradations, 0u);
    expectChainResumesTo(store, ref, refResult);
}

TEST(Writer, DegradationLadderWalksDownToDisabled)
{
    SnapshotStore store(freshDir("writer_ladder"), 8);
    IoFaultShim shim;
    shim.failNthWrite = 1;
    shim.persistent = true;  // the disk never recovers
    store.setIoFaultShim(&shim);
    WriterConfig wc;
    wc.maxRetries = 1;
    wc.backoffInitialMs = 0;
    AsyncSnapshotWriter writer(store, wc);

    SnapshotHeader full;
    full.generation = full.baseFull = full.prev = 1;

    // Rung 1: the async worker exhausts its retries and drops the
    // capture; the ladder steps to sync-delta.
    auto v = writer.submit(full, {});
    EXPECT_TRUE(v.keep);
    writer.drain();
    EXPECT_EQ(writer.stats().mode, WriterMode::SyncDelta);

    // Rung 2: inline persistence fails too -> sync-full.
    full.generation = full.baseFull = full.prev = 2;
    v = writer.submit(full, {});
    EXPECT_TRUE(v.keep);
    EXPECT_FALSE(v.deltasOk);
    EXPECT_FALSE(v.degradation.empty());
    EXPECT_EQ(writer.stats().mode, WriterMode::SyncFull);

    // Rung 3: even an inline full snapshot fails -> disabled; the
    // machine is told to stop checkpointing entirely.
    full.generation = full.baseFull = full.prev = 3;
    v = writer.submit(full, {});
    EXPECT_FALSE(v.keep);
    EXPECT_EQ(writer.stats().mode, WriterMode::Disabled);

    auto ws = writer.stats();
    EXPECT_EQ(ws.degradations, 3u);
    EXPECT_EQ(ws.dropped, 3u);
    EXPECT_EQ(ws.persisted, 0u);
    EXPECT_FALSE(ws.lastError.empty());
}

TEST(Writer, BrokenChainDiscardsDeltasUntilReanchored)
{
    SnapshotStore store(freshDir("writer_reanchor"), 8);
    IoFaultShim shim;
    shim.failNthWrite = 1;  // transient: only the first write dies
    store.setIoFaultShim(&shim);
    WriterConfig wc;
    wc.maxRetries = 0;  // no retry: the first capture is simply lost
    wc.backoffInitialMs = 0;
    AsyncSnapshotWriter writer(store, wc);

    SnapshotHeader full;
    full.generation = full.baseFull = full.prev = 1;
    writer.submit(full, {});
    writer.drain();  // dropped; the on-disk chain is now broken

    // A delta naming the never-persisted predecessor is worthless;
    // the writer must discard it and demand a re-base.
    SnapshotHeader delta;
    delta.generation = 2;
    delta.baseFull = 1;
    delta.prev = 1;
    auto v = writer.submit(delta, {});
    writer.drain();
    EXPECT_TRUE(v.forceFull);
    EXPECT_TRUE(store.list().empty());

    // The re-based full lands and re-anchors; deltas flow again.
    SnapshotHeader full3;
    full3.generation = full3.baseFull = full3.prev = 3;
    writer.submit(full3, {});
    writer.drain();
    SnapshotHeader delta4;
    delta4.generation = 4;
    delta4.baseFull = 3;
    delta4.prev = 3;
    v = writer.submit(delta4, {});
    writer.drain();
    EXPECT_FALSE(v.forceFull);

    auto ws = writer.stats();
    EXPECT_EQ(ws.dropped, 2u);
    EXPECT_EQ(ws.persisted, 2u);
    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t gen = 0;
    std::vector<std::string> diags;
    ASSERT_TRUE(store.loadLatestChain(chain, gen, diags));
    EXPECT_EQ(gen, 4u);
    EXPECT_EQ(chain.size(), 2u);
}

TEST(Writer, MachineRecordsDegradationInRunResult)
{
    Machine ref(machineConfig(4));
    loadLoop(ref, 4);
    auto refResult = ref.run();

    SnapshotStore store(freshDir("writer_degrade"), 8);
    IoFaultShim shim;
    shim.failNthWrite = 1;
    shim.persistent = true;
    store.setIoFaultShim(&shim);
    WriterConfig wc;
    wc.maxRetries = 0;
    wc.backoffInitialMs = 0;
    AsyncSnapshotWriter writer(store, wc);
    auto result = runWithWriter(writer, refResult.cycles / 10, 4);

    // Checkpointing collapsed, the run did not: every counter and
    // final register must match the uninterrupted reference.
    EXPECT_GE(result.checkpointDegradations, 1u);
    EXPECT_FALSE(result.checkpointDegradation.empty());
    EXPECT_EQ(result.cycles, refResult.cycles);
    EXPECT_EQ(result.syncEvents, refResult.syncEvents);
    EXPECT_EQ(writer.stats().persisted, 0u);
}

/**
 * The acceptance sweep for the shim: a delta-chain campaign re-run
 * once per write ordinal with exactly that write failing (transient).
 * The writer's retry must absorb every single-write fault — nothing
 * drops, nothing degrades, and the persisted chain still restores
 * bit-identically wherever the fault landed.
 */
TEST(IoShim, FailingEachWriteExactlyOnceNeverLosesTheChain)
{
    Machine ref(machineConfig(4));
    loadLoop(ref, 4);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);
    const std::uint64_t every = refResult.cycles / 6;

    // Discover how many store writes a fault-free campaign issues.
    std::uint64_t totalWrites = 0;
    {
        SnapshotStore store(freshDir("shimsweep_probe"), 32);
        IoFaultShim probe;
        store.setIoFaultShim(&probe);
        AsyncSnapshotWriter writer(store);
        runWithWriter(writer, every, 3);
        totalWrites = probe.writeCalls;
    }
    ASSERT_GE(totalWrites, 6u);

    for (std::uint64_t n = 1; n <= totalWrites; ++n) {
        SnapshotStore store(
            freshDir("shimsweep_" + std::to_string(n)), 32);
        IoFaultShim shim;
        shim.failNthWrite = n;
        store.setIoFaultShim(&shim);
        WriterConfig wc;
        wc.backoffInitialMs = 0;
        AsyncSnapshotWriter writer(store, wc);
        auto result = runWithWriter(writer, every, 3);

        auto ws = writer.stats();
        EXPECT_EQ(ws.dropped, 0u) << "write " << n;
        EXPECT_EQ(ws.mode, WriterMode::AsyncDelta) << "write " << n;
        EXPECT_EQ(result.checkpointDegradations, 0u) << "write " << n;
        EXPECT_EQ(shim.injected, 1u) << "write " << n;
        expectChainResumesTo(store, ref, refResult);
    }
}

// --- chain corruption -------------------------------------------------

/**
 * Build a real machine-produced delta-chain store, then attack every
 * chain part with every corruption kind. Whatever the damage, the
 * loader must hand back an older intact chain that restores and runs
 * to the reference final state — the corrupt link is never trusted.
 */
TEST(ChainCorruption, EveryPartEveryKindFallsBackToAnIntactChain)
{
    Machine ref(machineConfig(4));
    loadLoop(ref, 4);
    auto refResult = ref.run();
    ASSERT_FALSE(refResult.deadlocked);

    // Persist synchronously (deterministic store contents), keep
    // everything: several full anchors with deltas between them.
    const std::string master = freshDir("chaincorrupt_master");
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        files;
    {
        SnapshotStore store(master, 64);
        auto cfg = machineConfig(4);
        cfg.checkpointEveryCycles = refResult.cycles / 12;
        cfg.checkpointRebaseEvery = 4;
        Machine m(cfg);
        loadLoop(m, 4);
        m.setStagedCheckpointSink(
            [&store](SnapshotHeader h, std::vector<Section> secs) {
                std::string err;
                EXPECT_TRUE(
                    store.save(h.generation, assemble(h, secs), err))
                    << err;
                return Machine::CheckpointAck{};
            });
        m.run();
        std::string err;
        for (const auto &[gen, path] : store.list()) {
            std::vector<std::uint8_t> bytes;
            ASSERT_TRUE(readFile(path, bytes, err)) << err;
            files.emplace_back(gen, bytes);
        }
    }
    ASSERT_GE(files.size(), 8u);

    using fault::ChainPart;
    using fault::SnapshotCorruption;
    int attacked = 0;
    for (auto part : {ChainPart::Head, ChainPart::MidDelta,
                      ChainPart::Base, ChainPart::Manifest}) {
        for (auto kind :
             {SnapshotCorruption::Truncate, SnapshotCorruption::BitFlip,
              SnapshotCorruption::StaleGeneration}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                // Manifest ignores the corruption kind; run it once.
                if (part == ChainPart::Manifest &&
                    (kind != SnapshotCorruption::Truncate || seed > 1))
                    continue;
                const std::string dir = freshDir(
                    "chaincorrupt_" +
                    std::string(fault::chainPartName(part)) + "_" +
                    fault::snapshotCorruptionName(kind) + "_" +
                    std::to_string(seed));
                std::filesystem::create_directories(dir);
                std::string err;
                for (const auto &[gen, bytes] : files) {
                    std::FILE *f = std::fopen(
                        (dir + "/snap-" + std::to_string(gen) +
                         ".fbsnap")
                            .c_str(),
                        "wb");
                    ASSERT_NE(f, nullptr);
                    std::fwrite(bytes.data(), 1, bytes.size(), f);
                    std::fclose(f);
                }
                SnapshotStore store(dir, 64);
                std::uint64_t victim = 0;
                ASSERT_TRUE(fault::corruptChainSnapshot(
                    store, part, kind, seed, err, &victim))
                    << fault::chainPartName(part) << ": " << err;
                ++attacked;

                std::vector<std::vector<std::uint8_t>> chain;
                std::uint64_t gen = 0;
                std::vector<std::string> diags;
                ASSERT_TRUE(store.loadLatestChain(chain, gen, diags))
                    << fault::chainPartName(part) << "/"
                    << fault::snapshotCorruptionName(kind);
                EXPECT_FALSE(diags.empty());

                // The victim (and for the manifest attack, the lying
                // head) must not be the restored head.
                if (part == ChainPart::Head ||
                    part == ChainPart::Manifest) {
                    EXPECT_LT(gen, victim == 0 ? files.back().first + 1
                                               : victim)
                        << fault::chainPartName(part);
                }

                Machine resumed(machineConfig(4));
                loadLoop(resumed, 4);
                ASSERT_TRUE(resumed.restoreChainState(chain, err))
                    << fault::chainPartName(part) << "/"
                    << fault::snapshotCorruptionName(kind) << ": "
                    << err;
                auto result = resumed.run();
                EXPECT_EQ(result.cycles, refResult.cycles);
                for (int p = 0; p < 4; ++p)
                    for (int r = 0; r < 32; ++r)
                        EXPECT_EQ(resumed.processor(p).reg(r),
                                  ref.processor(p).reg(r))
                            << fault::chainPartName(part) << " cpu"
                            << p << " r" << r;
            }
        }
    }
    EXPECT_GE(attacked, 10);
}

// --- container-level delta rejection ---------------------------------

TEST(MachineSnapshot, TruncatedProcessorSectionNeverRestores)
{
    auto cfg = machineConfig(2);
    Machine m(cfg);
    loadLoop(m, 2);
    auto bytes = m.saveState();

    SnapshotHeader header;
    std::vector<Section> sections;
    std::string err;
    ASSERT_TRUE(disassemble(bytes, header, sections, err)) << err;
    auto procSection = std::find_if(
        sections.begin(), sections.end(), [](const Section &s) {
            return s.id ==
                   static_cast<std::uint32_t>(SectionId::Processors);
        });
    ASSERT_NE(procSection, sections.end());

    // Re-assembled with valid CRCs and the matching fingerprint, the
    // container passes every integrity check; only the payload decode
    // can notice the missing processor state.
    Machine victim(cfg);
    loadLoop(victim, 2);
    {
        auto cut = sections;
        auto &payload =
            cut[static_cast<std::size_t>(
                    procSection - sections.begin())]
                .payload;
        ASSERT_GT(payload.size(), 16u);
        payload.resize(payload.size() / 2);
        auto mutated = assemble(header, cut);
        EXPECT_FALSE(victim.restoreState(mutated, err));
        EXPECT_NE(err.find("processors"), std::string::npos) << err;
    }
    {
        // Lie about the processor count instead: the leading u64
        // says one fewer core than the stream carries.
        auto cut = sections;
        auto &payload =
            cut[static_cast<std::size_t>(
                    procSection - sections.begin())]
                .payload;
        payload[0] = 1;  // count 2 -> 1 (little-endian u64)
        auto mutated = assemble(header, cut);
        EXPECT_FALSE(victim.restoreState(mutated, err));
        EXPECT_NE(err.find("processors"), std::string::npos) << err;
    }

    // The victim machine is still usable after both rejections.
    ASSERT_TRUE(victim.restoreState(bytes, err)) << err;
    auto result = victim.run();
    EXPECT_FALSE(result.deadlocked);
}

/** Where the sync-record trail sits in a core section payload. */
struct SyncTrailLayout
{
    std::size_t openAt = 0;        ///< first open-record entry (u64)
    std::uint64_t firstRecord = 0; ///< index of the first encoded record
    std::uint64_t records = 0;     ///< record count after decoding
    std::size_t recordAt = 0;      ///< first encoded record
};

/**
 * Walk the fields in front of the sync-record trail of a MachineCore
 * payload, or with @p delta a CoreDelta payload (which adds the patch
 * point before the record count).
 */
SyncTrailLayout
locateSyncTrail(const std::vector<std::uint8_t> &payload, bool delta)
{
    Decoder d(payload);
    auto offset = [&] { return payload.size() - d.remaining(); };
    std::vector<bool> fenced;
    std::vector<std::uint64_t> lastArrival;
    d.u64();  // cycle
    d.boolVec(fenced);
    for (std::uint64_t dead = d.u64(); dead > 0 && d.ok(); --dead)
        d.i64();
    for (std::uint64_t recs = d.u64(); recs > 0 && d.ok(); --recs) {
        d.u64();
        d.i64();
        for (std::uint64_t s = d.u64(); s > 0 && d.ok(); --s)
            d.i64();
    }
    d.u64Vec(lastArrival);
    SyncTrailLayout layout;
    const std::uint64_t open = d.u64();
    layout.openAt = offset();
    for (std::uint64_t k = 0; k < open && d.ok(); ++k)
        d.u64();
    d.u64();  // records dropped by the window
    if (delta)
        layout.firstRecord = d.u64();
    layout.records = d.u64();
    layout.recordAt = offset();
    EXPECT_TRUE(d.ok());
    return layout;
}

TEST(MachineSnapshot, MalformedSyncRecordsNeverRestore)
{
    Machine probe(machineConfig(4));
    loadLoop(probe, 4);
    const auto probeResult = probe.run();

    // A full capture and the delta after it; the loop synchronizes all
    // four processors every iteration, so both carry sync records.
    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = probeResult.cycles / 6;
    cfg.checkpointRebaseEvery = 100;
    Machine m(cfg);
    loadLoop(m, 4);
    std::vector<std::vector<std::uint8_t>> captures;
    m.setStagedCheckpointSink(
        [&captures](SnapshotHeader h, std::vector<Section> secs) {
            captures.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    m.run();
    ASSERT_GE(captures.size(), 2u);

    // Patch the core section of the full capture (@p delta false) or
    // of the delta applied on top of it, re-assemble with valid CRCs,
    // and restore into a fresh machine. Every integrity check of the
    // container passes; only the payload decode can object.
    using Patch = std::function<void(std::vector<std::uint8_t> &,
                                     const SyncTrailLayout &)>;
    auto restorePatched = [&](bool delta, const Patch &patch,
                              std::string &err) {
        SnapshotHeader header;
        std::vector<Section> sections;
        EXPECT_TRUE(disassemble(captures[delta ? 1 : 0], header, sections,
                                err))
            << err;
        const auto id = static_cast<std::uint32_t>(
            delta ? SectionId::CoreDelta : SectionId::MachineCore);
        auto core = std::find_if(
            sections.begin(), sections.end(),
            [id](const Section &s) { return s.id == id; });
        EXPECT_NE(core, sections.end());
        if (core == sections.end())
            return true;
        const SyncTrailLayout layout = locateSyncTrail(core->payload, delta);
        // The first encoded record is the packed form of a four-member
        // group: cycle, form flag 1, count, then the member bytes.
        EXPECT_GT(layout.records, layout.firstRecord);
        EXPECT_EQ(core->payload[layout.recordAt + 8], 1);
        EXPECT_EQ(core->payload[layout.recordAt + 9], 4);
        patch(core->payload, layout);

        Machine victim(machineConfig(4));
        loadLoop(victim, 4);
        const auto bytes = assemble(header, sections);
        if (!delta)
            return victim.restoreState(bytes, err);
        EXPECT_TRUE(victim.restoreState(captures[0], err)) << err;
        return victim.applyDeltaState(bytes, err);
    };

    // Rewrite the first record in the full-width form with
    // @p arrivals and @p crossings entries for its four members.
    auto widen = [](std::size_t arrivals, std::size_t crossings) {
        return [arrivals, crossings](std::vector<std::uint8_t> &payload,
                                     const SyncTrailLayout &at) {
            const auto first = payload.begin() +
                               static_cast<std::ptrdiff_t>(at.recordAt);
            Encoder e;
            e.bytes(payload.data() + at.recordAt, 8);  // cycle
            e.u8(0);
            e.u64(4);
            for (std::size_t k = 0; k < 4; ++k)
                e.i64(payload[at.recordAt + 10 + k]);
            e.u64Vec(std::vector<std::uint64_t>(arrivals, 0));
            e.u64Vec(std::vector<std::uint64_t>(crossings, ~0ull));
            const auto wide = e.take();
            payload.erase(first, first + 10 + 4 + 4 * 4 + 4 * 4);
            payload.insert(payload.begin() +
                               static_cast<std::ptrdiff_t>(at.recordAt),
                           wide.begin(), wide.end());
        };
    };

    const std::vector<std::pair<std::string, Patch>> cases = {
        {"member past the processor count",
         [](auto &payload, const SyncTrailLayout &at) {
             payload[at.recordAt + 10 + 3] = 4;
         }},
        {"members not strictly ascending",
         [](auto &payload, const SyncTrailLayout &at) {
             payload[at.recordAt + 10 + 1] = payload[at.recordAt + 10];
         }},
        {"fewer arrivals than members", widen(3, 4)},
        {"more crossings than members", widen(4, 5)},
        {"open entry past the record count",
         [](auto &payload, const SyncTrailLayout &at) {
             for (int i = 0; i < 8; ++i)
                 payload[at.openAt + static_cast<std::size_t>(i)] =
                     static_cast<std::uint8_t>(at.records >> (8 * i));
         }},
    };

    for (bool delta : {false, true}) {
        const char *section = delta ? "core-delta" : "machine-core";
        std::string err;
        // Control: the widened but well-formed record still restores.
        EXPECT_TRUE(restorePatched(delta, widen(4, 4), err))
            << section << ": " << err;
        for (const auto &[what, patch] : cases) {
            err.clear();
            EXPECT_FALSE(restorePatched(delta, patch, err))
                << section << ": " << what;
            EXPECT_NE(err.find(section), std::string::npos)
                << section << ": " << what << ": " << err;
        }
    }
}

TEST(MachineSnapshot, OutOfRangeStateBytesNeverRestore)
{
    Machine probe(machineConfig(4));
    loadLoop(probe, 4);
    const auto probeResult = probe.run();

    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = probeResult.cycles / 6;
    cfg.checkpointRebaseEvery = 100;
    Machine m(cfg);
    loadLoop(m, 4);
    std::vector<std::vector<std::uint8_t>> captures;
    m.setStagedCheckpointSink(
        [&captures](SnapshotHeader h, std::vector<Section> secs) {
            captures.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    m.run();
    ASSERT_GE(captures.size(), 2u);

    // Set one byte of section @p id in the full capture (@p delta
    // false) or in the delta after it, re-assemble with valid CRCs and
    // restore into a fresh machine.
    auto restorePatched = [&](bool delta, SectionId id,
                              std::size_t offset, std::uint8_t value,
                              std::string &err) {
        SnapshotHeader header;
        std::vector<Section> sections;
        EXPECT_TRUE(disassemble(captures[delta ? 1 : 0], header, sections,
                                err))
            << err;
        auto it = std::find_if(
            sections.begin(), sections.end(), [id](const Section &s) {
                return s.id == static_cast<std::uint32_t>(id);
            });
        EXPECT_NE(it, sections.end());
        if (it == sections.end() || offset >= it->payload.size())
            return true;
        it->payload[offset] = value;

        Machine victim(machineConfig(4));
        loadLoop(victim, 4);
        const auto bytes = assemble(header, sections);
        if (!delta)
            return victim.restoreState(bytes, err);
        EXPECT_TRUE(victim.restoreState(captures[0], err)) << err;
        return victim.applyDeltaState(bytes, err);
    };

    // cpu0's core state follows the processor count, its registers, pc
    // and halted flag; unit 0's barrier state follows the unit count.
    // The last enumerator still restores, which pins each offset to
    // the byte whose bound it is.
    struct Case
    {
        SectionId id;
        std::size_t offset;
        std::uint8_t last;
        const char *section;
    };
    const Case cases[] = {
        {SectionId::Processors, 8 + 8 * isa::numRegisters + 8 + 1,
         5 /* CoreState::SwRestoring */, "processors"},
        {SectionId::Network, 4,
         static_cast<std::uint8_t>(barrier::BarrierState::Stalled),
         "network"},
    };
    for (bool delta : {false, true}) {
        for (const Case &c : cases) {
            std::string err;
            EXPECT_TRUE(restorePatched(delta, c.id, c.offset, c.last, err))
                << c.section << (delta ? " (delta): " : ": ") << err;
            for (int bad : {c.last + 1, 200}) {
                err.clear();
                EXPECT_FALSE(restorePatched(delta, c.id, c.offset,
                                            static_cast<std::uint8_t>(bad),
                                            err))
                    << c.section << (delta ? " (delta)" : "") << " byte "
                    << bad;
                EXPECT_NE(err.find(std::string("corrupt ") + c.section +
                                   " section"),
                          std::string::npos)
                    << err;
            }
        }
    }
}

TEST(MachineSnapshot, DeltaSnapshotRequiresItsChain)
{
    Machine probe(machineConfig(4));
    loadLoop(probe, 4);
    const auto probeResult = probe.run();

    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = probeResult.cycles / 6;
    cfg.checkpointRebaseEvery = 100;  // everything after gen 1 deltas
    Machine m(cfg);
    loadLoop(m, 4);
    std::vector<std::vector<std::uint8_t>> captures;
    m.setStagedCheckpointSink(
        [&captures](SnapshotHeader h, std::vector<Section> secs) {
            captures.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    m.run();
    ASSERT_GE(captures.size(), 3u);

    // A bare delta must be rejected by restoreState with a pointer at
    // the chain API, and applyDeltaState must reject a full snapshot.
    Machine victim(machineConfig(4));
    loadLoop(victim, 4);
    std::string err;
    EXPECT_FALSE(victim.restoreState(captures[1], err));
    EXPECT_NE(err.find("chain"), std::string::npos) << err;
    EXPECT_FALSE(victim.applyDeltaState(captures[0], err));

    // Out-of-order replay is rejected too: applying delta 2 directly
    // on the base (skipping delta 1) must fail, not corrupt.
    ASSERT_TRUE(victim.restoreState(captures[0], err)) << err;
    EXPECT_FALSE(victim.applyDeltaState(captures[2], err));
}

TEST(MachineSnapshot, SectionOfTheOtherKindNeverRestores)
{
    Machine probe(machineConfig(4));
    loadLoop(probe, 4);
    const auto probeResult = probe.run();

    // The first full capture and the delta taken on top of it.
    auto cfg = machineConfig(4);
    cfg.checkpointEveryCycles = probeResult.cycles / 6;
    cfg.checkpointRebaseEvery = 2;
    Machine m(cfg);
    loadLoop(m, 4);
    std::vector<std::vector<std::uint8_t>> captures;
    m.setStagedCheckpointSink(
        [&captures](SnapshotHeader h, std::vector<Section> secs) {
            captures.push_back(assemble(h, secs));
            return Machine::CheckpointAck{};
        });
    m.run();
    ASSERT_GE(captures.size(), 2u);
    SnapshotHeader head;
    std::string err;
    ASSERT_TRUE(peekHeader(captures[1], head, err)) << err;
    ASSERT_TRUE(head.isDelta());

    // Rename section @p from to @p to and re-assemble with valid CRCs:
    // the container passes every integrity check, so only the
    // machine's section dispatch can object.
    auto renamed = [](const std::vector<std::uint8_t> &bytes,
                      SectionId from, SectionId to) {
        SnapshotHeader header;
        std::vector<Section> sections;
        std::string why;
        EXPECT_TRUE(disassemble(bytes, header, sections, why)) << why;
        int hits = 0;
        for (Section &s : sections) {
            if (s.id == static_cast<std::uint32_t>(from)) {
                s.id = static_cast<std::uint32_t>(to);
                ++hits;
            }
        }
        EXPECT_EQ(hits, 1);
        return assemble(header, sections);
    };

    // Each kind decodes only its own id of the four sections whose
    // payload differs between a full snapshot and a delta; the twin
    // id from the other kind is unknown to it, never decoded with the
    // wrong codec.
    const std::pair<SectionId, SectionId> twins[] = {
        {SectionId::MachineCore, SectionId::CoreDelta},
        {SectionId::Memory, SectionId::MemoryDelta},
        {SectionId::Bus, SectionId::BusDelta},
        {SectionId::Caches, SectionId::CacheDelta},
    };
    for (const auto &[full, delta] : twins) {
        const auto full_id = static_cast<std::uint32_t>(full);
        const auto delta_id = static_cast<std::uint32_t>(delta);

        Machine victim(machineConfig(4));
        loadLoop(victim, 4);
        EXPECT_FALSE(
            victim.restoreState(renamed(captures[0], full, delta), err));
        EXPECT_EQ(err, "unknown snapshot section id " +
                            std::to_string(delta_id));

        Machine base(machineConfig(4));
        loadLoop(base, 4);
        ASSERT_TRUE(base.restoreState(captures[0], err)) << err;
        EXPECT_FALSE(
            base.applyDeltaState(renamed(captures[1], delta, full), err));
        EXPECT_EQ(err, "unknown delta snapshot section id " +
                            std::to_string(full_id));
    }
}

// --- resume-equivalence sweep ----------------------------------------

/**
 * The acceptance sweep: >= 200 generated scenarios (100 seeds, both
 * the event-driven and the legacy loop), every one with a seeded
 * random fault plan and the watchdog active, each checked through the
 * A/B/C resume-equivalence oracle at a re-base period of 1, so every
 * capture is a full snapshot and C restores exactly one.
 */
TEST(ResumeEquivalence, SweepGeneratedScenarios)
{
    // The sweep leases its A/B/C machines from a campaign-engine pool
    // and interns the generated programs, so every seed after the
    // first also proves the resume oracle holds on recycled machines.
    exec::MachinePool pool;
    exec::ProgramCache programs;
    verify::DiffOptions opt;
    opt.machinePool = &pool;
    opt.programCache = &programs;
    int checked = 0;
    int withSnapshot = 0;
    int atFinalCycle = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        auto spec = verify::randomSpec(seed);
        spec.faults =
            fault::randomFaultPlan(seed, spec.procs(), spec.groupSizes);
        spec.faultSeed = seed;
        spec.watchdog.enabled = true;
        spec.watchdog.timeoutCycles = 2000;
        spec.watchdog.maxAttempts = 3;
        auto sc = verify::render(spec);
        for (bool ff : {true, false}) {
            auto rep = verify::checkResumeEquivalence(sc, seed * 31 + ff,
                                                      opt, 1, ff);
            EXPECT_TRUE(rep.ok)
                << "seed " << seed << " ff=" << ff << " K="
                << rep.checkpointCycle << ": " << rep.failure;
            ++checked;
            if (rep.checkpointsTaken == 0)
                continue;
            ++withSnapshot;
            EXPECT_EQ(rep.chainLength, 1u) << "seed " << seed;
            if (rep.lastCaptureCycle == rep.referenceCycles)
                ++atFinalCycle;
        }
    }
    EXPECT_GE(checked, 200);
    EXPECT_GT(pool.reuses(), 0u);
    // The seeded K lands before the end of most runs; make sure the
    // sweep is actually exercising restore, not just A-vs-B.
    EXPECT_GT(withSnapshot, checked / 2);
    // A capture at the run's final cycle is the loop-bottom edge: the
    // checkpoint after ++now on a halting or deadlocking run.
    RecordProperty("capturedAtFinalCycle", atFinalCycle);
    EXPECT_GT(atFinalCycle, 0) << "no run captured its final cycle";
}

/**
 * The oracle runs the campaign's machine: under a tree:4 network its
 * reference run is that network's run of the scenario, whose barrier
 * deliveries take longer than the flat network's.
 */
TEST(ResumeEquivalence, ReferenceRunUsesTheCampaignTopology)
{
    // Seed 2: seven processors in one group, no interrupts or faults.
    const verify::Scenario sc = verify::render(verify::randomSpec(2));
    auto machineCycles = [&sc](const barrier::Topology &topology) {
        MachineConfig cfg;
        cfg.numProcessors = sc.procs();
        cfg.memWords = 4096;
        cfg.topology = topology;
        Machine m(cfg);
        for (int p = 0; p < sc.procs(); ++p) {
            isa::Program prog;
            std::string err;
            EXPECT_TRUE(isa::Assembler::assemble(
                sc.sources[static_cast<std::size_t>(p)], prog, err))
                << err;
            if (sc.encoding == verify::Encoding::Markers)
                prog = prog.toMarkerEncoding();
            m.loadProgram(p, prog);
        }
        return m.run().cycles;
    };
    verify::DiffOptions opt;
    ASSERT_TRUE(barrier::Topology::parse("tree:4", opt.topology));
    const verify::ResumeReport rep =
        verify::checkResumeEquivalence(sc, 1, opt);
    ASSERT_TRUE(rep.ok) << rep.failure;
    EXPECT_EQ(rep.referenceCycles, machineCycles(opt.topology));
    EXPECT_NE(rep.referenceCycles, machineCycles(barrier::Topology{}));
    EXPECT_GT(rep.checkpointsTaken, 0u);
}

/**
 * The delta-chain flavor of the acceptance sweep: the same generated
 * scenarios with fault plans and an active watchdog, but the re-run
 * machine checkpoints through the staged sink into an in-memory
 * full+delta chain, and the resumed machine restores through
 * restoreChainState — fuzzy-barrier recovery state crossing a
 * multi-link delta chain must still land bit-identically.
 */
TEST(ChainResumeEquivalence, SweepGeneratedScenariosWithFaults)
{
    exec::MachinePool pool;
    exec::ProgramCache programs;
    verify::DiffOptions opt;
    opt.machinePool = &pool;
    opt.programCache = &programs;
    int checked = 0;
    int withChain = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        auto spec = verify::randomSpec(seed * 7 + 3);
        spec.faults = fault::randomFaultPlan(seed * 7 + 3, spec.procs(),
                                             spec.groupSizes);
        spec.faultSeed = seed * 7 + 3;
        spec.watchdog.enabled = true;
        spec.watchdog.timeoutCycles = 2000;
        spec.watchdog.maxAttempts = 3;
        auto sc = verify::render(spec);
        for (bool ff : {true, false}) {
            auto rep = verify::checkResumeEquivalence(sc, seed * 47 + ff,
                                                      opt, 3, ff);
            EXPECT_TRUE(rep.ok)
                << "seed " << seed << " ff=" << ff << ": "
                << rep.failure;
            ++checked;
            if (rep.chainLength > 1)
                ++withChain;
        }
    }
    EXPECT_GE(checked, 80);
    // Most scenarios must actually cross a delta link on restore —
    // a sweep of single-snapshot chains would prove nothing new.
    EXPECT_GT(withChain, checked / 4);
}

} // namespace
} // namespace fb::snapshot
