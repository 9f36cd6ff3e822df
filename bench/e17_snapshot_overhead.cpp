/**
 * @file
 * Experiment E17 (robustness ablation) — checkpoint/restore cost.
 *
 * Checkpointing is only usable on long campaigns if it is (a) exact —
 * a checkpointing run simulates the very same cycles as a plain run —
 * and (b) cheap enough to leave on. This bench runs one workload six
 * ways: snapshots off, full snapshots serialized to memory (the pure
 * encoding cost), full snapshots durably persisted through the
 * generation store (encode + fsync + rename), dirty-page delta chains
 * captured into the background writer with the run timed alone (the
 * default campaign configuration: Machine::run never blocks on I/O),
 * the same but timing through writer drain (run plus every fsync —
 * the cost to full durability), and delta chains persisted inline
 * (the sync-delta rung of the degradation ladder). The simulated
 * cycle counts must be identical across all six (exactness is
 * asserted, not assumed); only the wall clock may differ.
 *
 * The runs are short (~15 ms), so a single overhead percentage is
 * scheduler noise. Every rep runs ALL modes back-to-back and the
 * reported overhead compares best-of-rep floors: host noise is purely
 * additive, so the minimum wall time per mode is the stable estimator
 * of its true cost, and interleaving keeps slow background neighbors
 * from biasing one mode's floor. The delta tallies are gated
 * absolutely by bench/check_perf_regression.sh.
 */

#include "common.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <vector>

#include <unistd.h>

#include "snapshot/format.hh"
#include "snapshot/store.hh"
#include "snapshot/writer.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 8;
constexpr int kEpisodes = 1500;
constexpr int kWork = 25;
constexpr int kRegion = 8;
constexpr std::uint64_t kCheckpointEvery = 10'000;
constexpr int kReps = 21;

enum class Mode
{
    Off,
    InMemory,
    Durable,
    DeltaAsync,   ///< background writer, run timed alone (non-blocking)
    DeltaDurable, ///< background writer, run + drain timed (fsync-durable)
    DeltaSync,    ///< inline save per capture (sync-delta ladder rung)
};

// Within a rep the light modes run before the fsync-heavy ones:
// even with the pre-run sync() quiesce, a mode that just pushed many
// journal commits (Durable, DeltaSync) measurably taxes whatever runs
// next on this filesystem, and the floors of the *gated* modes must
// not depend on a neighbor's dirty state.
constexpr Mode kModes[] = {Mode::Off,          Mode::InMemory,
                           Mode::DeltaAsync,   Mode::DeltaDurable,
                           Mode::Durable,      Mode::DeltaSync};
constexpr std::size_t kModeCount = std::size(kModes);

struct Sample
{
    std::uint64_t cycles = 0;
    double wallSeconds = 0.0;
    std::uint64_t snapshots = 0;
    std::uint64_t snapshotBytes = 0;
};

Sample
runOnce(Mode mode, const std::string &storeDir)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    if (mode != Mode::Off)
        cfg.checkpointEveryCycles = kCheckpointEvery;
    if (mode == Mode::InMemory || mode == Mode::Durable)
        cfg.checkpointRebaseEvery = 1; // full snapshots only
    applyEnvOverrides(cfg);
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      kRegion));

    Sample s;
    snapshot::SnapshotStore store(storeDir, 3);
    std::unique_ptr<snapshot::AsyncSnapshotWriter> writer;
    if (mode == Mode::DeltaAsync || mode == Mode::DeltaDurable) {
        writer = std::make_unique<snapshot::AsyncSnapshotWriter>(store);
        machine.setStagedCheckpointSink(
            [&s, &writer](snapshot::SnapshotHeader header,
                          std::vector<snapshot::Section> sections) {
                ++s.snapshots;
                auto v = writer->submit(std::move(header),
                                        std::move(sections));
                sim::Machine::CheckpointAck ack;
                ack.keep = v.keep;
                ack.forceFull = v.forceFull;
                ack.deltasOk = v.deltasOk;
                ack.degradation = std::move(v.degradation);
                return ack;
            });
    } else if (mode != Mode::Off) {
        // Inline sink: assemble each capture on the simulation thread,
        // then persist it unless the mode measures encoding alone.
        const bool persist = mode != Mode::InMemory;
        machine.setStagedCheckpointSink(
            [&s, &store, persist](snapshot::SnapshotHeader header,
                                  std::vector<snapshot::Section> sections) {
                auto bytes = snapshot::assemble(header, sections);
                ++s.snapshots;
                s.snapshotBytes += bytes.size();
                std::string err;
                if (persist && !store.save(header.generation, bytes, err)) {
                    std::fprintf(stderr, "E17 store failed: %s\n",
                                 err.c_str());
                    std::exit(1);
                }
                return sim::Machine::CheckpointAck{};
            });
    }

    const auto start = std::chrono::steady_clock::now();
    auto r = runTallied(machine);
    // DeltaAsync times the run alone — the claim under test is that
    // Machine::run never waits on stable storage (the writer overlaps
    // where the host allows it and defers every fsync regardless).
    // DeltaDurable times through drain: the full cost to having every
    // capture durable, including the batched flush.
    if (mode == Mode::DeltaDurable)
        writer->drain();
    const auto end = std::chrono::steady_clock::now();
    if (mode == Mode::DeltaAsync)
        writer->drain();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E17 run failed\n");
        std::exit(1);
    }
    if (writer) {
        const auto ws = writer->stats();
        if (ws.dropped != 0 || ws.degradations != 0 ||
            ws.mode != snapshot::WriterMode::AsyncDelta) {
            std::fprintf(stderr,
                         "E17: background writer degraded on a "
                         "healthy disk (%s)\n",
                         ws.lastError.c_str());
            std::exit(1);
        }
    }
    s.cycles = r.cycles;
    s.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    return s;
}

} // namespace

int
main()
{
    const auto storeDir =
        std::filesystem::temp_directory_path() / "fb_e17_snapshots";
    std::filesystem::remove_all(storeDir);

    fb::Table table("E17 (robustness ablation): checkpoint overhead "
                    "(8 processors, snapshot every 10000 cycles)");
    table.setHeader({"configuration", "cycles", "wall ms", "snapshots",
                     "overhead vs off %"});

    // Interleave: every rep runs all modes back-to-back, and each
    // mode keeps its best-of-reps floor. Exactness is asserted on
    // every single run.
    Sample samples[kModeCount];
    std::uint64_t refCycles = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t m = 0; m < kModeCount; ++m) {
            std::filesystem::remove_all(storeDir);
            // Quiesce the filesystem so no mode starts against the
            // previous mode's dirty pages — leftover writeback lands
            // inside the next timed region and skews its floor.
            ::sync();
            auto s = runOnce(kModes[m], storeDir.string());
            if (refCycles == 0)
                refCycles = s.cycles;
            if (s.cycles != refCycles) {
                std::fprintf(
                    stderr,
                    "E17: checkpointing changed the cycle count "
                    "(mode %zu rep %d: %llu, expected %llu)\n",
                    m, rep, static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(refCycles));
                return 1;
            }
            if (rep == 0 || s.wallSeconds < samples[m].wallSeconds)
                samples[m] = s;
        }
    }
    std::filesystem::remove_all(storeDir);

    double pct[kModeCount];
    for (std::size_t m = 0; m < kModeCount; ++m)
        pct[m] = 100.0 *
                 (samples[m].wallSeconds - samples[0].wallSeconds) /
                 samples[0].wallSeconds;

    static const char *const kNames[kModeCount] = {
        "snapshots off",
        "serialize only (in-memory sink)",
        "delta chain, background writer",
        "delta chain, writer + drain",
        "durable store (fsync + rename)",
        "delta chain, inline fsync",
    };
    for (std::size_t m = 0; m < kModeCount; ++m)
        table.row()
            .cell(kNames[m])
            .cell(samples[m].cycles)
            .cell(samples[m].wallSeconds * 1e3, 2)
            .cell(samples[m].snapshots)
            .cell(m == 0 ? 0.0 : pct[m], 2);

    const auto &durable = samples[4];
    const auto &deltaSync = samples[5];
    table.print(std::cout);
    std::printf("snapshot-overhead-pct: %.2f\n", pct[1]);
    std::printf("snapshot-durable-overhead-pct: %.2f\n", pct[4]);
    std::printf("snapshot-bytes-per-checkpoint: %llu\n",
                static_cast<unsigned long long>(
                    durable.snapshots != 0
                        ? durable.snapshotBytes / durable.snapshots
                        : 0));
    std::printf("snapshot-delta-async-overhead-pct: %.2f\n", pct[2]);
    std::printf("snapshot-delta-durable-overhead-pct: %.2f\n", pct[3]);
    std::printf("snapshot-delta-sync-overhead-pct: %.2f\n", pct[5]);
    std::printf("snapshot-delta-bytes-per-checkpoint: %llu\n",
                static_cast<unsigned long long>(
                    deltaSync.snapshots != 0
                        ? deltaSync.snapshotBytes / deltaSync.snapshots
                        : 0));
    printClaim("checkpointing is exact — a checkpointing run is "
               "cycle-identical to a plain run — and the dirty-page "
               "delta chain plus background writer cuts the durable "
               "cost from whole-machine fsync to a small skim off the "
               "run; the async and durable delta tallies are the "
               "gated numbers that keep checkpointing on by default "
               "in campaigns");
    return 0;
}
