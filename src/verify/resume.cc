#include "verify/resume.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "snapshot/format.hh"

#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "sim/machine.hh"
#include "support/random.hh"

namespace fb::verify
{

namespace
{

/** Compare two RunResults field by field; empty string if identical. */
std::string
diffRunResults(const sim::RunResult &a, const sim::RunResult &b)
{
    std::ostringstream oss;
#define FB_DIFF(field)                                                   \
    do {                                                                 \
        if (a.field != b.field) {                                        \
            oss << #field << ": reference " << a.field << " vs "         \
                << b.field;                                              \
            return oss.str();                                            \
        }                                                                \
    } while (0)
    FB_DIFF(cycles);
    FB_DIFF(deadlocked);
    FB_DIFF(timedOut);
    FB_DIFF(deadlockInfo);
    FB_DIFF(syncEvents);
    FB_DIFF(busRequests);
    FB_DIFF(busQueueDelay);
    FB_DIFF(memAccesses);
    FB_DIFF(hotSpotAccesses);
    FB_DIFF(invalidationsSent);
    FB_DIFF(invalidationsAvoided);
    FB_DIFF(correctedFaults);
    FB_DIFF(membershipViolation);
    FB_DIFF(faultStats.pulseDropCycles);
    FB_DIFF(faultStats.bitsFlipped);
    FB_DIFF(faultStats.kills);
    FB_DIFF(faultStats.freezes);
    FB_DIFF(faultStats.forcedInterrupts);
    FB_DIFF(watchdogStats.timeouts);
    FB_DIFF(watchdogStats.rearms);
    FB_DIFF(watchdogStats.deadDeclared);
#undef FB_DIFF

    if (a.deadDeclared != b.deadDeclared)
        return "deadDeclared sets differ";
    if (a.perProcessor.size() != b.perProcessor.size())
        return "perProcessor size differs";
    for (std::size_t p = 0; p < a.perProcessor.size(); ++p) {
        const auto &pa = a.perProcessor[p];
        const auto &pb = b.perProcessor[p];
#define FB_DIFF_P(field)                                                 \
    do {                                                                 \
        if (pa.field != pb.field) {                                      \
            oss << "cpu" << p << " " << #field << ": reference "         \
                << pa.field << " vs " << pb.field;                       \
            return oss.str();                                            \
        }                                                                \
    } while (0)
        FB_DIFF_P(instructions);
        FB_DIFF_P(barrierWaitCycles);
        FB_DIFF_P(contextSwitchCycles);
        FB_DIFF_P(contextSwitches);
        FB_DIFF_P(interruptsTaken);
        FB_DIFF_P(barrierEpisodes);
        FB_DIFF_P(stalledEpisodes);
        FB_DIFF_P(stallCycles);
        FB_DIFF_P(cacheHits);
        FB_DIFF_P(cacheMisses);
#undef FB_DIFF_P
    }
    if (a.recoveries.size() != b.recoveries.size())
        return "recovery counts differ";
    for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
        const auto &ra = a.recoveries[i];
        const auto &rb = b.recoveries[i];
        if (ra.cycle != rb.cycle || ra.deadProc != rb.deadProc ||
            ra.survivors != rb.survivors) {
            oss << "recovery " << i << " differs (cycle " << ra.cycle
                << " vs " << rb.cycle << ")";
            return oss.str();
        }
    }
    return "";
}

/** Final architectural state beyond what RunResult carries. */
std::string
diffFinalState(const Scenario &sc, sim::Machine &a, sim::Machine &b)
{
    std::ostringstream oss;
    for (int p = 0; p < sc.procs(); ++p) {
        for (int r = 0; r < 32; ++r) {
            if (a.processor(p).reg(r) != b.processor(p).reg(r)) {
                oss << "cpu" << p << " r" << r << ": reference "
                    << a.processor(p).reg(r) << " vs "
                    << b.processor(p).reg(r);
                return oss.str();
            }
        }
    }
    if (a.checkSafetyProperty() != b.checkSafetyProperty())
        return "safety-oracle verdicts differ";
    for (std::size_t addr : sc.watchAddrs) {
        if (a.memory().peek(addr) != b.memory().peek(addr)) {
            oss << "mem[" << addr << "]: reference "
                << a.memory().peek(addr) << " vs "
                << b.memory().peek(addr);
            return oss.str();
        }
    }
    return "";
}

/**
 * One of the A/B/C machines: either a pool lease (reset + reused) or
 * an owned fresh construction. All three slots are alive at once, so
 * the pool hands out three concurrent leases of the same shape.
 */
class MachineSlot
{
  public:
    MachineSlot(const sim::MachineConfig &cfg, exec::MachinePool *pool)
    {
        if (pool)
            _lease = pool->acquire(cfg);
        else
            _owned = std::make_unique<sim::Machine>(cfg);
    }

    sim::Machine &
    operator*()
    {
        return _lease ? *_lease : *_owned;
    }

  private:
    exec::MachinePool::Lease _lease;
    std::unique_ptr<sim::Machine> _owned;
};

/**
 * Intern the scenario's programs through @p program_cache, or a
 * private cache when it is null, so every machine below shares one
 * decode per source.
 */
bool
buildPrograms(const Scenario &sc, exec::ProgramCache *program_cache,
              std::vector<isa::Program> &programs,
              std::vector<std::shared_ptr<const sim::DecodedProgram>>
                  &decoded,
              std::string &error)
{
    exec::ProgramCache localPrograms;
    exec::ProgramCache &cache =
        program_cache != nullptr ? *program_cache : localPrograms;
    const bool markers = sc.encoding == Encoding::Markers;
    for (int p = 0; p < sc.procs(); ++p) {
        auto interned = cache.intern(sc.sources[static_cast<std::size_t>(p)]);
        if (!interned->ok) {
            std::ostringstream oss;
            oss << "assemble (processor " << p << "): " << interned->error;
            error = oss.str();
            return false;
        }
        programs.push_back(markers ? interned->markers : interned->bits);
        decoded.push_back(markers ? interned->markersDecoded
                                  : interned->bitsDecoded);
    }
    return true;
}

} // namespace

ResumeReport
checkResumeEquivalence(const Scenario &sc, std::uint64_t k_seed,
                       const DiffOptions &opt, std::uint32_t rebase_every,
                       bool fast_forward)
{
    ResumeReport rep;
    auto failed = [&rep](std::string why) {
        rep.ok = false;
        rep.failure = std::move(why);
        return rep;
    };

    if (sc.procs() == 0)
        return failed("scenario has no programs");

    std::vector<isa::Program> programs;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decoded;
    if (std::string err;
        !buildPrograms(sc, opt.programCache, programs, decoded, err))
        return failed(std::move(err));

    sim::MachineConfig base_cfg = baselineConfig(sc, opt);
    base_cfg.fastForward = fast_forward;
    auto load = [&](sim::Machine &m) {
        for (int p = 0; p < sc.procs(); ++p) {
            const auto sp = static_cast<std::size_t>(p);
            m.loadProgram(p, programs[sp], decoded[sp]);
        }
    };

    // A: the uninterrupted reference.
    MachineSlot refSlot(base_cfg, opt.machinePool);
    sim::Machine &ref = *refSlot;
    load(ref);
    const sim::RunResult ra = ref.run();
    rep.referenceCycles = ra.cycles;

    // Cadence: aim for several captures so a real chain forms — K
    // around span / (4..11), randomized, at least 1. The loop bottom
    // checkpoints after ++_now, so a K that divides A.cycles also
    // captures the final cycle of a halting or deadlocking run.
    std::uint64_t state = k_seed ^ 0x636861696e726573ULL;
    const std::uint64_t span = ra.cycles == 0 ? 1 : ra.cycles;
    const std::uint64_t denom = 4 + splitMix64(state) % 8;
    const std::uint64_t k = std::max<std::uint64_t>(1, span / denom);
    rep.checkpointCycle = k;

    // B: staged checkpointing at period K; keep every capture
    // assembled in memory, keyed by generation.
    sim::MachineConfig cp_cfg = base_cfg;
    cp_cfg.checkpointEveryCycles = k;
    cp_cfg.checkpointRebaseEvery = std::max<std::uint32_t>(
        1, rebase_every);
    MachineSlot cpSlot(cp_cfg, opt.machinePool);
    sim::Machine &checkpointed = *cpSlot;
    load(checkpointed);
    std::map<std::uint64_t, snapshot::SnapshotHeader> headers;
    std::map<std::uint64_t, std::vector<std::uint8_t>> captures;
    checkpointed.setStagedCheckpointSink(
        [&headers, &captures](
            snapshot::SnapshotHeader header,
            std::vector<snapshot::Section> sections) {
            captures[header.generation] =
                snapshot::assemble(header, sections);
            headers[header.generation] = header;
            return sim::Machine::CheckpointAck{};
        });
    const sim::RunResult rb = checkpointed.run();
    rep.checkpointsTaken = captures.size();

    if (std::string why = diffRunResults(ra, rb); !why.empty())
        return failed("checkpointing run diverged: " + why);
    if (std::string why = diffFinalState(sc, ref, checkpointed);
        !why.empty())
        return failed("checkpointing run diverged: " + why);

    if (captures.empty())
        return rep;
    rep.lastCaptureCycle = headers.rbegin()->second.cycle;

    // Pick a seeded head capture and walk its chain base-first.
    std::vector<std::uint64_t> gens;
    for (const auto &entry : captures)
        gens.push_back(entry.first);
    const std::uint64_t head =
        gens[static_cast<std::size_t>(splitMix64(state) % gens.size())];
    std::vector<std::vector<std::uint8_t>> chain;
    std::uint64_t at = head;
    for (;;) {
        auto h = headers.find(at);
        if (h == headers.end())
            return failed("capture chain names a generation B never "
                          "produced (gen " + std::to_string(at) + ")");
        chain.push_back(captures[at]);
        if (!h->second.isDelta())
            break;
        if (h->second.prev >= at)
            return failed("capture chain does not descend (gen " +
                          std::to_string(at) + ")");
        at = h->second.prev;
    }
    std::reverse(chain.begin(), chain.end());
    rep.chainLength = chain.size();

    // C: restore the whole chain onto a fresh machine, run to the end.
    MachineSlot resumeSlot(base_cfg, opt.machinePool);
    sim::Machine &resumed = *resumeSlot;
    load(resumed);
    std::string restore_error;
    if (!resumed.restoreChainState(chain, restore_error))
        return failed("restore failed: " + restore_error);
    const sim::RunResult rc = resumed.run();

    if (std::string why = diffRunResults(ra, rc); !why.empty())
        return failed("resumed run diverged: " + why);
    if (std::string why = diffFinalState(sc, ref, resumed); !why.empty())
        return failed("resumed run diverged: " + why);
    return rep;
}

} // namespace fb::verify
