/**
 * @file
 * Campaign plumbing for fbfuzz's front-ends.
 *
 * fbfuzz drives one differential-fuzz workload in-process (sequential
 * or --jobs threads) or through the crash-tolerant campaign service
 * (--workers, whose workers are forked fbfuzz processes). Everything
 * that defines what a campaign *is* lives here so every front-end
 * stays byte-compatible by construction:
 *
 *   - CampaignConfig: the parameters that select the scenario matrix
 *   - cursorHeader(): the journal header binding a --cursor file to
 *     its campaign; identical text means a journal written under
 *     --workers resumes under --jobs and vice versa
 *   - runScenario(): one seed through the differential matrix
 *   - describeFailure() / quarantineArtifact(): the printed blocks,
 *     which CI diffs across worker counts
 */

#ifndef FB_TOOLS_FUZZ_CAMPAIGN_HH
#define FB_TOOLS_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "barrier/topology.hh"
#include "exec/campaign.hh"
#include "fault/plan.hh"
#include "verify/differ.hh"
#include "verify/generator.hh"

namespace fbtool
{

/** Parameters that define the campaign's scenario matrix. */
struct CampaignConfig
{
    std::uint64_t seed = 1;
    int runs = 100;
    bool swref = true;
    bool faults = false;
    std::uint64_t faultSeed = 0;  ///< 0 = derive from the spec seed
    std::uint64_t maxCycles = 5'000'000;
    int shards = 0;  ///< 0 = no sharded executor in the matrix
    std::uint64_t shardQuantum = 1024;
    bool predecode = true;  ///< threaded-code backend for every executor
    /** Baseline sync-network shape for every executor (--topology). */
    fb::barrier::Topology topology;
};

/**
 * Attach a seeded random fault schedule to @p spec. The plan seed is
 * derived per-scenario so every fuzz run sees a different schedule,
 * yet (seed, fault-seed) reproduces the exact same plan; the watchdog
 * is always enabled because the plan may contain a fatal fault.
 */
inline void
applyFaults(fb::verify::ProgramSpec &spec, const CampaignConfig &cfg,
            std::uint64_t spec_seed)
{
    if (!cfg.faults)
        return;
    const std::uint64_t fs =
        cfg.faultSeed != 0 ? cfg.faultSeed + spec_seed : spec_seed;
    spec.faults =
        fb::fault::randomFaultPlan(fs, spec.procs(), spec.groupSizes);
    spec.faultSeed = fs;
    spec.watchdog.enabled = true;
    spec.watchdog.timeoutCycles = 2000;
    spec.watchdog.maxAttempts = 3;
}

inline fb::verify::DiffOptions
diffOptions(const CampaignConfig &cfg)
{
    fb::verify::DiffOptions d;
    d.swBarrierReference = cfg.swref;
    d.maxCycles = cfg.maxCycles;
    d.shards = cfg.shards;
    d.shardQuantum = cfg.shardQuantum;
    d.predecode = cfg.predecode;
    d.topology = cfg.topology;
    return d;
}

/**
 * Journal header binding a --cursor file to its campaign parameters.
 * v2: compacted journals contain `prefix N` lines a v1 loader would
 * misread as a torn tail.
 */
inline std::string
cursorHeader(const CampaignConfig &cfg)
{
    std::ostringstream oss;
    oss << "fbfuzz-cursor v2 seed=" << cfg.seed << " runs=" << cfg.runs
        << " faults=" << (cfg.faults ? 1 : 0)
        << " fault-seed=" << cfg.faultSeed
        << " swref=" << (cfg.swref ? 1 : 0)
        << " max-cycles=" << cfg.maxCycles
        << " shards=" << cfg.shards << ":" << cfg.shardQuantum
        << " predecode=" << (cfg.predecode ? 1 : 0)
        << " topology=" << cfg.topology.toString();
    return oss.str();
}

/** Flag suffix for "reproduce with:" lines (leading space or empty). */
inline std::string
reproduceFlags(const CampaignConfig &cfg)
{
    std::ostringstream out;
    if (cfg.faults) {
        out << " --faults";
        if (cfg.faultSeed != 0)
            out << " --fault-seed " << cfg.faultSeed;
    }
    if (cfg.shards >= 2)
        out << " --shards " << cfg.shards << ":" << cfg.shardQuantum;
    if (!cfg.predecode)
        out << " --no-predecode";
    if (!cfg.topology.flat())
        out << " --topology " << cfg.topology.toString();
    return out.str();
}

/** FAIL block for one diverging seed (identical in every fuzz mode). */
inline std::string
describeFailure(std::uint64_t spec_seed, const fb::verify::Scenario &sc,
                const fb::verify::DiffReport &rep,
                const CampaignConfig &cfg)
{
    std::ostringstream out;
    out << "FAIL seed=" << spec_seed << " procs=" << sc.procs()
        << " groups=" << sc.groups() << " episodes=" << sc.episodes
        << " encoding=" << fb::verify::encodingName(sc.encoding);
    if (sc.hasFaults())
        out << " faults=" << sc.faults.toSpec();
    out << "\n  executor " << rep.variant << ": " << rep.failure << "\n";
    out << "reproduce with: fbfuzz --seed " << spec_seed << " --runs 1"
        << reproduceFlags(cfg) << "\n";
    return out.str();
}

/**
 * First-class artifact for a quarantined seed (one that repeatedly
 * killed its service worker); printed in seed order like a FAIL block.
 */
inline std::string
quarantineArtifact(const CampaignConfig &cfg, std::uint64_t spec_seed,
                   int kills)
{
    std::ostringstream out;
    out << "QUARANTINE seed=" << spec_seed << " kills=" << kills
        << ": scenario repeatedly killed its worker process and was "
           "excluded from the sweep\n"
        << "reproduce solo with: fbfuzz --seed " << spec_seed
        << " --runs 1" << reproduceFlags(cfg) << "\n";
    return out.str();
}

/**
 * Run one seed through the full differential matrix using the worker
 * context's pooled machines and interned programs. Empty result =
 * pass; failed result carries the printed FAIL block.
 */
inline fb::exec::ItemResult
runScenario(const CampaignConfig &cfg, std::uint64_t i,
            fb::exec::WorkerContext &ctx)
{
    fb::exec::ItemResult r;
    const std::uint64_t specSeed = cfg.seed + i;
    auto spec = fb::verify::randomSpec(specSeed);
    applyFaults(spec, cfg, specSeed);
    auto sc = fb::verify::render(spec);
    auto d = diffOptions(cfg);
    d.machinePool = &ctx.machines;
    d.programCache = &ctx.programs;
    auto rep = fb::verify::runDifferential(sc, d);
    if (!rep.ok) {
        r.failed = true;
        r.payload = describeFailure(specSeed, sc, rep, cfg);
    }
    return r;
}

} // namespace fbtool

#endif // FB_TOOLS_FUZZ_CAMPAIGN_HH
