#include "verify/differ.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "barrier/topology.hh"
#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "exec/sharded_machine.hh"
#include "sim/machine.hh"
#include "verify/generator.hh"
#include "verify/resume.hh"

namespace fb::verify
{

namespace
{

/** Registers compared across executors (see generator.hh). */
constexpr int diffedRegs[] = {1, 2, 3, 4, 5, 6, 25};

/**
 * One executor of the matrix: the programs of one encoding run on the
 * scenario's baseline machine after @ref edit (none for the baseline
 * itself and the cross-encoding run).
 */
struct Variant
{
    std::string name;
    Encoding encoding;
    std::function<void(sim::MachineConfig &)> edit;
};

/**
 * The programs of one encoding plus their interned pre-decoded blocks
 * (null for an empty program), so every executor of the scenario
 * reuses one decode per source.
 */
struct ProgramSet
{
    std::vector<isa::Program> programs;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decoded;
};

Fingerprint
runOnMachine(const Scenario &sc, const ProgramSet &set, sim::Machine &m)
{
    for (int p = 0; p < sc.procs(); ++p) {
        const auto sp = static_cast<std::size_t>(p);
        m.loadProgram(p, set.programs[sp], set.decoded[sp]);
    }
    // ShardedMachine honors the machine's shard config and falls back
    // to the plain sequential run() when shardCount <= 1, so routing
    // every variant through it costs nothing for sequential variants.
    exec::ShardedMachine sharded(m);
    auto r = sharded.run();

    Fingerprint fp;
    fp.deadlocked = r.deadlocked;
    fp.timedOut = r.timedOut;
    fp.safety = m.checkSafetyProperty();
    fp.syncEvents = r.syncEvents;
    fp.deadDeclared = r.deadDeclared;
    std::sort(fp.deadDeclared.begin(), fp.deadDeclared.end());
    fp.membership = r.membershipViolation;
    for (int p = 0; p < sc.procs(); ++p) {
        fp.episodes.push_back(
            r.perProcessor[static_cast<std::size_t>(p)].barrierEpisodes);
        for (int reg : diffedRegs)
            fp.regs.push_back(m.processor(p).reg(reg));
    }
    for (auto addr : sc.watchAddrs)
        fp.mem.push_back(m.memory().peek(addr));
    return fp;
}

/**
 * Check the structural oracles every executor must satisfy on its
 * own: liveness, safety, and the per-processor episode count.
 * syncEvents is only pinned for a single tag group — with disjoint
 * groups, two groups completing in the same cycle merge into one
 * network event, so the total is timing-dependent.
 */
std::string
checkOracles(const Scenario &sc, const Fingerprint &fp)
{
    std::ostringstream oss;
    if (fp.deadlocked)
        return "liveness: deadlocked";
    if (fp.timedOut)
        return "liveness: timed out (maxCycles guard)";
    if (!fp.safety.empty())
        return "safety: " + fp.safety;
    for (int p = 0; p < sc.procs(); ++p) {
        auto got = fp.episodes[static_cast<std::size_t>(p)];
        if (got != static_cast<std::uint64_t>(sc.episodes)) {
            oss << "episodes: processor " << p << " completed " << got
                << " episodes, expected " << sc.episodes;
            return oss.str();
        }
    }
    if (sc.groups() == 1 &&
        fp.syncEvents != static_cast<std::uint64_t>(sc.episodes)) {
        oss << "episodes: " << fp.syncEvents
            << " group sync events, expected " << sc.episodes;
        return oss.str();
    }
    return "";
}

/**
 * Fault-mode structural oracles:
 *
 *  - recovery-liveness: the run neither deadlocks nor times out —
 *    every episode completes or the machine cleanly reports the
 *    degraded membership and finishes with it;
 *  - fault-safety: no processor crossed a barrier without every live
 *    same-tag same-epoch participant (Machine::checkMembership), and
 *    the watchdog never declared a live processor dead (deadDeclared
 *    must be a subset of the plan's fatal targets);
 *  - survivors complete exactly sc.episodes; fatal targets at most.
 */
std::string
checkFaultOracles(const Scenario &sc, const std::vector<int> &fatal,
                  const Fingerprint &fp)
{
    std::ostringstream oss;
    if (fp.deadlocked)
        return "recovery-liveness: deadlocked under faults";
    if (fp.timedOut)
        return "recovery-liveness: timed out (maxCycles guard)";
    if (!fp.membership.empty())
        return "fault-safety: " + fp.membership;
    if (!fp.safety.empty())
        return "safety: " + fp.safety;
    auto isFatalTarget = [&fatal](int p) {
        return std::find(fatal.begin(), fatal.end(), p) != fatal.end();
    };
    for (int d : fp.deadDeclared) {
        if (!isFatalTarget(d)) {
            oss << "fault-safety: watchdog declared live processor "
                << d << " dead (false positive)";
            return oss.str();
        }
    }
    for (int p = 0; p < sc.procs(); ++p) {
        auto got = fp.episodes[static_cast<std::size_t>(p)];
        auto want = static_cast<std::uint64_t>(sc.episodes);
        if (isFatalTarget(p)) {
            if (got > want) {
                oss << "episodes: fatal target " << p << " completed "
                    << got << " episodes, more than the scheduled "
                    << sc.episodes;
                return oss.str();
            }
        } else if (got != want) {
            oss << "recovery-liveness: survivor " << p << " completed "
                << got << " episodes, expected " << sc.episodes;
            return oss.str();
        }
    }
    return "";
}

/**
 * Diff a variant fingerprint against the baseline. In fault mode
 * @p fatal lists the plan's fatal targets: their registers, episode
 * counts, and result-block memory words are excluded (where a victim
 * dies is timing-dependent), and syncEvents is not compared (episodes
 * the victim still participated in depend on timing too). Survivor
 * state is timing-invariant because rendered streams only write their
 * own disjoint result blocks.
 */
std::string
diffAgainstBaseline(const Scenario &sc, const std::vector<int> &fatal,
                    const Fingerprint &base, const Fingerprint &fp)
{
    std::ostringstream oss;
    auto isFatalTarget = [&fatal](int p) {
        return std::find(fatal.begin(), fatal.end(), p) != fatal.end();
    };
    auto fatalOwnsAddr = [&fatal](std::size_t addr) {
        for (int p : fatal) {
            if (addr >= resultBase(p) && addr < resultBase(p) + 8)
                return true;
        }
        return false;
    };
    const std::size_t perProc = std::size(diffedRegs);
    for (std::size_t p = 0; p < fp.episodes.size(); ++p) {
        if (isFatalTarget(static_cast<int>(p)))
            continue;
        if (fp.episodes[p] != base.episodes[p]) {
            oss << "episodes diverge: processor " << p << " completed "
                << fp.episodes[p] << " vs baseline " << base.episodes[p];
            return oss.str();
        }
    }
    if (fatal.empty() && sc.groups() == 1 &&
        fp.syncEvents != base.syncEvents) {
        oss << "sync events diverge: " << fp.syncEvents << " vs baseline "
            << base.syncEvents;
        return oss.str();
    }
    for (std::size_t i = 0; i < fp.regs.size(); ++i) {
        if (isFatalTarget(static_cast<int>(i / perProc)))
            continue;
        if (fp.regs[i] != base.regs[i]) {
            oss << "register diverges: processor " << i / perProc
                << " r" << diffedRegs[i % perProc] << " = "
                << fp.regs[i] << " vs baseline " << base.regs[i];
            return oss.str();
        }
    }
    for (std::size_t i = 0; i < fp.mem.size(); ++i) {
        if (fatalOwnsAddr(sc.watchAddrs[i]))
            continue;
        if (fp.mem[i] != base.mem[i]) {
            oss << "memory diverges: word " << sc.watchAddrs[i]
                << " = " << fp.mem[i] << " vs baseline "
                << base.mem[i];
            return oss.str();
        }
    }
    return "";
}

} // namespace

std::uint64_t
Fingerprint::hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(deadlocked ? 1 : 0);
    mix(timedOut ? 1 : 0);
    mix(safety.size());
    mix(syncEvents);
    for (auto e : episodes)
        mix(e);
    for (auto r : regs)
        mix(static_cast<std::uint64_t>(r));
    for (auto m : mem)
        mix(static_cast<std::uint64_t>(m));
    for (auto d : deadDeclared)
        mix(static_cast<std::uint64_t>(d));
    mix(membership.size());
    return h;
}

std::string
Fingerprint::summary() const
{
    std::ostringstream oss;
    oss << "syncs=" << syncEvents << " deadlock=" << (deadlocked ? 1 : 0)
        << " timeout=" << (timedOut ? 1 : 0)
        << " safety=" << (safety.empty() ? "OK" : "VIOLATED");
    if (!deadDeclared.empty()) {
        oss << " dead=";
        for (std::size_t i = 0; i < deadDeclared.size(); ++i)
            oss << (i ? "," : "") << deadDeclared[i];
    }
    if (!membership.empty())
        oss << " membership=VIOLATED";
    oss << " hash=" << std::hex << hash();
    return oss.str();
}

std::string
DiffReport::describe() const
{
    std::ostringstream oss;
    if (ok) {
        oss << "PASS (" << variantsRun << " executors agree)\n";
    } else {
        oss << "FAIL in executor '" << variant << "': " << failure
            << "\n";
    }
    oss << "baseline: " << baseline.summary() << "\n";
    return oss.str();
}

sim::MachineConfig
baselineConfig(const Scenario &sc, const DiffOptions &opt)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = sc.procs();
    cfg.memWords = opt.memWords;
    cfg.maxCycles = opt.maxCycles;
    cfg.topology = opt.topology;
    cfg.predecode = opt.predecode;
    cfg.interruptPeriod = sc.interruptPeriod;
    cfg.isrEntry = sc.isrEntry;
    if (sc.hasFaults()) {
        cfg.faultPlan = &sc.faults;
        cfg.watchdog = sc.watchdog;
    }
    return cfg;
}

DiffReport
runDifferential(const Scenario &sc, const DiffOptions &options)
{
    DiffReport rep;

    auto failed = [&rep](const std::string &variant,
                         const std::string &why) {
        rep.ok = false;
        rep.variant = variant;
        rep.failure = why;
        return rep;
    };

    if (sc.procs() == 0)
        return failed("setup", "scenario has no programs");
    if (sc.faults.hasFatal() && !sc.watchdog.enabled) {
        return failed("setup", "fault plan has fatal events but no "
                               "watchdog configured (the survivors "
                               "could never recover)");
    }
    const std::vector<int> fatal = sc.faults.fatalTargets();

    // Assemble both encodings up front through the intern cache: the
    // caller's, shared with its other scenarios, or a private one. The
    // assembled pair and its pre-decoded blocks are then shared by
    // every executor below, the checkpoint oracle included.
    exec::ProgramCache localPrograms;
    DiffOptions opt = options;
    if (opt.programCache == nullptr)
        opt.programCache = &localPrograms;
    ProgramSet bits;
    ProgramSet markers;
    for (int p = 0; p < sc.procs(); ++p) {
        auto interned =
            opt.programCache->intern(sc.sources[static_cast<std::size_t>(p)]);
        if (!interned->ok) {
            std::ostringstream oss;
            oss << "processor " << p << ": " << interned->error;
            return failed("assemble", oss.str());
        }
        if (interned->regionViolation) {
            std::ostringstream oss;
            oss << "processor " << p << ": " << *interned->regionViolation;
            return failed("static-check", oss.str());
        }
        if (sc.interruptPeriod > 0 &&
            (sc.isrEntry < 0 ||
             sc.isrEntry >=
                 static_cast<std::int64_t>(interned->bits.size()))) {
            return failed("setup", "ISR entry index outside program");
        }
        bits.programs.push_back(interned->bits);
        bits.decoded.push_back(interned->bitsDecoded);
        markers.programs.push_back(interned->markers);
        markers.decoded.push_back(interned->markersDecoded);
    }

    const sim::MachineConfig base = baselineConfig(sc, opt);
    auto run = [&](const Variant &v) {
        sim::MachineConfig cfg = base;
        if (v.edit)
            v.edit(cfg);
        const ProgramSet &set =
            v.encoding == Encoding::Markers ? markers : bits;
        if (opt.machinePool)
            return runOnMachine(sc, set, *opt.machinePool->acquire(cfg));
        sim::Machine m(cfg);
        return runOnMachine(sc, set, m);
    };

    const Encoding enc = sc.encoding;
    const Variant baseVariant{
        std::string("baseline/") + encodingName(enc) + "/depth1", enc, {}};
    rep.baseline = run(baseVariant);
    rep.variantsRun = 1;
    auto oracles = [&](const Fingerprint &fp) {
        return sc.hasFaults() ? checkFaultOracles(sc, fatal, fp)
                              : checkOracles(sc, fp);
    };
    if (auto why = oracles(rep.baseline); !why.empty())
        return failed(baseVariant.name, why);

    // The fixed matrix: the other encoding, then the baseline encoding
    // under each model the paper claims is result-equivalent. The
    // legacy loop cross-checks the event-driven fast-forward core on
    // every fuzzed scenario.
    using Config = sim::MachineConfig;
    const Encoding other = enc == Encoding::Markers ? Encoding::RegionBits
                                                    : Encoding::Markers;
    std::vector<Variant> variants = {
        {std::string("encoding/") + encodingName(other), other, {}},
        {"pipeline/depth2", enc, [](Config &c) { c.pipelineDepth = 2; }},
        {"pipeline/depth4", enc, [](Config &c) { c.pipelineDepth = 4; }},
        {"stall/software(20,20)", enc,
         [](Config &c) { c.stall = sim::StallModel::software(20, 20); }},
        {"jitter/mean1.5", enc,
         [](Config &c) {
             c.jitterMean = 1.5;
             c.seed = 99;
         }},
        {"vliw/width4", enc, [](Config &c) { c.issueWidth = 4; }},
        {"core/legacy-loop", enc, [](Config &c) { c.fastForward = false; }},
    };
    if (opt.predecode) {
        // Same machine as the baseline but decoding instruction by
        // instruction: every fuzzed scenario continuously cross-checks
        // the pre-decoded threaded-code backend (with its macro-step
        // windows) against the legacy interpreter. Skipped when the
        // whole matrix already runs without predecode — the variant
        // would duplicate the baseline.
        variants.push_back({"core/legacy-dispatch", enc,
                            [](Config &c) { c.predecode = false; }});
    }
    if (opt.topologySweep) {
        // Hierarchical sync networks only move delivery cycles; the
        // result fields diffed below (episodes, registers, watched
        // memory) must be identical to the flat baseline.
        for (const char *spec : {"tree:4", "cluster:8"}) {
            barrier::Topology topo;
            const bool parsed = barrier::Topology::parse(spec, topo);
            FB_ASSERT(parsed, "bad built-in topology spec " << spec);
            if (topo == opt.topology)
                continue;  // would duplicate the baseline
            variants.push_back({std::string("topology/") + spec, enc,
                                [topo](Config &c) { c.topology = topo; }});
        }
    }
    if (opt.shards >= 2) {
        // Sequential-vs-sharded: the baseline machine re-run across
        // opt.shards host threads under the skew window. Any
        // divergence from the baseline fingerprint is a determinism
        // bug in the sharded executor.
        variants.push_back(
            {"core/sharded-" + std::to_string(opt.shards) + "/q" +
                 std::to_string(opt.shardQuantum),
             enc, [&opt](Config &c) {
                 c.shardCount = opt.shards;
                 c.shardQuantum = opt.shardQuantum;
             }});
    }

    for (const auto &v : variants) {
        Fingerprint fp = run(v);
        ++rep.variantsRun;
        if (auto why = oracles(fp); !why.empty())
            return failed(v.name, why);
        if (auto why = diffAgainstBaseline(sc, fatal, rep.baseline, fp);
            !why.empty())
            return failed(v.name, why);
    }

    // Checkpointed executor: the scenario once more through the staged
    // delta-chain capture/restore oracle, whose reference run is the
    // baseline machine above, so any failure here is a checkpointing
    // defect, not a variant divergence. The chain seed derives from
    // the baseline fingerprint: deterministic per scenario, different
    // across scenarios.
    auto rr = checkResumeEquivalence(sc, rep.baseline.hash(), opt);
    ++rep.variantsRun;
    if (!rr.ok)
        return failed("checkpoint/delta-chain", rr.failure);

    if (opt.swBarrierReference) {
        int group_start = 0;
        for (std::size_t g = 0; g < sc.groupSizes.size(); ++g) {
            int size = sc.groupSizes[g];
            int start = group_start;
            group_start += size;
            if (size < 2)
                continue;  // a singleton group never blocks
            // If the fault plan kills a member of this group, run the
            // degraded-membership reference: the victim vanishes
            // mid-run and the surviving threads must detect it via
            // timeout and finish on a rebuilt barrier — mirroring the
            // watchdog + mask-shrink recovery checked above.
            int victim = -1;
            for (int p : fatal) {
                if (p >= start && p < start + size) {
                    victim = p - start;
                    break;
                }
            }
            for (auto kind : {sw::BarrierKind::Centralized,
                              sw::BarrierKind::Dissemination}) {
                std::string why =
                    victim < 0
                        ? runSwBarrierReference(kind, size, sc.episodes)
                        : runSwBarrierDegradedReference(
                              kind, size, sc.episodes, victim,
                              sc.episodes / 2);
                ++rep.variantsRun;
                if (!why.empty()) {
                    std::ostringstream oss;
                    oss << "swref/" << sw::barrierKindName(kind)
                        << "/group" << g
                        << (victim < 0 ? "" : "/degraded");
                    return failed(oss.str(), why);
                }
            }
        }
    }
    return rep;
}

std::string
runSwBarrierReference(sw::BarrierKind kind, int threads, int episodes)
{
    auto barrier = sw::makeBarrier(kind, threads);
    // arrivals[e] counts arrive() calls for episode e; when any
    // thread's wait() for episode e returns, all members must have
    // arrived — the same condition Machine::checkSafetyProperty()
    // verifies on the simulated network.
    std::vector<std::atomic<int>> arrivals(
        static_cast<std::size_t>(episodes));
    std::atomic<int> violations{0};
    std::atomic<int> completed{0};

    auto worker = [&](int tid) {
        for (int e = 0; e < episodes; ++e) {
            arrivals[static_cast<std::size_t>(e)].fetch_add(1);
            barrier->arrive(tid);
            barrier->wait(tid);
            if (arrivals[static_cast<std::size_t>(e)].load() < threads)
                violations.fetch_add(1);
        }
        completed.fetch_add(1);
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();

    std::ostringstream oss;
    if (completed.load() != threads) {
        oss << "reference barrier '" << barrier->name() << "': only "
            << completed.load() << "/" << threads
            << " threads completed " << episodes << " episodes";
        return oss.str();
    }
    if (violations.load() != 0) {
        oss << "reference barrier '" << barrier->name() << "': "
            << violations.load()
            << " wait() returns before all members arrived";
        return oss.str();
    }
    return "";
}

std::string
runSwBarrierDegradedReference(sw::BarrierKind kind, int threads,
                              int episodes, int victim, int kill_at)
{
    if (episodes <= 0)
        return "";
    if (victim < 0 || victim >= threads)
        return "degraded reference: victim outside thread range";
    if (kill_at < 0)
        kill_at = 0;
    if (kill_at >= episodes)
        return runSwBarrierReference(kind, threads, episodes);

    auto full = sw::makeBarrier(kind, threads);
    // The rebuilt barrier spans only the survivors; ranks are dense
    // (tid above the victim shift down by one), mirroring how the
    // hardware survivors shrink their masks around the dead bit.
    auto degraded = sw::makeBarrier(kind, threads - 1);

    std::vector<std::atomic<int>> arrivals(
        static_cast<std::size_t>(episodes));
    std::atomic<int> violations{0};
    std::atomic<int> timeouts{0};
    std::atomic<int> unexpectedCompletions{0};
    std::atomic<int> completed{0};

    auto survivorWorker = [&](int tid) {
        const int rank = tid < victim ? tid : tid - 1;
        for (int e = 0; e < episodes; ++e) {
            auto &arrived = arrivals[static_cast<std::size_t>(e)];
            arrived.fetch_add(1);
            if (e < kill_at) {
                full->arrive(tid);
                full->wait(tid);
                if (arrived.load() < threads)
                    violations.fetch_add(1);
                continue;
            }
            if (e == kill_at) {
                // First episode without the victim: the full barrier
                // can never complete, so the timed wait must fail
                // even after retries — that is the detection event.
                full->arrive(tid);
                auto r = sw::waitWithRetry(
                    *full, tid, std::chrono::microseconds(500), 3);
                if (r.completed)
                    unexpectedCompletions.fetch_add(1);
                else
                    timeouts.fetch_add(1);
            }
            degraded->arrive(rank);
            degraded->wait(rank);
            if (arrived.load() < threads - 1)
                violations.fetch_add(1);
        }
        completed.fetch_add(1);
    };
    auto victimWorker = [&] {
        for (int e = 0; e < kill_at; ++e) {
            arrivals[static_cast<std::size_t>(e)].fetch_add(1);
            full->arrive(victim);
            full->wait(victim);
        }
    };

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        if (t == victim)
            pool.emplace_back(victimWorker);
        else
            pool.emplace_back(survivorWorker, t);
    }
    for (auto &t : pool)
        t.join();

    const int survivors = threads - 1;
    std::ostringstream oss;
    if (completed.load() != survivors) {
        oss << "degraded barrier '" << full->name() << "': only "
            << completed.load() << "/" << survivors
            << " survivors completed " << episodes << " episodes";
        return oss.str();
    }
    if (unexpectedCompletions.load() != 0) {
        oss << "degraded barrier '" << full->name() << "': "
            << unexpectedCompletions.load()
            << " waits completed without the dead member's arrival";
        return oss.str();
    }
    if (timeouts.load() != survivors) {
        oss << "degraded barrier '" << full->name() << "': "
            << timeouts.load() << "/" << survivors
            << " survivors observed the detection timeout";
        return oss.str();
    }
    if (violations.load() != 0) {
        oss << "degraded barrier '" << full->name() << "': "
            << violations.load()
            << " wait() returns before all live members arrived";
        return oss.str();
    }
    return "";
}

} // namespace fb::verify
