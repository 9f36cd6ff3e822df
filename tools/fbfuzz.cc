/**
 * @file
 * fbfuzz — differential fuzz driver for the fuzzy-barrier simulator.
 *
 * Generates random multi-processor fuzzy-barrier scenarios (see
 * src/verify/) and executes each under the full differential matrix:
 * region-bit vs marker encoding, pipeline depths, hardware vs
 * software stall models, jitter, VLIW multi-issue, and the
 * real-thread swbarrier reference implementations. On failure the
 * scenario is greedily shrunk and written out as a byte-deterministic
 * reproducer that replays identically anywhere.
 *
 * Usage:
 *   fbfuzz [--seed S] [--runs N] [--minimize] [--out FILE]
 *   fbfuzz --replay FILE [--runs N]
 *   fbfuzz --save FILE [--seed S]
 *
 * Options:
 *   --seed S       base seed; run i fuzzes spec seed S+i (default 1)
 *   --runs N       scenarios to fuzz, or replay repetitions (default 100)
 *   --replay FILE  replay a stored reproducer instead of generating
 *   --minimize     shrink a failing scenario and write a reproducer
 *   --out FILE     reproducer output path (default fbfuzz-<seed>.fbrepro)
 *   --save FILE    write the reproducer for --seed's scenario and exit
 *   --no-swref     skip the software-barrier thread cross-check
 *   --topology SPEC
 *                  run every executor under this synchronization
 *                  network shape: flat (default), tree:ARITY[:LVL] or
 *                  cluster:SIZE[:LVL]. The matrix's topology-sweep
 *                  variants still cross-check the other shapes; the
 *                  flag is recorded in --cursor journals and
 *                  reproduce lines
 *   --faults       inject a seeded random fault schedule per scenario
 *                  (kills/freezes/pulse drops/bit flips; enables the
 *                  barrier watchdog and the fault-safety and
 *                  recovery-liveness oracles)
 *   --fault-seed S base for fault-plan derivation (default: spec seed)
 *   --max-cycles N per-run cycle guard (default 5,000,000)
 *   --shards N[:QUANTUM]
 *                  add a sequential-vs-sharded executor to the matrix:
 *                  each scenario additionally runs across N host
 *                  threads under a QUANTUM-cycle skew window (default
 *                  1024) and must reproduce the baseline fingerprint
 *                  exactly (see exec::ShardedMachine)
 *   --no-predecode run every executor on the legacy instruction-by-
 *                  instruction interpreter instead of the pre-decoded
 *                  threaded-code backend (also drops the
 *                  legacy-dispatch cross-check variant, which would
 *                  duplicate the baseline). Results are identical;
 *                  the flag is recorded in --cursor journals, so a
 *                  campaign cannot silently resume under the other
 *                  backend
 *   --jobs N       fuzz seeds on N worker threads; every seed in the
 *                  range is scanned (no stop at the first failure)
 *                  and results are reported in seed order, so the
 *                  failing-seed set is identical for every N
 *   --cursor FILE  journal per-seed verdicts to FILE so an interrupted
 *                  campaign resumes where it stopped: already-passing
 *                  seeds are skipped, failing ones re-run to reprint
 *                  their reports, and the final failing-seed set (and
 *                  summary) is identical to an uninterrupted run. The
 *                  journal records the campaign parameters; resuming
 *                  with different flags is rejected. A torn final line
 *                  (killed mid-write) is discarded, not trusted, and
 *                  the journal is compacted (crash-safely) once the
 *                  contiguous passing prefix grows large, so resumed
 *                  sweeps no longer grow it without bound
 *   --cursor-compact N
 *                  compaction threshold in journal records (default
 *                  4096; mostly for tests)
 *   --workers N    run the campaign as a multi-process service: a
 *                  coordinator shards the seed space into leased
 *                  ranges across N forked worker processes, survives
 *                  worker crashes/wedges via heartbeat timeouts and
 *                  exponential-backoff respawn, deterministically
 *                  reassigns incomplete leases, and quarantines a
 *                  seed that kills its worker twice (one solo probe,
 *                  then a first-class QUARANTINE artifact). Output
 *                  stays seed-ordered and byte-identical to --jobs 1
 *                  for every seed that is not quarantined. Composes
 *                  with --jobs N (threads inside each worker) and
 *                  --cursor (the coordinator records the contiguous
 *                  prefix, so a SIGKILLed coordinator resumes)
 *   --svc-fault SPEC
 *                  inject process/transport faults into the service
 *                  (kill:N, killitem:I, drop:N, garble:N, stallhb:N —
 *                  see src/exec/service/wire.hh); requires --workers
 *   --lease N      seeds per lease (default 16)
 *   --hb-timeout MS / --hb-interval MS
 *                  service liveness tuning (defaults 30000 / 200)
 *   --quiet        only print failures and the final summary
 *
 * Exit status: 0 all runs passed, 1 a failure was found (or a replay
 * failed), 2 usage error. Service mode additionally: 4 when the only
 * failures are quarantined seeds, 5 when the service aborted (worker
 * respawn budget exhausted). A campaign that merely lost and
 * respawned workers keeps the normal codes — worker loss is
 * survivable by design and reported on stderr only.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/campaign.hh"
#include "exec/service/coordinator.hh"
#include "fault/plan.hh"
#include "support/strutil.hh"
#include "verify/differ.hh"
#include "verify/generator.hh"
#include "verify/shrink.hh"

#include "fuzz_campaign.hh"

namespace
{

using namespace fb;
using fbtool::applyFaults;
using fbtool::cursorHeader;
using fbtool::describeFailure;
using fbtool::diffOptions;
using fbtool::runScenario;

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "fbfuzz: %s\n", msg);
    std::fprintf(stderr,
                 "usage: fbfuzz [--seed S] [--runs N] [--minimize] "
                 "[--out FILE]\n"
                 "       fbfuzz --replay FILE [--runs N]\n"
                 "       fbfuzz --save FILE [--seed S]\n"
                 "       (see the header of tools/fbfuzz.cc for details)\n");
    std::exit(2);
}

struct Options : fbtool::CampaignConfig
{
    bool runsGiven = false;
    std::string replayFile;
    std::string saveFile;
    std::string outFile;
    bool minimize = false;
    int jobs = 0;  ///< 0 = sequential stop-at-first-failure mode
    std::string cursorFile;
    std::uint64_t cursorCompact = 0;  ///< 0 = journal default
    int workers = 0;  ///< 0 = in-process; N = coordinator + N workers
    exec::svc::SvcFaultPlan svcFault;
    std::uint64_t leaseItems = 16;
    int hbIntervalMs = 200;
    int hbTimeoutMs = 30'000;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(("missing value after " + arg).c_str());
            return argv[i];
        };
        auto nextInt = [&]() -> std::int64_t {
            std::int64_t v;
            std::string s = next();
            if (!parseInt(s, v))
                usage(("bad integer for " + arg + ": " + s).c_str());
            return v;
        };
        if (arg == "--seed")
            opt.seed = static_cast<std::uint64_t>(nextInt());
        else if (arg == "--runs") {
            opt.runs = static_cast<int>(nextInt());
            opt.runsGiven = true;
        } else if (arg == "--replay")
            opt.replayFile = next();
        else if (arg == "--save")
            opt.saveFile = next();
        else if (arg == "--out")
            opt.outFile = next();
        else if (arg == "--minimize")
            opt.minimize = true;
        else if (arg == "--no-swref")
            opt.swref = false;
        else if (arg == "--faults")
            opt.faults = true;
        else if (arg == "--fault-seed") {
            opt.faultSeed = static_cast<std::uint64_t>(nextInt());
            opt.faults = true;
        }
        else if (arg == "--max-cycles")
            opt.maxCycles = static_cast<std::uint64_t>(nextInt());
        else if (arg == "--shards") {
            auto parts = split(next(), ':');
            std::int64_t n = 0;
            if (parts.empty() || parts.size() > 2 ||
                !parseInt(parts[0], n) || n < 2)
                usage("--shards N[:QUANTUM] with N >= 2");
            opt.shards = static_cast<int>(n);
            if (parts.size() == 2) {
                std::int64_t q = 0;
                if (!parseInt(parts[1], q) || q < 1)
                    usage("--shards quantum must be >= 1");
                opt.shardQuantum = static_cast<std::uint64_t>(q);
            }
        } else if (arg == "--no-predecode")
            opt.predecode = false;
        else if (arg == "--topology") {
            if (!barrier::Topology::parse(next(), opt.topology))
                usage("--topology expects flat, tree:ARITY[:LVL] or "
                      "cluster:SIZE[:LVL]");
        }
        else if (arg == "--jobs")
            opt.jobs = static_cast<int>(nextInt());
        else if (arg == "--cursor")
            opt.cursorFile = next();
        else if (arg == "--cursor-compact") {
            std::int64_t n = nextInt();
            if (n < 1)
                usage("--cursor-compact must be at least 1");
            opt.cursorCompact = static_cast<std::uint64_t>(n);
        } else if (arg == "--workers") {
            opt.workers = static_cast<int>(nextInt());
            if (opt.workers < 1)
                usage("--workers must be at least 1");
        } else if (arg == "--svc-fault") {
            std::string err;
            if (!exec::svc::SvcFaultPlan::parse(next(), opt.svcFault,
                                                err))
                usage(("--svc-fault: " + err).c_str());
        } else if (arg == "--lease") {
            std::int64_t n = nextInt();
            if (n < 1)
                usage("--lease must be at least 1");
            opt.leaseItems = static_cast<std::uint64_t>(n);
        } else if (arg == "--hb-interval") {
            opt.hbIntervalMs = static_cast<int>(nextInt());
            if (opt.hbIntervalMs < 1)
                usage("--hb-interval must be at least 1");
        } else if (arg == "--hb-timeout") {
            opt.hbTimeoutMs = static_cast<int>(nextInt());
            if (opt.hbTimeoutMs < 1)
                usage("--hb-timeout must be at least 1");
        } else if (arg == "--quiet")
            opt.quiet = true;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (opt.runs < 1)
        usage("--runs must be at least 1");
    if (opt.jobs < 0)
        usage("--jobs must be at least 1");
    if (!opt.replayFile.empty() && !opt.saveFile.empty())
        usage("--replay and --save are mutually exclusive");
    if (!opt.cursorFile.empty() &&
        (!opt.replayFile.empty() || !opt.saveFile.empty()))
        usage("--cursor only applies to fuzzing campaigns");
    if (opt.workers > 0 &&
        (!opt.replayFile.empty() || !opt.saveFile.empty()))
        usage("--workers only applies to fuzzing campaigns");
    if (opt.svcFault.any() && opt.workers == 0)
        usage("--svc-fault requires --workers");
    return opt;
}

/**
 * The sweep cursor lives in exec::svc::CursorJournal now (the PR 4
 * journal promoted for the campaign service, with bounded growth via
 * crash-safe compaction); the header binding a journal to its
 * campaign renders in fuzz_campaign.hh, shared by every front-end so
 * they resume each other's journals.
 */
bool
openCursor(const Options &opt, exec::svc::CursorJournal &journal)
{
    std::string error;
    if (!journal.open(opt.cursorFile, cursorHeader(opt),
                      static_cast<std::uint64_t>(opt.runs), error)) {
        std::fprintf(stderr, "fbfuzz: %s\n", error.c_str());
        return false;
    }
    if (opt.cursorCompact != 0)
        journal.setCompactionThreshold(opt.cursorCompact);
    if (journal.resumedItems() != 0)
        std::fprintf(stderr,
                     "fbfuzz: cursor %s: resuming past %llu recorded "
                     "seed(s)\n",
                     opt.cursorFile.c_str(),
                     static_cast<unsigned long long>(
                         journal.resumedItems()));
    return true;
}

void
writeReproducer(const verify::Scenario &sc, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "fbfuzz: cannot write %s\n", path.c_str());
        std::exit(2);
    }
    out << sc.toReproducer();
    std::printf("reproducer written to %s (%zu fbasm lines, %d "
                "processors)\n",
                path.c_str(), sc.totalAsmLines(), sc.procs());
}

/** Shrink a failing spec and write the reproducer. */
void
minimizeAndSave(const verify::ProgramSpec &spec, const Options &opt)
{
    auto d = diffOptions(opt);
    verify::FailPredicate fails = [&](const verify::Scenario &sc) {
        return !verify::runDifferential(sc, d).ok;
    };
    verify::ShrinkStats stats;
    auto minimal = verify::shrink(spec, fails, &stats);
    auto sc = verify::render(minimal);
    std::printf("minimized: %d -> %d processors, %d -> %d episodes, "
                "%zu fbasm lines (%d candidates, %d accepted)\n",
                spec.procs(), minimal.procs(), spec.episodes,
                minimal.episodes, sc.totalAsmLines(), stats.attempts,
                stats.accepted);
    auto rep = verify::runDifferential(sc, d);
    std::printf("minimal failure: %s: %s\n", rep.variant.c_str(),
                rep.failure.c_str());
    std::string path = opt.outFile.empty()
                           ? "fbfuzz-" + std::to_string(spec.seed) +
                                 ".fbrepro"
                           : opt.outFile;
    writeReproducer(sc, path);
}

int
replayMain(const Options &opt)
{
    std::ifstream in(opt.replayFile);
    if (!in)
        usage(("cannot open " + opt.replayFile).c_str());
    std::ostringstream text;
    text << in.rdbuf();

    verify::Scenario sc;
    std::string err;
    if (!verify::Scenario::fromReproducer(text.str(), sc, err)) {
        std::fprintf(stderr, "fbfuzz: %s: %s\n", opt.replayFile.c_str(),
                     err.c_str());
        return 2;
    }
    std::printf("replay: %s  procs=%d groups=%d episodes=%d "
                "encoding=%s interrupt=%llu\n",
                opt.replayFile.c_str(), sc.procs(), sc.groups(),
                sc.episodes, verify::encodingName(sc.encoding),
                static_cast<unsigned long long>(sc.interruptPeriod));

    // Replay repetitions reuse pooled machines, so a multi-rep replay
    // also cross-checks that reset machines replay byte-identically.
    exec::MachinePool machines;
    exec::ProgramCache programCache;
    auto d = diffOptions(opt);
    d.machinePool = &machines;
    d.programCache = &programCache;
    const int reps = opt.runsGiven ? opt.runs : 1;
    verify::DiffReport first;
    for (int i = 0; i < reps; ++i) {
        auto rep = verify::runDifferential(sc, d);
        if (i == 0) {
            first = rep;
            std::printf("%s", rep.describe().c_str());
        } else if (rep.ok != first.ok ||
                   rep.baseline.hash() != first.baseline.hash()) {
            std::printf("NONDETERMINISTIC: run %d disagrees with run 0\n",
                        i);
            return 1;
        }
    }
    if (reps > 1)
        std::printf("deterministic across %d replays\n", reps);
    return first.ok ? 0 : 1;
}

/**
 * Parallel scan-everything mode (--jobs N), on the campaign engine:
 * workers claim seeds one at a time from a shared counter, every
 * worker recycles machines from its private pool and interns
 * generated programs in the shared cache, and the ordered emitter
 * streams each verdict in seed order as the contiguous prefix
 * completes — a slow seed delays only its own worker, never
 * unrelated seeds behind a batch barrier. Unlike the
 * sequential mode nothing stops at the first failure, so the failing
 * seed set — and the printed report — is byte-identical regardless of
 * the worker count or OS scheduling.
 */
int
fuzzParallel(const Options &opt, exec::svc::CursorJournal *cursor)
{
    const int runs = opt.runs;
    const int jobs = std::min(opt.jobs, runs);

    exec::CampaignOptions copt;
    copt.jobs = jobs;

    auto runner = [&](std::uint64_t i, exec::WorkerContext &ctx) {
        exec::ItemResult r;
        // Seeds the journal already proved passing are skipped;
        // failing ones re-run so their FAIL reports (and the
        // failing-seed set) match an uninterrupted campaign. The
        // consumer only records item i after this runner finishes,
        // so the read observes resume-time state only.
        if (cursor != nullptr && cursor->state(i) == 'p')
            return r;
        return runScenario(opt, i, ctx);
    };

    int failures = 0;
    std::int64_t firstFailing = -1;
    auto consume = [&](std::uint64_t i, const exec::ItemResult &r) {
        const bool skipped =
            cursor != nullptr && cursor->state(i) == 'p';
        if (!skipped && cursor != nullptr)
            cursor->record(i, r.failed);
        if (r.failed) {
            ++failures;
            if (firstFailing < 0)
                firstFailing = static_cast<std::int64_t>(i);
            std::printf("%s", r.payload.c_str());
        }
    };

    exec::runCampaign(static_cast<std::uint64_t>(runs), copt, runner,
                      consume);

    std::printf("fbfuzz: %d/%d scenarios passed (seeds %llu..%llu, "
                "%d jobs)\n",
                runs - failures, runs,
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(
                    opt.seed + static_cast<std::uint64_t>(runs) - 1),
                jobs);
    if (failures == 0)
        return 0;
    if (opt.minimize) {
        const std::uint64_t specSeed =
            opt.seed + static_cast<std::uint64_t>(firstFailing);
        auto spec = verify::randomSpec(specSeed);
        applyFaults(spec, opt, specSeed);
        minimizeAndSave(spec, opt);
    }
    return 1;
}

/**
 * Multi-process service mode (--workers N): the coordinator in
 * exec::svc shards the seed range into leases across forked worker
 * processes and survives worker loss, wedges, and transport
 * corruption (injectable via --svc-fault). Each worker runs the same
 * differential runner as fuzzParallel — with --jobs threads inside —
 * so for every seed that is not quarantined the printed FAIL blocks
 * are byte-identical to the in-process modes at any worker count.
 */
int
fuzzService(const Options &opt, exec::svc::CursorJournal *cursor)
{
    const int runs = opt.runs;

    exec::svc::ServiceOptions sopt;
    sopt.workers = opt.workers;
    sopt.leaseItems = opt.leaseItems;
    sopt.heartbeatIntervalMs = opt.hbIntervalMs;
    sopt.heartbeatTimeoutMs = opt.hbTimeoutMs;
    sopt.innerJobs = std::max(1, opt.jobs);
    sopt.fault = opt.svcFault;
    sopt.quarantineArtifact = [&](std::uint64_t i, int kills) {
        return fbtool::quarantineArtifact(opt, opt.seed + i, kills);
    };

    // Identical scenario work to fuzzParallel; journal-passed seeds
    // never reach the runner (the coordinator pre-delivers them), so
    // no cursor check is needed here.
    auto runner = [&](std::uint64_t i, exec::WorkerContext &ctx) {
        return runScenario(opt, i, ctx);
    };

    int failures = 0;
    int quarantined = 0;
    std::int64_t firstFailing = -1;
    auto consume = [&](std::uint64_t i, const exec::ItemResult &r) {
        if (r.failed) {
            ++failures;
            if (r.quarantined)
                ++quarantined;
            else if (firstFailing < 0)
                firstFailing = static_cast<std::int64_t>(i);
            std::printf("%s", r.payload.c_str());
        }
    };

    auto stats = exec::svc::runCampaignService(
        static_cast<std::uint64_t>(runs), sopt, runner, consume,
        cursor);

    if (stats.workerDeaths != 0 || stats.corruptStreams != 0)
        std::fprintf(
            stderr,
            "fbfuzz: service: %llu worker death(s), %llu respawn(s), "
            "%llu lease(s) reassigned, %llu heartbeat timeout(s), "
            "%llu corrupt stream(s)\n",
            static_cast<unsigned long long>(stats.workerDeaths),
            static_cast<unsigned long long>(stats.respawns),
            static_cast<unsigned long long>(stats.leasesReassigned),
            static_cast<unsigned long long>(stats.heartbeatTimeouts),
            static_cast<unsigned long long>(stats.corruptStreams));
    if (stats.aborted) {
        std::fprintf(stderr, "fbfuzz: service aborted: %s\n",
                     stats.error.c_str());
        return 5;
    }

    std::printf("fbfuzz: %d/%d scenarios passed (seeds %llu..%llu, "
                "%d workers)\n",
                runs - failures, runs,
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(
                    opt.seed + static_cast<std::uint64_t>(runs) - 1),
                opt.workers);
    if (failures == quarantined)
        return quarantined != 0 ? 4 : 0;
    if (opt.minimize && firstFailing >= 0) {
        const std::uint64_t specSeed =
            opt.seed + static_cast<std::uint64_t>(firstFailing);
        auto spec = verify::randomSpec(specSeed);
        applyFaults(spec, opt, specSeed);
        minimizeAndSave(spec, opt);
    }
    return 1;
}

int
fuzzMain(const Options &opt)
{
    exec::svc::CursorJournal cursorStorage;
    exec::svc::CursorJournal *cursor = nullptr;
    if (!opt.cursorFile.empty()) {
        if (!openCursor(opt, cursorStorage))
            return 2;
        cursor = &cursorStorage;
    }
    if (opt.workers > 0)
        return fuzzService(opt, cursor);
    if (opt.jobs > 0)
        return fuzzParallel(opt, cursor);
    // Sequential stop-at-first-failure mode still recycles machines
    // and interns programs across seeds — same hot path, one thread.
    exec::MachinePool machines;
    exec::ProgramCache programCache;
    auto d = diffOptions(opt);
    d.machinePool = &machines;
    d.programCache = &programCache;
    for (int i = 0; i < opt.runs; ++i) {
        if (cursor != nullptr &&
            cursor->state(static_cast<std::uint64_t>(i)) == 'p')
            continue;
        const std::uint64_t specSeed = opt.seed + static_cast<std::uint64_t>(i);
        auto spec = verify::randomSpec(specSeed);
        applyFaults(spec, opt, specSeed);
        auto sc = verify::render(spec);
        auto rep = verify::runDifferential(sc, d);
        if (cursor != nullptr)
            cursor->record(static_cast<std::uint64_t>(i), !rep.ok);
        if (!rep.ok) {
            std::printf("%s",
                        describeFailure(specSeed, sc, rep, opt).c_str());
            if (opt.minimize)
                minimizeAndSave(spec, opt);
            return 1;
        }
        if (!opt.quiet && (i + 1) % 50 == 0)
            std::printf("... %d/%d scenarios ok\n", i + 1, opt.runs);
    }
    std::printf("fbfuzz: %d scenarios passed (seeds %llu..%llu, all "
                "executors agree)\n",
                opt.runs, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(
                    opt.seed + static_cast<std::uint64_t>(opt.runs) - 1));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    if (!opt.replayFile.empty())
        return replayMain(opt);

    if (!opt.saveFile.empty()) {
        auto spec = verify::randomSpec(opt.seed);
        applyFaults(spec, opt, opt.seed);
        auto sc = verify::render(spec);
        auto rep = verify::runDifferential(sc, diffOptions(opt));
        std::printf("seed %llu: %s",
                    static_cast<unsigned long long>(opt.seed),
                    rep.describe().c_str());
        std::ofstream out(opt.saveFile);
        if (!out)
            usage(("cannot write " + opt.saveFile).c_str());
        out << sc.toReproducer();
        std::printf("scenario saved to %s\n", opt.saveFile.c_str());
        return rep.ok ? 0 : 1;
    }

    return fuzzMain(opt);
}
