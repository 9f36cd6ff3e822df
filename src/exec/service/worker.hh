/**
 * @file
 * Campaign-service worker: the child-process half of the
 * coordinator/worker protocol.
 *
 * A worker is forked from the coordinator's process image, so it
 * executes the campaign's ItemRunner directly — no exec, no
 * serialization of the work itself, only of its results. Internally
 * each lease runs through the in-process campaign engine
 * (self-scheduling threads when innerJobs > 1; the worker's own
 * thread keeps a MachinePool and a bounded ProgramCache that persist
 * across leases), so the service composes with — rather than
 * replaces — the in-process execution engine.
 */

#ifndef FB_EXEC_SERVICE_WORKER_HH
#define FB_EXEC_SERVICE_WORKER_HH

#include <cstdint>

#include "exec/campaign.hh"
#include "exec/service/wire.hh"

namespace fb::exec::svc
{

/** Per-worker knobs, fixed at spawn time by the coordinator. */
struct WorkerConfig
{
    /** Heartbeat cadence while idle and between items. */
    int heartbeatIntervalMs = 200;
    /** Threads inside the worker's own campaign engine (>= 1). */
    int innerJobs = 1;
    /** Fault plan for this incarnation (already incarnation-filtered). */
    SvcFaultPlan fault;
};

/**
 * Run the worker protocol loop over the two pipe ends until the
 * coordinator sends Shutdown or closes the pipe. Never throws; a
 * runner exception becomes a failed item result (the campaign
 * engine's per-task guard). Returns the worker's exit status
 * (0 = clean shutdown, 3 = coordinator vanished mid-write).
 */
int workerMain(int readFd, int writeFd, const ItemRunner &runner,
               const WorkerConfig &config);

} // namespace fb::exec::svc

#endif // FB_EXEC_SERVICE_WORKER_HH
