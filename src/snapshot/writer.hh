/**
 * @file
 * Background snapshot writer with bounded-queue backpressure and a
 * graceful degradation ladder.
 *
 * The simulation loop hands each staged capture (header + sections,
 * unassembled) to submit() and continues immediately; a single
 * background thread assembles the byte stream and persists it through
 * the SnapshotStore. Serialization and fsync latency therefore never
 * block Machine::run — the run only stalls when it outpaces the disk
 * badly enough to fill the bounded queue. (On a single-hardware-thread
 * host the persist happens inline instead, with the fsync still
 * deferred, so the no-stable-storage-wait property survives even where
 * true overlap is impossible.)
 *
 * Persistence failures never abort the run. Each save is retried with
 * exponential backoff; a capture that still fails is dropped and the
 * writer walks down a degradation ladder (INTERNALS section 18):
 *
 *   async-delta -> sync-delta -> sync-full -> disabled
 *
 * Every step is reported back through the SubmitVerdict so the
 * machine can re-base its delta chain (a dropped capture makes the
 * on-disk chain head stale) and record the degradation in RunResult.
 */

#ifndef FB_SNAPSHOT_WRITER_HH
#define FB_SNAPSHOT_WRITER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "snapshot/format.hh"
#include "snapshot/store.hh"

namespace fb::snapshot
{

/** Position on the writer's degradation ladder. */
enum class WriterMode
{
    AsyncDelta, ///< normal: background persistence, deltas allowed
    SyncDelta,  ///< async writes failed: persist inline, deltas allowed
    SyncFull,   ///< sync deltas failed too: inline full snapshots only
    Disabled,   ///< even full snapshots fail: checkpointing off
};

/** Human-readable ladder position. */
const char *writerModeName(WriterMode mode);

/** Retry knobs for AsyncSnapshotWriter. */
struct WriterConfig
{
    /** Retries per capture after the initial attempt. */
    int maxRetries = 3;
    /** First retry delay; doubles per retry. 0 = no sleeping (tests). */
    std::uint32_t backoffInitialMs = 1;
};

/** Counters exposed for tests, benchmarks and RunResult reporting. */
struct WriterStats
{
    std::uint64_t submitted = 0;    ///< captures handed to submit()
    std::uint64_t persisted = 0;    ///< captures durably in the store
    std::uint64_t asyncPersisted = 0; ///< ... via the background thread
    std::uint64_t syncPersisted = 0;  ///< ... inline after degradation
    std::uint64_t retries = 0;      ///< individual save retries
    std::uint64_t dropped = 0;      ///< captures lost after all retries
    std::uint64_t backpressureWaits = 0; ///< submit() blocked on queue
    std::uint64_t degradations = 0; ///< ladder steps taken
    WriterMode mode = WriterMode::AsyncDelta;
    std::string lastError;          ///< most recent persist failure
};

/**
 * submit()'s synchronous answer — mirrors sim::Machine::CheckpointAck
 * without depending on the sim layer.
 */
struct SubmitVerdict
{
    bool keep = true;      ///< false: stop checkpointing entirely
    bool forceFull = false; ///< next capture must re-base the chain
    bool deltasOk = true;  ///< false: stop producing deltas
    std::string degradation; ///< non-empty: ladder step to record
};

/**
 * Double-buffered background writer. One instance owns one background
 * thread for its whole lifetime; the destructor drains the queue and
 * joins. Thread-safe only in the intended shape: one producer calling
 * submit()/drain(), any thread calling stats().
 *
 * While on the async rung the store runs under Durability::Deferred:
 * saves land without fsync and drain() batches the flushes (far
 * cheaper than per-save fsync, and torn tails are already covered by
 * the load-time walk-back). Any degradation off the async rung flips
 * the store back to Strict — the sync rungs are durable per save.
 */
class AsyncSnapshotWriter
{
  public:
    explicit AsyncSnapshotWriter(SnapshotStore &store,
                                 WriterConfig config = {});

    /** Drains outstanding captures, then stops the thread. */
    ~AsyncSnapshotWriter();

    AsyncSnapshotWriter(const AsyncSnapshotWriter &) = delete;
    AsyncSnapshotWriter &operator=(const AsyncSnapshotWriter &) = delete;

    /**
     * Take ownership of one staged capture. In async mode the capture
     * is queued (blocking only while the queue is full) and the call
     * returns before anything touches the disk; in the degraded sync
     * modes it is persisted inline. The verdict reports any ladder
     * step taken since the previous submit.
     */
    SubmitVerdict submit(SnapshotHeader header,
                         std::vector<Section> sections);

    /**
     * Block until every queued capture has been persisted or dropped,
     * then flush any deferred fsyncs — on return the store is durable
     * up to the last accepted capture.
     */
    void drain();

    /** Snapshot of the counters (consistent under the writer lock). */
    WriterStats stats() const;

  private:
    /** Captures in flight before submit() blocks. */
    static constexpr std::size_t queueCapacity = 2;

    struct Job
    {
        SnapshotHeader header;
        std::vector<Section> sections;
    };

    void workerMain();

    /** Assemble and save with retry/backoff. Lock NOT held. */
    bool persistWithRetry(const SnapshotHeader &header,
                          const std::vector<Section> &sections,
                          std::string &error);

    /** Record a dropped capture and break the chain. Lock held. */
    void noteDrop(const SnapshotHeader &header, const std::string &error);

    /** Step down the ladder. Lock held. */
    void degradeTo(WriterMode mode, const std::string &why);

    SnapshotStore &_store;
    WriterConfig _config;

    mutable std::mutex _lock;
    std::condition_variable _cv;      ///< worker wakeups
    std::condition_variable _doneCv;  ///< producer wakeups (drain/space)
    std::deque<Job> _queue;
    bool _stopping = false;
    bool _workerBusy = false;

    WriterMode _mode = WriterMode::AsyncDelta;
    /**
     * The on-disk chain is broken: a capture was dropped, so deltas
     * against the in-memory predecessor would name a snapshot the
     * store never received. Deltas are discarded (not persisted)
     * until the next full snapshot lands and re-anchors the chain.
     */
    bool _chainBroken = false;
    /** A ladder step not yet reported through a SubmitVerdict. */
    std::string _pendingDegradation;

    WriterStats _stats;

    /**
     * Persist on the caller's thread instead of the background one. A
     * lone hardware thread cannot overlap the writer with the
     * simulation — the hop only adds context switches — so a 1-core
     * host persists inline (fsync still deferred to drain(), so the
     * run still never waits on stable storage).
     */
    const bool _inline = std::thread::hardware_concurrency() == 1;

    std::thread _worker;
};

} // namespace fb::snapshot

#endif // FB_SNAPSHOT_WRITER_HH
