#include "snapshot/writer.hh"

#include <chrono>
#include <utility>

#include "support/logging.hh"

namespace fb::snapshot
{

const char *
writerModeName(WriterMode mode)
{
    switch (mode) {
      case WriterMode::AsyncDelta: return "async-delta";
      case WriterMode::SyncDelta: return "sync-delta";
      case WriterMode::SyncFull: return "sync-full";
      case WriterMode::Disabled: return "disabled";
    }
    return "?";
}

AsyncSnapshotWriter::AsyncSnapshotWriter(SnapshotStore &store,
                                         WriterConfig config)
    : _store(store), _config(config)
{
    _store.setDurability(Durability::Deferred);
    if (!_inline)
        _worker = std::thread([this] { workerMain(); });
}

AsyncSnapshotWriter::~AsyncSnapshotWriter()
{
    {
        std::lock_guard<std::mutex> lk(_lock);
        _stopping = true;
    }
    _cv.notify_all();
    if (_worker.joinable())
        _worker.join();
    // The worker processed everything still queued before exiting;
    // flush deferred fsyncs so teardown leaves the store durable.
    // Best-effort — there is nobody left to report a failure to.
    std::string error;
    (void)_store.sync(error);
}

void
AsyncSnapshotWriter::degradeTo(WriterMode mode, const std::string &why)
{
    if (static_cast<int>(mode) <= static_cast<int>(_mode))
        return;
    if (_mode == WriterMode::AsyncDelta) {
        // Leaving the async rung: the sync rungs promise per-save
        // durability, so stop deferring fsyncs (this also flushes the
        // deferred backlog).
        _store.setDurability(Durability::Strict);
    }
    _mode = mode;
    _stats.mode = mode;
    ++_stats.degradations;
    _pendingDegradation =
        std::string("checkpoint writer degraded to ") +
        writerModeName(mode) + ": " + why;
    // Operators of long-running services watch stderr, not RunResult:
    // surface every ladder step there too. Keyed per rung, so the
    // first writer to reach a rung reports immediately and a fleet of
    // writers hitting the same failing disk collapses to one line per
    // hundred instead of a stderr storm.
    warnRatelimited(std::string("snapshot-writer-degrade:") +
                        writerModeName(mode),
                    _pendingDegradation);
}

void
AsyncSnapshotWriter::noteDrop(const SnapshotHeader &header,
                              const std::string &error)
{
    ++_stats.dropped;
    _chainBroken = true;
    _stats.lastError = error;
    (void)header;
}

bool
AsyncSnapshotWriter::persistWithRetry(
    const SnapshotHeader &header, const std::vector<Section> &sections,
    std::string &error)
{
    const std::vector<std::uint8_t> bytes = assemble(header, sections);
    std::uint32_t backoff_ms = _config.backoffInitialMs;
    for (int attempt = 0;; ++attempt) {
        if (_store.save(header.generation, bytes, error))
            return true;
        if (attempt >= _config.maxRetries)
            return false;
        {
            std::lock_guard<std::mutex> lk(_lock);
            ++_stats.retries;
        }
        if (backoff_ms != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
        backoff_ms *= 2;
    }
}

void
AsyncSnapshotWriter::workerMain()
{
    for (;;) {
        std::unique_lock<std::mutex> lk(_lock);
        _cv.wait(lk, [this] { return _stopping || !_queue.empty(); });
        if (_queue.empty()) {
            if (_stopping)
                return;
            continue;
        }
        Job job = std::move(_queue.front());
        _queue.pop_front();
        _workerBusy = true;
        // A delta whose predecessor never reached the disk is
        // worthless; discard it rather than persisting a chain with a
        // hole. The next full snapshot re-anchors.
        const bool skip = _chainBroken && job.header.isDelta();
        lk.unlock();

        std::string error;
        bool ok = false;
        if (!skip)
            ok = persistWithRetry(job.header, job.sections, error);

        lk.lock();
        _workerBusy = false;
        if (skip) {
            ++_stats.dropped;
        } else if (ok) {
            ++_stats.persisted;
            ++_stats.asyncPersisted;
            if (!job.header.isDelta())
                _chainBroken = false;
        } else {
            noteDrop(job.header, error);
            degradeTo(WriterMode::SyncDelta, error);
        }
        lk.unlock();
        _doneCv.notify_all();
    }
}

SubmitVerdict
AsyncSnapshotWriter::submit(SnapshotHeader header,
                            std::vector<Section> sections)
{
    std::unique_lock<std::mutex> lk(_lock);
    ++_stats.submitted;
    SubmitVerdict verdict;

    if (_mode == WriterMode::AsyncDelta) {
        if (_chainBroken && header.isDelta()) {
            // The worker would discard it anyway; skip the round trip.
            ++_stats.dropped;
        } else if (_inline) {
            // Same bookkeeping as the worker loop, minus the thread
            // hop (see _inline). The fsync is still deferred, so this
            // blocks on the page cache, not on stable storage.
            lk.unlock();
            std::string error;
            const bool ok = persistWithRetry(header, sections, error);
            lk.lock();
            if (ok) {
                ++_stats.persisted;
                ++_stats.asyncPersisted;
                if (!header.isDelta())
                    _chainBroken = false;
            } else {
                noteDrop(header, error);
                degradeTo(WriterMode::SyncDelta, error);
            }
        } else {
            while (_queue.size() >= queueCapacity &&
                   !_stopping) {
                ++_stats.backpressureWaits;
                _doneCv.wait(lk);
            }
            _queue.push_back(
                Job{std::move(header), std::move(sections)});
            _cv.notify_one();
        }
        verdict.forceFull = _chainBroken;
        verdict.degradation = std::exchange(_pendingDegradation, {});
        return verdict;
    }

    if (_mode == WriterMode::Disabled) {
        verdict.keep = false;
        verdict.degradation = std::exchange(_pendingDegradation, {});
        return verdict;
    }

    // Sync modes persist inline on the caller's thread. Wait out any
    // leftover async jobs first — SnapshotStore is not reentrant.
    _doneCv.wait(lk, [this] { return _queue.empty() && !_workerBusy; });

    const bool unwanted_delta =
        header.isDelta() &&
        (_mode == WriterMode::SyncFull || _chainBroken);
    if (unwanted_delta) {
        ++_stats.dropped;
    } else {
        lk.unlock();
        std::string error;
        const bool ok = persistWithRetry(header, sections, error);
        lk.lock();
        if (ok) {
            ++_stats.persisted;
            ++_stats.syncPersisted;
            if (!header.isDelta())
                _chainBroken = false;
        } else {
            noteDrop(header, error);
            degradeTo(_mode == WriterMode::SyncDelta
                          ? WriterMode::SyncFull
                          : WriterMode::Disabled,
                      error);
        }
    }

    verdict.keep = _mode != WriterMode::Disabled;
    verdict.deltasOk = _mode == WriterMode::AsyncDelta ||
                       _mode == WriterMode::SyncDelta;
    verdict.forceFull = _chainBroken;
    verdict.degradation = std::exchange(_pendingDegradation, {});
    return verdict;
}

void
AsyncSnapshotWriter::drain()
{
    std::unique_lock<std::mutex> lk(_lock);
    _doneCv.wait(lk, [this] { return _queue.empty() && !_workerBusy; });
    // The worker is idle and the producer is here, so nobody else can
    // touch the store: flush the deferred fsync backlog. A disk that
    // refuses the flush is treated like any other persist failure —
    // step down the ladder and report it on the next submit.
    std::string error;
    if (!_store.sync(error)) {
        _stats.lastError = error;
        degradeTo(WriterMode::SyncDelta, error);
    }
}

WriterStats
AsyncSnapshotWriter::stats() const
{
    std::lock_guard<std::mutex> lk(_lock);
    return _stats;
}

} // namespace fb::snapshot
