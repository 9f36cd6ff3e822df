/**
 * @file
 * Per-processor direct-mapped data cache model.
 *
 * Cache misses are the paper's canonical source of execution drift:
 * "Due to a cache miss, a processor may fall behind in execution even
 * if all processors are executing identical instructions" (section 1).
 * The model only computes timing (hit or miss latency); data always
 * comes from the shared memory, so coherence is trivially maintained
 * by invalidating on remote writes.
 */

#ifndef FB_SIM_CACHE_HH
#define FB_SIM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "snapshot/codec.hh"

namespace fb::sim
{

/** Result of a cache access: cycles the access takes. */
struct CacheAccessResult
{
    bool hit;
    std::uint32_t cycles;  ///< 1 on hit, missPenalty (+bus) on miss
};

/**
 * Direct-mapped write-through cache (timing only).
 */
class DataCache
{
  public:
    explicit DataCache(const CacheConfig &config);

    /**
     * Access word @p addr. Returns hit/miss and the base latency
     * (bus queueing is added by the caller). Stores allocate like
     * loads (write-through, write-allocate).
     */
    CacheAccessResult access(std::size_t addr);

    /** Invalidate the line containing @p addr (remote write). */
    void invalidate(std::size_t addr);

    /** Drop every line. */
    void flush();

    /**
     * Reinitialize to a cold cache under @p config — equivalent to
     * constructing DataCache(config), reusing the line arrays. Tags
     * are zeroed too (not just invalidated) so a reused cache's
     * encoded snapshot is byte-identical to a fresh one's.
     */
    void
    reset(const CacheConfig &config)
    {
        _config = config;
        _valid.assign(config.numLines, false);
        _tags.assign(config.numLines, 0);
        _hits = 0;
        _misses = 0;
        endDeltaEpoch();
    }

    /** Hits so far. */
    std::uint64_t hits() const { return _hits; }

    /** Misses so far. */
    std::uint64_t misses() const { return _misses; }

    /** Serialize valid bits, tags and hit/miss counters. */
    void encodeState(snapshot::Encoder &e) const
    {
        e.boolVec(_valid);
        e.u64(_tags.size());
        for (std::size_t t : _tags)
            e.u64(t);
        e.u64(_hits);
        e.u64(_misses);
    }

    /** Restore state captured with encodeState(). */
    bool decodeState(snapshot::Decoder &d)
    {
        const std::size_t lines = _tags.size();
        d.boolVec(_valid);
        const std::uint64_t n = d.u64();
        if (!d.ok() || n != lines || _valid.size() != lines)
            return false;
        for (std::size_t i = 0; i < lines; ++i)
            _tags[i] = static_cast<std::size_t>(d.u64());
        _hits = d.u64();
        _misses = d.u64();
        return d.ok();
    }

    /** Begin (or roll over) a delta epoch (see SharedMemory). */
    void beginDeltaEpoch()
    {
        for (std::uint32_t line : _epochLines)
            _epochDirty[line] = false;
        _epochLines.clear();
        _epochDirty.resize(_valid.size(), false);
        _epochTracking = true;
    }

    /** Stop epoch tracking entirely. */
    void endDeltaEpoch()
    {
        for (std::uint32_t line : _epochLines)
            _epochDirty[line] = false;
        _epochLines.clear();
        _epochTracking = false;
    }

    /** Serialize only lines changed since beginDeltaEpoch() plus the
     *  (absolute) hit/miss counters. */
    void encodeDeltaState(snapshot::Encoder &e) const
    {
        std::vector<std::uint32_t> lines(_epochLines);
        std::sort(lines.begin(), lines.end());
        e.u64(lines.size());
        for (std::uint32_t line : lines) {
            e.u32(line);
            e.u8(_valid[line] ? 1 : 0);
            e.u64(_tags[line]);
        }
        e.u64(_hits);
        e.u64(_misses);
    }

    /** Apply a delta captured with encodeDeltaState(). */
    bool decodeDeltaState(snapshot::Decoder &d)
    {
        const std::uint64_t n = d.u64();
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::uint32_t line = d.u32();
            const std::uint8_t valid = d.u8();
            const std::uint64_t tag = d.u64();
            if (!d.ok() || line >= _valid.size())
                return false;
            _valid[line] = valid != 0;
            _tags[line] = static_cast<std::size_t>(tag);
        }
        _hits = d.u64();
        _misses = d.u64();
        return d.ok();
    }

  private:
    void markLine(std::size_t line)
    {
        if (_epochTracking && !_epochDirty[line]) {
            _epochDirty[line] = true;
            _epochLines.push_back(static_cast<std::uint32_t>(line));
        }
    }

    std::size_t lineOf(std::size_t addr) const
    {
        return (addr / _config.lineWords) % _config.numLines;
    }

    std::size_t tagOf(std::size_t addr) const
    {
        return addr / _config.lineWords / _config.numLines;
    }

    CacheConfig _config;
    std::vector<bool> _valid;
    std::vector<std::size_t> _tags;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;

    // Delta-epoch bookkeeping (not serialized): lines whose valid bit
    // or tag changed since the last checkpoint capture.
    bool _epochTracking = false;
    std::vector<bool> _epochDirty;
    std::vector<std::uint32_t> _epochLines;
};

} // namespace fb::sim

#endif // FB_SIM_CACHE_HH
