/**
 * @file
 * Flat shared word-addressed memory with hot-spot accounting.
 */

#ifndef FB_SIM_MEMORY_HH
#define FB_SIM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "snapshot/codec.hh"

namespace fb::sim
{

/**
 * The shared memory of the simulated multiprocessor.
 *
 * Addresses are word indices (one word = one int64). Access counts
 * per word are kept so experiment E8 can report hot-spot traffic: a
 * software barrier hammers a single flag word, while the hardware
 * fuzzy barrier performs no shared accesses at all.
 *
 * Both the counts and the dirty-word bookkeeping are paged: counts
 * live in lazily-allocated page-sized slabs indexed by a flat
 * page->slot table, and every page touched (stats) or written
 * (contents) since the last reset is remembered in first-touch
 * order. That makes resetStats()/resetContents() O(pages touched)
 * rather than O(memory size), which is what lets a pooled machine be
 * recycled for thousands of scenarios without re-walking a mostly
 * untouched megaword array. Slabs stay allocated across resets, so a
 * reused machine reaches a steady state with no per-scenario
 * allocation at all.
 */
class SharedMemory
{
  public:
    /** Page granularity (words) for dirty tracking and snapshots. */
    static constexpr std::size_t pageWords = 1024;

    /** Construct with @p words words, zero initialized. */
    explicit SharedMemory(std::size_t words);

    /** Size in words. */
    std::size_t size() const { return _words.size(); }

    /** Read the word at @p addr. */
    std::int64_t read(std::size_t addr);

    /** Write the word at @p addr. */
    void write(std::size_t addr, std::int64_t value);

    /** Read without touching access statistics (host-side inspection). */
    std::int64_t peek(std::size_t addr) const;

    /** Write without touching access statistics (host-side setup). */
    void poke(std::size_t addr, std::int64_t value);

    /** Total simulated accesses. */
    std::uint64_t totalAccesses() const { return _totalAccesses; }

    /** Highest access count of any single word (the hot spot). */
    std::uint64_t hotSpotAccesses() const;

    /** Address of the most-accessed word (lowest such address; 0 if
     *  none). */
    std::size_t hotSpotAddress() const;

    /** Forget access statistics, keep contents. O(pages touched). */
    void resetStats();

    /** Zero every word written since construction (or the previous
     *  resetContents). O(pages written). */
    void resetContents();

    /**
     * Pages whose access statistics were touched since the last
     * resetStats(), in first-touch order. Every simulated access
     * lands here, so per-line derived state (e.g. sharer masks) is
     * confined to these pages.
     */
    const std::vector<std::size_t> &touchedPages() const
    {
        return _statsPages;
    }

    /**
     * Serialize contents sparsely: only pages containing a nonzero
     * word are written (memory starts zeroed, so untouched pages are
     * implicit), plus the access counts in sorted address order so
     * the byte stream is deterministic.
     */
    void encodeState(snapshot::Encoder &e) const;

    /** Restore state captured with encodeState(). */
    bool decodeState(snapshot::Decoder &d);

    /**
     * Begin (or roll over) a delta epoch: from here on, pages whose
     * contents or statistics change are additionally recorded in the
     * epoch sets that encodeDeltaState() serializes. Called by the
     * checkpoint path right after each capture so an epoch always
     * spans exactly one checkpoint interval.
     */
    void beginDeltaEpoch();

    /** Stop epoch tracking entirely (checkpointing disabled). */
    void endDeltaEpoch();

    /**
     * Serialize only what changed since beginDeltaEpoch(): written
     * pages in full (absolute words — a page stored back to all
     * zeroes must still be represented), and for every stats-touched
     * page its complete nonzero count set (absolute; counts are
     * monotonic so entries never vanish), plus the total access
     * counter. Appliable on top of the epoch's starting state only.
     */
    void encodeDeltaState(snapshot::Encoder &e) const;

    /** Apply a delta captured with encodeDeltaState() on top of the
     *  current state. */
    bool decodeDeltaState(snapshot::Decoder &d);

  private:
    void touch(std::size_t addr);
    void markWritten(std::size_t addr);
    /** Count slab for @p page, allocated on first use. */
    std::uint64_t *countSlab(std::size_t page);
    /** Count slab for @p page, or nullptr if never allocated. */
    const std::uint64_t *countSlabIfAny(std::size_t page) const;

    std::vector<std::int64_t> _words;
    /** page -> slab slot + 1 into _countSlabs (0 = none yet). */
    std::vector<std::uint32_t> _countSlot;
    /** Concatenated page-sized access-count slabs. */
    std::vector<std::uint64_t> _countSlabs;
    std::vector<bool> _statsDirty;          ///< page touched since resetStats
    std::vector<std::size_t> _statsPages;   ///< touched, first-touch order
    std::vector<bool> _contentDirty;        ///< page written since reset
    std::vector<std::size_t> _contentPages; ///< written, first-touch order
    std::uint64_t _totalAccesses = 0;

    // Delta-epoch bookkeeping (not part of the serialized state): the
    // pages changed since the last checkpoint capture, maintained only
    // while a delta epoch is open.
    bool _epochTracking = false;
    std::vector<bool> _epochStatsDirty;
    std::vector<std::size_t> _epochStatsPages;
    std::vector<bool> _epochContentDirty;
    std::vector<std::size_t> _epochContentPages;
};

} // namespace fb::sim

#endif // FB_SIM_MEMORY_HH
