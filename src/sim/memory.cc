#include "sim/memory.hh"

#include <algorithm>

#include "support/logging.hh"

namespace fb::sim
{

SharedMemory::SharedMemory(std::size_t words) : _words(words, 0)
{
    FB_ASSERT(words > 0, "memory must have at least one word");
    const std::size_t pages = (words + pageWords - 1) / pageWords;
    _countSlot.assign(pages, 0);
    _statsDirty.assign(pages, false);
    _contentDirty.assign(pages, false);
}

std::int64_t
SharedMemory::read(std::size_t addr)
{
    FB_ASSERT(addr < _words.size(), "load from out-of-range address "
                                        << addr);
    touch(addr);
    return _words[addr];
}

void
SharedMemory::write(std::size_t addr, std::int64_t value)
{
    FB_ASSERT(addr < _words.size(), "store to out-of-range address "
                                        << addr);
    touch(addr);
    markWritten(addr);
    _words[addr] = value;
}

std::int64_t
SharedMemory::peek(std::size_t addr) const
{
    FB_ASSERT(addr < _words.size(), "peek of out-of-range address "
                                        << addr);
    return _words[addr];
}

void
SharedMemory::poke(std::size_t addr, std::int64_t value)
{
    FB_ASSERT(addr < _words.size(), "poke of out-of-range address "
                                        << addr);
    markWritten(addr);
    _words[addr] = value;
}

std::uint64_t *
SharedMemory::countSlab(std::size_t page)
{
    std::uint32_t slot = _countSlot[page];
    if (slot == 0) {
        _countSlabs.resize(_countSlabs.size() + pageWords, 0);
        slot = static_cast<std::uint32_t>(_countSlabs.size() / pageWords);
        _countSlot[page] = slot;
    }
    return &_countSlabs[(slot - 1) * pageWords];
}

const std::uint64_t *
SharedMemory::countSlabIfAny(std::size_t page) const
{
    const std::uint32_t slot = _countSlot[page];
    return slot == 0 ? nullptr : &_countSlabs[(slot - 1) * pageWords];
}

void
SharedMemory::touch(std::size_t addr)
{
    ++_totalAccesses;
    const std::size_t page = addr / pageWords;
    std::uint64_t *slab = countSlab(page);
    if (!_statsDirty[page]) {
        _statsDirty[page] = true;
        _statsPages.push_back(page);
    }
    if (_epochTracking && !_epochStatsDirty[page]) {
        _epochStatsDirty[page] = true;
        _epochStatsPages.push_back(page);
    }
    ++slab[addr % pageWords];
}

void
SharedMemory::markWritten(std::size_t addr)
{
    const std::size_t page = addr / pageWords;
    if (!_contentDirty[page]) {
        _contentDirty[page] = true;
        _contentPages.push_back(page);
    }
    if (_epochTracking && !_epochContentDirty[page]) {
        _epochContentDirty[page] = true;
        _epochContentPages.push_back(page);
    }
}

std::uint64_t
SharedMemory::hotSpotAccesses() const
{
    std::uint64_t best = 0;
    for (std::size_t page : _statsPages) {
        const std::uint64_t *slab = countSlabIfAny(page);
        for (std::size_t i = 0; i < pageWords; ++i)
            if (slab[i] > best)
                best = slab[i];
    }
    return best;
}

std::size_t
SharedMemory::hotSpotAddress() const
{
    // Scan pages in ascending address order so ties resolve to the
    // lowest address deterministically.
    std::vector<std::size_t> pages(_statsPages);
    std::sort(pages.begin(), pages.end());
    std::size_t best_addr = 0;
    std::uint64_t best = 0;
    for (std::size_t page : pages) {
        const std::uint64_t *slab = countSlabIfAny(page);
        for (std::size_t i = 0; i < pageWords; ++i) {
            if (slab[i] > best) {
                best = slab[i];
                best_addr = page * pageWords + i;
            }
        }
    }
    return best_addr;
}

void
SharedMemory::resetStats()
{
    for (std::size_t page : _statsPages) {
        std::uint64_t *slab = countSlab(page);
        std::fill(slab, slab + pageWords, 0);
        _statsDirty[page] = false;
    }
    _statsPages.clear();
    _totalAccesses = 0;
}

void
SharedMemory::resetContents()
{
    for (std::size_t page : _contentPages) {
        const std::size_t begin = page * pageWords;
        const std::size_t end = std::min(begin + pageWords, _words.size());
        std::fill(_words.begin() + begin, _words.begin() + end, 0);
        _contentDirty[page] = false;
    }
    _contentPages.clear();
}

void
SharedMemory::encodeState(snapshot::Encoder &e) const
{
    e.u64(_words.size());

    // Dirty pages: any page holding a nonzero word. Nonzero words
    // only exist on content-dirty pages (memory starts zeroed and
    // every store marks its page), so scanning the written set is
    // equivalent to scanning the whole array.
    std::vector<std::size_t> written(_contentPages);
    std::sort(written.begin(), written.end());
    std::vector<std::size_t> dirty;
    for (std::size_t p : written) {
        const std::size_t begin = p * pageWords;
        const std::size_t end = std::min(begin + pageWords, _words.size());
        for (std::size_t i = begin; i < end; ++i) {
            if (_words[i] != 0) {
                dirty.push_back(p);
                break;
            }
        }
    }
    e.u64(dirty.size());
    for (std::size_t p : dirty) {
        const std::size_t begin = p * pageWords;
        const std::size_t end = std::min(begin + pageWords, _words.size());
        e.u64(p);
        e.u64(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            e.i64(_words[i]);
    }

    // Access counts in ascending address order (deterministic bytes,
    // same stream the old sorted-map encoding produced).
    std::vector<std::size_t> touched(_statsPages);
    std::sort(touched.begin(), touched.end());
    std::uint64_t entries = 0;
    for (std::size_t page : touched) {
        const std::uint64_t *slab = countSlabIfAny(page);
        for (std::size_t i = 0; i < pageWords; ++i)
            if (slab[i] != 0)
                ++entries;
    }
    e.u64(entries);
    for (std::size_t page : touched) {
        const std::uint64_t *slab = countSlabIfAny(page);
        for (std::size_t i = 0; i < pageWords; ++i) {
            if (slab[i] != 0) {
                e.u64(page * pageWords + i);
                e.u64(slab[i]);
            }
        }
    }
    e.u64(_totalAccesses);
}

void
SharedMemory::beginDeltaEpoch()
{
    for (std::size_t page : _epochStatsPages)
        _epochStatsDirty[page] = false;
    _epochStatsPages.clear();
    for (std::size_t page : _epochContentPages)
        _epochContentDirty[page] = false;
    _epochContentPages.clear();
    if (!_epochTracking) {
        _epochTracking = true;
        const std::size_t pages = _statsDirty.size();
        _epochStatsDirty.assign(pages, false);
        _epochContentDirty.assign(pages, false);
    }
}

void
SharedMemory::endDeltaEpoch()
{
    if (!_epochTracking)
        return;
    _epochTracking = false;
    for (std::size_t page : _epochStatsPages)
        _epochStatsDirty[page] = false;
    _epochStatsPages.clear();
    for (std::size_t page : _epochContentPages)
        _epochContentDirty[page] = false;
    _epochContentPages.clear();
}

void
SharedMemory::encodeDeltaState(snapshot::Encoder &e) const
{
    e.u64(_words.size());

    // Written pages in full, absolutely: a word stored back to zero
    // this epoch must overwrite the base's nonzero value on apply, so
    // unlike the full encoding there is no nonzero-only filter.
    std::vector<std::size_t> written(_epochContentPages);
    std::sort(written.begin(), written.end());
    e.u64(written.size());
    for (std::size_t p : written) {
        const std::size_t begin = p * pageWords;
        const std::size_t end = std::min(begin + pageWords, _words.size());
        e.u64(p);
        e.u64(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            e.i64(_words[i]);
    }

    // Stats-touched pages: the page list, then every nonzero count on
    // those pages (absolute values). Counts are monotonic, so a count
    // that was nonzero at the epoch start is still nonzero here and
    // is re-listed; apply therefore zeroes each listed page first and
    // sets exactly these entries.
    std::vector<std::size_t> touched(_epochStatsPages);
    std::sort(touched.begin(), touched.end());
    e.u64(touched.size());
    for (std::size_t p : touched)
        e.u64(p);
    std::uint64_t entries = 0;
    for (std::size_t page : touched) {
        const std::uint64_t *slab = countSlabIfAny(page);
        if (slab == nullptr)
            continue;
        for (std::size_t i = 0; i < pageWords; ++i)
            if (slab[i] != 0)
                ++entries;
    }
    e.u64(entries);
    for (std::size_t page : touched) {
        const std::uint64_t *slab = countSlabIfAny(page);
        if (slab == nullptr)
            continue;
        for (std::size_t i = 0; i < pageWords; ++i) {
            if (slab[i] != 0) {
                e.u64(page * pageWords + i);
                e.u64(slab[i]);
            }
        }
    }
    e.u64(_totalAccesses);
}

bool
SharedMemory::decodeDeltaState(snapshot::Decoder &d)
{
    const std::uint64_t words = d.u64();
    if (!d.ok() || words != _words.size())
        return false;

    const std::uint64_t dirty = d.u64();
    for (std::uint64_t k = 0; k < dirty; ++k) {
        const std::uint64_t page = d.u64();
        const std::uint64_t count = d.u64();
        const std::uint64_t begin = page * pageWords;
        if (!d.ok() || begin + count > _words.size() || count > pageWords)
            return false;
        markWritten(static_cast<std::size_t>(begin));
        for (std::uint64_t i = 0; i < count; ++i)
            _words[static_cast<std::size_t>(begin + i)] = d.i64();
    }

    const std::uint64_t touched = d.u64();
    for (std::uint64_t k = 0; k < touched; ++k) {
        const std::uint64_t page = d.u64();
        if (!d.ok() || page * pageWords >= _words.size())
            return false;
        std::uint64_t *slab = countSlab(static_cast<std::size_t>(page));
        std::fill(slab, slab + pageWords, 0);
        if (!_statsDirty[static_cast<std::size_t>(page)]) {
            _statsDirty[static_cast<std::size_t>(page)] = true;
            _statsPages.push_back(static_cast<std::size_t>(page));
        }
    }
    const std::uint64_t entries = d.u64();
    for (std::uint64_t k = 0; k < entries; ++k) {
        const std::uint64_t addr = d.u64();
        const std::uint64_t count = d.u64();
        if (!d.ok() || addr >= _words.size())
            return false;
        const std::size_t page = static_cast<std::size_t>(addr) / pageWords;
        std::uint64_t *slab = countSlab(page);
        if (!_statsDirty[page]) {
            _statsDirty[page] = true;
            _statsPages.push_back(page);
        }
        slab[static_cast<std::size_t>(addr) % pageWords] = count;
    }
    _totalAccesses = d.u64();
    return d.ok();
}

bool
SharedMemory::decodeState(snapshot::Decoder &d)
{
    const std::uint64_t words = d.u64();
    if (!d.ok() || words != _words.size())
        return false;
    resetContents();

    const std::uint64_t dirty = d.u64();
    for (std::uint64_t k = 0; k < dirty; ++k) {
        const std::uint64_t page = d.u64();
        const std::uint64_t count = d.u64();
        const std::uint64_t begin = page * pageWords;
        if (!d.ok() || begin + count > _words.size() || count > pageWords)
            return false;
        markWritten(static_cast<std::size_t>(begin));
        for (std::uint64_t i = 0; i < count; ++i)
            _words[static_cast<std::size_t>(begin + i)] = d.i64();
    }

    resetStats();
    const std::uint64_t entries = d.u64();
    for (std::uint64_t k = 0; k < entries; ++k) {
        const std::uint64_t addr = d.u64();
        const std::uint64_t count = d.u64();
        if (!d.ok() || addr >= _words.size())
            return false;
        const std::size_t page = static_cast<std::size_t>(addr) / pageWords;
        std::uint64_t *slab = countSlab(page);
        if (!_statsDirty[page]) {
            _statsDirty[page] = true;
            _statsPages.push_back(page);
        }
        slab[static_cast<std::size_t>(addr) % pageWords] = count;
    }
    _totalAccesses = d.u64();
    return d.ok();
}

} // namespace fb::sim
