#include "sim/trace.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/logging.hh"

namespace fb::sim
{

char
BarrierTrace::symbolFor(barrier::BarrierState state, bool halted)
{
    if (halted)
        return symHalted;
    switch (state) {
      case barrier::BarrierState::NonBarrier: return symNonBarrier;
      case barrier::BarrierState::Ready: return symReady;
      case barrier::BarrierState::Synced: return symSynced;
      case barrier::BarrierState::Stalled: return symStalled;
    }
    return '?';
}

char
BarrierTrace::worst(char a, char b)
{
    auto rank = [](char c) {
        switch (c) {
          case symStalled: return 4;
          case symReady: return 3;
          case symSynced: return 2;
          case symNonBarrier: return 1;
          default: return 0;
        }
    };
    return rank(a) >= rank(b) ? a : b;
}

void
BarrierTrace::record(std::uint64_t cycle,
                     const std::vector<barrier::BarrierState> &states,
                     const std::vector<bool> &halted, bool sync_delivered)
{
    FB_ASSERT(states.size() == static_cast<std::size_t>(_numProcessors),
              "state vector size mismatch");
    if (_rows.empty() || cycle < _first) {
        _rows.assign(static_cast<std::size_t>(_numProcessors), {});
        _syncMarks.clear();
        _first = cycle;
    }
    // A cycle already recorded means time went back (a snapshot
    // restored into a machine that had run on): drop it and later.
    const auto at = static_cast<std::size_t>(cycle - _first);
    if (at < cycles()) {
        for (std::string &row : _rows)
            row.resize(at);
        _syncMarks.resize(at);
    }
    extendTo(cycle);
    for (int p = 0; p < _numProcessors; ++p) {
        _rows[static_cast<std::size_t>(p)].push_back(
            symbolFor(states[static_cast<std::size_t>(p)],
                      halted[static_cast<std::size_t>(p)]));
    }
    _syncMarks.push_back(sync_delivered);
}

void
BarrierTrace::extendTo(std::uint64_t end)
{
    if (cycles() == 0 || end <= _first + cycles())
        return;
    const std::size_t gap = end - _first - cycles();
    for (std::string &row : _rows)
        row.append(gap, row.back());
    _syncMarks.resize(_syncMarks.size() + gap, false);
}

std::string
BarrierTrace::render(std::size_t max_width) const
{
    std::ostringstream oss;
    const std::size_t total = cycles();
    if (total == 0)
        return "(empty trace)\n";
    FB_ASSERT(max_width > 0, "max_width must be positive");
    const std::size_t bucket = (total + max_width - 1) / max_width;
    const std::size_t width = (total + bucket - 1) / bucket;
    // Every label is padded to the widest processor id (at least two
    // digits), so the rows' first '|' always lines up.
    const std::size_t digits = std::max<std::size_t>(
        2, std::to_string(std::max(_numProcessors - 1, 0)).size());
    const auto label = static_cast<int>(3 + digits);

    oss << "barrier timeline (" << total << " cycles";
    if (_first != 0)
        oss << " from cycle " << _first;
    oss << ", " << bucket << " cycle(s)/column):\n";
    oss << "  legend: '.' non-barrier  'r' in region (awaiting sync)  "
           "'s' in region (synced)\n          '#' stalled  ' ' halted  "
           "'|' group synchronization\n";
    oss << std::left;
    for (int p = 0; p < _numProcessors; ++p) {
        const std::string &row = _rows[static_cast<std::size_t>(p)];
        oss << "  " << std::setw(label) << "cpu" + std::to_string(p)
            << "|";
        for (std::size_t b = 0; b < width; ++b) {
            char c = symHalted;
            for (std::size_t k = b * bucket;
                 k < std::min(total, (b + 1) * bucket); ++k)
                c = worst(c, row[k]);
            oss << c;
        }
        oss << "|\n";
    }
    oss << "  " << std::setw(label) << "sync" << "|";
    for (std::size_t b = 0; b < width; ++b) {
        bool any = false;
        for (std::size_t k = b * bucket;
             k < std::min(total, (b + 1) * bucket); ++k)
            any = any || _syncMarks[k];
        oss << (any ? '|' : ' ');
    }
    oss << "|\n";
    return oss.str();
}

} // namespace fb::sim
