/**
 * @file
 * Bounded interning cache for assembled and decoded programs.
 */

#ifndef FB_EXEC_PROGRAM_CACHE_HH
#define FB_EXEC_PROGRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "isa/program.hh"
#include "sim/decoded.hh"

namespace fb::exec
{

/**
 * One source text assembled once: both encodings (region bits and
 * BRENTER/BREXIT markers) plus the static-check results, shared by
 * every executor that runs the text. Immutable after interning, so
 * workers share it without locking.
 */
struct InternedProgram
{
    /** False if assembly failed; @ref error holds the message. */
    bool ok = false;
    std::string error;
    /** checkRegionBranches() verdict for the bit-encoded program. */
    std::optional<std::string> regionViolation;
    isa::Program bits;    ///< region-bit encoding
    isa::Program markers; ///< marker encoding (toMarkerEncoding)
    /**
     * Pre-decoded threaded-code blocks for both encodings (null when
     * assembly failed or the program is empty). Passing these to
     * Machine::loadProgram lets every machine that runs the source
     * share one decode instead of re-decoding on each load;
     * loadProgram checks the block against the program it is paired
     * with (DecodedProgram::matches), so a block handed to the wrong
     * program is rejected, not trusted.
     */
    std::shared_ptr<const sim::DecodedProgram> bitsDecoded;
    std::shared_ptr<const sim::DecodedProgram> markersDecoded;
};

/**
 * Shared assembly cache keyed by source text. The differential matrix
 * runs each scenario's sources under about a dozen executors and both
 * region encodings; interning makes each source assemble and decode
 * once per scenario. Generated sources almost never recur across
 * scenarios (2 of 2,227 in a 512-scenario batch), so the table is
 * bounded: it clears wholesale once it holds @ref maxEntries sources.
 * Thread-safe: one mutex around the map, results handed out as
 * shared_ptr-to-const.
 */
class ProgramCache
{
  public:
    /** Sources held before the table clears (about 6 KB each). */
    static constexpr std::size_t maxEntries = 4096;

    /** Assemble @p source, or return the cached result. */
    std::shared_ptr<const InternedProgram>
    intern(const std::string &source);

    /** Lookups served from cache. */
    std::uint64_t hits() const;

    /** Lookups that ran the assembler. */
    std::uint64_t misses() const;

  private:
    mutable std::mutex _mu;
    std::unordered_map<std::string,
                       std::shared_ptr<const InternedProgram>>
        _cache;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace fb::exec

#endif // FB_EXEC_PROGRAM_CACHE_HH
