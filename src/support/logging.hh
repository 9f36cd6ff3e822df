/**
 * @file
 * Logging, assertion, and error-termination facilities.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user error
 * (bad configuration or arguments).  Both terminate; panic aborts
 * (core dump friendly), fatal exits with status 1.
 */

#ifndef FB_SUPPORT_LOGGING_HH
#define FB_SUPPORT_LOGGING_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace fb
{

/** Verbosity levels for the global logger. */
enum class LogLevel
{
    Quiet = 0,  ///< nothing but errors
    Warn = 1,   ///< warnings
    Info = 2,   ///< informational progress messages
    Debug = 3,  ///< detailed tracing
};

/**
 * Process-wide logger. All output goes to stderr so bench tables on
 * stdout stay machine-parseable.
 */
class Logger
{
  public:
    /** Access the singleton logger. */
    static Logger &get();

    /** Set the verbosity threshold. */
    void setLevel(LogLevel level) { _level = level; }

    /** Current verbosity threshold. */
    LogLevel level() const { return _level; }

    /**
     * Emit a message if @p level is within the current threshold. The
     * line is built first and inserted into std::cerr once, so lines
     * logged from concurrent threads never interleave.
     */
    void
    log(LogLevel level, const std::string &msg)
    {
        if (static_cast<int>(level) <= static_cast<int>(_level))
            std::cerr << (prefix(level) + msg + "\n");
    }

  private:
    Logger() = default;

    static const char *prefix(LogLevel level);

    LogLevel _level = LogLevel::Warn;
};

/** Log at Info level. */
void inform(const std::string &msg);
/** Log at Warn level. */
void warn(const std::string &msg);
/** Log at Debug level. */
void debugLog(const std::string &msg);

/**
 * Warn, but only the first time @p key is seen. Repeatable conditions
 * (a fault firing every cycle, a tool falling back) report once
 * instead of flooding stderr. Thread-safe.
 */
void warnOnce(const std::string &key, const std::string &msg);

/**
 * Warn on the 1st, (N+1)th, (2N+1)th... occurrence of @p key; later
 * repeats carry a suppressed-count suffix so no information is lost,
 * just volume. Thread-safe. The count is process-wide, so use it
 * for process-level conditions (service, snapshot writer), never for
 * one a simulated run repeats: under concurrent campaign workers,
 * which occurrence prints would depend on thread timing.
 *
 * @param every_n report one message per this many occurrences (>= 1)
 */
void warnRatelimited(const std::string &key, const std::string &msg,
                     std::uint64_t every_n = 100);

/**
 * Terminate because of an internal invariant violation (library bug).
 * Never returns.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Terminate because of a user error (bad configuration, invalid
 * arguments). Never returns.
 */
[[noreturn]] void fatal(const std::string &msg);

} // namespace fb

/**
 * Always-on assertion used to guard library invariants. Unlike
 * assert(3) this is active in release builds; simulator correctness
 * depends on these checks.
 */
#define FB_ASSERT(cond, msg)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::ostringstream fb_assert_oss_;                            \
            fb_assert_oss_ << "assertion failed: " #cond " at "           \
                           << __FILE__ << ":" << __LINE__ << ": " << msg; \
            ::fb::panic(fb_assert_oss_.str());                            \
        }                                                                 \
    } while (0)

#endif // FB_SUPPORT_LOGGING_HH
