/**
 * @file
 * Error and status reporting, following the gem5 panic/fatal distinction:
 * panic() is an internal invariant violation, fatal() is a user error.
 */

#pragma once

#include <cstdarg>
#include <stdexcept>
#include <string>
#include <string_view>

namespace smappic
{

/** Thrown by panic(): the simulator itself violated an invariant. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user supplied an impossible configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Reports an internal simulator bug; never returns. */
[[noreturn]] void panic(const std::string &msg);

/** Reports an unrecoverable user/configuration error; never returns. */
[[noreturn]] void fatal(const std::string &msg);

/** Prints a non-fatal warning to stderr. */
void warn(const std::string &msg);

/** Prints an informational message to stderr. */
void inform(const std::string &msg);

/**
 * Fails with panic() when @p cond is true. The message is a view so a
 * literal costs nothing while the check passes; the std::string is built
 * only in the failing branch. A message built by the caller (strfmt, +)
 * is still built every time: keep those off per-access paths.
 */
inline void
panicIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        panic(std::string(msg));
}

/** Fails with fatal() when @p cond is true; see panicIf(). */
inline void
fatalIf(bool cond, std::string_view msg)
{
    if (cond) [[unlikely]]
        fatal(std::string(msg));
}

} // namespace smappic
