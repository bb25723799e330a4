/**
 * @file
 * Command-line parsing shared by the tools: one strict number parser,
 * one flag-operand accessor and check_run's campaign flags. Every parse
 * error throws UsageError; each tool's main() prints it with its usage
 * and exits 2.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace smappic::check
{
struct Campaign;
} // namespace smappic::check

namespace smappic::cli
{

struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Strict unsigned parse of @p text, the operand of @p what: decimal or
 *  0x-hex, the whole operand, within [min, max]. "12x", "", "-1" or an
 *  overflowing literal throw instead of reading as 0. */
std::uint64_t
parseU64(std::string_view what, const std::string &text,
         std::uint64_t min = 0,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** The operand of the flag at args[i]; advances @p i past it. */
const std::string &flagValue(const std::vector<std::string> &args,
                             std::size_t &i);

/** Parses `check_run <kind> [flags]` (@p args excludes the program
 *  name). A kind rejects a flag it cannot honour. */
check::Campaign parseCampaign(const std::vector<std::string> &args);

} // namespace smappic::cli
