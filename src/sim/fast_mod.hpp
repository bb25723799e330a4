/**
 * @file
 * Exact remainder by a divisor fixed at run time, without a divide
 * instruction.
 */

#pragma once

#include <cstdint>

namespace smappic::sim
{

/**
 * x % d for any 64-bit x and a d > 0 fixed at construction, computed
 * with multiplications: Lemire, Kaser and Kurz, "Faster Remainder by
 * Direct Computation" (2019), with a 128-bit reciprocal, which is exact
 * for every 64-bit x and d. A hardware 64-bit divide costs tens of
 * cycles; this costs a few multiplies.
 */
class FastMod
{
  public:
    /** @pre @p divisor > 0. */
    explicit FastMod(std::uint64_t divisor)
        : d_(divisor), m_(~Wide{0} / divisor + 1)
    {
    }

    std::uint64_t
    operator()(std::uint64_t x) const
    {
        // The fractional part of x / d, then its top bits times d.
        Wide low = m_ * x;
        Wide bottom = (static_cast<std::uint64_t>(low) * Wide{d_}) >> 64;
        Wide top = (low >> 64) * d_;
        return static_cast<std::uint64_t>((bottom + top) >> 64);
    }

    std::uint64_t divisor() const { return d_; }

  private:
    using Wide = unsigned __int128;

    std::uint64_t d_;
    Wide m_; ///< ceil(2^128 / d), wrapped to 0 for d == 1.
};

} // namespace smappic::sim
