/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for every cache structure in the platform: L1I/L1D, the BYOC private
 * cache (BPC) and the LLC slices. The array tracks tags and a per-line
 * auxiliary state word; data is kept in the functional backing store, as is
 * usual for timing-directory models.
 *
 * Layout: three parallel set-major arrays (tags, aux states, LRU stamps).
 * A set's tags are contiguous, so a lookup reads one host cache line for a
 * 4- or 8-way set and compares tags only; a free way holds kInvalid, which
 * is never a line address. The lookup family is inline, because every
 * access of every core and guest worker runs it.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::cache
{

/** Result of probing or filling a CacheArray. */
struct Victim
{
    Addr line = 0;            ///< Base address of the evicted line.
    std::uint32_t state = 0;  ///< Its auxiliary state at eviction.
};

/** Set-associative array of line-granular entries. */
class CacheArray
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param ways Associativity.
     * @param line_bytes Line size (power of two, at least 2).
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
               std::uint32_t line_bytes = kCacheLineBytes);

    /** True when @p addr's line is present; updates LRU on hit. */
    bool
    lookup(Addr addr)
    {
        std::size_t i = find(addr);
        if (i == kNone)
            return false;
        stamps_[i] = ++useClock_;
        return true;
    }

    /**
     * True when @p addr's line is resident with aux state exactly
     * @p state, updating LRU as lookup() would; a miss or a state
     * mismatch mutates nothing. Single-scan fusion of
     * probe() + state() + lookup() for hit fast paths.
     */
    bool
    lookupIfState(Addr addr, std::uint32_t state)
    {
        std::size_t i = find(addr);
        if (i == kNone || states_[i] != state)
            return false;
        stamps_[i] = ++useClock_;
        return true;
    }

    /** True when present; does not touch LRU (snoop/inspection path). */
    bool probe(Addr addr) const { return find(addr) != kNone; }

    /** Returns the aux state of a resident line. @pre probe(addr). */
    std::uint32_t
    state(Addr addr) const
    {
        std::size_t i = find(addr);
        panicIf(i == kNone, "state() on non-resident line");
        return states_[i];
    }

    /** Sets the aux state of a resident line. @pre probe(addr). */
    void
    setState(Addr addr, std::uint32_t state)
    {
        std::size_t i = find(addr);
        panicIf(i == kNone, "setState() on non-resident line");
        states_[i] = state;
    }

    /**
     * Inserts @p addr's line (must not be resident), evicting the LRU way
     * if the set is full.
     * @return The victim, if one was evicted.
     */
    std::optional<Victim>
    insert(Addr addr, std::uint32_t state = 0)
    {
        return place(addr, state, false);
    }

    /**
     * insert() when @p addr's line is absent; otherwise changes nothing
     * (not even LRU order), like a probe() that hit. One set scan.
     * @return The victim, if one was evicted.
     */
    std::optional<Victim>
    insertIfAbsent(Addr addr, std::uint32_t state = 0)
    {
        return place(addr, state, true);
    }

    /**
     * The victim insert(@p addr) would evict right now, without
     * changing anything; none when the line is resident or its set has
     * a free way.
     */
    std::optional<Victim> victimFor(Addr addr) const;

    /** Removes a line if present; returns its state. */
    std::optional<std::uint32_t>
    invalidate(Addr addr)
    {
        std::size_t i = find(addr);
        if (i == kNone)
            return std::nullopt;
        tags_[i] = kInvalid;
        return states_[i];
    }

    /** Drops every line. */
    void flush();

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t lineBytes() const { return lineBytes_; }

    /** Number of resident lines (for inclusion/occupancy checks). */
    std::uint64_t occupancy() const;

    /** Invokes @p fn(line, state) for every resident line. */
    void forEachLine(
        const std::function<void(Addr, std::uint32_t)> &fn) const;

    /** Serializes the full array (tags, aux state, exact LRU order). */
    void saveState(snap::Writer &w) const;
    /** Restores into an identically shaped array (geometry-checked). */
    void restoreState(snap::Reader &r);

  private:
    /** Tag of a free way: all ones, never a line address (lines are
     *  aligned to at least 2 bytes). */
    static constexpr Addr kInvalid = ~Addr{0};
    static constexpr std::size_t kNone = ~std::size_t{0};

    Addr lineOf(Addr addr) const { return addr & ~Addr{lineBytes_ - 1}; }

    /** Index of @p addr's set's first way. */
    std::size_t
    setBase(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> lineShift_) & (sets_ - 1)) *
               ways_;
    }

    /** Index of @p addr's resident way, or kNone. */
    std::size_t
    find(Addr addr) const
    {
        Addr line = lineOf(addr);
        std::size_t base = setBase(addr);
        const Addr *tags = tags_.data() + base;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags[w] == line)
                return base + w;
        }
        return kNone;
    }

    /** Puts @p addr's line in its set's first free way, else in the LRU
     *  one. When the line is resident: no change if @p if_absent, else
     *  a panic. */
    std::optional<Victim> place(Addr addr, std::uint32_t state,
                                bool if_absent);

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint64_t useClock_ = 0;
    // sets_ * ways_ each, set-major.
    std::vector<Addr> tags_;
    std::vector<std::uint32_t> states_;
    std::vector<std::uint64_t> stamps_; ///< useClock_ at last touch.
};

} // namespace smappic::cache
