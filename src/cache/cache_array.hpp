/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for every cache structure in the platform: L1I/L1D, the BYOC private
 * cache (BPC), LLC slices, and the TLBs of the RISC-V core model. The array
 * tracks tags and a per-line auxiliary state word; data is kept in the
 * functional backing store, as is usual for timing-directory models.
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
     * @param line_bytes Line size (power of two).
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
               std::uint32_t line_bytes = kCacheLineBytes);

    /** True when @p addr's line is present; updates LRU on hit. */
    bool lookup(Addr addr);

    /**
     * True when @p addr's line is resident with aux state exactly
     * @p state, updating LRU as lookup() would; a miss or a state
     * mismatch mutates nothing. Single-scan fusion of
     * probe() + state() + lookup() for hit fast paths.
     */
    bool lookupIfState(Addr addr, std::uint32_t state);

    /** True when present; does not touch LRU (snoop/inspection path). */
    bool probe(Addr addr) const;

    /** Returns the aux state of a resident line. @pre probe(addr). */
    std::uint32_t state(Addr addr) const;

    /** Sets the aux state of a resident line. @pre probe(addr). */
    void setState(Addr addr, std::uint32_t state);

    /**
     * Inserts @p addr's line (must not be resident), evicting the LRU way
     * if the set is full.
     * @return The victim, if one was evicted.
     */
    std::optional<Victim> insert(Addr addr, std::uint32_t state = 0);

    /**
     * The victim insert(@p addr) would evict right now, without
     * changing anything; none when the line is resident or its set has
     * a free way.
     */
    std::optional<Victim> victimFor(Addr addr) const;

    /** Removes a line if present; returns its state. */
    std::optional<std::uint32_t> invalidate(Addr addr);

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
    struct Entry
    {
        Addr line = 0;
        std::uint32_t state = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t setIndex(Addr addr) const;
    Entry *find(Addr addr);
    const Entry *find(Addr addr) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint64_t useClock_ = 0;
    std::vector<Entry> entries_; ///< sets_ * ways_, set-major.
};

} // namespace smappic::cache
