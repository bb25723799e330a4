/**
 * @file
 * Sparse functional backing store for the prototype's unified physical
 * address space. Timing is handled elsewhere (CoherentSystem / DRAM model);
 * this class only holds bytes.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::mem
{

/** Flat sparse byte-addressable memory. */
class MainMemory
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    /** Reads @p len bytes at @p addr into @p out. Unwritten bytes are 0. */
    void readBytes(Addr addr, void *out, std::uint64_t len) const;

    /** Writes @p len bytes from @p in at @p addr. */
    void writeBytes(Addr addr, const void *in, std::uint64_t len);

    /** Zero-extending little-endian load of @p bytes (1..8). */
    std::uint64_t load(Addr addr, std::uint32_t bytes) const;

    /** Little-endian store of the low @p bytes of @p value (1..8). */
    void store(Addr addr, std::uint32_t bytes, std::uint64_t value);

    /** Number of materialized 4 KiB pages (for footprint checks). */
    std::size_t pagesAllocated() const { return pages_.size(); }

    /** Drops all contents (and invalidates every page write stamp). */
    void clear();

    /**
     * Monotonic write stamp of @p addr's page, bumped *before* every
     * overlapping write — stores, atomics, DMA, bridge traffic and
     * loaders all funnel through writeBytes/store, so a reader holding
     * {&stamp, observed value} (riscv::CodeRef) can prove bytes it read
     * are still current. Stamp slots are never deallocated and survive
     * clear()/restoreState() (both bump every slot), so the reference
     * outlives any page image and never dangles. Stamps are transient
     * bookkeeping like the dirty epochs: saveState does not write them.
     */
    const std::atomic<std::uint64_t> &pageWriteStamp(Addr addr);

    /**
     * Enables (or disables) internal locking so node phases running on
     * several workers may load/store concurrently: reads share, writes
     * (which may materialize pages and rehash the page table) are
     * exclusive. Off by default — a one-worker run pays nothing.
     */
    void setConcurrent(bool on) { concurrent_ = on; }

    /**
     * Starts a new dirty-tracking epoch and returns its id. Pages written
     * from now on carry the new epoch, so checkpoint tooling can ask how
     * much of the image changed between snapshots without hashing it.
     */
    std::uint64_t beginEpoch() { return ++epoch_; }

    /** Current dirty-tracking epoch (0 until the first beginEpoch()). */
    std::uint64_t epoch() const { return epoch_; }

    /** Pages whose last write happened at epoch >= @p since. */
    std::size_t pagesDirtySince(std::uint64_t since) const;

    /** Serializes every materialized page, sorted by page index. Dirty
     *  epochs are bookkeeping, not state: they are not written. */
    void saveState(snap::Writer &w) const;
    /** Replaces the entire contents with the serialized image and resets
     *  dirty tracking to epoch 0. */
    void restoreState(snap::Reader &r);

  private:
    struct PageEntry
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t epoch = 0; ///< Epoch of the last write.
        /** Cached pointer into stamps_ (lazily wired by touchPage). */
        std::atomic<std::uint64_t> *stamp = nullptr;
    };

    const PageEntry *findPage(std::uint64_t idx) const;
    PageEntry &touchPage(std::uint64_t idx);
    std::atomic<std::uint64_t> &stampSlot(std::uint64_t idx);
    void bumpAllStamps();

    std::shared_lock<std::shared_mutex>
    readLock() const
    {
        return concurrent_ ? std::shared_lock(mu_)
                           : std::shared_lock<std::shared_mutex>();
    }
    std::unique_lock<std::shared_mutex>
    writeLock()
    {
        return concurrent_ ? std::unique_lock(mu_)
                           : std::unique_lock<std::shared_mutex>();
    }

    void readBytesImpl(Addr addr, void *out, std::uint64_t len) const;
    void writeBytesImpl(Addr addr, const void *in, std::uint64_t len);

    std::unordered_map<std::uint64_t, PageEntry> pages_;
    /** Per-page write stamps; slots are created on demand and never
     *  destroyed, so pointers handed out stay valid forever. */
    std::unordered_map<std::uint64_t,
                       std::unique_ptr<std::atomic<std::uint64_t>>>
        stamps_;
    std::uint64_t epoch_ = 0;
    bool concurrent_ = false;
    mutable std::shared_mutex mu_;
};

} // namespace smappic::mem
