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
     * exclusive. Off by default — a one-worker run pays nothing. Either
     * way it ends every direct page access (see generation()).
     */
    void
    setConcurrent(bool on)
    {
        concurrent_ = on;
        ++generation_;
    }

    /** One materialized page. Callers outside this class hold it only
     *  as a directPage() handle for loadFrom()/storeTo(). */
    struct PageEntry
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t epoch = 0; ///< Epoch of the last write.
        /** Cached pointer into stamps_ (lazily wired by touchPage). */
        std::atomic<std::uint64_t> *stamp = nullptr;
    };

    /**
     * Direct access for translation caches (os::Worker): @p addr's page,
     * or null when the memory is concurrent, the page is not
     * materialized, or its write stamp is not wired yet (the next
     * store() wires it). The handle skips the page-map lookup and stays
     * valid while generation() is unchanged.
     */
    PageEntry *directPage(Addr addr);

    /** Bumped by clear(), restoreState() and setConcurrent(): each ends
     *  every directPage() handle taken before it. */
    std::uint64_t generation() const { return generation_; }

    /** load() of @p bytes (1..8) at offset @p off of a directPage(); the
     *  access must not cross the page. The common 8-byte width copies a
     *  constant size, which compiles to one move instead of a call. */
    static std::uint64_t
    loadFrom(const PageEntry &page, std::uint64_t off, std::uint32_t bytes)
    {
        std::uint64_t value = 0;
        if (bytes == 8)
            std::memcpy(&value, page.bytes.data() + off, 8);
        else
            std::memcpy(&value, page.bytes.data() + off, bytes);
        return value;
    }

    /** store() of @p bytes (1..8) at offset @p off of a directPage(),
     *  with the same epoch and write-stamp bookkeeping. */
    void
    storeTo(PageEntry &page, std::uint64_t off, std::uint32_t bytes,
            std::uint64_t value)
    {
        markWritten(page);
        if (bytes == 8)
            std::memcpy(page.bytes.data() + off, &value, 8);
        else
            std::memcpy(page.bytes.data() + off, &value, bytes);
    }

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
    const PageEntry *findPage(std::uint64_t idx) const;
    PageEntry &touchPage(std::uint64_t idx);

    /** Every write's bookkeeping on a page with a wired stamp: the page
     *  joins the current epoch, and its stamp is bumped *before* the
     *  caller changes the bytes, so a CodeRef sampled around the write
     *  can only go conservatively stale, never miss it. */
    void
    markWritten(PageEntry &page)
    {
        page.epoch = epoch_;
        page.stamp->fetch_add(1, std::memory_order_release);
    }
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
    std::uint64_t generation_ = 0;
    bool concurrent_ = false;
    mutable std::shared_mutex mu_;
};

} // namespace smappic::mem
