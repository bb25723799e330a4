/**
 * @file
 * Per-core decoded-instruction cache for the interpreter hot loop.
 *
 * The simulator's single hottest path is RvCore::step(): every retired
 * instruction re-walks the memory system for its fetch and re-runs the
 * decoder switch. On the dominant steady-state case — an untranslated
 * fetch whose line sits in the L1I — both walks are pure recomputation:
 * the timing outcome is always the L1I hit latency and the bytes cannot
 * have changed without a visible write. The decode cache memoizes exactly
 * that case: a direct-mapped, PC-indexed array of {fetched word, decoded
 * instruction} entries, each tied to a per-page write stamp of the
 * backing store (see mem::MainMemory::pageWriteStamp).
 *
 * Correctness contract (see docs/INTERNALS.md "Decode cache"):
 *  - An entry is served only while its page write stamp is unchanged, so
 *    any overlapping store/atomic/DMA/fabric write — all of which funnel
 *    through MainMemory — invalidates it functionally.
 *  - The core only consults the cache when the fetch would hit the L1I
 *    (MemPort::fetchFastHit), which replicates the hit path's timing and
 *    stat side effects exactly and inherits the coherence protocol's
 *    cross-tile invalidations (a remote store recalls the L1I line).
 *  - FENCE.I, SFENCE.VMA, satp writes and checkpoint restore flush the
 *    whole cache (O(1) generation bump).
 *  - The cache is transient state: RvCore::saveState writes nothing for
 *    it, restoreState flushes it, and its counters live outside the
 *    StatRegistry — checkpoint bytes, stat dumps and traces are
 *    byte-identical with the cache on or off.
 */

#pragma once

#include <atomic>
#include <cstdint>

#include "riscv/isa.hpp"
#include "sim/types.hpp"

namespace smappic::riscv
{

/**
 * A validity handle onto the bytes behind one fetched word: a pointer to
 * the backing page's monotonic write stamp plus the value observed when
 * the word was read. current() is false as soon as anything overwrote
 * the page. The stamp object outlives every page image (MainMemory keeps
 * stamp slots alive across restore/clear and bumps them), so the pointer
 * never dangles.
 */
struct CodeRef
{
    const std::atomic<std::uint64_t> *stamp = nullptr;
    std::uint64_t seen = 0;

    bool
    current() const
    {
        return stamp != nullptr &&
               stamp->load(std::memory_order_acquire) == seen;
    }
};

/** Decode-cache knobs (PrototypeConfig::core.decodeCache). */
struct DecodeCacheConfig
{
    bool enabled = true;
    /** Direct-mapped entry count; must be a power of two. The default
     *  covers a 16 KiB instruction working set per core. */
    std::uint32_t sets = 4096;
};

/**
 * Hit/miss bookkeeping. Deliberately plain counters, not StatRegistry
 * entries: registering them would change the stat dump's contents
 * depending on whether the cache is enabled, breaking the byte-identity
 * contract. Benches and tests read them through DecodeCache::stats().
 */
struct DecodeCacheStats
{
    std::uint64_t hits = 0;    ///< Fast path taken (entry + L1I hit).
    std::uint64_t misses = 0;  ///< No usable entry (cold or conflict).
    std::uint64_t bypasses = 0; ///< Entry current but L1I missed.
    std::uint64_t invalidations = 0; ///< Entry dropped on a stale stamp.
    std::uint64_t fills = 0;
    std::uint64_t flushes = 0; ///< Whole-cache flushes (FENCE.I, ...).
};

/** The per-core decoded-instruction cache. */
class DecodeCache
{
  public:
    struct Entry
    {
        Addr pc = 0;
        std::uint32_t word = 0;
        std::uint64_t gen = 0; ///< Valid only while == generation().
        DecodedInst inst{};
        CodeRef ref{};
        bool valid = false;
    };

    explicit DecodeCache(const DecodeCacheConfig &cfg);
    ~DecodeCache();

    // entries_ may point into the object itself (placeholder_).
    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    bool enabled() const { return enabled_; }
    /** The configured entry count, also before the table exists. */
    std::uint32_t sets() const { return sets_; }

    /**
     * Returns the live entry for @p pc, or nullptr. A tag match with a
     * stale write stamp is invalidated (and counted) on the way out.
     * Counts a miss on nullptr; the caller counts the hit or bypass once
     * it knows whether the L1I agreed (countHit / countBypass).
     */
    const Entry *
    find(Addr pc)
    {
        Entry &e = entries_[(pc >> 2) & mask_];
        if (e.valid && e.pc == pc && e.gen == gen_) {
            if (e.ref.current() || ignoreStaleStamps_)
                return &e;
            e.valid = false;
            ++stats_.invalidations;
        }
        ++stats_.misses;
        return nullptr;
    }

    /**
     * Test-only defeat switch (CoreTestMutation::kStaleDecode): serve
     * tag-matching entries even when their page write stamp is stale,
     * simulating a lost self-modifying-code invalidation so the lockstep
     * checker can prove it catches the defect class. Never set in
     * production.
     */
    void setIgnoreStaleStamps(bool on) { ignoreStaleStamps_ = on; }

    void countHit() { ++stats_.hits; }
    void countBypass() { ++stats_.bypasses; }

    /**
     * Installs @p pc's decoded word. @p ref must have been sampled
     * *before* the word was fetched, so a racing write can only make the
     * entry conservatively stale. A null-stamp ref (ports without
     * write-stamp support) is not cacheable and is dropped.
     */
    void
    fill(Addr pc, std::uint32_t word, const DecodedInst &inst,
         const CodeRef &ref)
    {
        if (!enabled_ || ref.stamp == nullptr)
            return;
        if (entries_ == &placeholder_) [[unlikely]]
            allocate();
        Entry &e = entries_[(pc >> 2) & mask_];
        e.pc = pc;
        e.word = word;
        e.inst = inst;
        e.ref = ref;
        e.gen = gen_;
        e.valid = true;
        ++stats_.fills;
    }

    /** Drops every entry (generation bump — O(1)). */
    void
    flush()
    {
        if (!enabled_)
            return;
        ++gen_;
        ++stats_.flushes;
    }

    const DecodeCacheStats &stats() const { return stats_; }

  private:
    /** Builds the full table (the first fill does). */
    void allocate();

    bool enabled_;
    bool ignoreStaleStamps_ = false;
    std::uint32_t sets_ = 1;
    /** Index mask into entries_: 0 while it is the placeholder. */
    std::uint32_t mask_ = 0;
    std::uint64_t gen_ = 0;
    DecodeCacheStats stats_;
    /** The one invalid entry find() reads until the table exists, and
     *  for good when the cache is off. */
    Entry placeholder_{};
    /** &placeholder_, or the sets_-entry table allocate() mapped. */
    Entry *entries_ = &placeholder_;
};

} // namespace smappic::riscv
