/**
 * @file
 * Guest operating-system model: the software layer whose behaviour the
 * paper's NUMA studies (sections 4.1, Figs 8-9) actually measure.
 *
 * Full Linux is out of scope for a simulated substrate; the observable
 * quantities in those experiments depend on exactly two kernel policies,
 * which this model implements faithfully:
 *
 *  1. Page placement. NUMA mode ON = first-touch allocation on the
 *     toucher's node (plus explicit on-node/interleave policies, as
 *     numactl offers). NUMA mode OFF = the kernel is oblivious to
 *     locality; pages land on nodes without regard to the toucher
 *     (modeled as seeded-random placement across nodes).
 *  2. Thread placement. Workers are pinned to tiles (taskset).
 *
 * Workers execute phase-structured workloads: within a phase each worker
 * runs with its own virtual clock, accumulating memory latencies from the
 * coherent system and explicit compute cycles; phases end with a barrier
 * (max of clocks + barrier cost), which is also where cross-thread data
 * handoff happens — matching the bulk-synchronous structure of the NPB
 * integer sort the paper runs.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/coherent_system.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace smappic::os
{

/** Kernel NUMA awareness (Fig 8/9's "NUMA mode"). */
enum class NumaMode : std::uint8_t
{
    kOn,  ///< First-touch local allocation.
    kOff, ///< Locality-oblivious allocation.
};

/** Explicit placement policies (numactl-style). */
enum class AllocPolicy : std::uint8_t
{
    kDefault,    ///< Follow the NumaMode.
    kFirstTouch, ///< Frame lands on the first toucher's node.
    kInterleave, ///< Round-robin across nodes.
    kOnNode,     ///< All frames on a fixed node.
};

class GuestSystem;

/**
 * One guest thread pinned to a tile. All memory operations go through the
 * coherent system and advance the worker's virtual clock.
 */
class Worker
{
  public:
    Worker(GuestSystem &os, GlobalTileId tile, Cycles start)
        : os_(os), tile_(tile), clock_(start)
    {
    }

    /** 64-bit load (data value from the functional store). */
    std::uint64_t load(Addr va, std::uint32_t bytes = 8);

    /** Store. */
    void store(Addr va, std::uint64_t value, std::uint32_t bytes = 8);

    /** Atomic fetch-add; returns the old value. */
    std::uint64_t amoAdd(Addr va, std::uint64_t delta);

    /** Non-cacheable load (device fetch). */
    std::uint64_t ncLoad(Addr va, std::uint32_t bytes = 8);

    /** Charges pure compute work (ALU cycles between memory ops). */
    void
    compute(Cycles cycles)
    {
        clock_ += cycles;
        maybeYield();
    }

    GlobalTileId tile() const { return tile_; }
    NodeId node() const;
    Cycles now() const { return clock_; }
    GuestSystem &os() { return os_; }

  private:
    friend class GuestSystem;

    /**
     * One entry of the translation and page cache: a VA page's frame and
     * its page in MainMemory, valid while both generations it was filled
     * under are current.
     */
    struct CachedPage
    {
        std::uint64_t vpn = ~std::uint64_t{0}; ///< No VA page has it.
        Addr frame = 0;
        mem::MainMemory::PageEntry *page = nullptr;
        std::uint64_t memGen = 0; ///< MainMemory::generation().
        std::uint64_t mapGen = 0; ///< GuestSystem's map generation.
    };
    /**
     * Direct-mapped, indexed by (vpn ^ (vpn >> 6)) % kCachedPages. The
     * fold spreads strided pages: under vpn % 64, pages 16 apart fall
     * on only 4 slots, and pages k and k + 64 always collide.
     */
    static constexpr std::size_t kCachedPages = 64;

    /**
     * Translates @p va for a functional access of @p bytes (1..8). On a
     * cache hit, sets @p page to the MainMemory page the access may use
     * directly. Otherwise leaves @p page null, translates through the
     * GuestSystem and caches the page when it qualifies: no device
     * window on it, and MainMemory::directPage() hands it out. An
     * access that crosses its page never hits.
     */
    Addr resolve(Addr va, std::uint32_t bytes,
                 mem::MainMemory::PageEntry *&page);

    /** Hands control to the lagging worker's fiber when this worker's
     *  clock has run a quantum past it (keeps shared-resource arrival
     *  times approximately sorted). One compare below the threshold;
     *  defined after GuestSystem. */
    void maybeYield();

    /** maybeYield() past the running worker's threshold: yields when
     *  this worker is the running one. */
    void yieldPastThreshold();

    GuestSystem &os_;
    GlobalTileId tile_;
    Cycles clock_;
    std::array<CachedPage, kCachedPages> pages_{};
};

/** The guest system: one address space plus a phase scheduler. */
class GuestSystem
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    GuestSystem(cache::CoherentSystem &cs, NumaMode mode,
                std::uint64_t seed = 1);

    /**
     * Reserves a virtual range. Frames are bound lazily on first touch
     * according to @p policy (or eagerly for kInterleave/kOnNode).
     * @return Base virtual address (page aligned).
     */
    Addr vmAlloc(std::uint64_t bytes, AllocPolicy policy =
                                          AllocPolicy::kDefault,
                 NodeId node = 0);

    /** Node currently backing @p va, or -1 if untouched. */
    std::int32_t pageNode(Addr va) const;

    /**
     * Runs one bulk-synchronous parallel phase: @p body is executed once
     * per tile in @p tiles, each on its own Worker. The phase ends with a
     * barrier; the system clock advances to max(worker clocks) + barrier
     * cost.
     */
    void parallelPhase(const std::vector<GlobalTileId> &tiles,
                       const std::function<void(Worker &)> &body);

    /** Runs @p body on a single tile (sequential section). */
    void serialSection(GlobalTileId tile,
                       const std::function<void(Worker &)> &body);

    /** Virtual time elapsed since construction. */
    Cycles elapsed() const { return clock_; }

    NumaMode mode() const { return mode_; }
    cache::CoherentSystem &memorySystem() { return cs_; }

    /** Translates; binds a frame if unmapped (first touch by @p toucher). */
    Addr translate(Addr va, NodeId toucher);

    /**
     * Identity-maps a device window (MMIO is not paged); accesses within
     * it translate to themselves. Ends every Worker's cached pages.
     */
    void mapDeviceIdentity(Addr base, std::uint64_t size);

    /** Pages bound on each node so far (for tests/ablation). */
    std::vector<std::uint64_t> pagesPerNode() const;

    /** Barrier overhead added at each phase boundary. */
    Cycles barrierCost() const { return barrierCost_; }
    void setBarrierCost(Cycles c) { barrierCost_ = c; }

  private:
    struct VmRange
    {
        Addr base;
        std::uint64_t pages;
        AllocPolicy policy;
        NodeId node; ///< For kOnNode.
    };

    Addr frameOn(NodeId node);
    const VmRange *rangeOf(Addr va) const;
    /** True when [base, base + size) overlaps a device window. */
    bool overlapsDevice(Addr base, std::uint64_t size) const;

    cache::CoherentSystem &cs_;
    NumaMode mode_;
    sim::Xoroshiro rng_;

    Addr nextVa_ = 0x40000000; ///< Clear of the platform MMIO map.
    std::vector<VmRange> ranges_;
    std::vector<std::pair<Addr, std::uint64_t>> deviceRanges_;
    std::unordered_map<std::uint64_t, Addr> pageTable_; ///< vpn -> frame.
    /** Bumped when a translation may change: page table entries are
     *  only ever added, but a new device window overrides them. */
    std::uint64_t mapGeneration_ = 0;
    std::vector<Addr> nextFrame_; ///< Bump allocator per node.
    std::vector<std::uint64_t> pagesOnNode_;
    std::uint32_t interleaveNext_ = 0;

    Cycles clock_ = 0;
    Cycles barrierCost_ = 200;

    // Phase-scheduler state (fiber interleaving; see .cpp).
    friend class Worker;
    struct PhaseScheduler;
    PhaseScheduler *scheduler_ = nullptr;
    /** The worker whose fiber runs, and the clock past which it yields;
     *  null and no limit outside a phase. Set by the scheduler's pick. */
    Worker *running_ = nullptr;
    Cycles yieldAt_ = ~Cycles{0};
    /** Fiber stacks, one per task of the widest phase so far; every
     *  phase reuses them. */
    std::vector<std::unique_ptr<std::uint8_t[]>> fiberStacks_;

    /** Virtual-time quantum between scheduler yields within a phase. */
    Cycles quantum_ = 150;
};

inline void
Worker::maybeYield()
{
    // Whether this is the running worker is asked only past the
    // threshold; outside a phase there is none.
    if (clock_ > os_.yieldAt_) [[unlikely]]
        yieldPastThreshold();
}

} // namespace smappic::os
