/**
 * @file
 * Transaction-level model of the BYOC coherent memory system as configured
 * by SMAPPIC: per-tile private caches (L1I/L1D + BPC), a distributed shared
 * LLC with a precise MESI-style directory, SMAPPIC's all-node line homing,
 * per-node NoC meshes, and the inter-node bridge + PCIe path for remote
 * transactions.
 *
 * Every memory access walks the real protocol state machines (fills,
 * invalidations, owner forwards, inclusive-LLC recalls) and accumulates
 * latency from calibrated pipeline constants plus queueing at shared
 * resources (LLC slices, DRAM channels, bridge/PCIe links). The calibration
 * targets the paper's measured numbers: ~100-cycle intra-node and ~250-cycle
 * inter-node round trips (Fig. 7) with an 80-cycle DRAM latency and a
 * 125-cycle PCIe round trip (Table 2).
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hpp"
#include "mem/main_memory.hpp"
#include "noc/topology.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::obs
{
class Tracer;
}

namespace smappic::cache
{

/** Kind of memory operation issued by a core or accelerator. */
enum class AccessType : std::uint8_t
{
    kLoad,    ///< Cacheable read.
    kStore,   ///< Cacheable write.
    kAtomic,  ///< Atomic read-modify-write (performed at the home LLC).
    kFetch,   ///< Instruction fetch.
    kNcLoad,  ///< Non-cacheable read (devices, accelerator FIFOs).
    kNcStore, ///< Non-cacheable write.
};

/** Where an access was ultimately serviced (for stats and tests). */
enum class ServiceLevel : std::uint8_t
{
    kL1,         ///< L1I/L1D hit.
    kPrivate,    ///< BPC hit.
    kLlcLocal,   ///< Home LLC slice on the requester's node.
    kLlcRemote,  ///< Home LLC slice on another node.
    kDramLocal,  ///< Missed LLC; DRAM on the requester's node.
    kDramRemote, ///< Missed LLC; DRAM on another node.
    kDevice,     ///< Non-cacheable device window.
};

/** Line-homing policies selectable in SMAPPIC. */
enum class HomingPolicy : std::uint8_t
{
    /**
     * SMAPPIC default: the home node is the node whose DRAM backs the
     * address; the home tile within that node is a line hash. Works out of
     * the box with OS NUMA support (the device tree exposes per-node
     * memory ranges).
     */
    kAddressNode,
    /** Literal global hash across every tile of every node. */
    kGlobalHash,
    /** Everything homed on node 0 (single-home baseline/ablation). */
    kNode0,
    /**
     * Coherence Domain Restriction (Fu et al., MICRO'15): the mechanism
     * BYOC originally required for multi-chip operation and that
     * SMAPPIC's homing change replaces. Each node is a coherence domain;
     * lines are cacheable only inside their own node's domain, and
     * accesses from other nodes bypass the caches as uncached remote
     * operations (the hardware/software burden the paper's "works out of
     * the box" claim contrasts against).
     */
    kCoherenceDomains,
};

/** Geometry of the prototyped system (Table 2 defaults). */
struct Geometry
{
    std::uint32_t nodes = 1;
    std::uint32_t tilesPerNode = 1;
    Addr dramBase = 0;                      ///< Start of DRAM addressing.
    std::uint64_t memPerNode = 16ULL << 30; ///< One F1 DRAM channel.

    std::uint64_t l1iBytes = 16 << 10;
    std::uint32_t l1iWays = 4;
    std::uint64_t l1dBytes = 8 << 10;
    std::uint32_t l1dWays = 4;
    std::uint64_t bpcBytes = 8 << 10;
    std::uint32_t bpcWays = 4;
    std::uint64_t llcSliceBytes = 64 << 10;
    std::uint32_t llcWays = 4;

    std::uint32_t totalTiles() const { return nodes * tilesPerNode; }
};

/**
 * Latency/bandwidth calibration. Defaults reproduce the paper's measured
 * characteristics at 100 MHz (see file comment).
 */
struct TimingParams
{
    Cycles l1HitLatency = 1;
    Cycles l1MissDetect = 2;
    Cycles privLatency = 8;      ///< BPC lookup/response.
    Cycles privFillLatency = 8;  ///< Fill into BPC + L1 + load-to-use.
    Cycles nocInject = 4;        ///< Serializer + first router.
    Cycles hopLatency = 3;       ///< Per mesh hop (router + link).
    Cycles llcLatency = 60;      ///< LLC pipeline incl. directory.
    Cycles llcOccupancy = 1;     ///< Pipelined slice: 1 req/cycle.
    Cycles llcEvictPenalty = 12; ///< Inclusive-LLC recall overhead.
    Cycles dramLatency = 80;     ///< Table 2.
    /** DDR4-2133 moves ~17 GB/s = ~170 B per 100 MHz target cycle; FPGA
     *  prototypes are latency- not bandwidth-bound (the cores are slow
     *  relative to the memory), which Fig 9's trends depend on. */
    double dramBytesPerCycle = 160.0;
    std::uint32_t dramBanks = 16; ///< DDR4 bank-level parallelism.
    Cycles bridgeLatency = 4;    ///< NoC<->AXI4 (de)encapsulation.
    /** One 3-flit AXI write per cycle through the bridge. */
    double bridgeBytesPerCycle = 24.0;
    Cycles pcieRtt = 125;        ///< Table 2 inter-node round trip.
    /** PCIe Gen3 x16 is ~15.75 GB/s (~160 B/cycle at 100 MHz); the
     *  encapsulation overhead brings the effective rate down. */
    double pcieBytesPerCycle = 64.0;
    Cycles deviceLatency = 8;    ///< Default NC device service time.

    Cycles pcieOneWay() const { return (pcieRtt + 1) / 2; }
};

/** Outcome of one timed access. */
struct AccessResult
{
    Cycles latency = 0;
    ServiceLevel level = ServiceLevel::kL1;
    bool crossedNode = false;
    /**
     * Non-null only when a test mutation (see TestMutation) left this
     * tile with a stale private copy: points at the 64-byte line image
     * the tile still sees. Callers that carry data (the core ports) must
     * read from it instead of the up-to-date functional memory.
     */
    const std::uint8_t *staleData = nullptr;
};

/** Protocol-level transition kinds reported to a CoherenceObserver. */
enum class CoherenceEventKind : std::uint8_t
{
    kLoadMiss,  ///< Load/fetch serviced beyond the private hierarchy.
    kStoreMiss, ///< Store acquiring ownership (miss or S->M upgrade).
    kAtomic,    ///< Atomic executed at the home LLC slice.
    kFlush,     ///< flushPrivate() completed for a tile.
};

/** One protocol state transition, as seen by an observer. */
struct CoherenceEvent
{
    CoherenceEventKind kind;
    Addr line;        ///< Line the transition acted on.
    GlobalTileId gid; ///< Requesting (or flushed) tile.
    Cycles now;       ///< Virtual time the request was issued.
};

/**
 * Observer hooked into CoherentSystem: notified after every protocol
 * state transition (miss-path transactions and flushes; pure hits change
 * no protocol state). Notifications run inside the system's shared-state
 * critical section under the phased engine, so observers may inspect
 * directory/cache state without extra locking. Null observer = zero cost
 * beyond one pointer test per transition.
 */
class CoherenceObserver
{
  public:
    virtual ~CoherenceObserver() = default;
    virtual void onEvent(const CoherenceEvent &ev) = 0;
};

/** One tile's view of a line (for invariant checkers). */
struct TileLineView
{
    bool inL1d = false;
    bool inL1i = false;
    bool inBpc = false;
    std::uint32_t bpcState = 0; ///< kLineShared/kLineModified when inBpc.
};

/** Full cross-cutting snapshot of one line's coherence state. */
struct LineView
{
    bool hasDirEntry = false;
    std::uint64_t sharers = 0; ///< Directory sharer mask.
    std::int32_t owner = -1;   ///< Directory owner, or -1.
    bool inLlc = false;        ///< Directory's LLC-residency bit.
    bool dirty = false;
    bool homeSliceHolds = false; ///< Home LLC array actually has the line.
    NodeId homeNode = 0;
    TileId homeTile = 0;
    std::vector<TileLineView> tiles; ///< Indexed by GlobalTileId.
};

/**
 * Deliberate protocol bugs for harness self-tests: each mutation breaks
 * one directory transition on one specific line so the correctness
 * tooling (online checker, litmus suite) can prove it would catch a real
 * bug. kNone (the default) leaves every path untouched.
 */
enum class TestMutation : std::uint8_t
{
    kNone,
    /**
     * The first sharer invalidation on the armed line is "lost": the
     * directory believes the copy is gone but the tile keeps serving a
     * stale image of the line (classic dropped-invalidation bug).
     */
    kLostInvalidation,
    /** A store miss forgets to record the new owner in the directory. */
    kDropOwnerUpdate,
};

/** A non-cacheable device mapped into the address space at some tile. */
class NcDevice
{
  public:
    virtual ~NcDevice() = default;

    /**
     * Handles a non-cacheable load.
     * @param offset Byte offset within the device window.
     * @param bytes Access width.
     * @param now Arrival time at the device.
     * @param service Out-parameter: device service latency in cycles.
     * @return The loaded value.
     */
    virtual std::uint64_t ncLoad(Addr offset, std::uint32_t bytes, Cycles now,
                                 Cycles &service) = 0;

    /** Handles a non-cacheable store (see ncLoad for parameters). */
    virtual void ncStore(Addr offset, std::uint32_t bytes,
                         std::uint64_t value, Cycles now, Cycles &service) = 0;
};

/**
 * The coherent multi-node memory system.
 *
 * Tiles are addressed by GlobalTileId = node * tilesPerNode + tile. The
 * class is deliberately single-threaded: callers (the guest-OS thread
 * scheduler, the RISC-V cores) serialize accesses in virtual-time order.
 */
class CoherentSystem
{
  public:
    /** Private-cache line states (CacheArray aux words; also in LineView). */
    static constexpr std::uint32_t kLineShared = 1;
    static constexpr std::uint32_t kLineModified = 2;

    CoherentSystem(const Geometry &geo, const TimingParams &timing,
                   HomingPolicy homing, sim::StatRegistry *stats = nullptr);

    /** Performs the timing/state walk for one access. */
    AccessResult access(GlobalTileId gid, Addr addr, AccessType type,
                        std::uint32_t bytes, Cycles now);

    /**
     * Decode-cache fast path for instruction fetches: when @p addr hits
     * @p gid's L1I, replays exactly the side effects the full access()
     * walk would have on that hit — the L1I LRU touch and the
     * "cs.l1.hits" increment — and returns true with @p lat set to the
     * L1 hit latency. Returns false (having mutated nothing; a missing
     * lookup() leaves the LRU untouched) when the fetch must take the
     * full walk: L1I miss, or any test mutation armed (the stale-data
     * plumbing lives on the slow path). An L1I hit implies the line is
     * neither a device window nor CDR-remote — those never fill the L1I
     * — so the skipped prefix of access() is provably side-effect-free.
     */
    bool fetchFastHit(GlobalTileId gid, Addr addr, Cycles &lat);

    /**
     * Data fast path for scalar loads: when @p addr hits @p gid's L1D,
     * replays exactly the side effects the full access() walk would
     * have on that hit — the L1D LRU touch and the "cs.l1.hits"
     * increment — and returns true with @p lat set to the L1 hit
     * latency. Returns false (having mutated nothing) when the load
     * must take the full walk: L1D miss, any test mutation armed (the
     * stale-data plumbing lives on the slow path), or a coherence
     * observer attached (observers contract to see every full
     * transition). An L1D hit implies the line is neither a device
     * window nor NC nor CDR-remote — none of those ever fill the L1D —
     * so the skipped prefix of access() is provably side-effect-free.
     */
    bool loadFastHit(GlobalTileId gid, Addr addr, Cycles &lat);

    /**
     * Data fast path for scalar stores: when @p gid's BPC already owns
     * @p addr's line in M, replays exactly the side effects the full
     * access() walk would have on that store hit — the BPC (and, when
     * resident, L1D) LRU touches and the "cs.l1.storeHits" increment —
     * and returns true with @p lat set to the L1 hit latency. Returns
     * false (having mutated nothing) on any other line state, an armed
     * test mutation, or an attached observer; the caller then runs the
     * full access(). M ownership implies exclusivity, so no recall,
     * directory or tracer activity is skipped.
     */
    bool storeFastHit(GlobalTileId gid, Addr addr, Cycles &lat);

    /** Functional backing store (data plane). */
    mem::MainMemory &memory() { return memory_; }
    const mem::MainMemory &memory() const { return memory_; }

    /**
     * Maps @p dev at [base, base+size) attached to @p gid's position for
     * path-latency purposes. Cacheable accesses to the window are treated
     * as non-cacheable, as BYOC does for device space.
     */
    void addDevice(Addr base, std::uint64_t size, GlobalTileId gid,
                   NcDevice *dev);

    /** Node whose DRAM channel backs @p addr. */
    NodeId addrNode(Addr addr) const;

    /** Home (node, tile) of @p addr's line under the active policy. */
    std::pair<NodeId, TileId> homeOf(Addr addr) const;

    const Geometry &geometry() const { return geo_; }
    const TimingParams &timing() const { return timing_; }
    HomingPolicy homing() const { return homing_; }

    /** Drops all cached state (directory, arrays); keeps data. */
    void flushCaches();

    /**
     * Drops one tile's private (L1 + BPC) contents, updating the directory;
     * dirty lines are written back to their home LLC. Used by latency
     * probes that need repeatable cold private caches.
     */
    void flushPrivate(GlobalTileId gid);

    /**
     * Installs (or clears, with nullptr) the transition observer. The
     * observer is invoked synchronously from the miss path and from
     * flushPrivate(), inside the shared-state critical section.
     */
    void setObserver(CoherenceObserver *observer) { observer_ = observer; }

    /**
     * Attaches the platform tracer (null to detach). The system fires
     * kCacheMiss/kCacheAtomic events on the miss path and kNocPath events
     * for every transaction-level NoC traversal; each trace point costs
     * one null test when its component is disabled.
     */
    void setTracer(obs::Tracer *tracer);

    /** Cross-cutting snapshot of @p addr's line for invariant checks. */
    LineView inspectLine(Addr addr) const;

    /**
     * Invokes @p fn once per line known to any structure — directory
     * entries, LLC slices and private arrays (full-system sweeps).
     */
    void forEachKnownLine(const std::function<void(Addr)> &fn) const;

    /**
     * Arms a deliberate protocol bug on @p line (test-only; see
     * TestMutation). kNone disarms. Armed mutations relax the internal
     * eviction-path panics for the broken line — reporting the damage is
     * the invariant checker's job.
     */
    void setTestMutation(TestMutation mutation, Addr line);

    /** True when a lost invalidation left a tile with a stale copy. */
    bool staleCopyActive() const { return staleFired_; }

    /** Invariant: every L1 line is also in its BPC. */
    bool checkInclusion() const;

    /**
     * Invariant: the directory is precise — for every tile, the set of
     * lines resident in its BPC equals the set of lines whose directory
     * entry names the tile as sharer or owner, and owned lines have no
     * other sharers.
     */
    bool checkDirectory() const;

    /** Per-system stats live under the "cs." prefix in the registry. */
    sim::StatRegistry &stats() { return *stats_; }

    /**
     * Enables (or disables) parallel-phase locking. When on, the paths
     * that touch state shared between nodes — device windows, NC memory
     * operations and the whole miss path (directory, LLC/DRAM servers,
     * bridge shapers) — serialize on one recursive mutex, while L1/BPC
     * hits take only their own tile's lock (the phased engine confines
     * a tile's accesses to one worker, but a *peer's* miss path recalls
     * lines from this tile's arrays mid-quantum, so hits cannot go
     * entirely lock-free — see tileGuard()). Off by default: the
     * sequential engine pays one branch per access.
     */
    void setParallel(bool on) { parallel_ = on; }

    /**
     * The shared-state lock as an RAII guard (empty when parallel mode is
     * off). Exposed so platform code touching devices outside access() —
     * e.g. ecall console I/O — can join the same critical section. The
     * mutex is recursive: device handlers may re-enter (UART IRQ ->
     * PLIC -> packetizer) while the device path holds it.
     */
    std::unique_lock<std::recursive_mutex>
    parallelGuard()
    {
        return parallel_ ? std::unique_lock(mu_)
                         : std::unique_lock<std::recursive_mutex>();
    }

    /**
     * Per-tile private-array lock as an RAII guard (empty when parallel
     * mode is off). A tile's hit paths — the in-line L1/BPC hit cases of
     * access() and the fetch/load/store fast paths — hold their own
     * tile's guard; a miss path mutating a *different* tile's arrays
     * (recall invalidations, owner downgrades) holds that tile's guard.
     * Without it, a peer's recall races the owner's concurrent lookup on
     * the same CacheArray bytes — a real data race that made phased
     * cross-node-sharing runs nondeterministic. Lock order is strictly
     * mu_ -> tile (hit paths never take mu_; miss paths take tile guards
     * one at a time under mu_), so no cycle is possible.
     */
    std::unique_lock<std::mutex>
    tileGuard(GlobalTileId gid)
    {
        return parallel_ ? std::unique_lock(tileMu_[gid])
                         : std::unique_lock<std::mutex>();
    }

    /** Total DRAM-channel queueing observed (for congestion tests). */
    Cycles dramQueuedCycles(NodeId node) const
    {
        return dramServer_.at(node).queuedCycles();
    }

    /**
     * Serializes the directory, every cache array and the shared-resource
     * servers/shapers. The functional memory image is a separate
     * checkpoint section (MainMemory::saveState); test-mutation state is
     * transient harness plumbing and is not captured.
     */
    void saveState(snap::Writer &w) const;
    /** Restores into an identically configured system. */
    void restoreState(snap::Reader &r);

  private:
    // Short aliases for the public line states. LLC aux word bit 0 = dirty.
    static constexpr std::uint32_t kShared = kLineShared;
    static constexpr std::uint32_t kModified = kLineModified;

    struct DirEntry
    {
        std::uint64_t sharers = 0; ///< Bit per global tile (S copies).
        std::int32_t owner = -1;   ///< Global tile holding M, or -1.
        bool inLlc = false;        ///< Data resident in the home slice.
        bool dirty = false;        ///< LLC copy newer than DRAM.
    };

    struct DeviceWindow
    {
        Addr base;
        std::uint64_t size;
        GlobalTileId gid;
        NcDevice *dev;
    };

    GlobalTileId gidOf(NodeId node, TileId tile) const
    {
        return node * geo_.tilesPerNode + tile;
    }
    NodeId nodeOf(GlobalTileId gid) const { return gid / geo_.tilesPerNode; }
    TileId tileOf(GlobalTileId gid) const { return gid % geo_.tilesPerNode; }

    /**
     * Advances a message from (sn,st) to (dn,dt) starting at absolute time
     * @p t, consuming bandwidth on shared links.
     * @return Arrival time at the destination.
     */
    Cycles nocPath(NodeId sn, TileId st, NodeId dn, TileId dt,
                   std::uint32_t bytes, Cycles t, bool *crossed = nullptr);

    /** Emits a kNocPath trace event covering [start, end). */
    void traceNocPath(NodeId sn, TileId st, NodeId dn, TileId dt,
                      std::uint32_t bytes, Cycles start, Cycles end,
                      bool crossed);

    /** DRAM access at @p node arriving at @p t; returns completion time. */
    Cycles dramAccess(NodeId node, std::uint32_t bytes, Cycles t);

    /** Ensures the line is resident in its home LLC slice (fills on miss).
     *  Returns completion time; sets @p from_dram. */
    Cycles llcEnsureResident(Addr line, NodeId hn, TileId ht, Cycles t,
                             bool &from_dram);

    /** Recalls every private copy of @p line (invalidation fan-out).
     *  Returns the time the last ack reaches the home. */
    Cycles recallPrivate(Addr line, NodeId hn, TileId ht, Cycles t,
                         bool keep_data_in_llc);

    /** Like recallPrivate() but leaves @p except's copy untouched. */
    Cycles recallPrivateExcept(Addr line, NodeId hn, TileId ht, Cycles t,
                               GlobalTileId except);

    /** Drops @p line from one tile's private hierarchy; updates directory. */
    void dropPrivate(Addr line, GlobalTileId gid);

    /**
     * Test-mutation path: "loses" @p gid's invalidation of @p line — the
     * directory forgets the copy but the tile's arrays keep it, and the
     * pre-store line image is frozen as the tile's stale view.
     */
    void loseInvalidation(Addr line, GlobalTileId gid);

    /** True when the mutated recall of @p line must be skipped. */
    bool shouldLoseInvalidation(Addr line) const
    {
        return mutation_ == TestMutation::kLostInvalidation &&
               line == mutationLine_ && !staleFired_;
    }

    /** Ends the stale-copy episode when the victim tile drops/refills. */
    void maybeClearStale(Addr line, GlobalTileId gid)
    {
        if (staleFired_ && gid == staleVictim_ && line == mutationLine_)
            staleFired_ = false;
    }

    /** Stale line image for @p gid's load of @p line, or nullptr. */
    const std::uint8_t *stalePeek(GlobalTileId gid, Addr line,
                                  AccessType type) const
    {
        if (staleFired_ && gid == staleVictim_ && line == mutationLine_ &&
            type == AccessType::kLoad)
            return staleBytes_.data();
        return nullptr;
    }

    /** Notifies the observer, if any. */
    void notify(CoherenceEventKind kind, Addr line, GlobalTileId gid,
                Cycles now)
    {
        if (observer_)
            observer_->onEvent(CoherenceEvent{kind, line, gid, now});
    }

    /** Inserts into a private hierarchy, handling victim writebacks. */
    void privateFill(Addr line, GlobalTileId gid, std::uint32_t state,
                     bool fill_l1i, Cycles t);

    AccessResult deviceAccess(const DeviceWindow &w, GlobalTileId gid,
                              Addr addr, AccessType type, std::uint32_t bytes,
                              Cycles now);

    DirEntry &dirEntry(Addr line) { return directory_[line]; }

    Geometry geo_;
    TimingParams timing_;
    HomingPolicy homing_;
    noc::MeshTopology topo_;

    mem::MainMemory memory_;
    std::unordered_map<Addr, DirEntry> directory_;

    // Per-global-tile structures.
    std::vector<CacheArray> l1i_;
    std::vector<CacheArray> l1d_;
    std::vector<CacheArray> bpc_;
    std::vector<CacheArray> llc_;
    std::vector<sim::QueueServer> llcServer_;

    // Per-node structures.
    std::vector<sim::QueueServer> dramServer_;
    std::vector<sim::TrafficShaper> bridgeOut_;
    std::vector<sim::TrafficShaper> bridgeIn_;
    std::vector<sim::TrafficShaper> pcieOut_;

    std::vector<DeviceWindow> devices_;

    bool parallel_ = false;
    std::recursive_mutex mu_;
    /** One lock per tile's private arrays; see tileGuard(). */
    std::unique_ptr<std::mutex[]> tileMu_;

    CoherenceObserver *observer_ = nullptr;

    /** Cached handleFor() guards: null unless the component is traced. */
    obs::Tracer *traceCache_ = nullptr;
    obs::Tracer *traceNoc_ = nullptr;

    // Test-mutation state (inert while mutation_ == kNone).
    TestMutation mutation_ = TestMutation::kNone;
    Addr mutationLine_ = 0;
    bool staleFired_ = false;
    GlobalTileId staleVictim_ = 0;
    /** Rolling pre-next-store image of the armed line. */
    std::array<std::uint8_t, kCacheLineBytes> armedBytes_{};
    /** Frozen image the stale victim keeps seeing after the lost recall. */
    std::array<std::uint8_t, kCacheLineBytes> staleBytes_{};

    std::unique_ptr<sim::StatRegistry> ownedStats_;
    sim::StatRegistry *stats_;
};

} // namespace smappic::cache
