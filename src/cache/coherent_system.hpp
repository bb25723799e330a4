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

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/line_table.hpp"
#include "mem/main_memory.hpp"
#include "noc/topology.hpp"
#include "sim/fast_mod.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::obs
{
class Tracer;
}

namespace smappic::sim
{
class FaultInjector;
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

/** Repair policy of the inter-node crossing. `enabled = false` keeps
 *  the paper's lossless link, on which a drop or corruption is fatal;
 *  enabled, a lost or corrupted crossing is replayed after a backoff
 *  that doubles per failed attempt, and past maxRetries replays the
 *  link is unrecoverable and panics. */
struct ReliabilityConfig
{
    bool enabled = false;
    std::uint32_t maxRetries = 16; ///< Replays per crossing before the
                                   ///< link panics as unrecoverable.
    Cycles ackTimeout = 128;       ///< Replay backoff base.
};

/** Cycles to wait before the replay that follows @p level earlier
 *  replays of the same crossing: ackTimeout, doubled per level up to
 *  256x. */
constexpr Cycles
replayBackoff(Cycles ack_timeout, std::uint32_t level)
{
    return ack_timeout << std::min<std::uint32_t>(level, 8);
}

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
 * no protocol state). With an observer attached, every miss of a
 * confined node phase yields, so notifications run in serial context
 * and observers may inspect directory/cache state without locking. Null
 * observer = zero cost beyond one pointer test per transition.
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
 * Tiles are addressed by GlobalTileId = node * tilesPerNode + tile.
 * Callers (the guest-OS thread scheduler, the RISC-V cores) serialize
 * accesses in virtual-time order. The class takes no lock.
 *
 * The phased engine still calls it from several threads at once, one
 * per node phase, and relies on confinement (sim::ConfinedScope) so
 * that every piece of state has one writer at a time:
 *  - A confined phase acting for node N takes a miss only when
 *    missStaysOnNode() holds: the line's home, its DRAM, every recalled
 *    or forwarded copy and both victims are on N. It checks the home
 *    before it reads the directory, so it only ever reads N's shard.
 *    Device and remote-NC accesses yield before doing anything.
 *  - So the phase writes only N's directory shard (lines homed on N),
 *    N's tiles' L1/BPC arrays, LLC slices and LLC servers, and N's DRAM
 *    server. Same-node NoC paths touch no shared state, and the bridge
 *    and PCIe shapers are touched only by crossings, which yield.
 *  - Every yielded remainder runs in the serial barrier while all other
 *    workers wait, so it may touch any node's state.
 * The stats go through per-node StatRegistry::Redirect shards and the
 * tracer keeps per-node buffers. MainMemory keeps its own lock: a
 * confined L1 hit on a remote-homed shared line reads another node's
 * page while that node may be inserting a page.
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
     * @p gid's L1I, replays the L1I LRU touch the full access() walk
     * would make on that hit and returns true with @p lat set to the L1
     * hit latency. The caller counts the hit and hands its batched
     * counts to addFastHits(), which makes the slow hit's "cs.l1.hits"
     * increment. Returns false (having mutated nothing; a missing
     * lookup() leaves the LRU untouched) when the fetch must take the
     * full walk: L1I miss, or any test mutation armed (the stale-data
     * plumbing lives on the slow path). An L1I hit implies the line is
     * neither a device window nor CDR-remote — those never fill the L1I
     * — so the skipped prefix of access() is provably side-effect-free.
     */
    bool
    fetchFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
    {
        // Any armed test mutation routes everything down the slow path:
        // the stale-copy bookkeeping (stalePeek) lives there.
        if (mutation_ != TestMutation::kNone)
            return false;
        // lookup() touches the LRU on a hit — the identical
        // (checkpointed) side effect the slow path's hit branch performs
        // — and mutates nothing on a miss.
        if (!l1i_[gid].lookup(addr))
            return false;
        lat = timing_.l1HitLatency;
        return true;
    }

    /**
     * Data fast path for scalar loads: when @p addr hits @p gid's L1D,
     * replays the L1D LRU touch the full access() walk would make on
     * that hit and returns true with @p lat set to the L1 hit latency;
     * the caller counts the hit for addFastHits(), as for fetches.
     * Returns false (having mutated nothing) when the load must take
     * the full walk: L1D miss, any test mutation armed (the
     * stale-data plumbing lives on the slow path), or a coherence
     * observer attached (observers contract to see every full
     * transition). An L1D hit implies the line is neither a device
     * window nor NC nor CDR-remote — none of those ever fill the L1D —
     * so the skipped prefix of access() is provably side-effect-free.
     */
    bool
    loadFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
    {
        // Bail conditions mirror fetchFastHit, plus the observer: armed
        // mutations need the slow path's stale-copy bookkeeping, and an
        // attached coherence checker contracts to see full transitions.
        // (Hit branches never notify observers even on the slow path, so
        // the observer bail is belt and braces, not a parity
        // requirement.)
        if (mutation_ != TestMutation::kNone || observer_ != nullptr)
            return false;
        if (!l1d_[gid].lookup(addr))
            return false;
        lat = timing_.l1HitLatency;
        return true;
    }

    /**
     * Data fast path for scalar stores: when @p gid's BPC already owns
     * @p addr's line in M, replays the BPC (and, when resident, L1D) LRU
     * touches the full access() walk would make on that store hit and
     * returns true with @p lat set to the L1 hit latency; the caller
     * counts the store hit for addFastHits(). Returns false (having
     * mutated nothing) on any other line state, an armed test mutation,
     * or an attached observer; the caller then runs the full access().
     * M ownership implies exclusivity, so no recall, directory or
     * tracer activity is skipped.
     */
    bool
    storeFastHit(GlobalTileId gid, Addr addr, Cycles &lat)
    {
        if (mutation_ != TestMutation::kNone || observer_ != nullptr)
            return false;
        Addr line = lineAlign(addr);
        // One scan settles presence + M state and performs the slow
        // path's exact BPC LRU touch; a miss or non-M state mutates
        // nothing. The discarded-result L1D lookup moves LRU only when
        // the line is resident, as on the slow path.
        if (!bpc_[gid].lookupIfState(line, kModified))
            return false;
        l1d_[gid].lookup(line);
        lat = timing_.l1HitLatency;
        return true;
    }

    /**
     * The fast paths' counter side effects, batched: adds @p hits
     * fetch and load fast hits to "cs.l1.hits" and @p store_hits to
     * "cs.l1.storeHits", through the slow path's StatIds. A zero count
     * touches nothing, so a stat no hit reached stays out of the dump.
     */
    void
    addFastHits(std::uint64_t hits, std::uint64_t store_hits)
    {
        if (hits)
            stats_->counter(kL1Hits).increment(hits);
        if (store_hits)
            stats_->counter(kL1StoreHits).increment(store_hits);
    }

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
    const noc::MeshTopology &topology() const { return topo_; }
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
     * flushPrivate().
     */
    void setObserver(CoherenceObserver *observer) { observer_ = observer; }

    /**
     * Attaches the platform tracer (null to detach). The system fires
     * kCacheMiss/kCacheAtomic events on the miss path and kNocPath events
     * for every transaction-level NoC traversal; each trace point costs
     * one null test when its component is disabled.
     */
    void setTracer(obs::Tracer *tracer);

    /**
     * Attaches a fault injector to the inter-node crossing (null to
     * detach). Every crossing then decides site "bridge.tx": a delay
     * adds cycles; a drop or corruption is replayed through the same
     * bridge and PCIe servers after replayBackoff() when
     * @p rel is enabled (counted in bridge.retransmits, corruptions also
     * in bridge.crcErrors) and raises FatalError when it is not.
     */
    void setLinkFaults(sim::FaultInjector *fi,
                       const ReliabilityConfig &rel)
    {
        fault_ = fi;
        reliability_ = rel;
    }

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

    // The hit counters addFastHits() bumps (the rest are local to
    // coherent_system.cpp).
    static const sim::StatId kL1Hits;
    static const sim::StatId kL1StoreHits;

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

    /** Decides the fault of the crossing sn -> dn that left the last
     *  server at @p t and replays it while it is lost or corrupted.
     *  @return Arrival time of the copy that got through. */
    Cycles repairCrossing(NodeId sn, NodeId dn, std::uint32_t bytes,
                          Cycles t);

    /** Emits a kNocPath trace event covering [start, end). */
    void traceNocPath(NodeId sn, TileId st, NodeId dn, TileId dt,
                      std::uint32_t bytes, Cycles start, Cycles end,
                      bool crossed);

    /** DRAM access at @p node arriving at @p t; returns completion time. */
    Cycles dramAccess(NodeId node, std::uint32_t bytes, Cycles t);

    /** Ensures @p line (directory entry @p dir) is resident in its home
     *  LLC slice (fills on miss). Returns completion time; sets
     *  @p from_dram. */
    Cycles llcEnsureResident(DirEntry &dir, Addr line, NodeId hn, TileId ht,
                             Cycles t, bool &from_dram);

    /**
     * Recalls every private copy of @p line (directory entry @p dir)
     * except those of the tiles in @p keep (invalidation fan-out). A
     * recalled owner's dirty data lands in the LLC. Returns the time the
     * last ack reaches the home.
     */
    Cycles recallPrivate(DirEntry &dir, Addr line, NodeId hn, TileId ht,
                         Cycles t, std::uint64_t keep);

    /** Drops @p line from one tile's private hierarchy and, when @p dir
     *  is non-null, from its directory entry. */
    void dropPrivate(Addr line, GlobalTileId gid, DirEntry *dir);

    /**
     * Test-mutation path: "loses" @p gid's invalidation of @p line — the
     * directory forgets the copy but the tile's arrays keep it, and the
     * pre-store line image is frozen as the tile's stale view.
     */
    void loseInvalidation(DirEntry &dir, GlobalTileId gid);

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

    /**
     * True when @p gid's miss on @p line touches only its own node's
     * state: the home slice, the DRAM behind it, every private copy it
     * recalls and every victim it evicts. A confined node phase takes
     * only such misses; the rest yield (see sim::ConfinedScope).
     */
    bool missStaysOnNode(GlobalTileId gid, Addr line, AccessType type);

    /** The device window holding @p addr, or null. */
    const DeviceWindow *deviceAt(Addr addr) const;

    AccessResult deviceAccess(const DeviceWindow &w, GlobalTileId gid,
                              Addr addr, AccessType type, std::uint32_t bytes,
                              Cycles now);

    /** One directory shard. Erasing an entry moves no other entry, so
     *  the DirEntry a miss holds survives its LLC victim's erase. */
    using DirShard = LineTable<DirEntry>;

    /** The directory shard that tracks @p line: its home node's. */
    DirShard &shardOf(Addr line) { return directory_[homeOf(line).first]; }

    Geometry geo_;
    TimingParams timing_;
    HomingPolicy homing_;
    noc::MeshTopology topo_;

    // The homing arithmetic without divide instructions (every miss runs
    // several): log2 of memPerNode when it is a power of two, else 64;
    // remainders by the node, per-node tile and total tile counts.
    unsigned memShift_;
    sim::FastMod nodeMod_;
    sim::FastMod tileMod_;
    sim::FastMod globalTileMod_;

    mem::MainMemory memory_;
    /** The MESI directory, one shard per home node: shard N holds the
     *  lines homed on node N, so a confined phase reads and writes only
     *  its own node's shard. */
    std::vector<DirShard> directory_;

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

    std::vector<DeviceWindow> devices_; ///< Disjoint, sorted by base.
    Addr devicesEnd_ = 0; ///< End of the highest window.

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

    /** Crossing fault hook (null: fault-free) and its repair policy.
     *  Last, so they shift none of the access path's members: placed
     *  beside the link servers, they cost perfbench phased_memory ~5%. */
    sim::FaultInjector *fault_ = nullptr;
    ReliabilityConfig reliability_;
};

} // namespace smappic::cache
