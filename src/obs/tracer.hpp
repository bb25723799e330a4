/**
 * @file
 * Platform-wide event tracer: the observability counterpart of the
 * StatRegistry. Components carry compile-time-cheap trace points (one
 * branch on a cached pointer when tracing is off) that emit fixed-size
 * TraceEvents into per-node ring buffers.
 *
 * Determinism discipline mirrors the stat shards (see sim/parallel.hpp):
 * inside a node phase every record() lands in the acting node's ring, so
 * each ring has a single writer per phase; serial-context events (event
 * queue, barriers, setup) pick their ring from the event's own node tag
 * and are produced in a fixed order by construction. Merging concatenates
 * the rings in ascending node order, so the merged trace — and its binary
 * serialization — is bit-identical for any worker count.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::obs
{

/** Traceable subsystems; doubles as the bit index for TraceConfig. */
enum class Component : std::uint8_t
{
    kCache = 0,  ///< CoherentSystem miss path.
    kNoc = 1,    ///< NoC paths (transaction) and router hops (flit).
    kPcie = 2,   ///< PCIe fabric transactions.
    kBridge = 3, ///< Retired bridge frames (kinds 7 and 8).
    kCore = 4,   ///< Core commit/stall events.
    kDecodeCache = 5, ///< Decode-cache fills/flushes (opt-in).
};

inline constexpr std::uint32_t kNumComponents = 6;

/** Bit for @p c in a component mask. */
constexpr std::uint32_t
componentBit(Component c)
{
    return 1u << static_cast<std::uint32_t>(c);
}

/** Every selectable component (the configure-time clamp). */
inline constexpr std::uint32_t kEveryComponent =
    (1u << kNumComponents) - 1;

/**
 * The default component mask. The decode cache is deliberately not in
 * it: its fill/flush events only exist while the cache is enabled, so
 * tracing them by default would break the contract that the trace
 * binary is byte-identical with the decode cache on or off. Opt in with
 * `components |= componentBit(Component::kDecodeCache)`.
 */
inline constexpr std::uint32_t kAllComponents =
    kEveryComponent & ~componentBit(Component::kDecodeCache);

/**
 * What happened at a trace point. Each kind belongs to one Component.
 * Values 3 and 4 (per-router NoC hop and packet ejection) are retired:
 * no model emits them, and they stay reserved so that every other kind
 * keeps its value in the binary format.
 */
enum class EventKind : std::uint8_t
{
    kCacheMiss = 0,   ///< Miss-path walk (arg=line, extra=ServiceLevel).
    kCacheAtomic = 1, ///< Atomic executed at the home LLC.
    kNocPath = 2,     ///< Transaction-level NoC traversal (arg=route).
    kPcieWrite = 5,   ///< Fabric write issued (duration=one-way transit).
    kPcieRead = 6,    ///< Fabric read issued.
    kBridgeTx = 7,    ///< Retired (packet-level bridge frame sent); no
                      ///< model emits it, older traces still decode.
    kBridgeRx = 8,    ///< Retired (packet reassembled), likewise.
    kCoreCommit = 9,  ///< Instruction retired (arg=pc, duration=cycles).
    kCoreStall = 10,  ///< Retirement took >= the configured threshold.
    kDecodeFill = 11, ///< Decode-cache fill (arg=pc).
    kDecodeFlush = 12, ///< Whole-cache flush (FENCE.I/SFENCE/restore).
};

/** One past the largest EventKind value. */
inline constexpr std::uint32_t kNumEventKinds = 13;

/** True when @p k is the value of a live (not retired) EventKind. */
constexpr bool
isEventKind(std::uint32_t k)
{
    return k < kNumEventKinds && k != 3 && k != 4;
}

/** Short stable names for exporters ("cache", "cacheMiss", ...). */
const char *componentName(Component c);
const char *kindName(EventKind kind);

/**
 * One trace record. Exactly 32 bytes, trivially copyable; the binary
 * format serializes the fields little-endian in declaration order.
 *
 * TraceEvent.flags bit 0 is "crossed a node boundary" for the kinds where
 * that applies; the remaining bits are kind-specific.
 */
struct TraceEvent
{
    Cycles cycle = 0;           ///< Virtual time the event started.
    std::uint64_t arg = 0;      ///< Address / pc / packed route.
    std::uint32_t duration = 0; ///< Cycles spanned (0 = instantaneous).
    std::uint32_t extra = 0;    ///< Kind-specific (bytes, level, mask).
    std::uint16_t node = 0;     ///< Originating node.
    std::uint16_t tile = 0;     ///< Tile/hart within the node.
    std::uint8_t component = 0; ///< Component (redundant with kind).
    std::uint8_t kind = 0;      ///< EventKind.
    std::uint8_t flags = 0;     ///< Bit 0: crossed-node.
    std::uint8_t pad = 0;
};

static_assert(sizeof(TraceEvent) == 32, "trace records are 32 bytes");

/** Component that owns @p kind's trace point. Constexpr so event()
 *  constant-folds at trace points with a literal kind. */
constexpr Component
kindComponent(EventKind kind)
{
    switch (kind) {
      case EventKind::kCacheMiss:
      case EventKind::kCacheAtomic:
        return Component::kCache;
      case EventKind::kNocPath:
        return Component::kNoc;
      case EventKind::kPcieWrite:
      case EventKind::kPcieRead:
        return Component::kPcie;
      case EventKind::kBridgeTx:
      case EventKind::kBridgeRx:
        return Component::kBridge;
      case EventKind::kCoreCommit:
      case EventKind::kCoreStall:
        return Component::kCore;
      case EventKind::kDecodeFill:
      case EventKind::kDecodeFlush:
        return Component::kDecodeCache;
    }
    return Component::kCache; // Unreachable for valid kinds.
}

/** Zeroed event with component/kind pre-filled for @p kind. */
constexpr TraceEvent
event(EventKind kind)
{
    TraceEvent ev;
    ev.component = static_cast<std::uint8_t>(kindComponent(kind));
    ev.kind = static_cast<std::uint8_t>(kind);
    return ev;
}

/** Tile-field value for an event at a node's off-chip hub rather than
 *  at a tile (mirrors noc::kOffChipTile). */
inline constexpr std::uint16_t kTraceOffChip = 0xffff;

/** Tracing knobs carried by PrototypeConfig. */
struct TraceConfig
{
    bool enabled = false;
    /** Bitmask of componentBit() values; default traces everything. */
    std::uint32_t components = kAllComponents;
    /** Ring capacity per node, in events; the newest events win. */
    std::size_t ringCapacity = 1u << 16;
    /** Binary trace output path ("" = caller supplies one). */
    std::string path;
    /** Commit durations >= this also emit a kCoreStall event. */
    Cycles coreStallCycles = 8;
};

/**
 * The tracer. One per prototype; components hold the pointer returned by
 * handleFor() so a disabled tracer (or deselected component) costs a
 * single null test per trace point.
 */
class Tracer
{
  public:
    Tracer() = default;

    /** (Re)configures; drops previously recorded events. */
    void configure(const TraceConfig &cfg, std::uint32_t nodes);

    bool enabled() const { return enabled_; }
    std::uint32_t nodes() const
    {
        return static_cast<std::uint32_t>(rings_.size());
    }
    std::size_t ringCapacity() const { return capacity_; }
    Cycles coreStallCycles() const { return coreStallCycles_; }

    /** True when @p c's trace points should fire. */
    bool
    wants(Component c) const
    {
        return enabled_ && (mask_ & componentBit(c)) != 0;
    }

    /** `this` when @p c is traced, else nullptr — the cached guard that
     *  components test at every trace point. */
    Tracer *handleFor(Component c) { return wants(c) ? this : nullptr; }

    /**
     * Appends @p ev. Inside a node phase the acting node's ring is used
     * (single writer per ring); otherwise the event's own node tag picks
     * the ring (clamped). Full rings overwrite their oldest entry.
     * Inline: this is the trace-point hot path.
     */
    void
    record(const TraceEvent &ev)
    {
        if (rings_.empty())
            return;
        NodeId acting = sim::currentNode();
        std::size_t idx =
            (acting != sim::kNoNode &&
             static_cast<std::size_t>(acting) < rings_.size())
                ? acting
                : std::min<std::size_t>(ev.node, rings_.size() - 1);
        // Rings are pre-sized at configure time, so accepting an event is
        // one store plus a cursor bump, never an allocation.
        Ring &r = rings_[idx];
        r.buf[r.next] = ev;
        if (++r.next == capacity_)
            r.next = 0;
        r.total += 1;
    }

    /** Events accepted over the tracer's lifetime (including ones later
     *  overwritten). */
    std::uint64_t recorded() const;

    /** Events lost to ring overwrites, total and per node. */
    std::uint64_t dropped() const;
    std::uint64_t droppedOn(NodeId node) const;

    /** Events currently held in @p node's ring. */
    std::uint64_t heldOn(NodeId node) const;

    /** All retained events: rings concatenated in ascending node order,
     *  oldest first within each ring. */
    std::vector<TraceEvent> merged() const;

    /** Drops all recorded events, keeping the configuration. */
    void clear();

    /**
     * Serializes per-ring lifetime totals and held events (oldest first).
     * restoreState() refills each ring from index 0, which phase-shifts
     * the physical cursor but preserves merged() order exactly.
     */
    void saveState(snap::Writer &w) const;
    void restoreState(snap::Reader &r);

  private:
    struct Ring
    {
        std::vector<TraceEvent> buf; ///< Pre-sized to capacity_.
        std::size_t next = 0;        ///< Write cursor (wraps).
        std::uint64_t total = 0;     ///< Lifetime events accepted.
    };

    bool enabled_ = false;
    std::uint32_t mask_ = 0;
    std::size_t capacity_ = 0;
    Cycles coreStallCycles_ = 8;
    std::vector<Ring> rings_;
};

} // namespace smappic::obs
