#include "obs/tracer.hpp"

#include <algorithm>

#include "sim/log.hpp"
#include "sim/parallel.hpp"
#include "snap/state_io.hpp"

namespace smappic::obs
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::kCache: return "cache";
      case Component::kNoc: return "noc";
      case Component::kPcie: return "pcie";
      case Component::kBridge: return "bridge";
      case Component::kCore: return "core";
      case Component::kDecodeCache: return "decodeCache";
    }
    panic("unknown trace component");
}

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::kCacheMiss: return "cacheMiss";
      case EventKind::kCacheAtomic: return "cacheAtomic";
      case EventKind::kNocPath: return "nocPath";
      case EventKind::kPcieWrite: return "pcieWrite";
      case EventKind::kPcieRead: return "pcieRead";
      case EventKind::kBridgeTx: return "bridgeTx";
      case EventKind::kBridgeRx: return "bridgeRx";
      case EventKind::kCoreCommit: return "coreCommit";
      case EventKind::kCoreStall: return "coreStall";
      case EventKind::kDecodeFill: return "decodeFill";
      case EventKind::kDecodeFlush: return "decodeFlush";
    }
    panic("unknown trace event kind");
}

void
Tracer::configure(const TraceConfig &cfg, std::uint32_t nodes)
{
    fatalIf(cfg.enabled && nodes == 0, "tracer needs at least one node");
    fatalIf(cfg.enabled && cfg.ringCapacity == 0,
            "tracer ring capacity must be positive");
    enabled_ = cfg.enabled;
    mask_ = cfg.components & kEveryComponent;
    capacity_ = cfg.ringCapacity;
    coreStallCycles_ = cfg.coreStallCycles;
    rings_.clear();
    if (enabled_) {
        rings_.resize(nodes);
        // Size the whole ring upfront: record() must never pay an
        // allocation (the copy would dwarf the per-event cost and show
        // up as traced-run overhead). The fill level is tracked through
        // Ring::total, not the vector's size.
        for (Ring &r : rings_)
            r.buf.resize(capacity_);
    }
}

std::uint64_t
Tracer::recorded() const
{
    std::uint64_t n = 0;
    for (const Ring &r : rings_)
        n += r.total;
    return n;
}

std::uint64_t
Tracer::droppedOn(NodeId node) const
{
    const Ring &r = rings_.at(node);
    return r.total > capacity_ ? r.total - capacity_ : 0;
}

std::uint64_t
Tracer::dropped() const
{
    std::uint64_t n = 0;
    for (NodeId node = 0; node < rings_.size(); ++node)
        n += droppedOn(node);
    return n;
}

std::uint64_t
Tracer::heldOn(NodeId node) const
{
    return std::min<std::uint64_t>(rings_.at(node).total, capacity_);
}

std::vector<TraceEvent>
Tracer::merged() const
{
    std::vector<TraceEvent> out;
    std::size_t total = 0;
    for (NodeId node = 0; node < rings_.size(); ++node)
        total += heldOn(node);
    out.reserve(total);
    for (NodeId node = 0; node < rings_.size(); ++node) {
        const Ring &r = rings_[node];
        std::size_t held = heldOn(node);
        // Once a ring wrapped, buf[next] is the oldest retained event;
        // until then the oldest sits at index 0.
        std::size_t start = r.total <= capacity_ ? 0 : r.next;
        for (std::size_t i = 0; i < held; ++i)
            out.push_back(r.buf[(start + i) % capacity_]);
    }
    return out;
}

void
Tracer::clear()
{
    // Keeps the rings sized (and their pages warm): stale entries are
    // unreachable because the fill level derives from Ring::total.
    for (Ring &r : rings_) {
        r.next = 0;
        r.total = 0;
    }
}

void
Tracer::saveState(snap::Writer &w) const
{
    w.u64(rings_.size());
    w.u64(capacity_);
    for (NodeId node = 0; node < rings_.size(); ++node) {
        const Ring &ring = rings_[node];
        std::size_t held = heldOn(node);
        std::size_t start = ring.total <= capacity_ ? 0 : ring.next;
        w.u64(ring.total);
        w.u64(held);
        for (std::size_t i = 0; i < held; ++i) {
            const TraceEvent &ev = ring.buf[(start + i) % capacity_];
            w.u64(ev.cycle);
            w.u64(ev.arg);
            w.u32(ev.duration);
            w.u32(ev.extra);
            w.u16(ev.node);
            w.u16(ev.tile);
            w.u8(ev.component);
            w.u8(ev.kind);
            w.u8(ev.flags);
        }
    }
}

void
Tracer::restoreState(snap::Reader &r)
{
    std::uint64_t nodes = r.u64();
    std::uint64_t capacity = r.u64();
    fatalIf(nodes != rings_.size() || capacity != capacity_,
            strfmt("checkpoint tracer shape (%llu rings x %llu) does not "
                   "match the live tracer (%llu x %llu)",
                   static_cast<unsigned long long>(nodes),
                   static_cast<unsigned long long>(capacity),
                   static_cast<unsigned long long>(rings_.size()),
                   static_cast<unsigned long long>(capacity_)));
    for (Ring &ring : rings_) {
        std::uint64_t total = r.u64();
        std::uint64_t held = r.u64();
        fatalIf(held > capacity_, "checkpoint tracer ring overflows");
        // Refill from index 0, oldest first: the cursor phase differs
        // from the writing tracer's but merged() order is identical.
        for (std::uint64_t i = 0; i < held; ++i) {
            TraceEvent ev;
            ev.cycle = r.u64();
            ev.arg = r.u64();
            ev.duration = r.u32();
            ev.extra = r.u32();
            ev.node = r.u16();
            ev.tile = r.u16();
            ev.component = r.u8();
            ev.kind = r.u8();
            ev.flags = r.u8();
            ring.buf[i] = ev;
        }
        ring.next = held % (capacity_ == 0 ? 1 : capacity_);
        ring.total = total;
    }
}

} // namespace smappic::obs
