#include "accel/maple.hpp"

#include <algorithm>

#include "noc/topology.hpp"
#include "sim/log.hpp"

namespace smappic::accel
{

MapleEngine::MapleEngine(cache::CoherentSystem &cs, GlobalTileId tile,
                         const MapleConfig &cfg)
    : cs_(cs), tile_(tile), cfg_(cfg)
{
    fatalIf(cfg.queueDepth == 0, "MAPLE queue needs at least one entry");
}

void
MapleEngine::fetchElement(Addr addr, std::uint32_t bytes,
                          Cycles issue_floor, std::uint32_t copies)
{
    // Bound run-ahead: element i may not issue before element i-depth has
    // completed (finite supply queue).
    Cycles floor = issue_floor;
    if (queue_.size() >= cfg_.queueDepth)
        floor = std::max(floor,
                         queue_[queue_.size() - cfg_.queueDepth].ready);
    engineClock_ = std::max(engineClock_ + cfg_.issueInterval, floor);
    auto r = cs_.access(tile_, addr, cache::AccessType::kLoad, bytes,
                        engineClock_);
    Cycles ready = engineClock_ + r.latency;
    // One fetch may supply several queue entries (e.g. the dense columns
    // of a gathered SPMM row); they all ride the same row fill.
    std::uint32_t value_bytes = bytes / copies;
    for (std::uint32_t k = 0; k < copies; ++k) {
        std::uint64_t value = cs_.memory().load(
            addr + static_cast<Addr>(k) * value_bytes,
            std::min(value_bytes, 8u));
        queue_.push_back(Entry{value, ready});
    }
}

void
MapleEngine::program(const std::vector<Addr> &pattern, Cycles now)
{
    queue_.clear();
    consumed_ = 0;
    stall_ = 0;
    engineClock_ = now;
    for (Addr a : pattern)
        fetchElement(a, 8, now, 1);
}

void
MapleEngine::programIndirect(Addr index_base, std::uint64_t count,
                             Addr data_base, std::uint32_t elem_bytes,
                             Cycles now, std::uint32_t values_per_index)
{
    queue_.clear();
    consumed_ = 0;
    stall_ = 0;
    engineClock_ = now;
    Cycles index_clock = now;
    for (std::uint64_t i = 0; i < count; ++i) {
        // First-level stream: the index array (sequential, caches well).
        Addr idx_addr = index_base + i * 8;
        auto ir = cs_.access(tile_, idx_addr, cache::AccessType::kLoad, 8,
                             index_clock);
        index_clock += cfg_.issueInterval;
        std::uint64_t idx = cs_.memory().load(idx_addr, 8);
        // Second-level gather: dependent element, issued once the index
        // word is available.
        fetchElement(data_base + idx * elem_bytes, elem_bytes,
                     index_clock + ir.latency, values_per_index);
    }
}

std::uint64_t
MapleEngine::consume(GlobalTileId consumer, Cycles now, Cycles &lat,
                     bool streaming)
{
    panicIf(exhausted(), "MAPLE consume past end of program");
    const Entry &e = queue_[consumed_++];
    if (streaming) {
        Cycles wait = e.ready > now ? e.ready - now : 0;
        stall_ += wait;
        lat = cfg_.popLatency + wait;
        return e.value;
    }

    // MMIO pop: consumer -> engine tile -> back.
    const noc::MeshTopology &topo = cs_.topology();
    std::uint32_t hops = 0;
    if (consumer / cs_.geometry().tilesPerNode ==
        tile_ / cs_.geometry().tilesPerNode) {
        hops = topo.hops(consumer % cs_.geometry().tilesPerNode,
                         tile_ % cs_.geometry().tilesPerNode);
    } else {
        hops = 8; // Cross-node pops are not used by the paper's setup.
    }
    Cycles path = cs_.timing().nocInject + 2 * hops * cs_.timing().hopLatency;
    Cycles arrival = now + path / 2;
    Cycles wait = e.ready > arrival ? e.ready - arrival : 0;
    stall_ += wait;
    lat = cfg_.popLatency + path + wait;
    return e.value;
}

std::uint64_t
MapleEngine::ncLoad(Addr, std::uint32_t, Cycles now, Cycles &service)
{
    panicIf(exhausted(), "MAPLE MMIO pop past end of program");
    const Entry &e = queue_[consumed_++];
    Cycles wait = e.ready > now ? e.ready - now : 0;
    stall_ += wait;
    service = cfg_.popLatency + wait;
    return e.value;
}

void
MapleEngine::ncStore(Addr, std::uint32_t, std::uint64_t, Cycles,
                     Cycles &service)
{
    service = cfg_.popLatency;
}

} // namespace smappic::accel
