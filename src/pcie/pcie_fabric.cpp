#include "pcie/pcie_fabric.hpp"

#include <algorithm>

#include "obs/tracer.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::pcie
{

namespace
{

const sim::StatId kTransfers("pcie.transfers");
const sim::StatId kBytes("pcie.bytes");
const sim::StatId kDeferred("pcie.deferred");

} // namespace

PcieFabric::PcieFabric(sim::EventQueue &eq, Cycles one_way,
                       double bytes_per_cycle, sim::StatRegistry *stats)
    : eq_(eq), oneWay_(one_way), bytesPerCycle_(bytes_per_cycle),
      stats_(stats)
{
}

void
PcieFabric::addWindow(Addr base, std::uint64_t size, axi::Target *target,
                      FpgaId owner, std::string name)
{
    fatalIf(target == nullptr, "fabric window '" + name + "' has no target");
    fatalIf(size == 0, "fabric window '" + name + "' has zero size");
    for (const auto &w : windows_) {
        bool disjoint = base + size <= w.base || w.base + w.size <= base;
        fatalIf(!disjoint, "fabric windows '" + name + "' and '" + w.name +
                               "' overlap");
    }
    windows_.push_back(FabricWindow{base, size, target, owner,
                                    std::move(name)});
}

const PcieFabric::FabricWindow *
PcieFabric::decode(Addr addr) const
{
    for (const auto &w : windows_) {
        if (addr >= w.base && addr - w.base < w.size)
            return &w;
    }
    return nullptr;
}

sim::TrafficShaper &
PcieFabric::linkOf(FpgaId endpoint)
{
    for (auto &[id, shaper] : links_) {
        if (id == endpoint)
            return shaper;
    }
    links_.emplace_back(endpoint,
                        sim::TrafficShaper(0, bytesPerCycle_));
    return links_.back().second;
}

Cycles
PcieFabric::transferArrival(FpgaId src, std::uint64_t bytes)
{
    // Serialize on the source's link, then propagate one way.
    Cycles sent = linkOf(src).send(eq_.now(), bytes);
    transfers_ += 1;
    bytesMoved_ += bytes;
    if (stats_) {
        stats_->counter(kTransfers).increment();
        stats_->counter(kBytes).increment(bytes);
    }
    return sent + oneWay_;
}

void
PcieFabric::setTracer(obs::Tracer *tracer)
{
    tracer_ = tracer ? tracer->handleFor(obs::Component::kPcie) : nullptr;
}

void
PcieFabric::traceTransfer(bool is_write, FpgaId src, Addr addr,
                          std::uint64_t bytes, Cycles arrival)
{
    obs::TraceEvent ev = obs::event(is_write ? obs::EventKind::kPcieWrite
                                             : obs::EventKind::kPcieRead);
    ev.cycle = eq_.now();
    ev.duration = static_cast<std::uint32_t>(arrival - eq_.now());
    ev.arg = addr;
    ev.extra = static_cast<std::uint32_t>(bytes);
    ev.node = static_cast<std::uint16_t>(src);
    ev.tile = obs::kTraceOffChip;
    tracer_->record(ev);
}

bool
PcieFabric::deferToBarrier(std::function<void()> reissue)
{
    if (!router_ || sim::currentNode() == sim::kNoNode)
        return false;
    if (stats_)
        stats_->counter(kDeferred).increment();
    router_->post(std::move(reissue));
    return true;
}

bool
PcieFabric::preempt(const sim::FaultDecision &d, const CompletionFn &done)
{
    if (d.drop) {
        // Lost in flight: the issuer sees a completion timeout, surfaced
        // as a late SLVERR so no caller waits forever.
        if (done) {
            eq_.schedule(completionTimeout(),
                         [done] { done(Completion{axi::Resp::kSlvErr, {}}); });
        }
        return true;
    }
    if (d.slvErr) {
        if (done) {
            eq_.schedule(2 * oneWay_,
                         [done] { done(Completion{axi::Resp::kSlvErr, {}}); });
        }
        return true;
    }
    return false;
}

void
PcieFabric::write(FpgaId src, axi::WriteReq req, CompletionFn done)
{
    if (deferToBarrier([this, src, req, done]() mutable {
            write(src, std::move(req), std::move(done));
        }))
        return;
    const FabricWindow *w = decode(req.addr);
    if (!w) {
        ++decodeErrors_;
        if (done)
            eq_.schedule(1, [done] { done(Completion{axi::Resp::kDecErr}); });
        return;
    }
    sim::FaultDecision fd;
    if (fault_) {
        fd = fault_->decide("pcie.write");
        if (preempt(fd, done))
            return;
        if (fd.corrupt && !req.data.empty())
            fault_->corruptBytes("pcie.write", req.data.data(),
                                 req.data.size());
    }
    Cycles arrival = transferArrival(src, req.data.size() + 32) +
                     fd.extraDelay;
    if (tracer_)
        traceTransfer(true, src, req.addr, req.data.size() + 32, arrival);
    axi::Target *target = w->target;
    // Deliver at the far side, then return the B response across the
    // fabric (response transfers are small TLPs).
    eq_.scheduleAt(arrival, [this, target, req = std::move(req), done,
                             src]() mutable {
        axi::WriteResp resp = target->write(req);
        if (!done)
            return;
        Cycles back = transferArrival(src, 32);
        eq_.scheduleAt(back, [done, resp] {
            done(Completion{resp.resp, {}});
        });
    });
}

void
PcieFabric::read(FpgaId src, axi::ReadReq req, CompletionFn done)
{
    if (deferToBarrier([this, src, req, done]() mutable {
            read(src, std::move(req), std::move(done));
        }))
        return;
    const FabricWindow *w = decode(req.addr);
    if (!w) {
        ++decodeErrors_;
        if (done)
            eq_.schedule(1, [done] { done(Completion{axi::Resp::kDecErr}); });
        return;
    }
    sim::FaultDecision fd;
    if (fault_) {
        fd = fault_->decide("pcie.read");
        if (preempt(fd, done))
            return;
    }
    Cycles arrival = transferArrival(src, 32) + fd.extraDelay;
    if (tracer_)
        traceTransfer(false, src, req.addr, 32, arrival);
    axi::Target *target = w->target;
    bool corrupt = fd.corrupt;
    eq_.scheduleAt(arrival, [this, target, req = std::move(req), done,
                             src, corrupt]() mutable {
        axi::ReadResp resp = target->read(req);
        if (!done)
            return;
        // Corruption hits the response TLP on its way back.
        if (corrupt && fault_ && !resp.data.empty())
            fault_->corruptBytes("pcie.read", resp.data.data(),
                                 resp.data.size());
        Cycles back = transferArrival(src, resp.data.size() + 32);
        eq_.scheduleAt(back, [done, resp = std::move(resp)] {
            done(Completion{resp.resp, std::move(resp.data)});
        });
    });
}

void
PcieFabric::saveState(snap::Writer &w) const
{
    // Links materialize lazily in first-use order; serialize them sorted
    // by endpoint id so the payload is history-independent.
    std::vector<const std::pair<FpgaId, sim::TrafficShaper> *> sorted;
    sorted.reserve(links_.size());
    for (const auto &link : links_)
        sorted.push_back(&link);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });
    w.u64(sorted.size());
    for (const auto *link : sorted) {
        w.u32(link->first);
        saveShaper(w, link->second);
    }
    w.u64(transfers_);
    w.u64(bytesMoved_);
    w.u64(decodeErrors_);
}

void
PcieFabric::restoreState(snap::Reader &r)
{
    std::uint64_t link_count = r.u64();
    std::vector<FpgaId> restored;
    for (std::uint64_t i = 0; i < link_count; ++i) {
        FpgaId endpoint = static_cast<FpgaId>(r.u32());
        // linkOf materializes endpoints the live fabric has not used yet.
        restoreShaper(r, linkOf(endpoint));
        restored.push_back(endpoint);
    }
    // A rollback restore may find links materialized after the checkpoint
    // was taken; reset them so post-restore execution matches a fresh run.
    for (auto &[id, shaper] : links_) {
        if (std::find(restored.begin(), restored.end(), id) !=
            restored.end())
            continue;
        sim::QueueServer &server = shaper.server();
        server.restore(std::vector<Cycles>(server.lanes().size(), 0), 0, 0,
                       0);
        shaper.setBytesSent(0);
    }
    transfers_ = r.u64();
    bytesMoved_ = r.u64();
    decodeErrors_ = r.u64();
}

} // namespace smappic::pcie
