#include "riscv/interrupts.hpp"

#include <algorithm>

#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::riscv
{

ClintController::ClintController(std::uint32_t harts)
{
    fatalIf(harts == 0, "CLINT needs at least one hart");
    msip_.assign(harts, false);
    mtip_.assign(harts, false);
    meip_.assign(harts, false);
    mtimecmp_.assign(harts, ~0ULL);
}

void
ClintController::setWire(std::vector<bool> &wires, std::uint32_t hart,
                         std::uint32_t irq, bool level)
{
    panicIf(hart >= wires.size(), "CLINT hart index out of range");
    if (wires[hart] == level)
        return;
    wires[hart] = level;
    if (wireFn_)
        wireFn_(hart, irq, level);
}

std::uint64_t
ClintController::read(Addr offset) const
{
    if (offset >= kClintMsipBase && offset < kClintMsipBase + 4 * harts())
        return msip_[(offset - kClintMsipBase) / 4] ? 1 : 0;
    if (offset >= kClintMtimecmpBase &&
        offset < kClintMtimecmpBase + 8 * harts())
        return mtimecmp_[(offset - kClintMtimecmpBase) / 8];
    if (offset == kClintMtime)
        return mtime_;
    return 0;
}

void
ClintController::write(Addr offset, std::uint64_t value, std::uint32_t)
{
    if (offset >= kClintMsipBase && offset < kClintMsipBase + 4 * harts()) {
        auto hart = static_cast<std::uint32_t>((offset - kClintMsipBase) /
                                               4);
        setWire(msip_, hart, kIrqMsi, (value & 1) != 0);
        return;
    }
    if (offset >= kClintMtimecmpBase &&
        offset < kClintMtimecmpBase + 8 * harts()) {
        auto hart = static_cast<std::uint32_t>(
            (offset - kClintMtimecmpBase) / 8);
        mtimecmp_[hart] = value;
        evaluateTimers();
        return;
    }
    if (offset == kClintMtime) {
        mtime_ = value;
        evaluateTimers();
        return;
    }
}

void
ClintController::setTime(std::uint64_t mtime)
{
    mtime_ = mtime;
    evaluateTimers();
}

void
ClintController::evaluateTimers()
{
    for (std::uint32_t h = 0; h < harts(); ++h)
        setWire(mtip_, h, kIrqMti, mtime_ >= mtimecmp_[h]);
}

std::uint64_t
ClintController::nextTimerCycle() const
{
    std::uint64_t next = sim::kNoDeadline;
    for (std::uint64_t cmp : mtimecmp_) {
        if (cmp > mtime_)
            next = std::min(next, cmp);
    }
    return next;
}

namespace
{

void
saveBoolVec(snap::Writer &w, const std::vector<bool> &v)
{
    w.u64(v.size());
    for (bool b : v)
        w.boolean(b);
}

void
restoreBoolVec(snap::Reader &r, std::vector<bool> &v)
{
    std::uint64_t size = r.u64();
    fatalIf(size != v.size(), "checkpoint wire vector size mismatch");
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = r.boolean();
}

} // namespace

void
ClintController::saveState(snap::Writer &w) const
{
    saveBoolVec(w, msip_);
    saveBoolVec(w, mtip_);
    saveBoolVec(w, meip_);
    w.u64(mtimecmp_.size());
    for (std::uint64_t cmp : mtimecmp_)
        w.u64(cmp);
    w.u64(mtime_);
}

void
ClintController::restoreState(snap::Reader &r)
{
    restoreBoolVec(r, msip_);
    restoreBoolVec(r, mtip_);
    restoreBoolVec(r, meip_);
    std::uint64_t harts = r.u64();
    fatalIf(
        harts != mtimecmp_.size(),
        strfmt("checkpoint CLINT has %llu harts, controller expects %llu",
               static_cast<unsigned long long>(harts),
               static_cast<unsigned long long>(mtimecmp_.size())));
    for (std::uint64_t &cmp : mtimecmp_)
        cmp = r.u64();
    mtime_ = r.u64();
}

} // namespace smappic::riscv
