#include "check/lockstep.hpp"

#include <iomanip>
#include <sstream>

namespace smappic::check
{

namespace
{

const sim::StatId kDivergences("lockstep.divergences");

constexpr std::uint16_t kDiffCsrs[] = {
    riscv::kCsrMstatus, riscv::kCsrMie,     riscv::kCsrMtvec,
    riscv::kCsrMepc,    riscv::kCsrMcause,  riscv::kCsrMtval,
    riscv::kCsrMscratch, riscv::kCsrSatp,
};

const char *
csrName(std::uint16_t num)
{
    switch (num) {
      case riscv::kCsrMstatus: return "mstatus";
      case riscv::kCsrMie: return "mie";
      case riscv::kCsrMtvec: return "mtvec";
      case riscv::kCsrMepc: return "mepc";
      case riscv::kCsrMcause: return "mcause";
      case riscv::kCsrMtval: return "mtval";
      case riscv::kCsrMscratch: return "mscratch";
      case riscv::kCsrSatp: return "satp";
      default: return "?";
    }
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

} // namespace

/** All checker state private to one attached hart. */
struct LockstepChecker::Hart
{
    riscv::RvCore *core;
    ref::GoldenMemory mem;
    ref::GoldenCore golden;
    bool primed = false;          ///< Golden state synced at least once.
    std::uint64_t commitIndex = 0;
    /** DUT post-state rd of the instruction being replayed; the value
     *  every env hook resolves to (see header). */
    std::uint64_t envRd = 0;

    Hart(riscv::RvCore &c, const ref::GoldenConfig &gcfg)
        : core(&c), golden(gcfg, mem)
    {
    }
};

LockstepChecker::LockstepChecker(const LockstepConfig &cfg,
                                 sim::StatRegistry *stats)
    : cfg_(cfg), stats_(stats)
{
}

LockstepChecker::~LockstepChecker() = default;

bool
LockstepChecker::envOwned(Addr addr, std::uint32_t bytes) const
{
    if (cfg_.memSize != 0 &&
        (addr < cfg_.memBase || addr + bytes > cfg_.memBase + cfg_.memSize))
        return true;
    for (const auto &[base, size] : cfg_.shared) {
        if (addr + bytes > base && addr < base + size)
            return true;
    }
    return false;
}

void
LockstepChecker::attach(riscv::RvCore &core)
{
    ref::GoldenConfig gcfg;
    gcfg.hartId = core.hartId();
    gcfg.resetPc = core.config().resetPc;
    harts_.push_back(std::make_unique<Hart>(core, gcfg));
    Hart *h = harts_.back().get();
    std::size_t idx = harts_.size() - 1;

    h->golden.setEnvCsrFn([h](std::uint16_t) { return h->envRd; });
    h->golden.setEnvLoadFn(
        [h](Addr, std::uint32_t, std::uint64_t &rd) {
            rd = h->envRd;
            return true;
        });
    h->golden.setEnvRangeFn([this](Addr addr, std::uint32_t bytes) {
        return envOwned(addr, bytes);
    });

    core.setCommitFn(
        [this, idx](riscv::RvCore &c, const riscv::CommitRecord &rec) {
            onCommit(idx, c, rec);
        });
}

void
LockstepChecker::loadImage(Addr addr, const void *data, std::uint64_t len)
{
    for (auto &h : harts_)
        h->mem.writeBytes(addr, data, len);
}

void
LockstepChecker::syncFromDut(Hart &h, riscv::RvCore &core)
{
    h.golden.setPc(core.pc());
    h.golden.setPrivilege(core.privilege());
    for (unsigned i = 1; i < 32; ++i)
        h.golden.setReg(i, core.reg(i));
    for (std::uint16_t num : kDiffCsrs)
        h.golden.setCsrRaw(num, core.csr(num));
    h.golden.setCsrRaw(riscv::kCsrMip, core.csr(riscv::kCsrMip));
}

void
LockstepChecker::recordDivergence(Hart &h, riscv::RvCore &core,
                                  const riscv::CommitRecord &rec,
                                  const std::string &what)
{
    std::ostringstream os;
    os << "lockstep divergence: hart " << core.hartId() << " commit #"
       << h.commitIndex << " cycle " << core.cycles() << "\n"
       << "  pc=" << hex(rec.pc) << " word=" << hex(rec.word) << " inst=";
    if (rec.inst)
        os << riscv::mnemonic(rec.inst->op);
    else if (rec.interrupt)
        os << "<interrupt>";
    else
        os << "<fetch trap>";
    os << "\n" << what;
    os << "  register file (golden | dut):\n";
    for (unsigned i = 1; i < 32; ++i) {
        if (h.golden.reg(i) == core.reg(i))
            continue; // Print only rows that differ; the diff is above.
        os << "    x" << i << ": " << hex(h.golden.reg(i)) << " | "
           << hex(core.reg(i)) << "\n";
    }

    Divergence d;
    d.hart = core.hartId();
    d.commitIndex = h.commitIndex;
    d.cycle = core.cycles();
    d.pc = rec.pc;
    d.word = rec.word;
    d.message = os.str();

    std::lock_guard<std::mutex> lock(mutex_);
    // The stat is created lazily on the first divergence so clean runs
    // keep their stat dumps byte-identical with the checker on or off.
    if (stats_)
        stats_->counter(kDivergences).increment();
    if (divergences_.size() < cfg_.maxDivergences)
        divergences_.push_back(std::move(d));
}

void
LockstepChecker::onCommit(std::size_t idx, riscv::RvCore &core,
                          const riscv::CommitRecord &rec)
{
    Hart &h = *harts_[idx];
    ++h.commitIndex;
    commits_.fetch_add(1, std::memory_order_relaxed);

    // First observed commit: the callback fires post-step, so all we can
    // do is adopt the DUT state and start checking from the next one.
    if (!h.primed) {
        syncFromDut(h, core);
        h.primed = true;
        return;
    }

    // Outside the golden model's scope: async interrupt redirects,
    // environment-absorbed ecalls, anything under Sv39 translation, and
    // translation-driven fetch faults. Adopt the DUT state and move on.
    if (rec.interrupt || rec.envAbsorbed ||
        h.golden.translationActive() ||
        (rec.inst == nullptr && rec.trapped && (rec.pc & 3) == 0)) {
        syncFromDut(h, core);
        return;
    }

    // Control flow first: if the golden hart would not even have been at
    // this pc, diffing the replay is meaningless.
    if (h.golden.pc() != rec.pc) {
        std::ostringstream what;
        what << "  control flow: golden pc=" << hex(h.golden.pc())
             << " dut pc=" << hex(rec.pc) << "\n";
        recordDivergence(h, core, rec, what.str());
        syncFromDut(h, core);
        return;
    }

    h.envRd = (rec.inst != nullptr && rec.inst->rd != 0)
                  ? core.reg(rec.inst->rd)
                  : 0;
    ref::GoldenCore::Step gs = h.golden.step();

    std::ostringstream what;
    if (rec.inst != nullptr && gs.word != rec.word) {
        what << "  fetched word: golden=" << hex(gs.word)
             << " dut=" << hex(rec.word) << " (stale decode?)\n";
    }
    if (h.golden.pc() != core.pc()) {
        what << "  next pc: golden=" << hex(h.golden.pc())
             << " dut=" << hex(core.pc()) << "\n";
    }
    for (unsigned i = 1; i < 32; ++i) {
        if (h.golden.reg(i) != core.reg(i)) {
            what << "  x" << i << ": golden=" << hex(h.golden.reg(i))
                 << " dut=" << hex(core.reg(i)) << "\n";
        }
    }
    if (h.golden.privilege() != core.privilege()) {
        what << "  privilege: golden=" << h.golden.privilege()
             << " dut=" << core.privilege() << "\n";
    }
    for (std::uint16_t num : kDiffCsrs) {
        if (h.golden.csr(num) != core.csr(num)) {
            what << "  " << csrName(num)
                 << ": golden=" << hex(h.golden.csr(num))
                 << " dut=" << hex(core.csr(num)) << "\n";
        }
    }

    if (!what.str().empty()) {
        recordDivergence(h, core, rec, what.str());
        syncFromDut(h, core);
    }

    // mip is device-driven between instructions; adopt the DUT's view so
    // a later csrr mip replay starts from the right value.
    h.golden.setCsrRaw(riscv::kCsrMip, core.csr(riscv::kCsrMip));
}

std::vector<Divergence>
LockstepChecker::divergences() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return divergences_;
}

std::string
LockstepChecker::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    for (const auto &d : divergences_)
        os << d.message << "\n";
    return os.str();
}

} // namespace smappic::check
