#include "riscv/core.hpp"

#include "obs/tracer.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::riscv
{

namespace
{

const sim::StatId kTlbMisses("core.tlbMisses");
const sim::StatId kTraps("core.traps");
const sim::StatId kInterruptsTaken("core.interruptsTaken");
const sim::StatId kMispredicts("core.mispredicts");
const sim::StatId kBranches("core.branches");
const sim::StatId kInstret("core.instret");

// PTE bits.
constexpr std::uint64_t kPteV = 1 << 0;
constexpr std::uint64_t kPteR = 1 << 1;
constexpr std::uint64_t kPteW = 1 << 2;
constexpr std::uint64_t kPteX = 1 << 3;
constexpr std::uint64_t kPteU = 1 << 4;
constexpr std::uint64_t kPteA = 1 << 6;
constexpr std::uint64_t kPteD = 1 << 7;

// TLB perm flags (mirror PTE bits, plus dirty tracking).
constexpr std::uint8_t kPermR = 1;
constexpr std::uint8_t kPermW = 2;
constexpr std::uint8_t kPermX = 4;
constexpr std::uint8_t kPermU = 8;
constexpr std::uint8_t kPermD = 16;

std::int64_t
asSigned(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

std::uint64_t
sext32(std::uint64_t v)
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

std::uint64_t
faultCause(MemAccess access)
{
    switch (access) {
      case MemAccess::kFetch:
        return kCauseInstPageFault;
      case MemAccess::kLoad:
        return kCauseLoadPageFault;
      case MemAccess::kStore:
        return kCauseStorePageFault;
    }
    return kCauseLoadPageFault;
}

} // namespace

RvCore::RvCore(const CoreConfig &cfg, MemPort &port,
               sim::StatRegistry *stats)
    : cfg_(cfg), port_(port), stats_(stats), decodeCache_(cfg.decodeCache),
      pc_(cfg.resetPc)
{
    fatalIf(cfg.bhtEntries == 0 || (cfg.bhtEntries & (cfg.bhtEntries - 1)),
            "BHT entry count must be a power of two");
    bht_.assign(cfg.bhtEntries, 1); // Weakly not-taken.
    itlb_.resize(cfg.itlbEntries);
    dtlb_.resize(cfg.dtlbEntries);
}

void
RvCore::setReg(unsigned idx, std::uint64_t v)
{
    panicIf(idx >= 32, "register index out of range");
    if (idx != 0)
        regs_[idx] = v;
}

void
RvCore::setTracer(obs::Tracer *tracer, NodeId node, Cycles stall_cycles)
{
    tracer_ = tracer ? tracer->handleFor(obs::Component::kCore) : nullptr;
    tracerDecode_ =
        tracer ? tracer->handleFor(obs::Component::kDecodeCache) : nullptr;
    traceNode_ = static_cast<std::uint16_t>(node);
    traceStallCycles_ = stall_cycles;
}

bool
RvCore::translationActive() const
{
    return (satp_ >> 60) == 8 && priv_ != 3;
}

void
RvCore::flushDecodeCache()
{
    if (!decodeCache_.enabled())
        return;
    decodeCache_.flush();
    if (tracerDecode_) {
        obs::TraceEvent ev = obs::event(obs::EventKind::kDecodeFlush);
        ev.cycle = cycles_;
        ev.arg = pc_;
        ev.node = traceNode_;
        ev.tile = static_cast<std::uint16_t>(cfg_.hartId);
        tracerDecode_->record(ev);
    }
}

RvCore::TlbEntry *
RvCore::tlbLookup(std::vector<TlbEntry> &tlb, Addr vaddr)
{
    for (auto &e : tlb) {
        if (!e.valid)
            continue;
        std::uint64_t base = vaddr & ~(e.pageSize - 1);
        if ((base >> 12) == e.vpn) {
            e.lastUse = ++tlbClock_;
            return &e;
        }
    }
    return nullptr;
}

void
RvCore::tlbFill(std::vector<TlbEntry> &tlb, std::uint64_t vpn,
                std::uint64_t page_base, std::uint64_t page_size,
                std::uint8_t perms)
{
    TlbEntry *slot = &tlb[0];
    for (auto &e : tlb) {
        if (!e.valid) {
            slot = &e;
            break;
        }
        if (e.lastUse < slot->lastUse)
            slot = &e;
    }
    slot->valid = true;
    slot->vpn = vpn;
    slot->pageBase = page_base;
    slot->pageSize = page_size;
    slot->perms = perms;
    slot->lastUse = ++tlbClock_;
}

void
RvCore::tlbFlush()
{
    for (auto &e : itlb_)
        e.valid = false;
    for (auto &e : dtlb_)
        e.valid = false;
}

RvCore::TranslateResult
RvCore::translate(Addr vaddr, MemAccess access, Cycles &lat)
{
    if (!translationActive())
        return TranslateResult{vaddr, false, 0};

    auto &tlb = access == MemAccess::kFetch ? itlb_ : dtlb_;
    if (TlbEntry *e = tlbLookup(tlb, vaddr)) {
        bool perm_ok = true;
        if (access == MemAccess::kFetch)
            perm_ok = e->perms & kPermX;
        else if (access == MemAccess::kLoad)
            perm_ok = e->perms & kPermR;
        else
            perm_ok = e->perms & kPermW;
        if (priv_ == 0 && !(e->perms & kPermU))
            perm_ok = false;
        // A store through a clean entry must re-walk to set the D bit.
        bool need_rewalk =
            access == MemAccess::kStore && !(e->perms & kPermD);
        if (perm_ok && !need_rewalk) {
            Addr offset = vaddr & (e->pageSize - 1);
            return TranslateResult{e->pageBase + offset, false, 0};
        }
        if (!perm_ok)
            return TranslateResult{0, true, faultCause(access)};
        e->valid = false; // Fall through to the walker for the D bit.
    }

    // Sv39 three-level walk; PTE loads go through the memory port so they
    // show up in the timing model.
    if (stats_)
        stats_->counter(kTlbMisses).increment();
    lat += cfg_.tlbWalkBase;
    std::uint64_t root = (satp_ & ((1ULL << 44) - 1)) << 12;
    std::uint64_t table = root;
    for (int level = 2; level >= 0; --level) {
        std::uint64_t vpn_i = (vaddr >> (12 + 9 * level)) & 0x1ff;
        Addr pte_addr = table + vpn_i * 8;
        Cycles pte_lat = 0;
        std::uint64_t pte = port_.load(pte_addr, 8, cycles_ + lat, pte_lat);
        lat += pte_lat;

        if (!(pte & kPteV) || (!(pte & kPteR) && (pte & kPteW)))
            return TranslateResult{0, true, faultCause(access)};

        if (pte & (kPteR | kPteX)) {
            // Leaf PTE; check permissions and superpage alignment.
            bool perm_ok = true;
            if (access == MemAccess::kFetch)
                perm_ok = pte & kPteX;
            else if (access == MemAccess::kLoad)
                perm_ok = pte & kPteR;
            else
                perm_ok = pte & kPteW;
            if (priv_ == 0 && !(pte & kPteU))
                perm_ok = false;
            if (!perm_ok)
                return TranslateResult{0, true, faultCause(access)};

            std::uint64_t ppn = pte >> 10;
            std::uint64_t page_size = 1ULL << (12 + 9 * level);
            if (level > 0 && (ppn & ((1ULL << (9 * level)) - 1)) != 0)
                return TranslateResult{0, true, faultCause(access)};

            // Update A/D bits in memory.
            std::uint64_t new_pte = pte | kPteA;
            if (access == MemAccess::kStore)
                new_pte |= kPteD;
            if (new_pte != pte) {
                Cycles st_lat = 0;
                port_.store(pte_addr, 8, new_pte, cycles_ + lat, st_lat);
                lat += st_lat;
            }

            std::uint64_t page_base = (ppn << 12) & ~(page_size - 1);
            std::uint8_t perms = 0;
            if (pte & kPteR)
                perms |= kPermR;
            if (new_pte & kPteW)
                perms |= kPermW;
            if (pte & kPteX)
                perms |= kPermX;
            if (pte & kPteU)
                perms |= kPermU;
            if (new_pte & kPteD)
                perms |= kPermD;
            std::uint64_t vbase = vaddr & ~(page_size - 1);
            tlbFill(tlb, vbase >> 12, page_base, page_size, perms);
            return TranslateResult{page_base + (vaddr & (page_size - 1)),
                                   false, 0};
        }
        table = (pte >> 10) << 12;
    }
    return TranslateResult{0, true, faultCause(access)};
}

void
RvCore::takeTrap(std::uint64_t cause, std::uint64_t tval)
{
    mepc_ = pc_;
    mcause_ = cause;
    mtval_ = tval;
    // Save and mask interrupt enable; remember the source privilege.
    std::uint64_t mie_bit = (mstatus_ & kMstatusMie) ? 1 : 0;
    mstatus_ &= ~(kMstatusMie | kMstatusMpie |
                  (3ULL << kMstatusMppShift));
    mstatus_ |= mie_bit << 7;
    mstatus_ |= static_cast<std::uint64_t>(priv_) << kMstatusMppShift;
    priv_ = 3;

    Addr base = mtvec_ & ~3ULL;
    if ((mtvec_ & 3) == 1 && (cause & kInterruptBit))
        pc_ = base + 4 * (cause & 0xff);
    else
        pc_ = base;
    if (stats_)
        stats_->counter(kTraps).increment();
}

bool
RvCore::interruptPending() const
{
    std::uint64_t pending = mip_ & mie_;
    if (!pending)
        return false;
    return priv_ < 3 || (mstatus_ & kMstatusMie);
}

bool
RvCore::maybeTakeInterrupt()
{
    if (!interruptPending())
        return false;
    std::uint64_t pending = mip_ & mie_;
    std::uint32_t irq;
    if (pending & (1ULL << kIrqMei))
        irq = kIrqMei;
    else if (pending & (1ULL << kIrqMsi))
        irq = kIrqMsi;
    else
        irq = kIrqMti;
    takeTrap(kInterruptBit | irq, 0);
    if (stats_)
        stats_->counter(kInterruptsTaken).increment();
    return true;
}

void
RvCore::setIrqLine(std::uint32_t irq, bool level)
{
    if (level)
        mip_ |= 1ULL << irq;
    else
        mip_ &= ~(1ULL << irq);
}

bool
RvCore::predictTaken(Addr pc)
{
    return bht_[(pc >> 2) & (cfg_.bhtEntries - 1)] >= 2;
}

void
RvCore::trainBht(Addr pc, bool taken)
{
    std::uint8_t &ctr = bht_[(pc >> 2) & (cfg_.bhtEntries - 1)];
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
}

std::uint64_t
RvCore::readCsr(std::uint16_t num) const
{
    switch (num) {
      case kCsrMstatus: return mstatus_;
      case kCsrMisa:
        // RV64 (MXL=2) with I, M, A, S, U.
        return (2ULL << 62) | (1 << 0) | (1 << 8) | (1 << 12) | (1 << 18) |
               (1 << 20);
      case kCsrMie: return mie_;
      case kCsrMip: return mip_;
      case kCsrMtvec: return mtvec_;
      case kCsrMepc: return mepc_;
      case kCsrMcause: return mcause_;
      case kCsrMtval: return mtval_;
      case kCsrMscratch: return mscratch_;
      case kCsrMhartid: return cfg_.hartId;
      case kCsrSatp: return satp_;
      case kCsrCycle:
      case kCsrMcycle:
      case kCsrTime:
        return cycles_;
      case kCsrInstret:
      case kCsrMinstret:
        return instret_;
      default:
        return 0;
    }
}

void
RvCore::writeCsr(std::uint16_t num, std::uint64_t value)
{
    switch (num) {
      case kCsrMstatus:
        mstatus_ = legalizeMstatusWrite(value);
        break;
      case kCsrMie:
        mie_ = value;
        break;
      case kCsrMip:
        // Software-settable bits only (MSIP is set via the CLINT).
        mip_ = value;
        break;
      case kCsrMtvec:
        mtvec_ = legalizeMtvecWrite(value);
        break;
      case kCsrMepc:
        mepc_ = legalizeMepcWrite(value);
        break;
      case kCsrMcause:
        mcause_ = value;
        break;
      case kCsrMtval:
        mtval_ = value;
        break;
      case kCsrMscratch:
        mscratch_ = value;
        break;
      case kCsrSatp:
        satp_ = legalizeSatpWrite(satp_, value);
        tlbFlush();
        flushDecodeCache();
        break;
      default:
        break; // Writes to unimplemented/read-only CSRs are ignored.
    }
}

std::uint64_t
RvCore::csr(std::uint16_t num) const
{
    return readCsr(num);
}

void
RvCore::setCsr(std::uint16_t num, std::uint64_t value)
{
    writeCsr(num, value);
}

HaltReason
RvCore::run(std::uint64_t max_instructions)
{
    for (std::uint64_t i = 0; i < max_instructions; ++i) {
        if (exited_)
            return HaltReason::kExited;
        step();
        if (exited_)
            return HaltReason::kExited;
        if (lastStall_ == Stall::kEbreak)
            return HaltReason::kEbreak;
        if (lastStall_ == Stall::kWfi)
            return HaltReason::kWfi;
    }
    return HaltReason::kInstrBudget;
}

Cycles
RvCore::step()
{
    if (exited_)
        return 0;
    lastStall_ = Stall::kNone;
    if (maybeTakeInterrupt()) {
        cycles_ += cfg_.mispredictPenalty; // Redirect cost.
        if (commit_) {
            CommitRecord rec;
            rec.pc = pc_;
            rec.interrupt = true;
            commit_(*this, rec);
        }
        return cfg_.mispredictPenalty;
    }

    Cycles total = cfg_.baseCycles; // Pipeline base CPI.
    Addr pc = pc_;

    // Fetch-side traps retire nothing but still redirect control; the
    // commit observer hears about them so a lockstep follower can track
    // the pc.
    auto commitFetchTrap = [&] {
        if (!commit_)
            return;
        CommitRecord rec;
        rec.pc = pc;
        rec.trapped = true;
        commit_(*this, rec);
    };

    if (pc & 3) {
        takeTrap(kCauseMisalignedFetch, pc);
        cycles_ += total;
        commitFetchTrap();
        return total;
    }

    // Fetch (with translation).
    Cycles xlat_lat = 0;
    TranslateResult tr = translate(pc, MemAccess::kFetch, xlat_lat);
    total += xlat_lat;
    if (tr.fault) {
        takeTrap(tr.cause, pc);
        cycles_ += total;
        commitFetchTrap();
        return total;
    }
    std::uint32_t word = 0;
    DecodedInst d;
    bool decoded = false;
    // Decode-cache fast path. Only untranslated fetches qualify: a
    // translated fetch's iTLB lookup mutates checkpointed replacement
    // state, which the fast path must not skip. The L1I-hit gate
    // (fetchFastHit) replicates the hit path's timing and side effects
    // exactly and inherits coherence invalidations; the entry's write
    // stamp catches same-hart stores, DMA and loader writes.
    if (decodeCache_.enabled() && !translationActive()) {
        if (const DecodeCache::Entry *e = decodeCache_.find(pc)) {
            Cycles hit_lat = 0;
            if (port_.fetchFastHit(tr.paddr, cycles_, hit_lat)) {
                if (hit_lat > 1)
                    total += hit_lat - 1;
                word = e->word;
                d = e->inst;
                decoded = true;
                decodeCache_.countHit();
            } else {
                decodeCache_.countBypass();
            }
        }
        if (!decoded) {
            // The stamp is sampled before the fetch so a write racing
            // the fill can only make the entry conservatively stale.
            CodeRef ref = port_.codeRef(tr.paddr);
            Cycles fetch_lat = 0;
            word = port_.fetch(tr.paddr, cycles_, fetch_lat);
            if (fetch_lat > 1)
                total += fetch_lat - 1;
            d = decode(word);
            decoded = true;
            decodeCache_.fill(pc, word, d, ref);
            if (tracerDecode_) {
                obs::TraceEvent ev =
                    obs::event(obs::EventKind::kDecodeFill);
                ev.cycle = cycles_;
                ev.arg = pc;
                ev.node = traceNode_;
                ev.tile = static_cast<std::uint16_t>(cfg_.hartId);
                tracerDecode_->record(ev);
            }
        }
    }
    if (!decoded) {
        Cycles fetch_lat = 0;
        word = port_.fetch(tr.paddr, cycles_, fetch_lat);
        if (fetch_lat > 1)
            total += fetch_lat - 1; // L1I hit is covered by the base cycle.
        d = decode(word);
    }
    lastWord_ = word;

    if (trace_)
        trace_(pc, d);
    Addr next_pc = pc + 4;
    bool redirect = false;
    bool env_absorbed = false;

    auto rs1 = [&] { return regs_[d.rs1]; };
    auto rs2 = [&] { return regs_[d.rs2]; };
    auto wr = [&](std::uint64_t v) {
        if (d.rd != 0)
            regs_[d.rd] = v;
    };

    // Data access helper: translate + access, with fault handling.
    bool trapped = false;
    auto dataAddr = [&](MemAccess acc, Addr vaddr) -> Addr {
        Cycles lat = 0;
        TranslateResult r = translate(vaddr, acc, lat);
        total += lat;
        if (r.fault) {
            takeTrap(r.cause, vaddr);
            trapped = true;
            return 0;
        }
        return r.paddr;
    };

    switch (d.op) {
      case Op::kLui:
        wr(static_cast<std::uint64_t>(d.imm));
        break;
      case Op::kAuipc:
        wr(pc + static_cast<std::uint64_t>(d.imm));
        break;
      case Op::kJal:
        wr(pc + 4);
        next_pc = pc + static_cast<std::uint64_t>(d.imm);
        break;
      case Op::kJalr: {
          Addr target = (rs1() + static_cast<std::uint64_t>(d.imm)) & ~1ULL;
          wr(pc + 4);
          next_pc = target;
          total += cfg_.jalrPenalty;
          break;
      }
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBltu: case Op::kBgeu: {
          bool taken = false;
          switch (d.op) {
            case Op::kBeq: taken = rs1() == rs2(); break;
            case Op::kBne: taken = rs1() != rs2(); break;
            case Op::kBlt: taken = asSigned(rs1()) < asSigned(rs2()); break;
            case Op::kBge: taken = asSigned(rs1()) >= asSigned(rs2()); break;
            case Op::kBltu: taken = rs1() < rs2(); break;
            case Op::kBgeu: taken = rs1() >= rs2(); break;
            default: break;
          }
          bool predicted = predictTaken(pc);
          if (predicted != taken) {
              total += cfg_.mispredictPenalty;
              if (stats_)
                  stats_->counter(kMispredicts).increment();
          }
          trainBht(pc, taken);
          if (stats_)
              stats_->counter(kBranches).increment();
          if (taken)
              next_pc = pc + static_cast<std::uint64_t>(d.imm);
          break;
      }
      case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLd:
      case Op::kLbu: case Op::kLhu: case Op::kLwu: {
          Addr va = rs1() + static_cast<std::uint64_t>(d.imm);
          Addr pa = dataAddr(MemAccess::kLoad, va);
          if (trapped)
              break;
          std::uint32_t bytes = 1;
          if (d.op == Op::kLh || d.op == Op::kLhu)
              bytes = 2;
          else if (d.op == Op::kLw || d.op == Op::kLwu)
              bytes = 4;
          else if (d.op == Op::kLd)
              bytes = 8;
          // Data fast path (dataFastPath knob): aligned untranslated
          // scalar loads may short-circuit the full memory-system walk
          // when the port can prove an L1D hit. loadFastHit replicates
          // the hit path's timing and side effects exactly, so taking
          // it is observably invisible; a false return changed nothing
          // and the full load() runs as before. Translated accesses
          // stay slow, like the decode fast path.
          Cycles lat = 0;
          std::uint64_t v = 0;
          if (!(cfg_.dataFastPath && !translationActive() &&
                (pa & (bytes - 1)) == 0 &&
                port_.loadFastHit(pa, bytes, cycles_, lat, v)))
              v = port_.load(pa, bytes, cycles_, lat);
          total += lat;
          switch (d.op) {
            case Op::kLb:
              v = static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(static_cast<std::int8_t>(v)));
              break;
            case Op::kLh:
              v = static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(static_cast<std::int16_t>(v)));
              break;
            case Op::kLw:
              v = sext32(v);
              break;
            default:
              break;
          }
          wr(v);
          break;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd: {
          Addr va = rs1() + static_cast<std::uint64_t>(d.imm);
          Addr pa = dataAddr(MemAccess::kStore, va);
          if (trapped)
              break;
          std::uint32_t bytes = 1;
          if (d.op == Op::kSh)
              bytes = 2;
          else if (d.op == Op::kSw)
              bytes = 4;
          else if (d.op == Op::kSd)
              bytes = 8;
          // Same contract as the load fast path: a true return already
          // performed the full store (timing, stats and data); false
          // changed nothing, not even backing memory.
          Cycles lat = 0;
          if (!(cfg_.dataFastPath && !translationActive() &&
                (pa & (bytes - 1)) == 0 &&
                port_.storeFastHit(pa, bytes, rs2(), cycles_, lat)))
              port_.store(pa, bytes, rs2(), cycles_, lat);
          total += lat;
          hasReservation_ = false;
          break;
      }
      case Op::kAddi: wr(rs1() + static_cast<std::uint64_t>(d.imm)); break;
      case Op::kSlti:
        wr(asSigned(rs1()) < d.imm ? 1 : 0);
        break;
      case Op::kSltiu:
        wr(rs1() < static_cast<std::uint64_t>(d.imm) ? 1 : 0);
        break;
      case Op::kXori: wr(rs1() ^ static_cast<std::uint64_t>(d.imm)); break;
      case Op::kOri: wr(rs1() | static_cast<std::uint64_t>(d.imm)); break;
      case Op::kAndi: wr(rs1() & static_cast<std::uint64_t>(d.imm)); break;
      case Op::kSlli: wr(rs1() << d.imm); break;
      case Op::kSrli: wr(rs1() >> d.imm); break;
      case Op::kSrai:
        wr(static_cast<std::uint64_t>(asSigned(rs1()) >> d.imm));
        break;
      case Op::kAdd: wr(rs1() + rs2()); break;
      case Op::kSub: wr(rs1() - rs2()); break;
      case Op::kSll: wr(rs1() << (rs2() & 63)); break;
      case Op::kSlt: wr(asSigned(rs1()) < asSigned(rs2()) ? 1 : 0); break;
      case Op::kSltu: wr(rs1() < rs2() ? 1 : 0); break;
      case Op::kXor: wr(rs1() ^ rs2()); break;
      case Op::kSrl: wr(rs1() >> (rs2() & 63)); break;
      case Op::kSra:
        wr(static_cast<std::uint64_t>(asSigned(rs1()) >> (rs2() & 63)));
        break;
      case Op::kOr: wr(rs1() | rs2()); break;
      case Op::kAnd: wr(rs1() & rs2()); break;
      case Op::kAddiw:
        wr(sext32(rs1() + static_cast<std::uint64_t>(d.imm)));
        break;
      case Op::kSlliw: wr(sext32(rs1() << d.imm)); break;
      case Op::kSrliw:
        wr(sext32(static_cast<std::uint32_t>(rs1()) >> d.imm));
        break;
      case Op::kSraiw:
        wr(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(rs1()) >> d.imm)));
        break;
      case Op::kAddw: wr(sext32(rs1() + rs2())); break;
      case Op::kSubw: wr(sext32(rs1() - rs2())); break;
      case Op::kSllw: wr(sext32(rs1() << (rs2() & 31))); break;
      case Op::kSrlw:
        wr(sext32(static_cast<std::uint32_t>(rs1()) >> (rs2() & 31)));
        break;
      case Op::kSraw:
        wr(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(rs1()) >> (rs2() & 31))));
        break;
      case Op::kMul:
        wr(rs1() * rs2());
        total += cfg_.mulLatency - 1;
        break;
      case Op::kMulh: {
          auto a = static_cast<__int128>(asSigned(rs1()));
          auto b = static_cast<__int128>(asSigned(rs2()));
          std::uint64_t hi = static_cast<std::uint64_t>((a * b) >> 64);
          if (mutation_ == CoreTestMutation::kMulhCorrupt)
              hi ^= 0x4000000000000000ULL;
          wr(hi);
          total += cfg_.mulLatency - 1;
          break;
      }
      case Op::kMulhsu: {
          auto a = static_cast<__int128>(asSigned(rs1()));
          auto b = static_cast<__int128>(
              static_cast<unsigned __int128>(rs2()));
          wr(static_cast<std::uint64_t>((a * b) >> 64));
          total += cfg_.mulLatency - 1;
          break;
      }
      case Op::kMulhu: {
          auto a = static_cast<unsigned __int128>(rs1());
          auto b = static_cast<unsigned __int128>(rs2());
          wr(static_cast<std::uint64_t>((a * b) >> 64));
          total += cfg_.mulLatency - 1;
          break;
      }
      case Op::kDiv: {
          std::int64_t a = asSigned(rs1());
          std::int64_t b = asSigned(rs2());
          if (b == 0)
              wr(~0ULL);
          else if (a == INT64_MIN && b == -1)
              wr(static_cast<std::uint64_t>(a));
          else
              wr(static_cast<std::uint64_t>(a / b));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kDivu:
        wr(rs2() == 0 ? ~0ULL : rs1() / rs2());
        total += cfg_.divLatency - 1;
        break;
      case Op::kRem: {
          std::int64_t a = asSigned(rs1());
          std::int64_t b = asSigned(rs2());
          if (b == 0)
              wr(static_cast<std::uint64_t>(a));
          else if (a == INT64_MIN && b == -1)
              wr(0);
          else
              wr(static_cast<std::uint64_t>(a % b));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kRemu:
        wr(rs2() == 0 ? rs1() : rs1() % rs2());
        total += cfg_.divLatency - 1;
        break;
      case Op::kMulw:
        wr(sext32(rs1() * rs2()));
        total += cfg_.mulLatency - 1;
        break;
      case Op::kDivw: {
          auto a = static_cast<std::int32_t>(rs1());
          auto b = static_cast<std::int32_t>(rs2());
          if (b == 0)
              wr(~0ULL);
          else if (a == INT32_MIN && b == -1)
              wr(sext32(static_cast<std::uint32_t>(a)));
          else
              wr(sext32(static_cast<std::uint32_t>(a / b)));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kDivuw: {
          auto a = static_cast<std::uint32_t>(rs1());
          auto b = static_cast<std::uint32_t>(rs2());
          wr(b == 0 ? ~0ULL : sext32(a / b));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kRemw: {
          auto a = static_cast<std::int32_t>(rs1());
          auto b = static_cast<std::int32_t>(rs2());
          if (b == 0)
              wr(sext32(static_cast<std::uint32_t>(a)));
          else if (a == INT32_MIN && b == -1)
              wr(0);
          else
              wr(sext32(static_cast<std::uint32_t>(a % b)));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kRemuw: {
          auto a = static_cast<std::uint32_t>(rs1());
          auto b = static_cast<std::uint32_t>(rs2());
          wr(b == 0 ? sext32(a) : sext32(a % b));
          total += cfg_.divLatency - 1;
          break;
      }
      case Op::kFence:
      case Op::kFenceI:
      case Op::kSfenceVma:
        if (d.op == Op::kSfenceVma)
            tlbFlush();
        // FENCE.I is the architectural store->fetch synchronization
        // point; SFENCE.VMA retires mapping changes. Both drop every
        // memoized decode (plain FENCE does not order fetches).
        if (d.op != Op::kFence)
            flushDecodeCache();
        break;
      case Op::kEcall: {
          if (ecall_ && ecall_(*this)) {
              env_absorbed = true;
              break;
          }
          std::uint64_t cause = priv_ == 3 ? kCauseEcallM
                                           : kCauseEcallU + priv_;
          takeTrap(cause, 0);
          redirect = true;
          break;
      }
      case Op::kEbreak:
        // Leave pc at the ebreak; run() reports it to the caller.
        lastStall_ = Stall::kEbreak;
        cycles_ += total;
        return total;
      case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
          std::uint64_t old = readCsr(d.csr);
          std::uint64_t src =
              (d.op == Op::kCsrrwi || d.op == Op::kCsrrsi ||
               d.op == Op::kCsrrci)
                  ? static_cast<std::uint64_t>(d.imm)
                  : rs1();
          std::uint64_t next = old;
          if (d.op == Op::kCsrrw || d.op == Op::kCsrrwi)
              next = src;
          else if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi)
              next = old | src;
          else
              next = old & ~src;
          if (next != old)
              writeCsr(d.csr, next);
          wr(old);
          break;
      }
      case Op::kMret:
      case Op::kSret: {
          // Return to the saved privilege; sret is treated as mret since
          // all traps are taken in M mode in this model.
          unsigned mpp =
              static_cast<unsigned>((mstatus_ >> kMstatusMppShift) & 3);
          if (mstatus_ & kMstatusMpie)
              mstatus_ |= kMstatusMie;
          else
              mstatus_ &= ~kMstatusMie;
          mstatus_ |= kMstatusMpie;
          mstatus_ &= ~(3ULL << kMstatusMppShift);
          priv_ = mpp;
          next_pc = mepc_;
          break;
      }
      case Op::kWfi:
        if (!(mip_ & mie_)) {
            // Stall: report the wait to run() without retiring.
            lastStall_ = Stall::kWfi;
            cycles_ += total;
            return total;
        }
        break;
      case Op::kLrW: case Op::kLrD: {
          Addr pa = dataAddr(MemAccess::kLoad, rs1());
          if (trapped)
              break;
          std::uint32_t bytes = d.op == Op::kLrW ? 4 : 8;
          Cycles lat = 0;
          std::uint64_t v = port_.load(pa, bytes, cycles_, lat);
          total += lat;
          if (d.op == Op::kLrW)
              v = sext32(v);
          wr(v);
          hasReservation_ = true;
          reservation_ = lineAlign(pa);
          break;
      }
      case Op::kScW: case Op::kScD: {
          Addr pa = dataAddr(MemAccess::kStore, rs1());
          if (trapped)
              break;
          std::uint32_t bytes = d.op == Op::kScW ? 4 : 8;
          if (hasReservation_ && reservation_ == lineAlign(pa)) {
              Cycles lat = 0;
              port_.store(pa, bytes, rs2(), cycles_, lat);
              total += lat;
              wr(0);
          } else {
              wr(1);
          }
          hasReservation_ = false;
          break;
      }
      default: {
          if (d.isAmo()) {
              Addr pa = dataAddr(MemAccess::kStore, rs1());
              if (trapped)
                  break;
              bool is64 = d.op >= Op::kAmoSwapD;
              std::uint32_t bytes = is64 ? 8 : 4;
              // Word AMOs operate on 32-bit values: both operands are
              // sign-extended so the min/max comparisons preserve the
              // 32-bit order regardless of rs2's upper bits.
              std::uint64_t src = is64 ? rs2() : sext32(rs2());
              Cycles lat = 0;
              std::uint64_t old = port_.atomic(
                  pa, bytes,
                  [&](std::uint64_t mem) -> std::uint64_t {
                      std::uint64_t a = is64 ? mem : sext32(mem);
                      switch (d.op) {
                        case Op::kAmoSwapW: case Op::kAmoSwapD:
                          return src;
                        case Op::kAmoAddW: case Op::kAmoAddD:
                          return a + src;
                        case Op::kAmoXorW: case Op::kAmoXorD:
                          return a ^ src;
                        case Op::kAmoAndW: case Op::kAmoAndD:
                          return a & src;
                        case Op::kAmoOrW: case Op::kAmoOrD:
                          return a | src;
                        case Op::kAmoMinW: case Op::kAmoMinD:
                          return asSigned(a) < asSigned(src) ? a : src;
                        case Op::kAmoMaxW: case Op::kAmoMaxD:
                          return asSigned(a) > asSigned(src) ? a : src;
                        case Op::kAmoMinuW: case Op::kAmoMinuD:
                          return a < src ? a : src;
                        case Op::kAmoMaxuW: case Op::kAmoMaxuD:
                          return a > src ? a : src;
                        default:
                          return a;
                      }
                  },
                  cycles_, lat);
              total += lat;
              wr(is64 ? old : sext32(old));
              hasReservation_ = false;
              break;
          }
          takeTrap(kCauseIllegalInst, word);
          redirect = true;
          break;
      }
    }

    if (!redirect && !trapped)
        pc_ = next_pc;
    ++instret_;
    cycles_ += total;
    if (stats_)
        stats_->counter(kInstret).increment();
    if (tracer_) {
        obs::TraceEvent ev = obs::event(obs::EventKind::kCoreCommit);
        ev.cycle = cycles_ - total;
        ev.duration = static_cast<std::uint32_t>(total);
        ev.arg = pc;
        ev.node = traceNode_;
        ev.tile = static_cast<std::uint16_t>(cfg_.hartId);
        tracer_->record(ev);
        if (total >= traceStallCycles_) {
            ev.kind = static_cast<std::uint8_t>(obs::EventKind::kCoreStall);
            tracer_->record(ev);
        }
    }
    if (commit_) {
        CommitRecord rec;
        rec.pc = pc;
        rec.word = word;
        rec.inst = &d;
        rec.trapped = redirect || trapped;
        rec.envAbsorbed = env_absorbed;
        commit_(*this, rec);
    }
    return total;
}

void
RvCore::setTestMutation(CoreTestMutation m)
{
    mutation_ = m;
    decodeCache_.setIgnoreStaleStamps(m == CoreTestMutation::kStaleDecode);
}

void
RvCore::saveState(snap::Writer &w) const
{
    for (std::uint64_t reg : regs_)
        w.u64(reg);
    w.u64(pc_);
    w.u64(cycles_);
    w.u64(instret_);
    w.u32(priv_);

    w.u64(mstatus_);
    w.u64(mie_);
    w.u64(mip_);
    w.u64(mtvec_);
    w.u64(mepc_);
    w.u64(mcause_);
    w.u64(mtval_);
    w.u64(mscratch_);
    w.u64(satp_);

    w.boolean(hasReservation_);
    w.u64(reservation_);

    w.u64(bht_.size());
    w.bytes(bht_.data(), bht_.size());

    auto save_tlb = [&w](const std::vector<TlbEntry> &tlb) {
        w.u64(tlb.size());
        for (const TlbEntry &e : tlb) {
            w.u64(e.vpn);
            w.u64(e.pageBase);
            w.u64(e.pageSize);
            w.u8(e.perms);
            w.boolean(e.valid);
            w.u64(e.lastUse);
        }
    };
    save_tlb(itlb_);
    save_tlb(dtlb_);
    w.u64(tlbClock_);

    w.boolean(exited_);
    w.u64(static_cast<std::uint64_t>(exitCode_));
    w.u32(lastWord_);
    w.u8(static_cast<std::uint8_t>(lastStall_));
}

void
RvCore::restoreState(snap::Reader &r)
{
    for (std::uint64_t &reg : regs_)
        reg = r.u64();
    pc_ = r.u64();
    cycles_ = r.u64();
    instret_ = r.u64();
    priv_ = r.u32();

    mstatus_ = r.u64();
    mie_ = r.u64();
    mip_ = r.u64();
    mtvec_ = r.u64();
    mepc_ = r.u64();
    mcause_ = r.u64();
    mtval_ = r.u64();
    mscratch_ = r.u64();
    satp_ = r.u64();

    hasReservation_ = r.boolean();
    reservation_ = r.u64();

    std::uint64_t bht_size = r.u64();
    fatalIf(bht_size != bht_.size(),
            strfmt("checkpoint BHT has %llu entries, core expects %llu",
                   static_cast<unsigned long long>(bht_size),
                   static_cast<unsigned long long>(bht_.size())));
    r.bytes(bht_.data(), bht_.size());

    auto restore_tlb = [&r](std::vector<TlbEntry> &tlb) {
        std::uint64_t size = r.u64();
        fatalIf(size != tlb.size(),
                strfmt("checkpoint TLB has %llu entries, core expects %llu",
                       static_cast<unsigned long long>(size),
                       static_cast<unsigned long long>(tlb.size())));
        for (TlbEntry &e : tlb) {
            e.vpn = r.u64();
            e.pageBase = r.u64();
            e.pageSize = r.u64();
            e.perms = r.u8();
            e.valid = r.boolean();
            e.lastUse = r.u64();
        }
    };
    restore_tlb(itlb_);
    restore_tlb(dtlb_);
    tlbClock_ = r.u64();

    exited_ = r.boolean();
    exitCode_ = static_cast<std::int64_t>(r.u64());
    lastWord_ = r.u32();
    lastStall_ = static_cast<Stall>(r.u8());

    // The restored memory image may differ arbitrarily from the one the
    // memoized decodes were taken against.
    flushDecodeCache();
}

} // namespace smappic::riscv
