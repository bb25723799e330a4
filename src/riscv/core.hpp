/**
 * @file
 * RV64IMA core model with Ariane-like timing.
 *
 * The functional layer is a full interpreter (RV64IMA + Zicsr, M/S/U
 * privilege with traps to M, Sv39 translation); the timing layer models the
 * paper's Table 2 core: in-order single-issue 6-stage pipeline, 128-entry
 * branch history table, 16-entry I/D TLBs. Memory operation latencies come
 * from the attached MemPort (usually the platform's coherent memory
 * system), so cache/NoC/inter-node behaviour shows up directly in core
 * cycle counts.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "riscv/decode_cache.hpp"
#include "riscv/isa.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::obs
{
class Tracer;
}

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::riscv
{

/** Memory access types as seen by the translation/permission logic. */
enum class MemAccess : std::uint8_t
{
    kFetch,
    kLoad,
    kStore,
};

/**
 * The core's window onto the memory system. Latencies returned through
 * @p lat are in core cycles and include the full miss path.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    virtual std::uint64_t load(Addr addr, std::uint32_t bytes, Cycles now,
                               Cycles &lat) = 0;
    virtual void store(Addr addr, std::uint32_t bytes, std::uint64_t value,
                       Cycles now, Cycles &lat) = 0;
    virtual std::uint32_t fetch(Addr addr, Cycles now, Cycles &lat) = 0;

    /**
     * Atomic read-modify-write: returns the old value and stores
     * @p rmw(old).
     */
    virtual std::uint64_t
    atomic(Addr addr, std::uint32_t bytes,
           const std::function<std::uint64_t(std::uint64_t)> &rmw,
           Cycles now, Cycles &lat) = 0;

    /**
     * Decode-cache fast path: when the fetch of @p addr would hit the
     * L1I, performs the hit path's side effects (LRU touch, hit counter)
     * and returns true with @p lat set to the hit latency; otherwise
     * returns false having changed nothing, and the caller must issue
     * the full fetch(). The default (ports without a timing hierarchy)
     * never takes the fast path.
     */
    virtual bool
    fetchFastHit(Addr addr, Cycles now, Cycles &lat)
    {
        (void)addr;
        (void)now;
        (void)lat;
        return false;
    }

    /**
     * Write-stamp handle covering the bytes behind @p addr (see
     * CodeRef). Must be sampled before the corresponding fetch(). The
     * default returns a null ref, which DecodeCache::fill refuses to
     * cache — ports without stamp support stay correct for free.
     */
    virtual CodeRef
    codeRef(Addr addr)
    {
        (void)addr;
        return {};
    }

    /**
     * Data fast path for scalar loads: when a load of @p bytes at
     * @p addr would hit the L1D, performs the hit path's exact side
     * effects (LRU touch, hit counter), reads the data into @p value
     * and returns true with @p lat set to the hit latency; otherwise
     * returns false having changed nothing, and the caller must issue
     * the full load(). Only called for naturally aligned accesses.
     * The default (ports without a timing hierarchy) never takes the
     * fast path.
     */
    virtual bool
    loadFastHit(Addr addr, std::uint32_t bytes, Cycles now, Cycles &lat,
                std::uint64_t &value)
    {
        (void)addr;
        (void)bytes;
        (void)now;
        (void)lat;
        (void)value;
        return false;
    }

    /**
     * Data fast path for scalar stores: when a store of @p bytes at
     * @p addr would complete at L1 speed (the private hierarchy already
     * owns the line in M), performs the hit path's exact side effects,
     * writes @p value to backing memory and returns true with @p lat
     * set to the hit latency; otherwise returns false having changed
     * nothing — not even memory — and the caller must issue the full
     * store(). Only called for naturally aligned accesses.
     */
    virtual bool
    storeFastHit(Addr addr, std::uint32_t bytes, std::uint64_t value,
                 Cycles now, Cycles &lat)
    {
        (void)addr;
        (void)bytes;
        (void)value;
        (void)now;
        (void)lat;
        return false;
    }
};

/** Static configuration of one core (Table 2 defaults). */
struct CoreConfig
{
    std::uint32_t hartId = 0;
    Addr resetPc = 0x80000000;
    Cycles baseCycles = 1;        ///< Cycles per instruction before stalls.
    std::uint32_t bhtEntries = 128;
    std::uint32_t itlbEntries = 16;
    std::uint32_t dtlbEntries = 16;
    Cycles mispredictPenalty = 5; ///< 6-stage frontend flush.
    Cycles jalrPenalty = 3;       ///< Indirect target redirect.
    Cycles mulLatency = 2;
    Cycles divLatency = 20;
    Cycles tlbWalkBase = 6;       ///< Walker overhead beyond PTE loads.
    /** Decoded-instruction cache (decode_cache.hpp). Timing-neutral by
     *  construction; disable to run the original fetch/decode path. */
    DecodeCacheConfig decodeCache;
    /** L1D hit fast path for aligned scalar loads/stores
     *  (MemPort::loadFastHit/storeFastHit). Timing-neutral by
     *  construction; disable to run every access down the full walk. */
    bool dataFastPath = true;
};

/** Why run() returned. */
enum class HaltReason : std::uint8_t
{
    kInstrBudget, ///< Instruction budget exhausted; call run() again.
    kExited,      ///< Environment requested exit (see exitCode()).
    kEbreak,      ///< Hit an ebreak.
    kWfi,         ///< Waiting for interrupt with none pending.
};

/**
 * One architecturally visible step, as reported to the commit observer
 * (see RvCore::setCommitFn). Three shapes:
 *  - a retired instruction: @p inst points at the decoded form (valid
 *    only for the duration of the callback), @p trapped tells whether it
 *    redirected into the trap handler, @p envAbsorbed whether an ecall
 *    was consumed by the environment instead of trapping;
 *  - a synchronous fetch-side trap that retired nothing (@p inst null,
 *    @p trapped true): misaligned pc or instruction page fault;
 *  - an asynchronous interrupt redirect (@p interrupt true, @p inst
 *    null): pc/mstatus changed with no instruction retired.
 * The callback runs after the core's state update, so the core exposes
 * the post-step architectural state.
 */
struct CommitRecord
{
    Addr pc = 0;               ///< pc the step started at.
    std::uint32_t word = 0;    ///< Raw instruction word (0 if none).
    const DecodedInst *inst = nullptr;
    bool trapped = false;
    bool envAbsorbed = false;
    bool interrupt = false;
};

/**
 * Test-only defeat switches proving the lockstep checker catches real
 * defect classes (mirrors cache::TestMutation). Never set in production.
 */
enum class CoreTestMutation : std::uint8_t
{
    kNone,
    /** mulh returns a wrong high word (silent ALU corruption). */
    kMulhCorrupt,
    /** The decode cache serves entries whose page write stamp is stale
     *  (suppressed self-modifying-code invalidation). */
    kStaleDecode,
};

/** RV64IMA hart. */
class RvCore
{
  public:
    /** Environment-call hook: return true when the ecall was absorbed. */
    using EcallHandler = std::function<bool(RvCore &)>;

    /** Instruction trace hook, fired once per decoded instruction. */
    using TraceFn = std::function<void(Addr pc, const DecodedInst &)>;

    /** Commit observer, fired after every architectural step. */
    using CommitFn = std::function<void(RvCore &, const CommitRecord &)>;

    RvCore(const CoreConfig &cfg, MemPort &port,
           sim::StatRegistry *stats = nullptr);

    /** Executes instructions until a halt condition. */
    HaltReason run(std::uint64_t max_instructions);

    /** Executes one instruction; returns the cycles it consumed. */
    Cycles step();

    // Architectural state access.
    std::uint64_t reg(unsigned idx) const { return regs_[idx]; }
    void setReg(unsigned idx, std::uint64_t v);
    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; }
    std::uint64_t csr(std::uint16_t num) const;
    void setCsr(std::uint16_t num, std::uint64_t value);

    Cycles cycles() const { return cycles_; }
    std::uint64_t instret() const { return instret_; }
    bool exited() const { return exited_; }
    /** The last step() stopped at an ebreak (run() returned kEbreak). */
    bool atEbreak() const { return lastStall_ == Stall::kEbreak; }
    std::int64_t exitCode() const { return exitCode_; }
    std::uint32_t hartId() const { return cfg_.hartId; }
    unsigned privilege() const { return priv_; }

    /** Requests environment exit (used by ecall handlers). */
    void requestExit(std::int64_t code)
    {
        exited_ = true;
        exitCode_ = code;
    }

    void setEcallHandler(EcallHandler h) { ecall_ = std::move(h); }

    /** Installs an instruction-trace callback (empty to disable). */
    void setTraceFn(TraceFn fn) { trace_ = std::move(fn); }

    /**
     * Installs the commit observer (empty to disable). Fired once per
     * architectural step — retired instruction, fetch-side trap, or
     * interrupt redirect (see CommitRecord) — after the state update.
     * EBREAK stalls and parked WFIs make no architectural progress and
     * are not reported. Costs one branch per step when unset.
     */
    void setCommitFn(CommitFn fn) { commit_ = std::move(fn); }

    /** Arms a test-only defeat switch (see CoreTestMutation). */
    void setTestMutation(CoreTestMutation m);

    /**
     * Attaches the platform tracer (null to detach). Every retired
     * instruction emits kCoreCommit (arg = pc, duration = cycles
     * consumed); retirements spanning at least @p stall_cycles also emit
     * kCoreStall, flagging long memory latencies. @p node tags the events
     * with the core's node (the core itself only knows its hart id).
     */
    void setTracer(obs::Tracer *tracer, NodeId node, Cycles stall_cycles);

    /**
     * Drives an interrupt wire (from the CLINT or PLIC).
     * @param irq One of kIrqMsi / kIrqMti / kIrqMei.
     */
    void setIrqLine(std::uint32_t irq, bool level);

    /** True when an enabled interrupt is pending. */
    bool interruptPending() const;

    const CoreConfig &config() const { return cfg_; }

    /** The decoded-instruction cache (hit/miss counters for benches). */
    const DecodeCache &decodeCache() const { return decodeCache_; }

    /** Serializes the full architectural + microarchitectural state
     *  (registers, CSRs, reservation, BHT, TLBs, halt bookkeeping). The
     *  decode cache is transient derived state and is deliberately not
     *  written: checkpoints are byte-identical with it on or off. */
    void saveState(snap::Writer &w) const;
    /** Restores into a core built from the same CoreConfig; flushes the
     *  decode cache (the restored memory image may differ arbitrarily
     *  from the one the entries were decoded against). */
    void restoreState(snap::Reader &r);

  private:
    struct TlbEntry
    {
        std::uint64_t vpn = 0;
        std::uint64_t pageBase = 0; ///< Physical base of the page.
        std::uint64_t pageSize = 0;
        std::uint8_t perms = 0;     ///< PTE R/W/X/U bits.
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    struct TranslateResult
    {
        Addr paddr = 0;
        bool fault = false;
        std::uint64_t cause = 0;
    };

    bool translationActive() const;
    /** Flushes the decode cache, emitting the kDecodeFlush trace event. */
    void flushDecodeCache();
    TranslateResult translate(Addr vaddr, MemAccess access, Cycles &lat);
    TlbEntry *tlbLookup(std::vector<TlbEntry> &tlb, Addr vaddr);
    void tlbFill(std::vector<TlbEntry> &tlb, std::uint64_t vpn,
                 std::uint64_t page_base, std::uint64_t page_size,
                 std::uint8_t perms);
    void tlbFlush();

    void takeTrap(std::uint64_t cause, std::uint64_t tval);
    bool maybeTakeInterrupt();
    bool predictTaken(Addr pc);
    void trainBht(Addr pc, bool taken);

    std::uint64_t readCsr(std::uint16_t num) const;
    void writeCsr(std::uint16_t num, std::uint64_t value);

    CoreConfig cfg_;
    MemPort &port_;
    sim::StatRegistry *stats_;
    obs::Tracer *tracer_ = nullptr;
    obs::Tracer *tracerDecode_ = nullptr;
    std::uint16_t traceNode_ = 0;
    Cycles traceStallCycles_ = 8;
    DecodeCache decodeCache_;

    std::uint64_t regs_[32] = {};
    Addr pc_;
    Cycles cycles_ = 0;
    std::uint64_t instret_ = 0;
    unsigned priv_ = 3; ///< M-mode at reset.

    // CSRs.
    std::uint64_t mstatus_ = 0;
    std::uint64_t mie_ = 0;
    std::uint64_t mip_ = 0;
    std::uint64_t mtvec_ = 0;
    std::uint64_t mepc_ = 0;
    std::uint64_t mcause_ = 0;
    std::uint64_t mtval_ = 0;
    std::uint64_t mscratch_ = 0;
    std::uint64_t satp_ = 0;

    // Reservation for LR/SC.
    bool hasReservation_ = false;
    Addr reservation_ = 0;

    // Predictors and TLBs.
    std::vector<std::uint8_t> bht_; ///< 2-bit counters.
    std::vector<TlbEntry> itlb_;
    std::vector<TlbEntry> dtlb_;
    std::uint64_t tlbClock_ = 0;

    /** Why the last step() made no forward progress. */
    enum class Stall : std::uint8_t
    {
        kNone,
        kWfi,
        kEbreak,
    };

    bool exited_ = false;
    std::int64_t exitCode_ = 0;
    std::uint32_t lastWord_ = 0; ///< Last fetched instruction (halt info).
    Stall lastStall_ = Stall::kNone;
    EcallHandler ecall_;
    TraceFn trace_;
    CommitFn commit_;
    CoreTestMutation mutation_ = CoreTestMutation::kNone;
};

} // namespace smappic::riscv
