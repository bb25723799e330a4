/**
 * @file
 * The SMAPPIC prototype: the user-facing assembly of the whole platform.
 *
 * A prototype is described in the paper's AxBxC notation — A FPGAs, B
 * nodes per FPGA, C tiles per node — and contains:
 *   - the coherent multi-node memory system (BYOC nodes, DRAM timing
 *     and SMAPPIC's inter-node crossing, the prototype's one inter-node
 *     path, which also carries the injected link faults),
 *   - one RV64 core per tile wired to that memory system,
 *   - the F1 PCIe fabric, which carries the host's SD-image writes,
 *   - I/O: two UARTs per node (console + overclocked data), the CLINT
 *     interrupt controller with packetizer delivery, and a virtual SD
 *     card in the top half of each node's DRAM.
 *
 * Users pick a configuration string ("4x1x12"), load a program and run —
 * mirroring the build-scripts-only flow the paper advertises.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/gng.hpp"
#include "accel/maple.hpp"
#include "cache/coherent_system.hpp"
#include "check/coherence_checker.hpp"
#include "check/lockstep.hpp"
#include "io/sd_card.hpp"
#include "io/uart16550.hpp"
#include "obs/tracer.hpp"
#include "os/guest_system.hpp"
#include "pcie/pcie_fabric.hpp"
#include "riscv/assembler.hpp"
#include "sim/fault.hpp"
#include "riscv/core.hpp"
#include "riscv/core_models.hpp"
#include "riscv/interrupts.hpp"
#include "riscv/plic.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/stats.hpp"
#include "sim/watchdog.hpp"
#include "snap/snapshot.hpp"

namespace smappic::platform
{

// Fixed MMIO map (per node where applicable).
inline constexpr Addr kClintBase = 0x02000000;
inline constexpr std::uint64_t kClintSize = 0x10000;
inline constexpr Addr kUartBase = 0x10000000;
inline constexpr std::uint64_t kUartStride = 0x1000; ///< Console, data...
inline constexpr std::uint64_t kUartNodeStride = 0x10000;
inline constexpr Addr kPlicBase = 0x0c000000;
inline constexpr std::uint64_t kPlicSize = 0x400000;
inline constexpr Addr kSdMmioBase = 0x03000000;
inline constexpr std::uint64_t kSdMmioStride = 0x1000;
inline constexpr Addr kAccelBase = 0xf0000000;
inline constexpr std::uint64_t kAccelStride = 0x10000;
inline constexpr Addr kDramBase = 0x80000000;

/** AxBxC prototype description. */
struct PrototypeConfig
{
    std::uint32_t fpgas = 1;        ///< A.
    std::uint32_t nodesPerFpga = 1; ///< B.
    std::uint32_t tilesPerNode = 2; ///< C.
    std::uint64_t memPerNode = 256ULL << 20;
    /** LLC slice capacity (Table 2 default; benches scale it with their
     *  scaled-down working sets to preserve the paper's ws:LLC regime). */
    std::uint64_t llcSliceBytes = 64 << 10;
    riscv::CoreModel coreModel = riscv::CoreModel::kAriane;
    cache::HomingPolicy homing = cache::HomingPolicy::kAddressNode;
    cache::TimingParams timing;
    std::uint64_t seed = 1;
    /** Host-side core tuning that is observably invisible to the guest. */
    struct CoreTuning
    {
        /**
         * Per-core decoded-instruction cache (riscv/decode_cache.hpp).
         * On by default: it is timing-neutral by construction — stats,
         * traces and checkpoints are byte-identical either way — so it
         * is deliberately excluded from configFingerprint() and
         * checkpoints interchange freely between on and off.
         */
        riscv::DecodeCacheConfig decodeCache;
        /**
         * L1D hit fast path for aligned scalar loads and BPC-M-state
         * stores (CoherentSystem::loadFastHit/storeFastHit). On by
         * default under the same contract as the decode cache: it is
         * timing-neutral by construction — stats, traces and
         * checkpoints are byte-identical either way — so it is
         * deliberately excluded from configFingerprint() and
         * checkpoints interchange freely between on and off.
         */
        bool dataFastPath = true;
    };
    CoreTuning core;
    /** Host-side uncore tuning that is observably invisible to the
     *  guest (the uncore counterpart of CoreTuning). */
    struct UncoreTuning
    {
        /**
         * Event-horizon idle skipping for the uncore. While every live
         * core waits in WFI, the run engine jumps runs of provably
         * inert quantum barriers to the first barrier at which any
         * component (a timer, a device event, a checkpoint mark, the
         * watchdog) could change observable state, instead of stepping
         * one quantum at a time. On by default under the same contract as the core fast paths:
         * a skipped cycle is one in which nothing could have happened,
         * so stats, traces and checkpoints are byte-identical either
         * way — deliberately excluded from configFingerprint() so
         * checkpoints interchange freely between on and off.
         */
        bool idleSkip = true;
    };
    UncoreTuning uncore;
    /**
     * Transient-fault schedule. Its rules must prefix-match a site the
     * prototype evaluates, or construction throws FatalError:
     * "bridge.tx" (every inter-node crossing of coherence traffic),
     * "pcie.write"/"pcie.read" (the PCIe fabric) and
     * "node.wedge.node<N>" (a node hangs at a quantum barrier). Empty =
     * no injector is built, and each hook costs one null test.
     */
    sim::FaultPlan faultPlan;
    /** Repair of crossing drops and corruptions: replay after a backoff
     *  when enabled, FatalError when off (the default, the paper's
     *  lossless link); see cache::ReliabilityConfig. */
    cache::ReliabilityConfig reliability;
    /**
     * Shape of the run engine behind runCores(): nodes advance in quanta
     * bounded by the PCIe one-way lookahead and finish cross-node steps
     * at quantum barriers. threads picks only how many host workers run
     * the node phases; stats, traces and checkpoints are bit-identical
     * for any thread count (see docs/INTERNALS.md).
     */
    sim::ParallelConfig parallel;
    /** Online coherence invariant checker (src/check/). Off by default;
     *  when enabled the prototype owns a CoherenceChecker observing every
     *  protocol transition of the memory system. */
    check::CheckConfig check;
    /**
     * Golden-model lock-step differential checker (src/check/lockstep).
     * Off by default; when enabled the prototype owns a LockstepChecker
     * replaying every core's commits on per-hart golden interpreters.
     * memBase/memSize == 0 auto-sizes to the platform's DRAM window.
     * Purely observational — timing, stats (absent divergences), traces
     * and checkpoint bytes are unchanged — but incompatible with
     * checkpoint restore (the golden image cannot be reconstructed).
     */
    check::LockstepConfig lockstep;
    /** Cycle-accurate event tracing (src/obs/). Off by default; when
     *  enabled every selected component records into per-node ring
     *  buffers merged deterministically (see docs/INTERNALS.md). */
    obs::TraceConfig trace;
    /**
     * Periodic quantum-barrier checkpoints (src/snap/). interval = 0
     * disables them. Checkpoints are only taken by runCores() at
     * quantum barriers, after the platform quiesces, so the set of
     * checkpoint cycles — and the files' bytes — is a pure function of
     * (config, workload), never of the worker count.
     */
    snap::SnapshotConfig snapshot;
    /** No-commit-progress watchdog over runCores()
     *  (src/sim/watchdog.hpp). stallCycles = 0 disables it; the action
     *  selects report / panic / rollback-recovery on a stalled node. */
    sim::WatchdogConfig watchdog;

    /** Parses "AxBxC" (e.g. "4x1x12"). @throws FatalError on bad input. */
    static PrototypeConfig parse(const std::string &spec);

    /** The epoch length runCores() uses: parallel.quantum, or the PCIe
     *  one-way lookahead when that is 0. */
    Cycles quantum() const
    {
        return parallel.quantum ? parallel.quantum : timing.pcieOneWay();
    }

    /** Host workers runCores() runs node phases on: parallel.threads
     *  (0 counts as 1), at most one per node. */
    std::uint32_t workers() const
    {
        return std::min(std::max<std::uint32_t>(1, parallel.threads),
                        totalNodes());
    }

    std::uint32_t totalNodes() const { return fpgas * nodesPerFpga; }
    std::uint32_t totalTiles() const
    {
        return totalNodes() * tilesPerNode;
    }
    std::string name() const;
};

/** One fully wired prototype. */
class Prototype
{
  public:
    explicit Prototype(const PrototypeConfig &cfg);
    ~Prototype();

    Prototype(const Prototype &) = delete;
    Prototype &operator=(const Prototype &) = delete;

    const PrototypeConfig &config() const { return cfg_; }
    cache::CoherentSystem &memorySystem() { return *cs_; }
    mem::MainMemory &memory() { return cs_->memory(); }
    sim::StatRegistry &stats() { return stats_; }
    sim::EventQueue &eventQueue() { return eq_; }
    pcie::PcieFabric &fabric() { return *fabric_; }
    /** Null when the config's fault plan is empty. */
    sim::FaultInjector *faultInjector() { return faultInjector_.get(); }
    /** Null unless config().check.enabled. */
    check::CoherenceChecker *checker() { return checker_.get(); }
    /** Null unless config().lockstep.enabled. */
    check::LockstepChecker *lockstep() { return lockstep_.get(); }
    /** The platform tracer (inert unless config().trace.enabled). */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /**
     * Writes the recorded trace in the compact binary format (see
     * obs/trace_io.hpp). @p path defaults to config().trace.path.
     * @throws FatalError when the file cannot be written or tracing is
     * disabled.
     */
    void writeTrace(const std::string &path = "") const;
    riscv::ClintController &clint() { return *clint_; }
    riscv::PlicController &plic() { return *plic_; }
    io::Uart16550 &consoleUart(NodeId n) { return *uarts_.at(n * 2); }
    io::Uart16550 &dataUart(NodeId n) { return *uarts_.at(n * 2 + 1); }
    io::VirtualSerial &console(NodeId n) { return serials_.at(n); }
    io::VirtualSdCard &sdCard(NodeId n) { return *sdCards_.at(n); }

    riscv::RvCore &core(GlobalTileId gid) { return *cores_.at(gid); }
    std::uint32_t coreCount() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /** Optional accelerators (paper sections 4.2/4.3). */
    accel::GngAccelerator &addGng(GlobalTileId tile);
    accel::MapleEngine &addMaple(GlobalTileId tile);

    /** GNG/MAPLE MMIO window base for @p tile (after addGng/addMaple). */
    Addr accelWindow(GlobalTileId tile) const;

    /** Loads an assembled program into physical memory. */
    void loadProgram(const riscv::Program &prog);

    /** Assembles and loads; returns the program for symbol lookups. */
    riscv::Program loadSource(const std::string &source);

    /**
     * Assembles once and loads one copy into *every* node's DRAM (at the
     * node's channel base), pointing each core at its own node's copy.
     * The assembler's `la` is PC-relative, so data references resolve to
     * the node-local replica — the preferred loader for the phased
     * engine, where per-node code/data keeps instruction fetches from
     * crossing nodes.
     */
    riscv::Program loadSourceReplicated(const std::string &source);

    /**
     * runCores({gid}, max_instructions).
     * @return The core's halt reason.
     */
    riscv::HaltReason runCore(GlobalTileId gid,
                              std::uint64_t max_instructions = 50'000'000);

    /**
     * Runs several cores until each has exited, hit an ebreak, consumed
     * its budget, or waits in WFI with nothing left to wake it. Nodes
     * advance in quanta of config().quantum() cycles, each node phase
     * confined to its own node; steps that would leave the node finish
     * at the barrier, in node order. config().parallel.threads workers
     * run the node phases, with bit-identical results at any count.
     * @return Each core's halt reason, in @p gids order: kWfi for a core
     * still parked when the run gave up waiting.
     */
    std::vector<riscv::HaltReason>
    runCores(const std::vector<GlobalTileId> &gids,
             std::uint64_t max_instructions_each = 50'000'000);

    /** Creates a guest-OS model on top of this prototype's memory. */
    std::unique_ptr<os::GuestSystem> makeGuest(os::NumaMode mode,
                                               std::uint64_t seed = 1);

    /**
     * Fig. 7 probe: round-trip latency in cycles from @p from to a cache
     * line homed at @p to, measured with cold private caches and a warm
     * home LLC.
     */
    Cycles measureRoundTrip(GlobalTileId from, GlobalTileId to);

    /** Physical address in @p to's node whose home tile is @p to. */
    Addr addressHomedAt(GlobalTileId to) const;

    /**
     * Writes a full-system SMCK checkpoint to @p path. The platform must
     * be able to quiesce: every pending device event is drained first
     * (advancing virtual time past the last one), and the call fatals
     * when the queue does not drain within a fixed event budget, i.e.
     * while some device keeps re-arming its own events.
     */
    void checkpoint(const std::string &path);

    /**
     * Restores a checkpoint written by an identically configured
     * prototype (the header's config hash is checked first). Every
     * component's state is overwritten; a subsequent runCores() with the
     * same core set continues the interrupted run — it picks per-core
     * budgets and the barrier clock out of the checkpoint's resume
     * section.
     */
    void restore(const std::string &path);

    /** Installs a hook called at every phased-engine quantum barrier
     *  (serial context, after the auto-checkpoint point) with the
     *  boundary cycle. Used by snap_ctl --kill-at and the crash-recovery
     *  tests. */
    void setBarrierProbe(std::function<void(Cycles)> fn)
    {
        barrierProbe_ = std::move(fn);
    }

    /** FNV-1a fingerprint of the shape-relevant config fields, stored in
     *  every checkpoint header and verified on restore. Worker-thread
     *  count is deliberately excluded: any worker count must accept any
     *  worker count's checkpoints. */
    std::uint64_t configFingerprint() const;

  private:
    class CorePort;
    struct PhasedLive; ///< Live phased-run state visible to checkpoint().

    /** Applies an interrupt packet to its destination core (serial
     *  context or same-node phase only). */
    void deliverIrqPacket(const noc::Packet &pkt);

    /** Drains the mailbox and every pending device event, advancing
     *  virtual time. @return False when more than @p max_events events
     *  fire without the queue emptying (a self-re-arming loop). */
    bool quiesce(std::uint64_t max_events);

    /** Serializes the whole platform; requires an empty event queue. */
    void writeCheckpoint(const std::string &path);

    /** Quiesce + checkpoint for the periodic hook: a quiesce failure
     *  warns and counts snap.skipped instead of dying. */
    bool tryCheckpoint(const std::string &path);

    /** Phased-run bookkeeping recovered from a checkpoint's resume
     *  section, consumed by the next runCores(). */
    struct PhasedResume
    {
        bool valid = false;
        /** Barrier the checkpoint was taken at (resume continues at
         *  boundary + quantum). */
        Cycles boundary = 0;
        std::uint64_t idleEpochs = 0;
        std::vector<GlobalTileId> gids;
        std::vector<std::uint64_t> executed;
        std::vector<std::uint8_t> done;
        std::vector<std::uint8_t> parked;
        std::vector<sim::StatRegistry> shards;
    };

    PrototypeConfig cfg_;
    sim::StatRegistry stats_;
    sim::EventQueue eq_;
    sim::MailboxRouter router_;
    obs::Tracer tracer_;

    std::unique_ptr<cache::CoherentSystem> cs_;
    std::unique_ptr<check::CoherenceChecker> checker_;
    std::unique_ptr<check::LockstepChecker> lockstep_;
    std::unique_ptr<sim::FaultInjector> faultInjector_;
    std::unique_ptr<pcie::PcieFabric> fabric_;
    std::vector<std::unique_ptr<io::Uart16550>> uarts_;
    std::vector<io::VirtualSerial> serials_;
    std::vector<std::unique_ptr<io::VirtualSdCard>> sdCards_;
    std::unique_ptr<riscv::ClintController> clint_;
    std::unique_ptr<riscv::PlicController> plic_;
    std::unique_ptr<riscv::IrqPacketizer> packetizer_;

    std::vector<std::unique_ptr<CorePort>> ports_;
    std::vector<std::unique_ptr<riscv::RvCore>> cores_;

    std::vector<std::unique_ptr<cache::NcDevice>> ncAdapters_;
    std::vector<std::unique_ptr<axi::Target>> fabricAdapters_;
    Cycles probeClock_ = 0;
    PhasedResume resume_;
    PhasedLive *live_ = nullptr; ///< Non-null only inside runCores.
    std::function<void(Cycles)> barrierProbe_;
    std::vector<std::unique_ptr<accel::GngAccelerator>> gngs_;
    std::vector<std::unique_ptr<accel::MapleEngine>> maples_;
    std::vector<std::pair<GlobalTileId, Addr>> accelWindows_;
};

} // namespace smappic::platform
