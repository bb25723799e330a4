#include "platform/prototype.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/trace_io.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::platform
{

namespace
{

const sim::StatId kPlatformIrqDeferred("platform.irqDeferred");
const sim::StatId kPlatformPhaseYields("platform.phaseYields");
const sim::StatId kPlatformIrqPackets("platform.irqPackets");
const sim::StatId kFaultNodeWedge("fault.nodeWedge");
const sim::StatId kWatchdogStallsDetected("watchdog.stallsDetected");
const sim::StatId kWatchdogRecoveries("watchdog.recoveries");
const sim::StatId kSnapCheckpoints("snap.checkpoints");
const sim::StatId kSnapSkipped("snap.skipped");

/** Adapts a byte-addressed AXI-Lite register file into an NcDevice. */
class LiteNcAdapter : public cache::NcDevice
{
  public:
    explicit LiteNcAdapter(axi::LiteTarget &target) : target_(target) {}

    std::uint64_t
    ncLoad(Addr offset, std::uint32_t, Cycles, Cycles &service) override
    {
        service = 8;
        std::uint32_t data = 0;
        target_.readReg(offset, data);
        return data;
    }

    void
    ncStore(Addr offset, std::uint32_t, std::uint64_t value, Cycles,
            Cycles &service) override
    {
        service = 8;
        target_.writeReg(axi::LiteWrite{offset,
                                        static_cast<std::uint32_t>(value),
                                        0xf});
    }

  private:
    axi::LiteTarget &target_;
};

/** Adapts the PLIC register file into an NcDevice. */
class PlicNcAdapter : public cache::NcDevice
{
  public:
    explicit PlicNcAdapter(riscv::PlicController &plic) : plic_(plic) {}

    std::uint64_t
    ncLoad(Addr offset, std::uint32_t, Cycles, Cycles &service) override
    {
        service = 8;
        return plic_.read(offset);
    }

    void
    ncStore(Addr offset, std::uint32_t, std::uint64_t value, Cycles,
            Cycles &service) override
    {
        service = 8;
        plic_.write(offset, static_cast<std::uint32_t>(value));
    }

  private:
    riscv::PlicController &plic_;
};

/** Adapts the CLINT register file into an NcDevice. */
class ClintNcAdapter : public cache::NcDevice
{
  public:
    explicit ClintNcAdapter(riscv::ClintController &clint) : clint_(clint)
    {
    }

    std::uint64_t
    ncLoad(Addr offset, std::uint32_t, Cycles, Cycles &service) override
    {
        service = 8;
        return clint_.read(offset);
    }

    void
    ncStore(Addr offset, std::uint32_t bytes, std::uint64_t value, Cycles,
            Cycles &service) override
    {
        service = 8;
        clint_.write(offset, value, bytes);
    }

  private:
    riscv::ClintController &clint_;
};

/**
 * Fabric window backing the host SD driver: inbound AXI writes become
 * stores into the SD region of memory (the inbound-AXI -> NoC -> memory
 * controller path, functionally).
 */
class SdWindowTarget : public axi::Target
{
  public:
    SdWindowTarget(mem::MainMemory &memory, Addr region_base)
        : memory_(memory), regionBase_(region_base)
    {
    }

    axi::WriteResp
    write(const axi::WriteReq &req) override
    {
        memory_.writeBytes(regionBase_ + req.addr - fabricBase_,
                           req.data.data(), req.data.size());
        return {axi::Resp::kOkay, req.id};
    }

    axi::ReadResp
    read(const axi::ReadReq &req) override
    {
        axi::ReadResp r;
        r.id = req.id;
        r.data.resize(req.bytes);
        memory_.readBytes(regionBase_ + req.addr - fabricBase_,
                          r.data.data(), req.bytes);
        return r;
    }

    void setFabricBase(Addr base) { fabricBase_ = base; }

  private:
    mem::MainMemory &memory_;
    Addr regionBase_;
    Addr fabricBase_ = 0;
};

} // namespace

// Fabric (PCIe) address map: one SD image window per node.
namespace
{
constexpr Addr kFabricSdBase = 0x100000000ULL;
} // namespace

PrototypeConfig
PrototypeConfig::parse(const std::string &spec)
{
    PrototypeConfig cfg;
    std::uint32_t vals[3] = {0, 0, 0};
    std::size_t idx = 0;
    std::string cur;
    for (char c : spec + "x") {
        if (c == 'x' || c == 'X') {
            fatalIf(cur.empty() || idx >= 3,
                    "bad configuration spec '" + spec +
                        "' (want AxBxC, e.g. 4x1x12)");
            // Digits only, so the one way to fail is a value too big.
            std::uint64_t v = 0;
            try {
                v = std::stoull(cur);
            } catch (const std::out_of_range &) {
                v = ~0ULL;
            }
            fatalIf(v > std::numeric_limits<std::uint32_t>::max(),
                    "configuration dimension '" + cur + "' in '" + spec +
                        "' is out of range");
            vals[idx++] = static_cast<std::uint32_t>(v);
            cur.clear();
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            cur += c;
        } else {
            fatal("bad configuration spec '" + spec + "'");
        }
    }
    fatalIf(idx != 3, "bad configuration spec '" + spec + "'");
    cfg.fpgas = vals[0];
    cfg.nodesPerFpga = vals[1];
    cfg.tilesPerNode = vals[2];
    fatalIf(cfg.fpgas == 0 || cfg.nodesPerFpga == 0 ||
                cfg.tilesPerNode == 0,
            "configuration dimensions must be positive");
    fatalIf(cfg.fpgas > 4,
            "one F1 instance connects at most 4 FPGAs with low-latency "
            "PCIe links (paper section 4.8)");
    fatalIf(cfg.nodesPerFpga > 4,
            "F1 FPGAs expose 4 DRAM channels: at most 4 nodes per FPGA");
    return cfg;
}

std::string
PrototypeConfig::name() const
{
    return strfmt("%ux%ux%u", fpgas, nodesPerFpga, tilesPerNode);
}

class Prototype::CorePort : public riscv::MemPort
{
  public:
    CorePort(Prototype &proto, GlobalTileId gid) : proto_(proto), gid_(gid)
    {
    }

    std::uint64_t
    load(Addr addr, std::uint32_t bytes, Cycles now, Cycles &lat) override
    {
        auto r = proto_.cs_->access(gid_, addr, cache::AccessType::kLoad,
                                    bytes, now);
        lat = r.latency;
        std::uint32_t n = std::min(bytes, 8u);
        std::uint64_t off = addr & (kCacheLineBytes - 1);
        if (r.staleData && off + n <= kCacheLineBytes) {
            // Test-mutation stale copy: serve the frozen line image the
            // tile would see had its invalidation really been lost.
            std::uint64_t v = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                v |= static_cast<std::uint64_t>(r.staleData[off + i])
                     << (8 * i);
            return v;
        }
        return proto_.cs_->memory().load(addr, n);
    }

    void
    store(Addr addr, std::uint32_t bytes, std::uint64_t value, Cycles now,
          Cycles &lat) override
    {
        // Data goes into the functional store first so device windows
        // (whose handlers read it) observe the new value. A confined
        // node phase never reaches a device, but its access() may
        // yield, and a yielded store must leave memory untouched.
        if (sim::confinedPhase()) {
            auto r = proto_.cs_->access(gid_, addr,
                                        cache::AccessType::kStore, bytes,
                                        now);
            proto_.cs_->memory().store(addr, std::min(bytes, 8u), value);
            lat = r.latency;
            return;
        }
        proto_.cs_->memory().store(addr, std::min(bytes, 8u), value);
        auto r = proto_.cs_->access(gid_, addr, cache::AccessType::kStore,
                                    bytes, now);
        lat = r.latency;
    }

    std::uint32_t
    fetch(Addr addr, Cycles now, Cycles &lat) override
    {
        auto r = proto_.cs_->access(gid_, addr, cache::AccessType::kFetch,
                                    4, now);
        lat = r.latency;
        return static_cast<std::uint32_t>(
            proto_.cs_->memory().load(addr, 4));
    }

    bool
    fetchFastHit(Addr addr, Cycles now, Cycles &lat) override
    {
        (void)now;
        if (!proto_.cs_->fetchFastHit(gid_, addr, lat))
            return false;
        ++fastHits_;
        return true;
    }

    riscv::CodeRef
    codeRef(Addr addr) override
    {
        const auto &stamp = proto_.cs_->memory().pageWriteStamp(addr);
        return riscv::CodeRef{&stamp,
                              stamp.load(std::memory_order_acquire)};
    }

    bool
    loadFastHit(Addr addr, std::uint32_t bytes, Cycles now, Cycles &lat,
                std::uint64_t &value) override
    {
        (void)now;
        // An L1D hit can carry no stale-copy plumbing (loadFastHit
        // bails on any armed mutation), so data always comes from the
        // functional store, as on the slow path's non-stale branch.
        // Fast hits are naturally aligned, so they never cross a page.
        if (!proto_.cs_->loadFastHit(gid_, addr, lat))
            return false;
        ++fastHits_;
        if (mem::MainMemory::PageEntry *page = dataPage(addr))
            value = mem::MainMemory::loadFrom(
                *page, addr % mem::MainMemory::kPageBytes, bytes);
        else
            value = proto_.cs_->memory().load(addr, bytes);
        return true;
    }

    bool
    storeFastHit(Addr addr, std::uint32_t bytes, std::uint64_t value,
                 Cycles now, Cycles &lat) override
    {
        (void)now;
        // Probe the timing hierarchy before touching memory: a false
        // return must leave every byte as it was. A BPC-M hit is never
        // a device window, so the slow path's store-memory-first
        // ordering (device handlers read the functional store) has no
        // observable counterpart here.
        if (!proto_.cs_->storeFastHit(gid_, addr, lat))
            return false;
        ++fastStoreHits_;
        if (mem::MainMemory::PageEntry *page = dataPage(addr))
            proto_.cs_->memory().storeTo(
                *page, addr % mem::MainMemory::kPageBytes, bytes, value);
        else
            proto_.cs_->memory().store(addr, bytes, value);
        return true;
    }

    void
    flushFastHits() override
    {
        proto_.cs_->addFastHits(fastHits_, fastStoreHits_);
        fastHits_ = 0;
        fastStoreHits_ = 0;
    }

    std::uint64_t
    atomic(Addr addr, std::uint32_t bytes,
           const std::function<std::uint64_t(std::uint64_t)> &rmw,
           Cycles now, Cycles &lat) override
    {
        auto r = proto_.cs_->access(gid_, addr, cache::AccessType::kAtomic,
                                    bytes, now);
        lat = r.latency;
        std::uint64_t old = proto_.cs_->memory().load(addr, bytes);
        proto_.cs_->memory().store(addr, bytes, rmw(old));
        return old;
    }

  private:
    /**
     * @p addr's page through the one-entry handle, refreshed from
     * MainMemory::directPage() when the page or the memory's generation
     * changed; null when directPage() has none (concurrent memory, or a
     * page not yet written), and the caller then takes load()/store().
     */
    mem::MainMemory::PageEntry *
    dataPage(Addr addr)
    {
        mem::MainMemory &memory = proto_.cs_->memory();
        std::uint64_t idx = addr / mem::MainMemory::kPageBytes;
        if (page_ == nullptr || idx != pageIdx_ ||
            pageGen_ != memory.generation()) {
            page_ = memory.directPage(addr);
            pageIdx_ = idx;
            pageGen_ = memory.generation();
        }
        return page_;
    }

    Prototype &proto_;
    GlobalTileId gid_;
    // Fast hits since the last flushFastHits() (cs.l1.hits and
    // cs.l1.storeHits).
    std::uint64_t fastHits_ = 0;
    std::uint64_t fastStoreHits_ = 0;
    mem::MainMemory::PageEntry *page_ = nullptr;
    std::uint64_t pageIdx_ = 0;
    std::uint64_t pageGen_ = 0;
};

Prototype::Prototype(const PrototypeConfig &cfg) : cfg_(cfg)
{
    cache::Geometry geo;
    geo.nodes = cfg.totalNodes();
    geo.tilesPerNode = cfg.tilesPerNode;
    geo.dramBase = kDramBase;
    geo.memPerNode = cfg.memPerNode;
    geo.llcSliceBytes = cfg.llcSliceBytes;
    cs_ = std::make_unique<cache::CoherentSystem>(geo, cfg.timing,
                                                  cfg.homing, &stats_);

    if (cfg.check.enabled) {
        checker_ = std::make_unique<check::CoherenceChecker>(
            *cs_, cfg.check, &stats_);
        cs_->setObserver(checker_.get());
    }

    // Fault injector: only built when the plan actually injects, so a
    // fault-free prototype carries null hooks everywhere. A rule that
    // matches none of the sites this prototype evaluates would inject
    // nothing, so it is refused rather than silently ignored.
    if (!cfg.faultPlan.empty()) {
        std::vector<std::string> sites = {"bridge.tx", "pcie.write",
                                          "pcie.read"};
        for (NodeId n = 0; n < cfg.totalNodes(); ++n)
            sites.push_back(strfmt("node.wedge.node%u", n));
        for (const sim::FaultRule &rule : cfg.faultPlan.rules) {
            bool hooked = std::any_of(
                sites.begin(), sites.end(), [&](const std::string &site) {
                    return site.starts_with(rule.site);
                });
            fatalIf(!hooked,
                    "fault rule site '" + rule.site +
                        "' matches no hook of a " + cfg.name() +
                        " prototype (bridge.tx, pcie.write, pcie.read, "
                        "node.wedge.node<N>)");
        }
        faultInjector_ =
            std::make_unique<sim::FaultInjector>(cfg.faultPlan, &stats_);
    }
    cs_->setLinkFaults(faultInjector_.get(), cfg.reliability);

    fabric_ = std::make_unique<pcie::PcieFabric>(
        eq_, cfg.timing.pcieOneWay(), cfg.timing.pcieBytesPerCycle,
        &stats_);
    fabric_->setFaultInjector(faultInjector_.get());

    std::uint32_t nodes = cfg.totalNodes();
    auto fpga_of = [&](NodeId n) {
        return static_cast<FpgaId>(n / cfg.nodesPerFpga);
    };

    // CLINT: its wire changes drive the cores' interrupt lines.
    clint_ = std::make_unique<riscv::ClintController>(cfg.totalTiles());
    clint_->setWireFn([this](std::uint32_t h, std::uint32_t irq, bool l) {
        driveIrq(h, irq, l);
    });
    auto clint_adapter = std::make_unique<ClintNcAdapter>(*clint_);
    cs_->addDevice(kClintBase, kClintSize, 0, clint_adapter.get());
    ncAdapters_.push_back(std::move(clint_adapter));

    // PLIC: one external source per node's console UART; its hart lines
    // drive the cores' machine-external interrupts.
    plic_ = std::make_unique<riscv::PlicController>(nodes,
                                                    cfg.totalTiles());
    plic_->setWireFn([this](std::uint32_t hart, bool level) {
        driveIrq(hart, riscv::kIrqMei, level);
    });
    auto plic_adapter = std::make_unique<PlicNcAdapter>(*plic_);
    cs_->addDevice(kPlicBase, kPlicSize, 0, plic_adapter.get());
    ncAdapters_.push_back(std::move(plic_adapter));
    for (NodeId n = 0; n < nodes; ++n) {
        // Firmware defaults: source n+1 (node n console) at priority 1,
        // routed to the node's tile-0 hart with threshold 0.
        plic_->write(riscv::kPlicPriorityBase + 4 * (n + 1), 1);
        std::uint32_t hart = n * cfg.tilesPerNode;
        plic_->write(riscv::kPlicEnableBase +
                         hart * riscv::kPlicEnableStride,
                     1u << (n + 1));
    }

    // Per-node substrate.
    serials_.resize(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        Addr dram_base = kDramBase + static_cast<Addr>(n) * cfg.memPerNode;

        // Two UARTs per node: console (115200) and data (~1 Mbit/s).
        for (int u = 0; u < 2; ++u) {
            auto uart = std::make_unique<io::Uart16550>(
                u == 0 ? 115200 : 1'000'000);
            if (u == 0) {
                serials_[n].attach(*uart);
                // Console RX interrupts are PLIC source n+1; the PLIC
                // raises the owning hart's machine-external line.
                std::uint32_t src = n + 1;
                uart->setIrqFn([this, src](bool level) {
                    plic_->setSourceLevel(src, level);
                });
            }
            auto adapter = std::make_unique<LiteNcAdapter>(*uart);
            cs_->addDevice(kUartBase + n * kUartNodeStride +
                               u * kUartStride,
                           kUartStride, n * cfg.tilesPerNode,
                           adapter.get());
            ncAdapters_.push_back(std::move(adapter));
            uarts_.push_back(std::move(uart));
        }

        // Virtual SD card: top half of the node's DRAM.
        Addr sd_region = dram_base + cfg.memPerNode / 2;
        sdCards_.push_back(std::make_unique<io::VirtualSdCard>(
            cs_->memory(), sd_region, cfg.memPerNode / 2));
        cs_->addDevice(kSdMmioBase + n * kSdMmioStride, kSdMmioStride,
                       n * cfg.tilesPerNode, sdCards_.back().get());
        // Host-side init path: a fabric window over the SD region.
        auto sd_target =
            std::make_unique<SdWindowTarget>(cs_->memory(), sd_region);
        Addr fabric_base = kFabricSdBase +
                           static_cast<Addr>(n) * (cfg.memPerNode / 2);
        sd_target->setFabricBase(fabric_base);
        fabric_->addWindow(fabric_base, cfg.memPerNode / 2,
                           sd_target.get(), fpga_of(n),
                           strfmt("sd.node%u", n));
        fabricAdapters_.push_back(std::move(sd_target));
    }

    // Cores.
    std::uint32_t total = cfg.totalTiles();
    for (GlobalTileId g = 0; g < total; ++g) {
        ports_.push_back(std::make_unique<CorePort>(*this, g));
        riscv::CoreConfig ccfg = riscv::corePreset(cfg.coreModel);
        ccfg.hartId = g;
        ccfg.resetPc = kDramBase;
        ccfg.decodeCache = cfg.core.decodeCache;
        ccfg.dataFastPath = cfg.core.dataFastPath;
        auto core = std::make_unique<riscv::RvCore>(ccfg, *ports_.back(),
                                                    &stats_);
        core->setEcallHandler([this, g](riscv::RvCore &c) {
            std::uint64_t num = c.reg(17); // a7
            if (num == 93) {               // exit
                c.requestExit(static_cast<std::int64_t>(c.reg(10)));
                return true;
            }
            if (num == 64) { // write(fd, buf, len)
                // Console UART + PLIC are shared devices: a confined
                // phase yields, and the write runs in the serial barrier.
                sim::yieldIfConfined();
                NodeId n = g / cfg_.tilesPerNode;
                Addr buf = c.reg(11);
                std::uint64_t len = c.reg(12);
                for (std::uint64_t i = 0; i < len; ++i) {
                    auto byte = static_cast<std::uint8_t>(
                        cs_->memory().load(buf + i, 1));
                    consoleUart(n).writeReg(
                        axi::LiteWrite{io::kUartRbrThr, byte, 0x1});
                }
                c.setReg(10, len);
                return true;
            }
            if (num == 63) { // read(fd, buf, len) from the console UART
                sim::yieldIfConfined();
                NodeId n = g / cfg_.tilesPerNode;
                Addr buf = c.reg(11);
                std::uint64_t len = c.reg(12);
                std::uint64_t got = 0;
                while (got < len && !consoleUart(n).rxEmpty()) {
                    std::uint32_t data = 0;
                    consoleUart(n).readReg(io::kUartRbrThr, data);
                    cs_->memory().store(buf + got, 1, data & 0xff);
                    ++got;
                }
                c.setReg(10, got);
                return true;
            }
            return false;
        });
        cores_.push_back(std::move(core));
    }

    // Lockstep differential checker: one golden hart per core, fed by
    // the commit observer. Built after the cores so attach() can mirror
    // their hart ids and reset pcs.
    if (cfg_.lockstep.enabled) {
        check::LockstepConfig lcfg = cfg_.lockstep;
        if (lcfg.memSize == 0) {
            lcfg.memBase = kDramBase;
            lcfg.memSize = static_cast<std::uint64_t>(cfg_.totalNodes()) *
                           cfg_.memPerNode;
        }
        lockstep_ =
            std::make_unique<check::LockstepChecker>(lcfg, &stats_);
        for (auto &c : cores_)
            lockstep_->attach(*c);
    }

    // Observability: configure the tracer and hand each traced component
    // its cached per-component handle (null when tracing is disabled or
    // the component is masked out, so every trace point costs exactly one
    // branch on a cached pointer).
    tracer_.configure(cfg_.trace, nodes);
    cs_->setTracer(&tracer_);
    fabric_->setTracer(&tracer_);
    for (GlobalTileId g = 0; g < cores_.size(); ++g)
        cores_[g]->setTracer(&tracer_, g / cfg_.tilesPerNode,
                             cfg_.trace.coreStallCycles);

    // Functional memory takes its lock only when node phases can run on
    // more than one worker; one worker spawns no thread, so the lock
    // would order nothing.
    if (cfg_.workers() > 1)
        cs_->memory().setConcurrent(true);
}

Prototype::~Prototype() = default;

void
Prototype::writeTrace(const std::string &path) const
{
    fatalIf(!tracer_.enabled(), "writeTrace: tracing is disabled");
    const std::string &target = path.empty() ? cfg_.trace.path : path;
    fatalIf(target.empty(), "writeTrace: no output path configured");
    std::ofstream os(target, std::ios::binary);
    fatalIf(!os, "writeTrace: cannot open '" + target + "'");
    obs::writeBinary(tracer_, os);
    fatalIf(!os.good(), "writeTrace: write to '" + target + "' failed");
}

void
Prototype::driveIrq(std::uint32_t hart, std::uint32_t irq, bool level)
{
    // A change raised in one node's phase for a hart on another node
    // lands at the next quantum barrier, within the PCIe lookahead.
    // Same-node and serial-context changes apply at once.
    NodeId acting = sim::currentNode();
    if (acting != sim::kNoNode && hart / cfg_.tilesPerNode != acting) {
        // A confined phase yields before any CLINT, PLIC or console
        // access, so only a serial epoch remainder can get here.
        panicIf(sim::confinedPhase(),
                "interrupt-wire change deferred inside a confined phase");
        stats_.counter(kPlatformIrqDeferred).increment();
        deferredIrqs_.push_back({hart, irq, level});
        return;
    }
    if (hart < cores_.size())
        cores_[hart]->setIrqLine(irq, level);
    stats_.counter(kPlatformIrqPackets).increment();
}

std::uint64_t
Prototype::applyDeferredIrqs()
{
    // In serial context every change applies at once, so none is
    // appended while the list is walked.
    panicIf(sim::currentNode() != sim::kNoNode,
            "deferred interrupt-wire changes applied inside a node phase");
    std::uint64_t applied = deferredIrqs_.size();
    for (const IrqChange &c : deferredIrqs_)
        driveIrq(c.hart, c.irq, c.level);
    deferredIrqs_.clear();
    return applied;
}

accel::GngAccelerator &
Prototype::addGng(GlobalTileId tile)
{
    auto gng = std::make_unique<accel::GngAccelerator>(
        static_cast<std::uint32_t>(cfg_.seed + tile));
    Addr base = kAccelBase + accelWindows_.size() * kAccelStride;
    cs_->addDevice(base, kAccelStride, tile, gng.get());
    accelWindows_.emplace_back(tile, base);
    gngs_.push_back(std::move(gng));
    return *gngs_.back();
}

accel::MapleEngine &
Prototype::addMaple(GlobalTileId tile)
{
    auto eng = std::make_unique<accel::MapleEngine>(*cs_, tile);
    Addr base = kAccelBase + accelWindows_.size() * kAccelStride;
    cs_->addDevice(base, kAccelStride, tile, eng.get());
    accelWindows_.emplace_back(tile, base);
    maples_.push_back(std::move(eng));
    return *maples_.back();
}

Addr
Prototype::accelWindow(GlobalTileId tile) const
{
    for (const auto &[t, base] : accelWindows_) {
        if (t == tile)
            return base;
    }
    fatal("no accelerator registered at that tile");
}

void
Prototype::loadProgram(const riscv::Program &prog)
{
    for (const auto &seg : prog.segments) {
        cs_->memory().writeBytes(seg.base, seg.bytes.data(),
                                 seg.bytes.size());
        if (lockstep_)
            lockstep_->loadImage(seg.base, seg.bytes.data(),
                                 seg.bytes.size());
    }
}

riscv::Program
Prototype::loadSource(const std::string &source)
{
    riscv::Assembler as(kDramBase, kDramBase + 0x400000);
    riscv::Program prog = as.assemble(source);
    loadProgram(prog);
    for (auto &core : cores_)
        core->setPc(prog.entry);
    return prog;
}

riscv::Program
Prototype::loadSourceReplicated(const std::string &source)
{
    riscv::Assembler as(kDramBase, kDramBase + 0x400000);
    riscv::Program prog = as.assemble(source);
    for (NodeId n = 0; n < cfg_.totalNodes(); ++n) {
        Addr off = static_cast<Addr>(n) * cfg_.memPerNode;
        for (const auto &seg : prog.segments) {
            cs_->memory().writeBytes(seg.base + off, seg.bytes.data(),
                                     seg.bytes.size());
            if (lockstep_)
                lockstep_->loadImage(seg.base + off, seg.bytes.data(),
                                     seg.bytes.size());
        }
    }
    for (GlobalTileId g = 0; g < cores_.size(); ++g) {
        NodeId n = g / cfg_.tilesPerNode;
        cores_[g]->setPc(prog.entry +
                         static_cast<Addr>(n) * cfg_.memPerNode);
    }
    return prog;
}

riscv::HaltReason
Prototype::runCore(GlobalTileId gid, std::uint64_t max_instructions)
{
    return runCores({gid}, max_instructions).front();
}

/** Live phased-run state checkpoint() serializes into kResume/kStats:
 *  a closure writing the resume payload plus the un-merged stat shards.
 *  Both point into runCores()'s frame and are only dereferenced from
 *  the serial barrier context. */
struct Prototype::PhasedLive
{
    std::function<void(snap::Writer &)> saveResume;
    std::vector<sim::StatRegistry> *shards = nullptr;
};

std::vector<riscv::HaltReason>
Prototype::runCores(const std::vector<GlobalTileId> &gids,
                    std::uint64_t max_instructions_each)
{
    struct CoreState
    {
        GlobalTileId gid;
        std::uint64_t executed = 0;
        bool done = false;
        bool parked = false; ///< In wfi, waiting for an interrupt.
    };
    struct NodeState
    {
        std::vector<CoreState> cores;
        /** Written by the owning worker, read at the barrier (the epoch
         *  barrier orders the accesses). */
        bool progressed = false;
        /** The confined phase stopped at a cross-node step; the barrier
         *  finishes the node's epoch. Same ordering as progressed. */
        bool yielded = false;
    };

    std::uint32_t nodes = cfg_.totalNodes();

    // Quantum: the PCIe one-way latency is the lookahead — nothing one
    // node does can reach another sooner — so it is both the default and
    // the largest quantum that stays conservative.
    const Cycles quantum = cfg_.quantum();

    // A "node.wedge" fault rule simulates a hung node: once the injector
    // fires for a node at a barrier, that node stops committing until
    // the watchdog rolls the run back. Disarming is deliberately not
    // part of any checkpoint — recovery must not replay the wedge.
    bool wedge_armed = false;
    if (faultInjector_) {
        for (const auto &rule : faultInjector_->plan().rules) {
            // A rule arms the wedge when it prefix-matches a
            // node.wedge.node<N> site ("node" does, like "node.wedge.node1").
            if (rule.site.starts_with("node.wedge") ||
                std::string_view("node.wedge").starts_with(rule.site))
                wedge_armed = true;
        }
    }
    std::vector<bool> wedged(nodes, false);
    std::vector<std::string> wedge_sites(wedge_armed ? nodes : 0);
    for (std::uint32_t n = 0; n < wedge_sites.size(); ++n)
        wedge_sites[n] = strfmt("node.wedge.node%u", n);
    bool wedge_disarmed = false;
    std::uint64_t wedge_count = 0;

    sim::Watchdog watchdog(cfg_.watchdog, nodes, &stats_);
    std::string last_checkpoint;
    if (cfg_.snapshot.enabled())
        last_checkpoint = snap::latestCheckpoint(cfg_.snapshot.dir);

    std::vector<NodeState> ns;
    Cycles boundary = 0;
    Cycles next_snap = 0;
    std::uint64_t idle_epochs = 0;
    // Per-node stat shards: all stats produced inside a node phase land
    // in the node's shard and merge back in node order after the run.
    std::vector<sim::StatRegistry> shards;
    bool recovery_pending = false;

    // (Re)builds the run bookkeeping: fresh, or — after restore() left a
    // valid resume section — continuing the interrupted run exactly
    // where its checkpoint barrier stopped.
    auto init_run = [&]() {
        ns.clear();
        ns.resize(nodes);
        for (GlobalTileId g : gids)
            ns.at(g / cfg_.tilesPerNode).cores.push_back(CoreState{g});
        if (resume_.valid) {
            fatalIf(resume_.gids.size() != gids.size(),
                    strfmt("checkpoint resumes %zu cores, this run has "
                           "%zu",
                           resume_.gids.size(), gids.size()));
            for (std::size_t i = 0; i < resume_.gids.size(); ++i) {
                GlobalTileId g = resume_.gids[i];
                bool found = false;
                for (auto &node : ns) {
                    for (auto &s : node.cores) {
                        if (s.gid != g)
                            continue;
                        s.executed = resume_.executed[i];
                        s.done = resume_.done[i] != 0;
                        s.parked = resume_.parked[i] != 0;
                        found = true;
                    }
                }
                fatalIf(!found,
                        strfmt("checkpoint resumes core %u which is not "
                               "part of this run",
                               g));
            }
            boundary = resume_.boundary + quantum;
            idle_epochs = resume_.idleEpochs;
            if (resume_.shards.size() == nodes)
                shards = std::move(resume_.shards);
            else
                shards = std::vector<sim::StatRegistry>(nodes);
            // Checkpoints only happen at interval marks, so the saved
            // barrier is itself a mark: the next one is an interval out.
            next_snap = resume_.boundary + cfg_.snapshot.interval;
            resume_ = PhasedResume{};
        } else {
            boundary = eq_.now();
            for (GlobalTileId g : gids)
                boundary = std::max(boundary, core(g).cycles());
            // The interval clock starts at the run's base cycle so the
            // checkpoint set never depends on the worker count.
            next_snap = boundary + cfg_.snapshot.interval;
            boundary += quantum;
            shards = std::vector<sim::StatRegistry>(nodes);
            idle_epochs = 0;
        }
    };

    // checkpoint() reaches the live bookkeeping through live_: the
    // resume section snapshots per-core budgets at the current barrier.
    PhasedLive live;
    live.shards = &shards;
    live.saveResume = [&](snap::Writer &w) {
        w.boolean(true);
        w.u64(boundary);
        w.u64(idle_epochs);
        std::uint64_t count = 0;
        for (auto &node : ns)
            count += node.cores.size();
        w.u64(count);
        for (auto &node : ns) {
            for (auto &s : node.cores) {
                w.u32(s.gid);
                w.u64(s.executed);
                w.u8(s.done ? 1 : 0);
                w.u8(s.parked ? 1 : 0);
            }
        }
    };
    struct LiveScope
    {
        Prototype *p;
        ~LiveScope() { p->live_ = nullptr; }
    } live_scope{this};
    live_ = &live;

    auto node_phase = [&](std::uint32_t n) {
        sim::ActingNodeScope acting(n);
        sim::StatRegistry::Redirect redirect(&stats_, &shards[n]);
        if (wedged[n])
            return; // Hung node: burns the quantum without committing.
        NodeState &node = ns[n];
        while (true) {
            // Smallest-local-clock-first over this node's live cores.
            CoreState *next = nullptr;
            for (auto &s : node.cores) {
                if (s.done || s.parked)
                    continue;
                if (core(s.gid).cycles() >= boundary)
                    continue;
                if (!next ||
                    core(s.gid).cycles() < core(next->gid).cycles())
                    next = &s;
            }
            if (!next)
                return;
            auto &c = core(next->gid);
            std::uint64_t chunk = std::min<std::uint64_t>(
                100, max_instructions_each - next->executed);
            if (chunk == 0) {
                next->done = true;
                continue;
            }
            std::uint64_t retired = c.instret();
            riscv::HaltReason r;
            try {
                r = c.run(chunk);
            } catch (const sim::NodeYield &) {
                // The yielding instruction did not retire; it runs again
                // at the barrier. Count only what retired before it.
                next->executed += c.instret() - retired;
                node.yielded = true;
                return;
            }
            next->executed += chunk;
            node.progressed = true;
            if (r == riscv::HaltReason::kExited ||
                r == riscv::HaltReason::kEbreak) {
                next->done = true;
            } else if (r == riscv::HaltReason::kWfi) {
                if (!c.interruptPending())
                    next->parked = true; // Barriers re-arm on wake.
            }
        }
    };

    // An epoch with no instructions, no deferred wire changes and no
    // device events cannot create progress later except through timer
    // interrupts raised by the advancing mtime; bound how long we wait.
    const std::uint64_t idle_limit =
        std::max<std::uint64_t>(1, 1'000'000 / quantum);

    // Node phases run confined: a cross-node step yields, and the node's
    // epoch is finished by the barrier below. Every worker count, one
    // included, runs this same schedule. A one-node prototype has no
    // other node to be confined from and always runs on one worker, so
    // its phase runs unconfined: a device access or console ecall there
    // would only yield to the same node's remainder at the same barrier.
    auto confined_phase = [&](std::uint32_t n) {
        if (nodes == 1)
            return node_phase(n);
        sim::ConfinedScope confined;
        node_phase(n);
    };

    auto barrier = [&](std::uint64_t) -> bool {
        // Serial context: first finish the epochs of nodes that yielded
        // at a cross-node step, one at a time in node order, so those
        // steps happen in an order no worker interleaving can change.
        for (std::uint32_t n = 0; n < nodes; ++n) {
            if (ns[n].yielded) {
                ns[n].yielded = false;
                stats_.counter(kPlatformPhaseYields).increment();
                node_phase(n);
            }
        }
        // Then apply the interrupt-wire changes those remainders raised
        // for other nodes' harts, in the order raised, and advance
        // shared device time to the boundary.
        std::uint64_t delivered = applyDeferredIrqs();
        clint_->setTime(boundary);
        std::uint64_t events = eq_.runUntil(boundary);

        bool any_live = false;
        bool progress = delivered > 0 || events > 0;
        for (auto &node : ns) {
            if (node.progressed)
                progress = true;
            node.progressed = false;
            for (auto &s : node.cores) {
                if (s.done)
                    continue;
                if (s.parked && core(s.gid).interruptPending()) {
                    s.parked = false;
                    progress = true;
                }
                any_live = true;
            }
        }
        if (!any_live)
            return false;
        if (progress) {
            idle_epochs = 0;
        } else if (++idle_epochs >= idle_limit) {
            return false; // Every live core is parked with no wake source.
        }

        // Wedge injection: decided once per node per barrier, in node
        // order, in the serial context — deterministic for any worker
        // count.
        if (wedge_armed && !wedge_disarmed && faultInjector_) {
            for (std::uint32_t n = 0; n < nodes; ++n) {
                if (wedged[n])
                    continue;
                if (faultInjector_->decide(wedge_sites[n])) {
                    wedged[n] = true;
                    ++wedge_count;
                    stats_.counter(kFaultNodeWedge).increment();
                }
            }
        }

        // Watchdog: per-node committed-instruction heartbeats. A node
        // whose cores are all done never stalls; a committing node
        // re-arms its own timer.
        if (watchdog.config().enabled()) {
            std::vector<std::uint64_t> committed(nodes, 0);
            std::vector<bool> live_nodes(nodes, false);
            for (std::uint32_t n = 0; n < nodes; ++n) {
                for (auto &s : ns[n].cores) {
                    committed[n] += core(s.gid).instret();
                    if (!s.done)
                        live_nodes[n] = true;
                }
            }
            auto verdict = watchdog.observe(boundary, committed,
                                            live_nodes);
            if (verdict.stallDetected) {
                switch (cfg_.watchdog.action) {
                  case sim::WatchdogAction::kPanic:
                    panic(strfmt(
                        "watchdog: node %u committed nothing for %llu "
                        "cycles",
                        verdict.stalledNodes.front(),
                        static_cast<unsigned long long>(
                            cfg_.watchdog.stallCycles)));
                  case sim::WatchdogAction::kRecover:
                    if (!last_checkpoint.empty() &&
                        watchdog.recoveries() <
                            cfg_.watchdog.maxRecoveries) {
                        recovery_pending = true;
                        return false;
                    }
                    break; // Nothing to roll back to: report only.
                  case sim::WatchdogAction::kReport:
                    break;
                }
            }
        }

        // Periodic checkpoint: first barrier at or past each interval
        // mark, after the stat counter bumps so the file itself records
        // how many checkpoints exist once it is restored.
        if (cfg_.snapshot.enabled() && boundary >= next_snap) {
            std::string path = cfg_.snapshot.dir + "/" +
                               snap::checkpointFileName(boundary);
            if (tryCheckpoint(path)) {
                last_checkpoint = path;
                snap::pruneCheckpoints(cfg_.snapshot.dir,
                                       cfg_.snapshot.keep);
            }
            next_snap = boundary + cfg_.snapshot.interval;
        }

        if (barrierProbe_)
            barrierProbe_(boundary);

        // Event-horizon idle skip (uncore.idleSkip): after an epoch with
        // no progress, every barrier strictly before the next horizon is
        // provably inert — node phases run nothing (all runnable cores
        // sit at or past the boundary), so no wire change is deferred,
        // setTime()/runUntil() cross no deadline, the watchdog observes
        // below every per-node deadline and no checkpoint mark passes.
        // Jump straight to the first barrier that can observe anything,
        // charging the skipped barriers to the idle-epoch budget so the
        // give-up point replicates exactly. Disabled whenever a barrier
        // has a side channel the horizon cannot see: an armed wedge
        // rule consumes injector RNG per barrier, and a barrier probe
        // is an arbitrary observer.
        if (cfg_.uncore.idleSkip && !progress && !barrierProbe_ &&
            !(wedge_armed && !wedge_disarmed)) {
            Cycles horizon = sim::kNoDeadline;
            for (auto &node : ns) {
                for (auto &s : node.cores) {
                    if (!s.done && !s.parked)
                        horizon = std::min(horizon,
                                           core(s.gid).cycles() + 1);
                }
            }
            std::uint64_t tnext = clint_->nextTimerCycle();
            horizon = std::min<Cycles>(horizon, tnext);
            horizon = std::min(horizon, eq_.nextDeadline());
            if (cfg_.snapshot.enabled())
                horizon = std::min(horizon, next_snap);
            if (watchdog.config().enabled())
                horizon = std::min(horizon, watchdog.nextDeadline());
            // Barriers the idle-epoch budget still allows before the
            // run gives up; >= 1 or the check above would have fired.
            std::uint64_t avail = idle_limit - idle_epochs;
            if (horizon == sim::kNoDeadline ||
                horizon > boundary + avail * quantum) {
                // No wake source, or one past the give-up point: the
                // run ends idle. Replicate the off-path's final barrier
                // exactly — time advanced to it (both calls are wire/
                // event no-ops below the horizon), budget exhausted.
                boundary += avail * quantum;
                clint_->setTime(boundary);
                eq_.runUntil(boundary);
                idle_epochs = idle_limit;
                return false;
            }
            if (horizon > boundary + quantum) {
                // First barrier at or past the horizon; the barriers
                // strictly between would each have idled.
                std::uint64_t k =
                    (horizon - boundary + quantum - 1) / quantum;
                idle_epochs += k - 1;
                // The last skipped barrier's time advance crosses no
                // deadline, but the next phase can read it: a core
                // whose clock ran ahead, or that yielded, may load
                // mtime there. Replicate it.
                Cycles last = boundary + (k - 1) * quantum;
                clint_->setTime(last);
                eq_.runUntil(last);
                boundary += k * quantum;
                return true;
            }
        }

        boundary += quantum;
        return true;
    };

    sim::ParallelExecutor exec(cfg_.workers());

    // The shards merge back in node order on every exit, a throwing one
    // included, so a failed run's stats still show what it counted.
    auto merge_shards = [&]() {
        for (sim::StatRegistry &shard : shards)
            stats_.mergeFrom(shard);
    };
    try {
        while (true) {
            init_run();
            recovery_pending = false;
            exec.run(nodes, confined_phase, barrier);
            if (!recovery_pending)
                break;

            // Roll back to the last good checkpoint and go again. restore()
            // rewinds the registry to the checkpoint's counts, so the
            // watchdog's lifetime totals are re-applied afterwards — the
            // recovery must stay visible in the final stats.
            restore(last_checkpoint);
            watchdog.noteRecovery();
            watchdog.rebase();
            auto &stalls = stats_.counter(kWatchdogStallsDetected);
            if (watchdog.stallsDetected() > stalls.value())
                stalls.increment(watchdog.stallsDetected() - stalls.value());
            auto &recoveries = stats_.counter(kWatchdogRecoveries);
            if (watchdog.recoveries() > recoveries.value())
                recoveries.increment(watchdog.recoveries() -
                                     recoveries.value());
            auto &wedges = stats_.counter(kFaultNodeWedge);
            if (wedge_count > wedges.value())
                wedges.increment(wedge_count - wedges.value());
            wedge_disarmed = true;
            std::fill(wedged.begin(), wedged.end(), false);
        }
    } catch (...) {
        merge_shards();
        throw;
    }
    merge_shards();

    // A done core's reason is read off the core itself, whose state a
    // checkpoint carries: a core that finished before the checkpoint a
    // run resumed from reports it too.
    std::vector<riscv::HaltReason> halts;
    halts.reserve(gids.size());
    for (GlobalTileId g : gids) {
        for (const CoreState &s : ns[g / cfg_.tilesPerNode].cores) {
            if (s.gid != g)
                continue;
            const riscv::RvCore &c = core(g);
            if (s.done && c.exited())
                halts.push_back(riscv::HaltReason::kExited);
            else if (s.done && c.atEbreak())
                halts.push_back(riscv::HaltReason::kEbreak);
            else if (!s.done && s.parked)
                halts.push_back(riscv::HaltReason::kWfi);
            else
                halts.push_back(riscv::HaltReason::kInstrBudget);
        }
    }
    return halts;
}

namespace
{
/** Event budgets bounding quiesce: the periodic hook gives up (and
 *  skips the checkpoint) long before an explicit checkpoint() does. */
constexpr std::uint64_t kAutoQuiesceBudget = 200'000;
constexpr std::uint64_t kExplicitQuiesceBudget = 10'000'000;
} // namespace

std::uint64_t
Prototype::configFingerprint() const
{
    // FNV-1a over the fields that shape serialized state. A checkpoint
    // from a differently shaped prototype must be rejected up front;
    // the worker-thread count is excluded on purpose, as are
    // core.decodeCache, core.dataFastPath and uncore.idleSkip
    // (transient, checkpoint-invisible state — any setting must accept
    // any setting's checkpoints).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (char c : cfg_.name())
        mix(static_cast<unsigned char>(c));
    mix(cfg_.memPerNode);
    mix(cfg_.llcSliceBytes);
    mix(cfg_.seed);
    mix(static_cast<std::uint64_t>(cfg_.coreModel));
    mix(static_cast<std::uint64_t>(cfg_.homing));
    mix(cfg_.parallel.quantum);
    mix(cfg_.reliability.enabled ? 1 : 0);
    mix(cfg_.trace.enabled ? 1 : 0);
    mix(cfg_.trace.enabled ? cfg_.trace.ringCapacity : 0);
    return h;
}

bool
Prototype::quiesce(std::uint64_t max_events)
{
    while (true) {
        applyDeferredIrqs();
        if (eq_.empty())
            return true;
        if (max_events == 0)
            return false;
        Cycles next = eq_.nextEventTime();
        std::uint64_t ran = eq_.runUntil(next);
        max_events -= std::min(max_events, ran);
    }
}

void
Prototype::writeCheckpoint(const std::string &path)
{
    panicIf(!eq_.empty(), "writeCheckpoint() with pending device events");
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    fatalIf(!os, strfmt("cannot write checkpoint '%s'", path.c_str()));
    snap::Writer w(os);
    w.setConfigHash(configFingerprint());

    w.begin(snap::Section::kMeta);
    w.str(cfg_.name());
    w.u64(cfg_.seed);
    w.u32(cfg_.totalNodes());
    w.u32(cfg_.tilesPerNode);
    w.u64(eq_.now());
    std::uint64_t instret = 0;
    for (const auto &c : cores_)
        instret += c->instret();
    w.u64(instret);
    w.end();

    w.begin(snap::Section::kTime);
    w.u64(eq_.now());
    w.u64(probeClock_);
    w.end();

    w.begin(snap::Section::kResume);
    if (live_ && live_->saveResume)
        live_->saveResume(w);
    else
        w.boolean(false);
    w.end();

    w.begin(snap::Section::kCores);
    w.u64(cores_.size());
    for (const auto &c : cores_)
        c->saveState(w);
    w.end();

    w.begin(snap::Section::kMemory);
    cs_->memory().saveState(w);
    w.end();

    w.begin(snap::Section::kCache);
    cs_->saveState(w);
    w.end();

    w.begin(snap::Section::kFabric);
    fabric_->saveState(w);
    w.end();

    w.begin(snap::Section::kDevices);
    clint_->saveState(w);
    plic_->saveState(w);
    w.u64(uarts_.size());
    for (const auto &u : uarts_)
        u->saveState(w);
    w.u64(serials_.size());
    for (const auto &s : serials_)
        s.saveState(w);
    w.u64(sdCards_.size());
    for (const auto &sd : sdCards_)
        sd->saveState(w);
    w.end();

    w.begin(snap::Section::kStats);
    snap::saveRegistry(w, stats_);
    if (live_ && live_->shards) {
        w.u32(static_cast<std::uint32_t>(live_->shards->size()));
        for (const auto &shard : *live_->shards)
            snap::saveRegistry(w, shard);
    } else {
        w.u32(0);
    }
    w.end();

    w.begin(snap::Section::kTracer);
    tracer_.saveState(w);
    w.end();

    w.begin(snap::Section::kFault);
    w.boolean(faultInjector_ != nullptr);
    if (faultInjector_)
        snap::saveFaultInjector(w, *faultInjector_);
    w.end();

    w.finish();
    os.flush();
    fatalIf(!os.good(),
            strfmt("I/O error writing checkpoint '%s'", path.c_str()));
}

void
Prototype::checkpoint(const std::string &path)
{
    fatalIf(!quiesce(kExplicitQuiesceBudget),
            strfmt("checkpoint '%s': pending device events did not "
                   "drain within %llu events (a device keeps re-arming "
                   "itself?)",
                   path.c_str(),
                   static_cast<unsigned long long>(
                       kExplicitQuiesceBudget)));
    stats_.counter(kSnapCheckpoints).increment();
    writeCheckpoint(path);
}

bool
Prototype::tryCheckpoint(const std::string &path)
{
    if (!quiesce(kAutoQuiesceBudget)) {
        warn(strfmt("skipping checkpoint '%s': device events will not "
                    "drain",
                    path.c_str()));
        stats_.counter(kSnapSkipped).increment();
        return false;
    }
    stats_.counter(kSnapCheckpoints).increment();
    writeCheckpoint(path);
    return true;
}

void
Prototype::restore(const std::string &path)
{
    snap::Reader r(path);
    fatalIf(r.version() != snap::kSmckVersion,
            strfmt("checkpoint '%s' is format v%u, this build reads v%u",
                   path.c_str(), r.version(), snap::kSmckVersion));
    fatalIf(r.configHash() != configFingerprint(),
            strfmt("checkpoint '%s' was written by a differently "
                   "configured prototype (config hash %016llx, expected "
                   "%016llx)",
                   path.c_str(),
                   static_cast<unsigned long long>(r.configHash()),
                   static_cast<unsigned long long>(configFingerprint())));

    r.open(snap::Section::kTime);
    Cycles now = r.u64();
    Cycles probe = r.u64();
    eq_.reset();
    eq_.jumpTo(now);
    probeClock_ = probe;

    r.open(snap::Section::kCores);
    std::uint64_t ncores = r.u64();
    fatalIf(ncores != cores_.size(),
            strfmt("checkpoint has %llu cores, prototype has %zu",
                   static_cast<unsigned long long>(ncores),
                   cores_.size()));
    for (auto &c : cores_)
        c->restoreState(r);

    r.open(snap::Section::kMemory);
    cs_->memory().restoreState(r);

    r.open(snap::Section::kCache);
    cs_->restoreState(r);

    r.open(snap::Section::kFabric);
    fabric_->restoreState(r);

    r.open(snap::Section::kDevices);
    clint_->restoreState(r);
    plic_->restoreState(r);
    auto check_count = [&](const char *what, std::uint64_t got,
                           std::size_t want) {
        fatalIf(got != want,
                strfmt("checkpoint has %llu %s, prototype has %zu",
                       static_cast<unsigned long long>(got), what, want));
    };
    check_count("UARTs", r.u64(), uarts_.size());
    for (auto &u : uarts_)
        u->restoreState(r);
    check_count("serials", r.u64(), serials_.size());
    for (auto &s : serials_)
        s.restoreState(r);
    check_count("SD cards", r.u64(), sdCards_.size());
    for (auto &sd : sdCards_)
        sd->restoreState(r);

    r.open(snap::Section::kStats);
    snap::restoreRegistry(r, stats_);
    std::uint32_t shard_count = r.u32();
    resume_.shards = std::vector<sim::StatRegistry>(shard_count);
    for (auto &shard : resume_.shards)
        snap::restoreRegistry(r, shard);

    r.open(snap::Section::kTracer);
    tracer_.restoreState(r);

    r.open(snap::Section::kResume);
    resume_.valid = r.boolean();
    resume_.gids.clear();
    resume_.executed.clear();
    resume_.done.clear();
    resume_.parked.clear();
    if (resume_.valid) {
        resume_.boundary = r.u64();
        resume_.idleEpochs = r.u64();
        std::uint64_t count = r.u64();
        resume_.gids.reserve(count);
        resume_.executed.reserve(count);
        resume_.done.reserve(count);
        resume_.parked.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            resume_.gids.push_back(r.u32());
            resume_.executed.push_back(r.u64());
            resume_.done.push_back(r.u8());
            resume_.parked.push_back(r.u8());
        }
    }

    r.open(snap::Section::kFault);
    bool has_fault = r.boolean();
    fatalIf(has_fault != (faultInjector_ != nullptr),
            strfmt("checkpoint '%s' and prototype disagree on fault "
                   "injection",
                   path.c_str()));
    if (faultInjector_)
        snap::restoreFaultInjector(r, *faultInjector_);
}

std::unique_ptr<os::GuestSystem>
Prototype::makeGuest(os::NumaMode mode, std::uint64_t seed)
{
    auto guest = std::make_unique<os::GuestSystem>(*cs_, mode, seed);
    // MMIO is identity-mapped (not paged).
    guest->mapDeviceIdentity(kClintBase, kClintSize);
    guest->mapDeviceIdentity(kSdMmioBase,
                             kSdMmioStride * cfg_.totalNodes());
    guest->mapDeviceIdentity(kUartBase,
                             kUartNodeStride * cfg_.totalNodes());
    guest->mapDeviceIdentity(kAccelBase, kAccelStride * 64);
    return guest;
}

Addr
Prototype::addressHomedAt(GlobalTileId to) const
{
    NodeId node = to / cfg_.tilesPerNode;
    TileId tile = to % cfg_.tilesPerNode;
    Addr base = kDramBase + static_cast<Addr>(node) * cfg_.memPerNode +
                cfg_.memPerNode / 4;
    for (std::uint64_t k = 0; k < 100000; ++k) {
        Addr line = base + k * kCacheLineBytes;
        auto [hn, ht] = cs_->homeOf(line);
        if (hn == node && ht == tile)
            return line;
    }
    panic("no address homed at the requested tile found");
}

Cycles
Prototype::measureRoundTrip(GlobalTileId from, GlobalTileId to)
{
    Addr addr = addressHomedAt(to);
    probeClock_ += 1'000'000;
    // Warm the home LLC slice with an access from the home tile itself,
    // then drop every private copy so the probe is a clean two-hop
    // requester -> home -> requester transaction.
    cs_->access(to, addr, cache::AccessType::kLoad, 8, probeClock_);
    cs_->flushPrivate(to);
    cs_->flushPrivate(from);
    probeClock_ += 1'000'000;
    auto r = cs_->access(from, addr, cache::AccessType::kLoad, 8,
                         probeClock_);
    cs_->flushPrivate(from);
    return r.latency;
}

} // namespace smappic::platform
