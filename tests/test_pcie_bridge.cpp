/**
 * @file
 * Tests for the PCIe fabric model and the inter-node bridge: encapsulation
 * round trips, credit-based flow control (including saturation without
 * overflow), latency structure, multi-node delivery through the fabric,
 * and the bridge's and fabric's trace events.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bridge/inter_node_bridge.hpp"
#include "obs/tracer.hpp"
#include "pcie/pcie_fabric.hpp"
#include "riscv/interrupts.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic
{
namespace
{

/** AXI target recording everything it sees. */
class Recorder : public axi::Target
{
  public:
    axi::WriteResp
    write(const axi::WriteReq &req) override
    {
        writes.push_back(req);
        return {axi::Resp::kOkay, req.id};
    }
    axi::ReadResp
    read(const axi::ReadReq &req) override
    {
        reads.push_back(req);
        axi::ReadResp r;
        r.id = req.id;
        r.data.assign(req.bytes, 0xab);
        return r;
    }
    std::vector<axi::WriteReq> writes;
    std::vector<axi::ReadReq> reads;
};

TEST(PcieFabric, WriteRoutedWithLatency)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 63, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x10000, 0x1000, &target, 1, "fpga1");

    bool completed = false;
    Cycles completion_time = 0;
    axi::WriteReq req;
    req.addr = 0x10040;
    req.data = {1, 2, 3, 4};
    fabric.write(0, req, [&](pcie::Completion c) {
        completed = true;
        completion_time = eq.now();
        EXPECT_EQ(c.resp, axi::Resp::kOkay);
    });
    eq.run();
    ASSERT_TRUE(completed);
    ASSERT_EQ(target.writes.size(), 1u);
    EXPECT_EQ(target.writes[0].data.size(), 4u);
    // One way there, one way back: a full PCIe round trip.
    EXPECT_GE(completion_time, 2u * 63u);
}

TEST(PcieFabric, UnmappedAddressDecErr)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    bool got = false;
    fabric.write(0, axi::WriteReq{0xdead0000, {1}, 0},
                 [&](pcie::Completion c) {
                     got = true;
                     EXPECT_EQ(c.resp, axi::Resp::kDecErr);
                 });
    eq.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(fabric.decodeErrors(), 1u);
}

TEST(PcieFabric, OverlappingWindowsRejected)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x1000, 0x1000, &target, 1, "a");
    EXPECT_THROW(fabric.addWindow(0x1800, 0x1000, &target, 1, "b"),
                 FatalError);
    EXPECT_THROW(fabric.addWindow(0x0, 0x1001, &target, 1, "c"),
                 FatalError);
    // Adjacent windows touch but do not overlap.
    EXPECT_NO_THROW(fabric.addWindow(0x2000, 0x1000, &target, 1, "d"));
    EXPECT_NO_THROW(fabric.addWindow(0x0, 0x1000, &target, 1, "e"));
}

TEST(PcieFabric, ReadReturnsData)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 20, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x0, 0x1000, &target, 2, "fpga2");
    std::vector<std::uint8_t> data;
    fabric.read(0, axi::ReadReq{0x100, 16, 5}, [&](pcie::Completion c) {
        data = c.data;
    });
    eq.run();
    EXPECT_EQ(data.size(), 16u);
    EXPECT_EQ(data[0], 0xab);
}

TEST(PcieFabric, BandwidthCapSerializesTransfers)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 1.0, nullptr); // 1 byte/cycle.
    Recorder target;
    fabric.addWindow(0x0, 0x100000, &target, 1, "fpga1");
    Cycles last = 0;
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        axi::WriteReq req;
        req.addr = static_cast<Addr>(i) * 0x100;
        req.data.assign(100, 0);
        fabric.write(0, req, [&](pcie::Completion) {
            ++done;
            last = eq.now();
        });
    }
    eq.run();
    EXPECT_EQ(done, 4);
    // 4 transfers x (100+32) bytes at 1 B/cycle >= 528 cycles of link time.
    EXPECT_GE(last, 4u * 132u);
}

/** Harness wiring two bridges through a fabric. */
struct TwoNodeHarness
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric;
    bridge::BridgeConfig cfg;
    bridge::InterNodeBridge bridge0;
    bridge::InterNodeBridge bridge1;
    std::vector<noc::Packet> at0;
    std::vector<noc::Packet> at1;

    explicit TwoNodeHarness(std::uint32_t credits = 32)
        : fabric(eq, 63, 16.0, &stats), cfg(makeCfg(credits)),
          bridge0(0, 0, 0x0000000, eq, fabric, cfg, &stats),
          bridge1(1, 1, 0x1000000, eq, fabric, cfg, &stats)
    {
        bridge0.addPeer(1, bridge1.windowBase());
        bridge1.addPeer(0, bridge0.windowBase());
        bridge0.setDeliverFn(
            [this](const noc::Packet &p) { at0.push_back(p); });
        bridge1.setDeliverFn(
            [this](const noc::Packet &p) { at1.push_back(p); });
    }

    static bridge::BridgeConfig
    makeCfg(std::uint32_t credits)
    {
        bridge::BridgeConfig c;
        c.creditsPerNoc = credits;
        c.creditPollInterval = 16;
        return c;
    }

    noc::Packet
    makePacket(NodeId src, NodeId dst, std::size_t payload,
               noc::NocIndex idx = noc::NocIndex::kNoc1)
    {
        noc::Packet p;
        p.noc = idx;
        p.srcNode = src;
        p.srcTile = 3;
        p.dstNode = dst;
        p.dstTile = 5;
        p.type = noc::MsgType::kReqRd;
        p.addr = 0xabc000;
        for (std::size_t i = 0; i < payload; ++i)
            p.payload.push_back(i);
        return p;
    }
};

TEST(InterNodeBridge, PacketRoundTripsThroughFabric)
{
    // A request carrying a line, a full-line memory read response on
    // NoC2, and an interrupt packet each arrive unchanged.
    noc::Packet req = TwoNodeHarness().makePacket(0, 1, 8);
    noc::Packet resp = req;
    resp.noc = noc::NocIndex::kNoc2;
    resp.type = noc::MsgType::kMemRdResp;
    resp.mshr = 9;
    noc::Packet irq =
        riscv::IrqPacketizer::encode(0, 1, 2, 6, riscv::kIrqMsi, true);
    for (const noc::Packet &p : {req, resp, irq}) {
        SCOPED_TRACE(static_cast<int>(p.type));
        TwoNodeHarness h;
        h.bridge0.sendPacket(p);
        h.eq.run();
        ASSERT_EQ(h.at1.size(), 1u);
        EXPECT_EQ(h.at1[0], p);
        EXPECT_EQ(h.bridge0.flitsSent(), p.flitCount());
        EXPECT_EQ(h.bridge1.flitsReceived(), p.flitCount());
        EXPECT_TRUE(h.bridge0.sendIdle());
    }
}

TEST(InterNodeBridge, DeliveryLatencyIncludesPcie)
{
    TwoNodeHarness h;
    h.bridge0.sendPacket(h.makePacket(0, 1, 0));
    h.eq.run();
    ASSERT_EQ(h.at1.size(), 1u);
    // At minimum the one-way PCIe latency (63 cycles).
    EXPECT_GE(h.eq.now(), 63u);
}

TEST(InterNodeBridge, BidirectionalTraffic)
{
    TwoNodeHarness h;
    for (int i = 0; i < 10; ++i) {
        h.bridge0.sendPacket(h.makePacket(0, 1, 4));
        h.bridge1.sendPacket(h.makePacket(1, 0, 4));
    }
    h.eq.run();
    EXPECT_EQ(h.at0.size(), 10u);
    EXPECT_EQ(h.at1.size(), 10u);
}

TEST(InterNodeBridge, ThreeNocsMultiplexedIntoOneWriteStream)
{
    TwoNodeHarness h;
    // One packet on each physical NoC: flits share AXI writes (up to 3
    // flits per write), so the write count is far below the flit count.
    h.bridge0.sendPacket(h.makePacket(0, 1, 6, noc::NocIndex::kNoc1));
    h.bridge0.sendPacket(h.makePacket(0, 1, 6, noc::NocIndex::kNoc2));
    h.bridge0.sendPacket(h.makePacket(0, 1, 6, noc::NocIndex::kNoc3));
    h.eq.run();
    EXPECT_EQ(h.at1.size(), 3u);
    EXPECT_EQ(h.bridge0.flitsSent(), 24u);
    EXPECT_EQ(h.bridge0.axiWritesSent(), 8u); // ceil(24/3) with 3 NoCs.
}

TEST(InterNodeBridge, CreditExhaustionStallsThenRecovers)
{
    TwoNodeHarness h(4); // Only 4 credits per NoC.
    // 20 packets x 6 flits each = 120 flits through a 4-credit window.
    for (int i = 0; i < 20; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, 4));
    h.eq.run();
    EXPECT_EQ(h.at1.size(), 20u);
    EXPECT_GT(h.bridge0.creditReadsSent(), 0u);
    EXPECT_TRUE(h.bridge0.sendIdle());
}

TEST(InterNodeBridge, CreditsNeverExceedConfigured)
{
    TwoNodeHarness h(8);
    for (int i = 0; i < 50; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, 2));
    h.eq.run();
    EXPECT_LE(h.bridge0.creditsAvailable(1, noc::NocIndex::kNoc1), 8u);
    EXPECT_EQ(h.at1.size(), 50u);
}

TEST(InterNodeBridge, FourNodeAllToAll)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric(eq, 63, 16.0, &stats);
    bridge::BridgeConfig cfg;
    cfg.creditsPerNoc = 16;
    cfg.creditPollInterval = 16;

    std::vector<std::unique_ptr<bridge::InterNodeBridge>> bridges;
    std::map<NodeId, std::vector<noc::Packet>> received;
    for (NodeId n = 0; n < 4; ++n) {
        bridges.push_back(std::make_unique<bridge::InterNodeBridge>(
            n, n, static_cast<Addr>(n) * 0x1000000, eq, fabric, cfg,
            &stats));
    }
    for (NodeId n = 0; n < 4; ++n) {
        for (NodeId m = 0; m < 4; ++m) {
            if (n != m)
                bridges[n]->addPeer(m, bridges[m]->windowBase());
        }
        bridges[n]->setDeliverFn([&received, n](const noc::Packet &p) {
            received[n].push_back(p);
        });
    }

    sim::Xoroshiro rng(99);
    std::map<NodeId, int> expected;
    for (int i = 0; i < 200; ++i) {
        auto src = static_cast<NodeId>(rng.below(4));
        auto dst = static_cast<NodeId>(rng.below(4));
        if (dst == src)
            dst = (dst + 1) % 4;
        noc::Packet p;
        p.noc = static_cast<noc::NocIndex>(rng.below(3));
        p.srcNode = src;
        p.srcTile = static_cast<TileId>(rng.below(12));
        p.dstNode = dst;
        p.dstTile = static_cast<TileId>(rng.below(12));
        p.type = noc::MsgType::kDataResp;
        p.addr = rng.next();
        for (std::uint64_t k = 0; k < rng.below(8); ++k)
            p.payload.push_back(rng.next());
        bridges[src]->sendPacket(p);
        expected[dst] += 1;
    }
    eq.run();
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(static_cast<int>(received[n].size()), expected[n])
            << "node " << n;
}

TEST(InterNodeBridge, TracesFramesAndFabricTransfers)
{
    TwoNodeHarness h;
    obs::TraceConfig tcfg;
    tcfg.enabled = true;
    obs::Tracer tracer;
    tracer.configure(tcfg, 2);
    h.fabric.setTracer(&tracer);
    h.bridge0.setTracer(&tracer);
    h.bridge1.setTracer(&tracer);
    // Enough packets to outrun the per-NoC credit window, so the sender
    // must issue credit-return reads across the fabric.
    for (int i = 0; i < 40; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, 1));
    h.eq.run();
    ASSERT_EQ(h.at1.size(), 40u);

    std::uint64_t perKind[obs::kNumEventKinds] = {};
    for (const obs::TraceEvent &ev : tracer.merged())
        perKind[ev.kind] += 1;
    auto count = [&](obs::EventKind k) {
        return perKind[static_cast<std::uint32_t>(k)];
    };
    EXPECT_GT(count(obs::EventKind::kBridgeTx), 0u);
    EXPECT_EQ(count(obs::EventKind::kBridgeRx), 40u);
    EXPECT_GT(count(obs::EventKind::kPcieWrite), 0u);
    // Credit-return polls show up as fabric reads.
    EXPECT_GT(count(obs::EventKind::kPcieRead), 0u);
}

TEST(InterNodeBridge, MisroutedPacketPanics)
{
    TwoNodeHarness h;
    noc::Packet p = h.makePacket(0, 0, 0); // dst == own node.
    EXPECT_THROW(h.bridge0.sendPacket(p), PanicError);
}

} // namespace
} // namespace smappic
