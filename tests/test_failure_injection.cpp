/**
 * @file
 * Failure-injection tests: fabric decode errors, flaky AXI targets and
 * protocol-violation panics. The platform must either
 * recover (transient errors) or fail loudly (invariant violations) —
 * never hang or silently corrupt.
 */

#include <gtest/gtest.h>

#include "bridge/inter_node_bridge.hpp"
#include "pcie/pcie_fabric.hpp"

#include <cstring>
#include "sim/log.hpp"

namespace smappic
{
namespace
{

/** AXI target that fails the first N credit reads, then recovers. */
class FlakyBridgeProxy : public axi::Target
{
  public:
    FlakyBridgeProxy(axi::Target &inner, int failures)
        : inner_(inner), failuresLeft_(failures)
    {
    }

    axi::WriteResp
    write(const axi::WriteReq &req) override
    {
        return inner_.write(req);
    }

    axi::ReadResp
    read(const axi::ReadReq &req) override
    {
        if (failuresLeft_ > 0) {
            --failuresLeft_;
            return axi::ReadResp{axi::Resp::kSlvErr, {}, req.id};
        }
        return inner_.read(req);
    }

  private:
    axi::Target &inner_;
    int failuresLeft_;
};

TEST(FailureInjection, BridgeSurvivesFailedCreditReads)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric(eq, 63, 16.0, &stats);

    bridge::BridgeConfig cfg;
    cfg.creditsPerNoc = 4; // Force credit stalls -> credit reads.
    cfg.creditPollInterval = 16;
    // Receiver bridge registers at a window the sender never sees; the
    // sender's window points at a flaky proxy wrapping the receiver.
    bridge::InterNodeBridge rx(1, 1, 0x2000000, eq, fabric, cfg, &stats);
    FlakyBridgeProxy proxy(rx, 3); // First 3 credit reads fail.
    fabric.addWindow(0x1000000, cfg.windowSize, &proxy, 1, "rx-proxy");
    bridge::InterNodeBridge tx(0, 0, 0x0, eq, fabric, cfg, &stats);
    tx.addPeer(1, 0x1000000);
    rx.addPeer(0, tx.windowBase());

    int delivered = 0;
    rx.setDeliverFn([&](const noc::Packet &) { ++delivered; });

    for (int i = 0; i < 20; ++i) {
        noc::Packet p;
        p.srcNode = 0;
        p.dstNode = 1;
        p.dstTile = 1;
        p.type = noc::MsgType::kDataResp;
        p.addr = static_cast<Addr>(i);
        p.payload.assign(6, 9);
        tx.sendPacket(p);
    }
    eq.run();
    // Despite 3 failed credit reads, every packet eventually arrives.
    EXPECT_EQ(delivered, 20);
    EXPECT_TRUE(tx.sendIdle());
    EXPECT_GT(tx.creditReadsSent(), 3u);
}

TEST(FailureInjection, FabricDecodeErrorCompletesWithDecErr)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    int decerrs = 0;
    fabric.read(0, axi::ReadReq{0xbad00000, 8, 0},
                [&](pcie::Completion c) {
                    decerrs += c.resp == axi::Resp::kDecErr;
                });
    fabric.write(0, axi::WriteReq{0xbad00040, {1, 2}, 0},
                 [&](pcie::Completion c) {
                     decerrs += c.resp == axi::Resp::kDecErr;
                 });
    eq.run();
    EXPECT_EQ(decerrs, 2);
    EXPECT_EQ(fabric.decodeErrors(), 2u);
}

TEST(FailureInjection, BridgeReceiveOverflowPanics)
{
    // A sender violating the credit protocol (writing more flits than the
    // window allows) must be detected, not absorbed.
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric(eq, 1, 0.0, &stats);
    bridge::BridgeConfig cfg;
    cfg.creditsPerNoc = 2;
    bridge::InterNodeBridge rx(1, 1, 0x0, eq, fabric, cfg, &stats);

    // Forge raw bridge writes that ignore credits.
    axi::WriteReq req;
    req.addr = (0ULL << 12) | (0x1ULL << 8); // src node 0, NoC1 valid.
    req.data.assign(24, 0);
    // Craft a never-completing packet header so flits pile up: claim a
    // 200-flit payload.
    std::uint64_t header = (200ULL << 10) | (1ULL << 56); // dstNode=1.
    std::memcpy(req.data.data(), &header, 8);
    rx.write(req);
    rx.write(req);
    EXPECT_THROW(rx.write(req), PanicError);
}

} // namespace
} // namespace smappic
