/**
 * @file
 * Tests for the PCIe fabric model: window routing and latency, decode
 * errors, overlapping windows, reads, the link bandwidth cap and the
 * fabric's trace events.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/tracer.hpp"
#include "pcie/pcie_fabric.hpp"
#include "sim/log.hpp"

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

TEST(PcieFabric, TracesWritesAndReads)
{
    // Each transaction traces once, from the issuing FPGA, spanning its
    // one-way transit.
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 63, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x10000, 0x1000, &target, 1, "fpga1");
    obs::TraceConfig tcfg;
    tcfg.enabled = true;
    obs::Tracer tracer;
    tracer.configure(tcfg, 2);
    fabric.setTracer(&tracer);

    fabric.write(0, axi::WriteReq{0x10040, {1, 2, 3, 4}, 0}, nullptr);
    fabric.read(0, axi::ReadReq{0x10080, 8, 0}, nullptr);
    eq.run();

    std::vector<obs::TraceEvent> events = tracer.merged();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind,
              static_cast<std::uint8_t>(obs::EventKind::kPcieWrite));
    EXPECT_EQ(events[0].arg, 0x10040u);
    EXPECT_EQ(events[1].kind,
              static_cast<std::uint8_t>(obs::EventKind::kPcieRead));
    EXPECT_EQ(events[1].arg, 0x10080u);
    for (const obs::TraceEvent &ev : events) {
        EXPECT_EQ(ev.component,
                  static_cast<std::uint8_t>(obs::Component::kPcie));
        EXPECT_EQ(ev.node, 0u);
        EXPECT_EQ(ev.duration, fabric.oneWayLatency());
    }
}

} // namespace
} // namespace smappic
