/**
 * @file
 * Tests for the NoC-AXI4 memory controller and the AXI DRAM channel:
 * alignment, byte selection, MSHR/ID management, non-blocking operation
 * and response integrity.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/noc_axi_memctrl.hpp"
#include "sim/random.hpp"

namespace smappic::mem
{
namespace
{

struct Harness
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    MainMemory memory;
    AxiDram dram;
    NocAxiMemController ctrl;
    std::vector<noc::Packet> responses;

    explicit Harness(MemCtrlConfig cfg = {})
        : dram(eq, memory, 0, 1ULL << 30, DramTiming{}),
          ctrl(0, eq, dram, cfg, &stats)
    {
        ctrl.setSendFn(
            [this](const noc::Packet &p) { responses.push_back(p); });
    }

    noc::Packet
    readReq(Addr addr, std::uint8_t size_log2, std::uint8_t mshr = 1,
            TileId src_tile = 4)
    {
        noc::Packet p;
        p.noc = noc::NocIndex::kNoc1;
        p.srcNode = 0;
        p.srcTile = src_tile;
        p.dstNode = 0;
        p.dstTile = noc::kOffChipTile;
        p.type = noc::MsgType::kMemRd;
        p.mshr = mshr;
        p.sizeLog2 = size_log2;
        p.addr = addr;
        return p;
    }

    noc::Packet
    writeReq(Addr addr, std::uint8_t size_log2,
             const std::vector<std::uint64_t> &data)
    {
        noc::Packet p = readReq(addr, size_log2);
        p.type = noc::MsgType::kMemWr;
        p.payload = data;
        return p;
    }
};

TEST(NocAxiMemCtrl, FullLineRead)
{
    Harness h;
    h.memory.store(0x1000, 8, 0x1122334455667788ULL);
    h.ctrl.handlePacket(h.readReq(0x1000, 6));
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 1u);
    const auto &r = h.responses[0];
    EXPECT_EQ(r.type, noc::MsgType::kMemRdResp);
    EXPECT_EQ(r.noc, noc::NocIndex::kNoc2); // Responses use NoC2.
    EXPECT_EQ(r.dstTile, 4u);
    EXPECT_EQ(r.mshr, 1u);
    ASSERT_EQ(r.payload.size(), 8u);
    EXPECT_EQ(r.payload[0], 0x1122334455667788ULL);
}

TEST(NocAxiMemCtrl, SubLineReadSelectsBytes)
{
    Harness h;
    h.memory.store(0x1038, 8, 0xcafebabe12345678ULL);
    // 8-byte read at an address 0x38 into the line: the controller aligns
    // the AXI burst to 64 B and selects the requested window back out.
    h.ctrl.handlePacket(h.readReq(0x1038, 3));
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 1u);
    ASSERT_EQ(h.responses[0].payload.size(), 1u);
    EXPECT_EQ(h.responses[0].payload[0], 0xcafebabe12345678ULL);
}

TEST(NocAxiMemCtrl, CrossLineReadAlignsToTwoLines)
{
    Harness h;
    h.memory.store(0x10fc, 4, 0xaabbccdd);
    h.memory.store(0x1100, 4, 0x11223344);
    h.ctrl.handlePacket(h.readReq(0x10fc, 3)); // Crosses a 64B boundary.
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 1u);
    EXPECT_EQ(h.responses[0].payload[0], 0x11223344aabbccddULL);
}

TEST(NocAxiMemCtrl, WritePersistsAndAcks)
{
    Harness h;
    h.ctrl.handlePacket(h.writeReq(0x2000, 6,
                                   {1, 2, 3, 4, 5, 6, 7, 8}));
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 1u);
    EXPECT_EQ(h.responses[0].type, noc::MsgType::kMemWrResp);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(h.memory.load(0x2000 + 8 * i, 8),
                  static_cast<std::uint64_t>(i + 1));
}

TEST(NocAxiMemCtrl, SubLineWriteDoesNotClobberNeighbors)
{
    Harness h;
    h.memory.store(0x3000, 8, 0xaaaaaaaaaaaaaaaaULL);
    h.memory.store(0x3010, 8, 0xbbbbbbbbbbbbbbbbULL);
    h.ctrl.handlePacket(h.writeReq(0x3008, 3, {0x1234}));
    h.eq.run();
    EXPECT_EQ(h.memory.load(0x3000, 8), 0xaaaaaaaaaaaaaaaaULL);
    EXPECT_EQ(h.memory.load(0x3008, 8), 0x1234ULL);
    EXPECT_EQ(h.memory.load(0x3010, 8), 0xbbbbbbbbbbbbbbbbULL);
}

TEST(NocAxiMemCtrl, LatencyAtLeastDram)
{
    Harness h;
    h.ctrl.handlePacket(h.readReq(0x0, 6));
    h.eq.run();
    EXPECT_GE(h.eq.now(), DramTiming{}.latency);
}

TEST(NocAxiMemCtrl, NonBlockingOverlapsRequests)
{
    // 16 MSHRs: 16 independent reads should overlap, finishing far sooner
    // than 16 serial DRAM latencies.
    Harness h;
    for (int i = 0; i < 16; ++i)
        h.ctrl.handlePacket(
            h.readReq(static_cast<Addr>(i) * 64, 6,
                      static_cast<std::uint8_t>(i)));
    h.eq.run();
    EXPECT_EQ(h.responses.size(), 16u);
    EXPECT_EQ(h.ctrl.peakMshrsInUse(), 16u);
    EXPECT_LT(h.eq.now(), 16u * DramTiming{}.latency);
}

TEST(NocAxiMemCtrl, MshrLimitThrottlesButServesAll)
{
    MemCtrlConfig cfg;
    cfg.mshrs = 2;
    cfg.axiIds = 2;
    Harness h(cfg);
    for (int i = 0; i < 20; ++i)
        h.ctrl.handlePacket(h.readReq(static_cast<Addr>(i) * 64, 6));
    h.eq.run();
    EXPECT_EQ(h.responses.size(), 20u);
    EXPECT_LE(h.ctrl.peakMshrsInUse(), 2u);
    EXPECT_TRUE(h.ctrl.idle());
}

TEST(NocAxiMemCtrl, MshrTagsPreservedAcrossReordering)
{
    Harness h;
    std::map<std::uint8_t, Addr> issued;
    for (int i = 0; i < 10; ++i) {
        auto tag = static_cast<std::uint8_t>(100 + i);
        Addr addr = 0x4000 + static_cast<Addr>(i) * 64;
        h.memory.store(addr, 8, addr);
        h.ctrl.handlePacket(h.readReq(addr, 3, tag));
        issued[tag] = addr;
    }
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 10u);
    for (const auto &r : h.responses) {
        ASSERT_TRUE(issued.count(r.mshr));
        EXPECT_EQ(r.payload[0], issued[r.mshr]); // Data matches the tag.
        EXPECT_EQ(r.addr, issued[r.mshr]);
    }
}

TEST(NocAxiMemCtrl, NcAccessesGetNcResponses)
{
    Harness h;
    h.ctrl.handlePacket([&] {
        auto p = h.readReq(0x5000, 3);
        p.type = noc::MsgType::kNcLoad;
        return p;
    }());
    h.ctrl.handlePacket([&] {
        auto p = h.writeReq(0x5008, 3, {42});
        p.type = noc::MsgType::kNcStore;
        return p;
    }());
    h.eq.run();
    ASSERT_EQ(h.responses.size(), 2u);
    EXPECT_EQ(h.responses[0].type, noc::MsgType::kNcLoadResp);
    EXPECT_EQ(h.responses[1].type, noc::MsgType::kNcStoreResp);
    EXPECT_EQ(h.memory.load(0x5008, 8), 42u);
}

TEST(NocAxiMemCtrl, RejectsNonMemoryPackets)
{
    Harness h;
    auto p = h.readReq(0x0, 6);
    p.type = noc::MsgType::kInterrupt;
    EXPECT_THROW(h.ctrl.handlePacket(p), PanicError);
}

TEST(AxiDram, OutOfWindowAccessErrors)
{
    sim::EventQueue eq;
    MainMemory memory;
    AxiDram dram(eq, memory, 0x1000, 0x1000, DramTiming{});
    axi::Resp got = axi::Resp::kOkay;
    dram.read(axi::ReadReq{0x5000, 64, 0},
              [&](axi::ReadResp r) { got = r.resp; });
    eq.run();
    EXPECT_EQ(got, axi::Resp::kSlvErr);
}

TEST(AxiDram, BandwidthSerializesBursts)
{
    sim::EventQueue eq;
    MainMemory memory;
    DramTiming timing;
    timing.latency = 10;
    timing.bytesPerCycle = 8.0;
    AxiDram dram(eq, memory, 0, 1 << 20, timing);
    Cycles last = 0;
    for (int i = 0; i < 4; ++i) {
        dram.read(axi::ReadReq{static_cast<Addr>(i) * 64, 64, 0},
                  [&](axi::ReadResp) { last = eq.now(); });
    }
    eq.run();
    // 4 x 64B at 8 B/cycle = 32 cycles of channel + 10 latency.
    EXPECT_GE(last, 42u);
}

} // namespace
} // namespace smappic::mem
