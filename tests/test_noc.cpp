/**
 * @file
 * Tests for the NoC packet encoding and the flit-level mesh network:
 * serialization round trips, XY routing, wormhole integrity, credit-based
 * backpressure and off-chip hub routing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "noc/topology.hpp"
#include "sim/random.hpp"

namespace smappic::noc
{
namespace
{

Packet
makePacket(TileId src, TileId dst, std::size_t payload_flits = 0)
{
    Packet p;
    p.noc = NocIndex::kNoc1;
    p.srcNode = 0;
    p.srcTile = src;
    p.dstNode = 0;
    p.dstTile = dst;
    p.type = MsgType::kReqRd;
    p.mshr = 7;
    p.addr = 0xdeadbeef000ULL;
    for (std::size_t i = 0; i < payload_flits; ++i)
        p.payload.push_back(0x1111111100000000ULL + i);
    return p;
}

TEST(NocPacket, SerializeRoundTrip)
{
    Packet p = makePacket(3, 9, 8);
    p.type = MsgType::kDataResp;
    p.sizeLog2 = 3;
    auto flits = serialize(p);
    EXPECT_EQ(flits.size(), 10u);
    EXPECT_TRUE(flits.front().head);
    EXPECT_TRUE(flits.back().tail);
    Packet q = deserialize(flits);
    EXPECT_EQ(p, q);
}

TEST(NocPacket, RoundTripAllMessageTypes)
{
    for (int t = 0; t <= 17; ++t) {
        Packet p = makePacket(0, 1, static_cast<std::size_t>(t % 9));
        p.type = static_cast<MsgType>(t);
        p.srcNode = 3;
        p.dstNode = 2;
        EXPECT_EQ(deserialize(serialize(p)), p) << "type " << t;
    }
}

TEST(NocPacket, HeaderOnlyPacketHasTwoFlits)
{
    Packet p = makePacket(0, 1, 0);
    auto flits = serialize(p);
    EXPECT_EQ(flits.size(), 2u);
    EXPECT_TRUE(flits[1].tail);
}

TEST(NocPacket, MalformedFramingPanics)
{
    Packet p = makePacket(0, 1, 2);
    auto flits = serialize(p);
    flits.pop_back();
    EXPECT_THROW(deserialize(flits), PanicError);
    std::vector<std::uint64_t> words{1, 2, 3};
    // Header says 0 payload flits but 1 extra word present.
    EXPECT_THROW(deserializeWords(words), PanicError);
}

TEST(MeshTopology, GeometryAndHops)
{
    MeshTopology t(12);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.hops(0, 0), 0u);
    EXPECT_EQ(t.hops(0, 3), 3u);   // Same row.
    EXPECT_EQ(t.hops(0, 11), 5u);  // Opposite corner: 3 + 2.
    EXPECT_EQ(t.hops(5, 5), 0u);
    EXPECT_EQ(t.hopsToOffChip(0), 1u);
    EXPECT_EQ(t.hopsToOffChip(11), 6u);
}

TEST(MeshTopology, PartialLastRow)
{
    MeshTopology t(5); // 3x2 grid, last row has 2 tiles.
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.hops(4, 0), 2u);
}

TEST(MeshTopology, HopTableMatchesCoordinates)
{
    auto manhattan = [](Coord a, Coord b) {
        return static_cast<std::uint32_t>(std::abs(a.x - b.x) +
                                          std::abs(a.y - b.y));
    };
    for (std::uint32_t n = 1; n <= 64; ++n) {
        MeshTopology t(n);
        std::vector<TileId> ids;
        for (TileId i = 0; i < n; ++i)
            ids.push_back(i);
        ids.push_back(kOffChipTile);
        for (TileId a : ids) {
            for (TileId b : ids) {
                ASSERT_EQ(t.hops(a, b), manhattan(t.coordOf(a), t.coordOf(b)))
                    << n << " tiles, " << a << " -> " << b;
            }
            ASSERT_EQ(t.hopsToOffChip(a),
                      manhattan(t.coordOf(a), t.coordOf(0)) + 1)
                << n << " tiles, " << a;
        }
        EXPECT_EQ(t.hops(kOffChipTile, kOffChipTile), 0u);
        EXPECT_EQ(t.hops(kOffChipTile, 0), 1u);
        EXPECT_EQ(t.hops(0, kOffChipTile), 1u);
        EXPECT_EQ(t.hopsToOffChip(kOffChipTile), 2u);
        EXPECT_THROW(t.hops(n, 0), PanicError);
        EXPECT_THROW(t.hops(0, n), PanicError);
        EXPECT_THROW(t.hopsToOffChip(n), PanicError);
    }
}

TEST(MeshNetwork, SingleHopDelivery)
{
    MeshNetwork net(MeshTopology(4));
    std::vector<Packet> delivered;
    net.setDeliverFn(1, [&](const Packet &p) { delivered.push_back(p); });
    Packet p = makePacket(0, 1, 2);
    net.inject(p);
    net.run(50);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], p);
    EXPECT_TRUE(net.idle());
}

TEST(MeshNetwork, DeliveryToEveryTile)
{
    MeshNetwork net(MeshTopology(12));
    std::map<TileId, int> received;
    for (TileId t = 0; t < 12; ++t)
        net.setDeliverFn(t, [&received, t](const Packet &) {
            received[t] += 1;
        });
    for (TileId t = 1; t < 12; ++t)
        net.inject(makePacket(0, t, 3));
    net.run(500);
    for (TileId t = 1; t < 12; ++t)
        EXPECT_EQ(received[t], 1) << "tile " << t;
    EXPECT_TRUE(net.idle());
}

TEST(MeshNetwork, FartherTilesTakeLonger)
{
    MeshNetwork net(MeshTopology(16));
    Cycles t_near = 0;
    Cycles t_far = 0;
    net.setDeliverFn(1, [&](const Packet &) { t_near = net.now(); });
    net.setDeliverFn(15, [&](const Packet &) { t_far = net.now(); });
    net.inject(makePacket(0, 1));
    net.inject(makePacket(0, 15));
    net.run(200);
    ASSERT_GT(t_near, 0u);
    ASSERT_GT(t_far, 0u);
    EXPECT_GT(t_far, t_near);
}

TEST(MeshNetwork, WormholePacketsDoNotInterleave)
{
    // Two tiles send multi-flit packets to the same destination; the
    // deliver callback only fires with complete, well-formed packets, so
    // any interleaving would fail deserialization inside the network.
    MeshNetwork net(MeshTopology(9));
    int delivered = 0;
    net.setDeliverFn(4, [&](const Packet &p) {
        ++delivered;
        EXPECT_EQ(p.payload.size(), 8u);
    });
    net.inject(makePacket(0, 4, 8));
    net.inject(makePacket(8, 4, 8));
    net.inject(makePacket(2, 4, 8));
    net.inject(makePacket(6, 4, 8));
    net.run(500);
    EXPECT_EQ(delivered, 4);
    EXPECT_TRUE(net.idle());
}

TEST(MeshNetwork, OffChipHubReceivesNorthboundTraffic)
{
    MeshNetwork net(MeshTopology(12));
    std::vector<Packet> hub;
    net.setDeliverFn(kOffChipTile, [&](const Packet &p) {
        hub.push_back(p);
    });
    Packet p = makePacket(11, kOffChipTile, 4);
    p.dstNode = 2; // Remote node: must exit via the hub.
    net.inject(p);
    net.run(200);
    ASSERT_EQ(hub.size(), 1u);
    EXPECT_EQ(hub[0].dstNode, 2u);
    EXPECT_TRUE(net.idle());
}

TEST(MeshNetwork, OffChipHubCanInjectIntoMesh)
{
    MeshNetwork net(MeshTopology(12));
    std::vector<Packet> got;
    net.setDeliverFn(7, [&](const Packet &p) { got.push_back(p); });
    Packet p = makePacket(0, 7, 8);
    p.srcTile = kOffChipTile;
    net.injectFromOffChip(p);
    net.run(200);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload.size(), 8u);
}

TEST(MeshNetwork, HeavyRandomTrafficAllDelivered)
{
    sim::Xoroshiro rng(55);
    MeshNetwork net(MeshTopology(16), 2); // Shallow buffers: backpressure.
    int delivered = 0;
    for (TileId t = 0; t < 16; ++t)
        net.setDeliverFn(t, [&](const Packet &) { ++delivered; });

    const int kPackets = 400;
    for (int i = 0; i < kPackets; ++i) {
        auto src = static_cast<TileId>(rng.below(16));
        auto dst = static_cast<TileId>(rng.below(16));
        if (dst == src)
            dst = (dst + 1) % 16;
        net.inject(makePacket(src, dst, rng.below(8)));
    }
    net.run(20000);
    EXPECT_EQ(delivered, kPackets);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.deliveredPackets(), static_cast<std::uint64_t>(kPackets));
}

TEST(MeshNetwork, CreditBackpressureBoundsBuffering)
{
    // Saturate a single destination: buffered flits must never exceed the
    // total buffer capacity (credit conservation).
    MeshNetwork net(MeshTopology(9), 4);
    int delivered = 0;
    net.setDeliverFn(8, [&](const Packet &) { ++delivered; });
    for (int i = 0; i < 50; ++i)
        net.inject(makePacket(0, 8, 8));
    std::uint64_t capacity = 9ULL * kNumDirs * 4;
    for (int c = 0; c < 4000; ++c) {
        net.tick();
        ASSERT_LE(net.bufferedFlits(), capacity);
    }
    EXPECT_EQ(delivered, 50);
}

TEST(MeshNetwork, SingleTileMeshLocalDelivery)
{
    MeshNetwork net(MeshTopology(1));
    int got = 0;
    net.setDeliverFn(0, [&](const Packet &) { ++got; });
    Packet p = makePacket(0, 0, 1);
    net.inject(p);
    net.run(20);
    EXPECT_EQ(got, 1);
}

} // namespace
} // namespace smappic::noc
