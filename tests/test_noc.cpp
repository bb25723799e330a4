/**
 * @file
 * Tests for the NoC packet encoding and the mesh geometry: flit
 * serialization round trips and the hop table CoherentSystem's timing
 * model reads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "noc/packet.hpp"
#include "noc/topology.hpp"

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

} // namespace
} // namespace smappic::noc
