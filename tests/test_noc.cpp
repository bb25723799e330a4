/**
 * @file
 * Tests for the mesh geometry: coordinates and the hop table
 * CoherentSystem's timing model reads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "noc/topology.hpp"

namespace smappic::noc
{
namespace
{

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
