/**
 * @file
 * 2D-mesh geometry of one BYOC node. The transaction-level timing model
 * (cache::CoherentSystem) converts routes to hop counts with it.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "noc/packet.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace smappic::noc
{

/** Coordinates of a router in the mesh. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &other) const = default;
};

/**
 * Near-square 2D mesh holding @p tiles tiles, numbered row-major. Tile 0 is
 * at (0,0); the off-chip port (chipset + inter-node bridge) hangs off tile
 * 0's north edge, matching SMAPPIC's "route inter-node packets into tile 0,
 * then northbound" scheme.
 */
class MeshTopology
{
  public:
    explicit MeshTopology(std::uint32_t tiles)
        : tiles_(tiles)
    {
        fatalIf(tiles == 0, "mesh must contain at least one tile");
        cols_ = 1;
        while (cols_ * cols_ < tiles)
            ++cols_;
        rows_ = (tiles + cols_ - 1) / cols_;
        // Index tiles_ stands for kOffChipTile on either side.
        const std::uint32_t n = tiles_ + 1;
        hops_.resize(static_cast<std::size_t>(n) * n);
        for (std::uint32_t a = 0; a < n; ++a) {
            for (std::uint32_t b = 0; b < n; ++b) {
                hops_[static_cast<std::size_t>(a) * n + b] =
                    static_cast<std::uint16_t>(coordHops(tileOfIndex(a),
                                                         tileOfIndex(b)));
            }
        }
    }

    std::uint32_t tiles() const { return tiles_; }
    std::uint32_t cols() const { return cols_; }
    std::uint32_t rows() const { return rows_; }

    /** Mesh coordinate of @p tile. */
    Coord
    coordOf(TileId tile) const
    {
        panicIf(tile >= tiles_ && tile != kOffChipTile,
                "tile id out of range");
        if (tile == kOffChipTile)
            return Coord{0, -1};
        return Coord{static_cast<int>(tile % cols_),
                     static_cast<int>(tile / cols_)};
    }

    /** Tile at mesh coordinate @p c; must be a valid tile. */
    TileId
    tileAt(Coord c) const
    {
        panicIf(c.x < 0 || c.y < 0, "coordinate off mesh");
        auto tile = static_cast<TileId>(c.y) * cols_ + static_cast<TileId>(c.x);
        panicIf(tile >= tiles_, "coordinate maps past last tile");
        return tile;
    }

    /** Manhattan (XY-route) hop count between two tiles. */
    std::uint32_t
    hops(TileId from, TileId to) const
    {
        return hops_[static_cast<std::size_t>(indexOf(from)) * (tiles_ + 1) +
                     indexOf(to)];
    }

    /** Hops from @p tile to the off-chip port (tile 0 then one north hop). */
    std::uint32_t
    hopsToOffChip(TileId tile) const
    {
        return hops(tile, 0) + 1;
    }

  private:
    /** Manhattan distance between the two tiles' coordinates. */
    std::uint32_t
    coordHops(TileId from, TileId to) const
    {
        Coord a = coordOf(from);
        Coord b = coordOf(to);
        return static_cast<std::uint32_t>(std::abs(a.x - b.x) +
                                          std::abs(a.y - b.y));
    }

    /** Row/column of @p tile in hops_; kOffChipTile maps to tiles_. */
    std::uint32_t
    indexOf(TileId tile) const
    {
        panicIf(tile >= tiles_ && tile != kOffChipTile,
                "tile id out of range");
        return tile == kOffChipTile ? tiles_ : tile;
    }

    TileId
    tileOfIndex(std::uint32_t index) const
    {
        return index == tiles_ ? kOffChipTile : index;
    }

    std::uint32_t tiles_;
    std::uint32_t cols_ = 1;
    std::uint32_t rows_ = 1;
    std::vector<std::uint16_t> hops_; ///< (tiles_+1)^2, row = source.
};

} // namespace smappic::noc
