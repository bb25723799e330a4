/**
 * @file
 * Parameterized property sweeps (TEST_P): cache-geometry invariants,
 * coherent-system invariants across system shapes, and prototype
 * configurations end to end.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cache/coherent_system.hpp"
#include "platform/prototype.hpp"
#include "sim/random.hpp"

namespace smappic
{
namespace
{

// ---------------- CacheArray geometry sweep ----------------

using CacheGeom = std::tuple<std::uint64_t, std::uint32_t>; // bytes, ways.

class CacheArraySweep : public ::testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheArraySweep, MirrorsReferenceModelUnderRandomTraffic)
{
    auto [bytes, ways] = GetParam();
    cache::CacheArray c(bytes, ways);
    // Reference model: set of resident lines, bounded by capacity.
    std::set<Addr> resident;
    sim::Xoroshiro rng(bytes * 31 + ways);
    std::uint64_t capacity = c.sets() * c.ways();

    for (int i = 0; i < 20000; ++i) {
        Addr line = rng.below(1 << 16) * 64;
        bool hit = c.lookup(line);
        EXPECT_EQ(hit, resident.count(line) > 0) << "iteration " << i;
        if (!hit) {
            auto victim = c.insert(line);
            resident.insert(line);
            if (victim)
                resident.erase(victim->line);
        }
        ASSERT_LE(resident.size(), capacity);
        ASSERT_EQ(c.occupancy(), resident.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArraySweep,
    ::testing::Values(CacheGeom{1 << 10, 1}, CacheGeom{4 << 10, 2},
                      CacheGeom{8 << 10, 4}, CacheGeom{16 << 10, 4},
                      CacheGeom{64 << 10, 4}, CacheGeom{64 << 10, 8},
                      CacheGeom{128 << 10, 16}));

// ---------------- Coherent-system shape sweep ----------------

using SysShape = std::tuple<std::uint32_t, std::uint32_t,
                            cache::HomingPolicy>;

class CoherentSweep : public ::testing::TestWithParam<SysShape>
{
};

TEST_P(CoherentSweep, InvariantsHoldUnderRandomSharing)
{
    auto [nodes, tiles, homing] = GetParam();
    cache::Geometry geo;
    geo.nodes = nodes;
    geo.tilesPerNode = tiles;
    geo.memPerNode = 64ULL << 20;
    geo.bpcBytes = 1 << 10;
    geo.l1dBytes = 512;
    geo.l1iBytes = 512;
    geo.llcSliceBytes = 2 << 10;
    cache::CoherentSystem cs(geo, cache::TimingParams{}, homing);

    sim::Xoroshiro rng(nodes * 131 + tiles * 7 +
                       static_cast<std::uint64_t>(homing));
    Cycles now = 0;
    std::uint32_t total = geo.totalTiles();
    for (int i = 0; i < 4000; ++i) {
        auto gid = static_cast<GlobalTileId>(rng.below(total));
        Addr addr =
            rng.below(256) * 64 + rng.below(nodes) * geo.memPerNode;
        cache::AccessType type =
            rng.chance(0.3)
                ? cache::AccessType::kStore
                : (rng.chance(0.1) ? cache::AccessType::kAtomic
                                   : cache::AccessType::kLoad);
        now += 25;
        auto r = cs.access(gid, addr, type, 8, now);
        ASSERT_GT(r.latency, 0u);
        if (i % 400 == 0) {
            ASSERT_TRUE(cs.checkInclusion());
            ASSERT_TRUE(cs.checkDirectory());
        }
    }
    EXPECT_TRUE(cs.checkInclusion());
    EXPECT_TRUE(cs.checkDirectory());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoherentSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 6u, 12u),
                       ::testing::Values(cache::HomingPolicy::kAddressNode,
                                         cache::HomingPolicy::kGlobalHash,
                                         cache::HomingPolicy::kNode0)));

// ---------------- Prototype configuration sweep ----------------

class ConfigSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ConfigSweep, BootsRunsAndProbes)
{
    platform::Prototype proto(platform::PrototypeConfig::parse(GetParam()));
    proto.loadSource(R"(
_start:
    csrr t0, 0xf14
    addi a0, t0, 1
    li a7, 93
    ecall
)");
    // Every core can run the image and sees its own hart id.
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g) {
        auto r = proto.runCore(g, 100000);
        ASSERT_EQ(r, riscv::HaltReason::kExited) << "core " << g;
        ASSERT_EQ(proto.core(g).exitCode(),
                  static_cast<std::int64_t>(g) + 1);
    }
    // Latency probe is sane on every config with at least 2 tiles.
    if (proto.coreCount() >= 2) {
        Cycles rt = proto.measureRoundTrip(0, 1);
        EXPECT_GT(rt, 20u);
        EXPECT_LT(rt, 2000u);
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigSweep,
                         ::testing::Values("1x1x1", "1x1x2", "1x2x2",
                                           "1x4x2", "2x1x4", "2x2x2",
                                           "4x1x2", "1x1x12", "4x1x12"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == 'x')
                                     c = '_';
                             return n;
                         });

} // namespace
} // namespace smappic
