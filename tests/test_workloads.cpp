/**
 * @file
 * Tests for the evaluation workloads: integer sort correctness and NUMA
 * sensitivity (Fig 8 shape), DAE kernels with mode-independent results and
 * MAPLE benefit (Fig 11 shape), and GNG noise workloads (Fig 10 shape).
 */

#include <gtest/gtest.h>

#include "platform/prototype.hpp"
#include "workload/dae_kernels.hpp"
#include "workload/intsort.hpp"
#include "workload/noise.hpp"

namespace smappic::workload
{
namespace
{

std::vector<GlobalTileId>
firstTiles(std::uint32_t count, std::uint32_t stride = 1)
{
    std::vector<GlobalTileId> v;
    for (std::uint32_t i = 0; i < count; ++i)
        v.push_back(i * stride);
    return v;
}

TEST(IntSort, SortsCorrectly)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("2x1x4"));
    auto guest = proto.makeGuest(os::NumaMode::kOn);
    IntSortConfig cfg;
    cfg.keys = 1 << 14;
    auto r = runIntSort(*guest, firstTiles(8), cfg);
    EXPECT_TRUE(r.sorted);
    EXPECT_GT(r.cycles, 0u);
}

TEST(IntSort, SingleWorkerWorks)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x2"));
    auto guest = proto.makeGuest(os::NumaMode::kOn);
    IntSortConfig cfg;
    cfg.keys = 4096;
    auto r = runIntSort(*guest, {0}, cfg);
    EXPECT_TRUE(r.sorted);
}

TEST(IntSort, NumaOnBeatsNumaOffMultiNode)
{
    // Fig 8's central claim at one thread count: with threads spread over
    // 4 nodes, a NUMA-aware kernel beats an oblivious one substantially.
    IntSortConfig cfg;
    cfg.keys = 1 << 15;

    platform::Prototype p_on(platform::PrototypeConfig::parse("4x1x4"));
    auto g_on = p_on.makeGuest(os::NumaMode::kOn);
    auto tiles = firstTiles(16);
    auto r_on = runIntSort(*g_on, tiles, cfg);

    platform::Prototype p_off(platform::PrototypeConfig::parse("4x1x4"));
    auto g_off = p_off.makeGuest(os::NumaMode::kOff);
    auto r_off = runIntSort(*g_off, tiles, cfg);

    ASSERT_TRUE(r_on.sorted);
    ASSERT_TRUE(r_off.sorted);
    double speedup = static_cast<double>(r_off.cycles) /
                     static_cast<double>(r_on.cycles);
    // Paper: 1.6x - 2.8x depending on thread count.
    EXPECT_GT(speedup, 1.3);
    EXPECT_LT(speedup, 4.0);
    // The mechanism: NUMA-off services far more misses remotely.
    EXPECT_GT(r_off.remoteFraction, r_on.remoteFraction + 0.2);
}

TEST(IntSort, MoreThreadsFaster)
{
    IntSortConfig cfg;
    cfg.keys = 1 << 14;
    platform::Prototype p1(platform::PrototypeConfig::parse("4x1x4"));
    auto g1 = p1.makeGuest(os::NumaMode::kOn);
    auto r1 = runIntSort(*g1, firstTiles(2), cfg);

    platform::Prototype p2(platform::PrototypeConfig::parse("4x1x4"));
    auto g2 = p2.makeGuest(os::NumaMode::kOn);
    auto r2 = runIntSort(*g2, firstTiles(16), cfg);

    EXPECT_LT(r2.cycles, r1.cycles);
}

TEST(IntSort, OddShapesMatchParent)
{
    // Key, histogram and bucket-base arrays that end mid-page, and
    // histogram rows that straddle pages. The figures are those of the
    // word-at-a-time bookkeeping this run must reproduce exactly.
    {
        platform::Prototype proto(platform::PrototypeConfig::parse("2x1x4"));
        auto guest = proto.makeGuest(os::NumaMode::kOff);
        IntSortConfig cfg;
        cfg.keys = 1000;
        cfg.buckets = 100;
        cfg.iterations = 2;
        auto r = runIntSort(*guest, {0, 1, 4}, cfg);
        EXPECT_TRUE(r.sorted);
        EXPECT_EQ(r.cycles, 142337u);
        EXPECT_EQ(r.remoteFraction, 489.0 / 1432.0);
    }
    {
        platform::Prototype proto(platform::PrototypeConfig::parse("4x1x4"));
        auto guest = proto.makeGuest(os::NumaMode::kOn);
        IntSortConfig cfg;
        cfg.keys = 3001;
        cfg.buckets = 700;
        auto r = runIntSort(*guest, firstTiles(5, 3), cfg);
        EXPECT_TRUE(r.sorted);
        EXPECT_EQ(r.cycles, 331563u);
        EXPECT_EQ(r.remoteFraction, 2779.0 / 5566.0);
    }
}

TEST(DaeKernels, ChecksumIndependentOfMode)
{
    DaeConfig cfg;
    cfg.elements = 3000;
    cfg.tableSize = 1 << 12;
    for (DaeKernel k : {DaeKernel::kSpmv, DaeKernel::kSpmm,
                        DaeKernel::kSdhp, DaeKernel::kBfs}) {
        std::uint64_t sums[3];
        int i = 0;
        for (DaeMode m : {DaeMode::kSingleThread, DaeMode::kMaple,
                          DaeMode::kTwoThreads}) {
            platform::Prototype proto(
                platform::PrototypeConfig::parse("1x1x6"));
            auto &maple = proto.addMaple(2);
            auto guest = proto.makeGuest(os::NumaMode::kOn);
            auto r = runDaeKernel(*guest, k, m, {0, 1}, &maple, cfg);
            sums[i++] = r.checksum;
        }
        EXPECT_EQ(sums[0], sums[1]) << daeKernelName(k);
        EXPECT_EQ(sums[0], sums[2]) << daeKernelName(k);
    }
}

TEST(DaeKernels, MapleSpeedsUpIrregularKernels)
{
    // Fig 11 shape: MAPLE accelerates the latency-bound kernels over a
    // single thread.
    DaeConfig cfg;
    cfg.elements = 4000;
    cfg.tableSize = 1 << 14;
    for (DaeKernel k : {DaeKernel::kSpmv, DaeKernel::kSdhp}) {
        platform::Prototype p1(platform::PrototypeConfig::parse("1x1x6"));
        auto &m1 = p1.addMaple(2);
        auto g1 = p1.makeGuest(os::NumaMode::kOn);
        auto base = runDaeKernel(*g1, k, DaeMode::kSingleThread, {0, 1},
                                 &m1, cfg);

        platform::Prototype p2(platform::PrototypeConfig::parse("1x1x6"));
        auto &m2 = p2.addMaple(2);
        auto g2 = p2.makeGuest(os::NumaMode::kOn);
        auto withm = runDaeKernel(*g2, k, DaeMode::kMaple, {0, 1}, &m2,
                                  cfg);

        double speedup = static_cast<double>(base.cycles) /
                         static_cast<double>(withm.cycles);
        EXPECT_GT(speedup, 1.3) << daeKernelName(k);
        EXPECT_LT(speedup, 4.0) << daeKernelName(k);
    }
}

TEST(DaeKernels, TwoThreadsHelpToo)
{
    DaeConfig cfg;
    cfg.elements = 4000;
    platform::Prototype p1(platform::PrototypeConfig::parse("1x1x6"));
    auto &m1 = p1.addMaple(2);
    auto g1 = p1.makeGuest(os::NumaMode::kOn);
    auto base = runDaeKernel(*g1, DaeKernel::kSpmm, DaeMode::kSingleThread,
                             {0, 1}, &m1, cfg);

    platform::Prototype p2(platform::PrototypeConfig::parse("1x1x6"));
    auto &m2 = p2.addMaple(2);
    auto g2 = p2.makeGuest(os::NumaMode::kOn);
    auto two = runDaeKernel(*g2, DaeKernel::kSpmm, DaeMode::kTwoThreads,
                            {0, 1}, &m2, cfg);

    double speedup = static_cast<double>(base.cycles) /
                     static_cast<double>(two.cycles);
    EXPECT_GT(speedup, 1.4);
    EXPECT_LT(speedup, 2.3);
}

TEST(Noise, HardwareBeatsSoftwareAndPackingHelps)
{
    NoiseConfig cfg;
    cfg.samples = 1 << 12;

    Cycles t[4];
    int i = 0;
    for (GngMode m : {GngMode::kSoftware, GngMode::kFetch1,
                      GngMode::kFetch2, GngMode::kFetch4}) {
        platform::Prototype proto(
            platform::PrototypeConfig::parse("1x1x2"));
        proto.addGng(1);
        auto guest = proto.makeGuest(os::NumaMode::kOn);
        NoiseConfig c = cfg;
        c.deviceBase = proto.accelWindow(1);
        t[i++] = runNoiseGenerator(*guest, 0, m, c).cycles;
    }
    // Monotonic improvement: SW > 1 > 2 > 4 fetch.
    EXPECT_GT(t[0], t[1]);
    EXPECT_GT(t[1], t[2]);
    EXPECT_GT(t[2], t[3]);
    // Paper's mode-1 speedup is ~12x; accept a generous band.
    double s1 = static_cast<double>(t[0]) / static_cast<double>(t[1]);
    EXPECT_GT(s1, 5.0);
    EXPECT_LT(s1, 30.0);
}

TEST(Noise, ApplierSpeedupSmallerThanGenerator)
{
    // Fig 10: benchmark B accelerates less because less of its time is in
    // noise generation.
    NoiseConfig cfg;
    cfg.samples = 1 << 12;

    auto run = [&](GngMode m, bool applier) {
        platform::Prototype proto(
            platform::PrototypeConfig::parse("1x1x2"));
        proto.addGng(1);
        auto guest = proto.makeGuest(os::NumaMode::kOn);
        NoiseConfig c = cfg;
        c.deviceBase = proto.accelWindow(1);
        return applier ? runNoiseApplier(*guest, 0, m, c).cycles
                       : runNoiseGenerator(*guest, 0, m, c).cycles;
    };

    double gen_speedup =
        static_cast<double>(run(GngMode::kSoftware, false)) /
        static_cast<double>(run(GngMode::kFetch4, false));
    double apply_speedup =
        static_cast<double>(run(GngMode::kSoftware, true)) /
        static_cast<double>(run(GngMode::kFetch4, true));
    EXPECT_GT(gen_speedup, apply_speedup);
    EXPECT_GT(apply_speedup, 2.0);
}

TEST(Gng, SampleStatisticsAreGaussianLike)
{
    accel::GngAccelerator gng(5);
    double sum = 0;
    double sumsq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = static_cast<double>(gng.nextSample()) /
                   (1 << accel::GngAccelerator::kFracBits);
        sum += v;
        sumsq += v * v;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Gng, PackedLoadsReturnDistinctSamples)
{
    accel::GngAccelerator gng(9);
    Cycles service = 0;
    std::uint64_t packed = gng.ncLoad(0, 8, 0, service);
    EXPECT_EQ(gng.samplesServed(), 4u);
    // Extremely unlikely that all four samples coincide.
    std::uint16_t s0 = packed & 0xffff;
    bool all_same = true;
    for (int i = 1; i < 4; ++i)
        all_same = all_same && ((packed >> (16 * i)) & 0xffff) == s0;
    EXPECT_FALSE(all_same);
}

TEST(Maple, EngineRunsAheadOfConsumer)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x4"));
    auto &maple = proto.addMaple(2);
    auto &cs = proto.memorySystem();

    std::vector<Addr> pattern;
    for (int i = 0; i < 64; ++i)
        pattern.push_back(platform::kDramBase + 0x100000 +
                          static_cast<Addr>(i) * 4096);
    maple.program(pattern, 0);

    // Consume late: everything is ready, pops are cheap.
    Cycles total = 0;
    for (int i = 0; i < 64; ++i) {
        Cycles lat = 0;
        maple.consume(0, 1'000'000 + static_cast<Cycles>(i) * 50, lat);
        total += lat;
    }
    Cycles direct = 0;
    for (int i = 0; i < 64; ++i) {
        auto r = cs.access(0,
                           platform::kDramBase + 0x200000 +
                               static_cast<Addr>(i) * 4096,
                           cache::AccessType::kLoad, 8, 2'000'000);
        direct += r.latency;
    }
    EXPECT_LT(total, direct / 2);
}

} // namespace
} // namespace smappic::workload
