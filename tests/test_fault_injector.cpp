/**
 * @file
 * Unit tests for the platform-wide fault injector: CRC32 correctness,
 * seeded determinism, firing rates, event windows, site-prefix matching,
 * single-bit corruption and stat accounting — plus the fabric-level hooks
 * (drop -> SLVERR completion timeout, corrupt, delay).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pcie/pcie_fabric.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic
{
namespace
{

TEST(Crc32, MatchesIeeeReference)
{
    // The canonical check value: CRC-32("123456789") = 0xcbf43926.
    const char *msg = "123456789";
    EXPECT_EQ(sim::crc32(reinterpret_cast<const std::uint8_t *>(msg), 9),
              0xcbf43926u);
}

TEST(Crc32, SeedChainingEqualsConcatenation)
{
    std::uint8_t data[16];
    for (std::size_t i = 0; i < sizeof(data); ++i)
        data[i] = static_cast<std::uint8_t>(i * 37 + 5);
    std::uint32_t whole = sim::crc32(data, 16);
    std::uint32_t chained = sim::crc32(data + 7, 9, sim::crc32(data, 7));
    EXPECT_EQ(whole, chained);
}

TEST(Crc32, MatchesTheBitwiseDefinition)
{
    // The bit-at-a-time reflected CRC-32 the table is built from, over
    // checkpoint-sized buffers, odd lengths and chained seeds.
    auto bitwise = [](const std::uint8_t *data, std::size_t len,
                      std::uint32_t seed) {
        std::uint32_t crc = ~seed;
        for (std::size_t i = 0; i < len; ++i) {
            crc ^= data[i];
            for (int b = 0; b < 8; ++b)
                crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
        }
        return ~crc;
    };
    sim::Xoroshiro rng(9);
    std::vector<std::uint8_t> data(40000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t len : {0, 1, 7, 64, 4097, 40000}) {
        auto seed = static_cast<std::uint32_t>(rng.next());
        EXPECT_EQ(sim::crc32(data.data(), len, seed),
                  bitwise(data.data(), len, seed))
            << "len " << len;
    }
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::uint8_t data[32] = {};
    std::uint32_t clean = sim::crc32(data, sizeof(data));
    for (std::size_t bit = 0; bit < sizeof(data) * 8; bit += 17) {
        data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(sim::crc32(data, sizeof(data)), clean) << "bit " << bit;
        data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

TEST(FaultInjector, EmptyPlanNeverFires)
{
    sim::FaultInjector fi(sim::FaultPlan{});
    EXPECT_FALSE(fi.enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(static_cast<bool>(fi.decide("pcie.write")));
    EXPECT_EQ(fi.dropsInjected(), 0u);
}

TEST(FaultInjector, SameSeedSameDecisions)
{
    sim::FaultPlan plan;
    plan.seed = 42;
    plan.drop("pcie", 0.1).corrupt("dram", 0.2);

    sim::FaultInjector a(plan);
    sim::FaultInjector b(plan);
    for (int i = 0; i < 2000; ++i) {
        const char *site = (i % 3 == 0) ? "dram.read" : "pcie.write";
        sim::FaultDecision da = a.decide(site);
        sim::FaultDecision db = b.decide(site);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.corrupt, db.corrupt);
    }
    EXPECT_EQ(a.dropsInjected(), b.dropsInjected());
    EXPECT_EQ(a.corruptionsInjected(), b.corruptionsInjected());
}

TEST(FaultInjector, SiteStreamsAreIndependentOfInterleaving)
{
    sim::FaultPlan plan;
    plan.seed = 7;
    plan.drop("a", 0.5).drop("b", 0.5);

    // Injector 1 alternates sites; injector 2 does all of "a" then all of
    // "b". The per-site decision sequences must match regardless.
    sim::FaultInjector alt(plan);
    sim::FaultInjector seq(plan);
    std::vector<bool> alt_a, alt_b, seq_a, seq_b;
    for (int i = 0; i < 200; ++i) {
        alt_a.push_back(alt.decide("a").drop);
        alt_b.push_back(alt.decide("b").drop);
    }
    for (int i = 0; i < 200; ++i)
        seq_a.push_back(seq.decide("a").drop);
    for (int i = 0; i < 200; ++i)
        seq_b.push_back(seq.decide("b").drop);
    EXPECT_EQ(alt_a, seq_a);
    EXPECT_EQ(alt_b, seq_b);
}

TEST(FaultInjector, FiringRateTracksProbability)
{
    sim::FaultPlan plan;
    plan.drop("link", 0.01);
    sim::FaultInjector fi(plan);
    int fired = 0;
    for (int i = 0; i < 100000; ++i)
        fired += fi.decide("link").drop;
    // 1% of 100k = 1000 expected; allow a generous +/-30% band.
    EXPECT_GT(fired, 700);
    EXPECT_LT(fired, 1300);
    EXPECT_EQ(fi.dropsInjected(), static_cast<std::uint64_t>(fired));
}

TEST(FaultInjector, WindowBoundsFiring)
{
    sim::FaultPlan plan;
    plan.slvErr("mem", 1.0, 5, 9); // Stuck-SLVERR for events 5..9 only.
    sim::FaultInjector fi(plan);
    int fired = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        bool f = fi.decide("mem.read").slvErr;
        fired += f;
        EXPECT_EQ(f, i >= 5 && i <= 9) << "event " << i;
    }
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(fi.siteEvents("mem.read"), 20u);
}

TEST(FaultInjector, PrefixMatchScopesRules)
{
    sim::FaultPlan plan;
    plan.drop("pcie.", 1.0);
    sim::FaultInjector fi(plan);
    EXPECT_TRUE(fi.decide("pcie.write").drop);
    EXPECT_TRUE(fi.decide("pcie.read").drop);
    EXPECT_FALSE(fi.decide("dram.read").drop);
    EXPECT_FALSE(fi.decide("pci").drop); // Shorter than the prefix.
}

TEST(FaultInjector, CorruptBytesFlipsExactlyOneBit)
{
    sim::FaultPlan plan;
    plan.corrupt("x", 1.0);
    sim::FaultInjector fi(plan);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> buf(24, 0);
        fi.corruptBytes("x", buf.data(), buf.size());
        int flipped = 0;
        for (std::uint8_t byte : buf)
            flipped += __builtin_popcount(byte);
        EXPECT_EQ(flipped, 1);
    }
}

TEST(FaultInjector, DelayAccumulatesAndCounts)
{
    sim::FaultPlan plan;
    plan.delay("lnk", 1.0, 100).delay("lnk", 1.0, 20);
    sim::StatRegistry stats;
    sim::FaultInjector fi(plan, &stats);
    sim::FaultDecision d = fi.decide("lnk.tx");
    EXPECT_EQ(d.extraDelay, 120u);
    EXPECT_EQ(fi.delaysInjected(), 2u);
    EXPECT_EQ(stats.counterValue("fault.delay"), 2u);
}

TEST(FaultInjector, RejectsBadRules)
{
    sim::FaultPlan plan;
    EXPECT_THROW(plan.drop("x", 1.5), FatalError);
    EXPECT_THROW(plan.drop("", 0.5), FatalError);
    sim::FaultPlan inverted;
    inverted.slvErr("x", 1.0, 9, 5); // last < first.
    EXPECT_THROW(sim::FaultInjector{inverted}, FatalError);
}

/** Recording AXI target for fabric hook tests. */
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
        axi::ReadResp r;
        r.id = req.id;
        r.data.assign(req.bytes, 0xab);
        return r;
    }
    std::vector<axi::WriteReq> writes;
};

TEST(FaultInjector, FabricDropCompletesSlvErrAfterTimeout)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 50, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x0, 0x1000, &target, 1, "t");

    sim::FaultPlan plan;
    plan.drop("pcie.write", 1.0);
    sim::FaultInjector fi(plan);
    fabric.setFaultInjector(&fi);

    bool completed = false;
    Cycles when = 0;
    fabric.write(0, axi::WriteReq{0x100, {1, 2, 3}, 0},
                 [&](pcie::Completion c) {
                     completed = true;
                     when = eq.now();
                     EXPECT_EQ(c.resp, axi::Resp::kSlvErr);
                 });
    eq.run();
    // The request never reached the target, but the issuer still got a
    // completion (a PCIe completion timeout), so nothing can wedge.
    ASSERT_TRUE(completed);
    EXPECT_TRUE(target.writes.empty());
    EXPECT_GE(when, fabric.completionTimeout());
}

TEST(FaultInjector, FabricCorruptFlipsOneWritePayloadBit)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x0, 0x1000, &target, 1, "t");

    sim::FaultPlan plan;
    plan.corrupt("pcie.write", 1.0);
    sim::FaultInjector fi(plan);
    fabric.setFaultInjector(&fi);

    std::vector<std::uint8_t> payload(16, 0);
    fabric.write(0, axi::WriteReq{0x0, payload, 0}, nullptr);
    eq.run();
    ASSERT_EQ(target.writes.size(), 1u);
    int flipped = 0;
    for (std::uint8_t b : target.writes[0].data)
        flipped += __builtin_popcount(b);
    EXPECT_EQ(flipped, 1);
}

TEST(FaultInjector, FabricDelayPostponesDelivery)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    Recorder target;
    fabric.addWindow(0x0, 0x1000, &target, 1, "t");

    sim::FaultPlan plan;
    plan.delay("pcie.write", 1.0, 500);
    sim::FaultInjector fi(plan);
    fabric.setFaultInjector(&fi);

    Cycles when = 0;
    fabric.write(0, axi::WriteReq{0x0, {1}, 0},
                 [&](pcie::Completion) { when = eq.now(); });
    eq.run();
    EXPECT_GE(when, 500u + 2u * 10u);
}

} // namespace
} // namespace smappic
