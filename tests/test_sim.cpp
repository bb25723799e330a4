/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, stats,
 * deterministic RNG, queueing servers and traffic shapers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "snap/state_io.hpp"

namespace smappic::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunUntilAdvancesTime)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 50u);
    eq.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 150u);
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.scheduleAt(5, [] {}), PanicError);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(Random, Deterministic)
{
    Xoroshiro a(42);
    Xoroshiro b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Xoroshiro a(1);
    Xoroshiro b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Random, BelowStaysInRange)
{
    Xoroshiro rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Random, UniformCoversUnitInterval)
{
    Xoroshiro rng(9);
    double lo = 1.0;
    double hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Stats, SummaryMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.25);
}

TEST(Stats, SummaryVarianceNeverNegative)
{
    // sumSq/n - mean^2 lands a few ulps below zero for equal samples.
    Summary s;
    for (int i = 0; i < 3; ++i)
        s.sample(0.1);
    EXPECT_GE(s.variance(), 0.0);
    EXPECT_FALSE(std::isnan(std::sqrt(s.variance())));
}

TEST(Stats, HistogramBucketsAndPercentiles)
{
    Histogram h(10, 10.0);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    EXPECT_EQ(h.bucketCount(0), 10u);
    EXPECT_EQ(h.bucketCount(9), 10u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
    h.sample(1e9);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Stats, RegistryDumpAndReset)
{
    StatRegistry reg;
    reg.counter("a.hits").increment(5);
    reg.counter("a.misses").increment();
    EXPECT_EQ(reg.counterValue("a.hits"), 5u);
    EXPECT_EQ(reg.counterValue("absent"), 0u);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("a.hits 5"), std::string::npos);

    reg.resetAll();
    EXPECT_EQ(reg.counterValue("a.hits"), 0u);
}

TEST(QueueServer, NoContentionNoQueueing)
{
    QueueServer s;
    auto g = s.offer(100, 10);
    EXPECT_EQ(g.start, 100u);
    EXPECT_EQ(g.done, 110u);
    EXPECT_EQ(g.queued, 0u);
}

TEST(QueueServer, BackToBackRequestsQueue)
{
    QueueServer s;
    s.offer(0, 10);
    auto g = s.offer(2, 10);
    EXPECT_EQ(g.start, 10u);
    EXPECT_EQ(g.done, 20u);
    EXPECT_EQ(g.queued, 8u);
    EXPECT_EQ(s.requests(), 2u);
    EXPECT_EQ(s.queuedCycles(), 8u);
}

TEST(QueueServer, IdleGapResetsQueueing)
{
    QueueServer s;
    s.offer(0, 10);
    auto g = s.offer(1000, 10);
    EXPECT_EQ(g.queued, 0u);
    EXPECT_EQ(g.start, 1000u);
}

TEST(TrafficShaper, LatencyOnlyPath)
{
    TrafficShaper shaper(125, 0.0);
    EXPECT_EQ(shaper.send(0, 64), 125u);
    EXPECT_EQ(shaper.send(10, 64), 135u);
}

TEST(TrafficShaper, BandwidthSerializes)
{
    // 8 bytes/cycle: a 64-byte message needs 8 cycles of link occupancy.
    TrafficShaper shaper(100, 8.0);
    EXPECT_EQ(shaper.send(0, 64), 108u);
    // Second message queues behind the first.
    EXPECT_EQ(shaper.send(0, 64), 116u);
    EXPECT_EQ(shaper.bytesSent(), 128u);
}

TEST(TrafficShaper, SaturationGrowsQueueLinearly)
{
    TrafficShaper shaper(0, 1.0); // 1 byte/cycle.
    Cycles last = 0;
    for (int i = 0; i < 10; ++i)
        last = shaper.send(0, 100);
    EXPECT_EQ(last, 1000u);
}

TEST(Log, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("x"), PanicError);
    EXPECT_THROW(fatal("y"), FatalError);
    EXPECT_THROW(panicIf(true, "x"), PanicError);
    EXPECT_NO_THROW(panicIf(false, "x"));
    EXPECT_THROW(fatalIf(true, "y"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "y"));
}

TEST(Log, StrfmtFormats)
{
    EXPECT_EQ(strfmt("a=%d b=%s", 3, "xyz"), "a=3 b=xyz");
    EXPECT_EQ(strfmt("%08x", 0x1234), "00001234");
}

} // namespace
} // namespace smappic::sim

namespace smappic::sim
{
namespace
{

TEST(Stats, JsonDumpIsWellFormed)
{
    StatRegistry reg;
    reg.counter("a.hits").increment(5);
    reg.summaryStat("lat").sample(10.0);
    reg.summaryStat("lat").sample(20.0);
    reg.histogram("h", 4, 10.0).sample(15.0);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"a.hits\":5"), std::string::npos);
    EXPECT_NE(json.find("\"lat.mean\":15"), std::string::npos);
    EXPECT_NE(json.find("\"h.p50\":20"), std::string::npos);
    // No trailing comma before the closing brace.
    EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(Stats, JsonDumpKeepsLargeCountersExact)
{
    // Regression: counters used to flow through the double emitter with
    // default ostream precision, so anything above ~1e6 printed as
    // "1.23457e+06" — lossy and invalid for strict JSON integer readers.
    StatRegistry reg;
    const std::uint64_t big = (1ULL << 32) + 12345;  // > 2^32.
    const std::uint64_t huge = 1234567890123456789ULL;
    reg.counter("cs.bytes").increment(big);
    reg.counter("cs.more").increment(huge);
    reg.summaryStat("lat").sample(1048576.0);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"cs.bytes\":4294979641"), std::string::npos);
    EXPECT_NE(json.find("\"cs.more\":1234567890123456789"),
              std::string::npos);
    EXPECT_EQ(json.find("e+"), std::string::npos) << json;
    // Floats still round-trip: 2^20 prints as an exact value.
    EXPECT_NE(json.find("\"lat.mean\":1048576"), std::string::npos);
    EXPECT_NE(json.find("\"lat.count\":1"), std::string::npos);
}

TEST(Stats, HistogramUnderflowBinKeepsNegativesOutOfBucketZero)
{
    // Regression: negative samples used to be folded into bucket 0, so
    // percentile() reported them as positive values in [0, width).
    Histogram h(4, 10.0);
    h.sample(-25.0);
    h.sample(-5.0);
    h.sample(3.0);
    h.sample(35.0);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    // The lower percentiles fall in the underflow bin and report the true
    // minimum rather than a fabricated [0, 10) value.
    EXPECT_DOUBLE_EQ(h.percentile(0.25), -25.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), -25.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 10.0);

    Histogram other(4, 10.0);
    other.sample(-1.0);
    h.merge(other);
    EXPECT_EQ(h.underflow(), 3u);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Stats, HistogramPercentileEdgeCases)
{
    Histogram empty(4, 10.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);

    Histogram h(4, 10.0);
    h.sample(5.0);
    h.sample(15.0);
    // p = 0 still needs at least one observation (threshold clamps to 1).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
    // Out-of-range p clamps instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));

    Histogram over(4, 10.0);
    over.sample(100.0);
    over.sample(200.0);
    EXPECT_EQ(over.overflow(), 2u);
    // Every bucket is empty: percentiles fall through to the true max.
    EXPECT_DOUBLE_EQ(over.percentile(0.5), 200.0);
    EXPECT_DOUBLE_EQ(over.percentile(0.99), 200.0);
}

TEST(Stats, MergeFromCopiesHistogramsMissingInDestination)
{
    StatRegistry shard;
    shard.histogram("only.in.shard", 4, 10.0).sample(15.0);
    shard.histogram("only.in.shard", 4, 10.0).sample(-2.0);

    StatRegistry root;
    root.histogram("both", 4, 10.0).sample(5.0);
    shard.histogram("both", 4, 10.0).sample(25.0);

    root.mergeFrom(shard);
    std::ostringstream os;
    root.dump(os);
    std::string dump = os.str();
    // Half the shard's samples sit in the underflow bin, so p50 reports
    // the true minimum.
    EXPECT_NE(dump.find("only.in.shard.p50 -2"), std::string::npos);
    EXPECT_NE(dump.find("only.in.shard.underflow 1"), std::string::npos);
    EXPECT_NE(dump.find("both.p50 10"), std::string::npos);
    EXPECT_NE(dump.find("both.p99 30"), std::string::npos);
}

std::string
dumpOf(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.dump(os);
    return os.str();
}

std::string
jsonOf(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

TEST(StatId, HandleAndNameReachTheSameStat)
{
    StatRegistry reg;
    const StatId hits("statid.same.hits");
    const StatId lat("statid.same.lat");
    EXPECT_EQ(StatId("statid.same.hits").index(), hits.index());
    EXPECT_EQ(hits.name(), "statid.same.hits");

    reg.counter(hits).increment(2);
    reg.counter("statid.same.hits").increment(3);
    EXPECT_EQ(&reg.counter(hits), &reg.counter("statid.same.hits"));
    EXPECT_EQ(reg.counterValue(hits), 5u);
    EXPECT_EQ(reg.counterValue("statid.same.hits"), 5u);

    reg.summaryStat(lat).sample(1.0);
    reg.summaryStat("statid.same.lat").sample(3.0);
    EXPECT_EQ(&reg.summaryStat(lat), &reg.summaryStat("statid.same.lat"));
    EXPECT_EQ(reg.summaries().at("statid.same.lat").count(), 2u);
}

TEST(StatId, InternedButUntouchedNameIsAbsent)
{
    const StatId untouched("statid.untouched.never");
    const StatId touched("statid.untouched.touched");
    StatRegistry reg;
    reg.counter(touched).increment();
    EXPECT_EQ(reg.counterValue(untouched), 0u);

    EXPECT_EQ(reg.counters().count(untouched.name()), 0u);
    EXPECT_EQ(reg.summaries().count(untouched.name()), 0u);
    EXPECT_EQ(dumpOf(reg).find("untouched.never"), std::string::npos);
    EXPECT_EQ(jsonOf(reg).find("untouched.never"), std::string::npos);
    EXPECT_NE(dumpOf(reg).find("statid.untouched.touched 1"),
              std::string::npos);
}

TEST(StatId, RedirectedHandleWritesLandInShardsAndMergeInNodeOrder)
{
    const StatId count("statid.redirect.count");
    const StatId lat("statid.redirect.lat");
    StatRegistry root;
    // Fill root's slots first: a live Redirect must still bypass them.
    root.counter(count).increment();
    root.summaryStat(lat).sample(0.3);

    const double samples[3] = {0.1, 0.7, 1e-9};
    std::vector<StatRegistry> shards(3);
    for (std::size_t n = 0; n < shards.size(); ++n) {
        StatRegistry::Redirect redirect(&root, &shards[n]);
        root.counter(count).increment(n + 1);
        root.summaryStat(lat).sample(samples[n]);
    }
    EXPECT_EQ(root.counterValue(count), 1u);
    for (std::size_t n = 0; n < shards.size(); ++n) {
        EXPECT_EQ(shards[n].counterValue(count), n + 1);
        EXPECT_EQ(shards[n].summaries().at(lat.name()).count(), 1u);
    }

    Summary expected;
    expected.sample(0.3);
    for (const StatRegistry &shard : shards) {
        root.mergeFrom(shard);
        expected.merge(shard.summaries().at(lat.name()));
    }
    EXPECT_EQ(root.counterValue(count), 7u);
    EXPECT_EQ(root.summaryStat(lat).sum(), expected.sum());
    EXPECT_EQ(root.summaryStat(lat).sumSquares(), expected.sumSquares());
}

TEST(StatId, CopiedRegistryDoesNotAliasSourceSlots)
{
    const StatId id("statid.copy.count");
    StatRegistry src;
    src.counter(id).increment();

    StatRegistry copy = src;
    copy.counter(id).increment(5);
    StatRegistry assigned;
    assigned.counter(id).increment(9);
    assigned = src;
    assigned.counter(id).increment(2);

    EXPECT_EQ(src.counterValue(id), 1u);
    EXPECT_EQ(copy.counterValue(id), 6u);
    EXPECT_EQ(assigned.counterValue(id), 3u);
    EXPECT_EQ(&copy.counter(id), &copy.counters().at(id.name()));
    EXPECT_EQ(&assigned.counter(id), &assigned.counters().at(id.name()));
}

TEST(StatId, MovedRegistryKeepsValidSlots)
{
    const StatId id("statid.move.count");
    const StatId lat("statid.move.lat");
    std::vector<StatRegistry> shards(2);
    shards[1].counter(id).increment();
    shards[1].summaryStat(lat).sample(2.0);

    // The phased engine moves shard vectors in and out of its resume
    // state; growth reallocation moves each registry too.
    std::vector<StatRegistry> moved = std::move(shards);
    for (int i = 0; i < 64; ++i)
        moved.emplace_back();
    moved[1].counter(id).increment(2);
    moved[1].summaryStat(lat).sample(4.0);
    EXPECT_EQ(moved[1].counterValue(id), 3u);
    EXPECT_EQ(&moved[1].counter(id), &moved[1].counters().at(id.name()));
    EXPECT_EQ(moved[1].summaries().at(lat.name()).count(), 2u);

    StatRegistry assigned;
    assigned.counter(id).increment(10);
    assigned = std::move(moved[1]);
    assigned.counter(id).increment();
    EXPECT_EQ(assigned.counterValue(id), 4u);
    EXPECT_EQ(&assigned.counter(id), &assigned.counters().at(id.name()));
}

TEST(StatId, RestoreAfterHandleUseLeavesHandlesOnRestoredValues)
{
    const StatId id("statid.restore.count");
    const StatId lat("statid.restore.lat");
    const StatId extra("statid.restore.extra");
    StatRegistry saved;
    saved.counter(id).increment(3);
    saved.summaryStat(lat).sample(5.0);

    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) / "statid_restore.smck";
    {
        std::ofstream os(path, std::ios::binary);
        snap::Writer w(os);
        w.begin(snap::Section::kStats);
        snap::saveRegistry(w, saved);
        w.end();
        w.finish();
    }

    StatRegistry reg;
    reg.counter(id).increment(40);
    reg.summaryStat(lat).sample(1.0);
    reg.counter(extra).increment(7);
    snap::Reader r(path.string());
    r.open(snap::Section::kStats);
    snap::restoreRegistry(r, reg);

    EXPECT_EQ(reg.counter(id).value(), 3u);
    EXPECT_EQ(reg.summaryStat(lat).count(), 1u);
    EXPECT_EQ(reg.summaryStat(lat).sum(), 5.0);
    EXPECT_EQ(reg.counter(extra).value(), 0u);
    reg.counter(id).increment();
    EXPECT_EQ(reg.counterValue("statid.restore.count"), 4u);
    std::filesystem::remove(path);
}

TEST(StatId, InternTableIsSafeAcrossWorkerThreads)
{
    constexpr int kThreads = 4;
    constexpr int kNames = 16;
    StatRegistry root;
    std::vector<StatRegistry> shards(kThreads);
    std::vector<std::vector<std::uint32_t>> ids(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            StatRegistry::Redirect redirect(&root, &shards[t]);
            for (int i = 0; i < kNames; ++i) {
                StatId id("statid.thread." + std::to_string(i));
                ids[t].push_back(id.index());
                root.counter(id).increment(t + 1);
                root.counter(StatId(id.name())).increment();
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (const StatRegistry &shard : shards)
        root.mergeFrom(shard);

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]);
    for (int i = 0; i < kNames; ++i) {
        EXPECT_EQ(root.counterValue("statid.thread." + std::to_string(i)),
                  1u + 2u + 3u + 4u + kThreads);
    }
}

} // namespace
} // namespace smappic::sim
