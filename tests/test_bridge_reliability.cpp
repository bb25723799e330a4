/**
 * @file
 * Tests for the repair of the prototype's inter-node crossing
 * (cache::CoherentSystem::nocPath) under injected "bridge.tx" faults:
 * exact results under drop and corruption storms on the shared-counter
 * workload, the guest-OS intsort and the Fig 7 probe, replay accounting
 * in the platform StatRegistry, the fatal drop on the lossless link,
 * replay exhaustion by corruption and by drops, and the replay backoff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "platform/prototype.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"
#include "workload/intsort.hpp"

namespace smappic
{
namespace
{

/** Every hart of a 2x1x2 prototype bumps one counter 50 times with
 *  amoadd; code and counter live on node 0, so node 1's harts fetch and
 *  update them across the inter-node crossing. */
constexpr const char *kSharedCounterSource = R"(
_start:
    la t0, counter
    li t1, 50
loop:
    li t2, 1
    amoadd.d zero, t2, (t0)
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    li a7, 93
    ecall

.data
.align 6
counter: .dword 0
)";

/** Runs the shared counter on @p proto; returns the slowest hart's
 *  cycles after checking every hart exited and no update was lost. */
Cycles
runSharedCounter(platform::Prototype &proto)
{
    riscv::Program prog = proto.loadSource(kSharedCounterSource);
    proto.runCores({0, 1, 2, 3}, 100'000);
    Cycles cycles = 0;
    for (GlobalTileId g = 0; g < 4; ++g) {
        EXPECT_TRUE(proto.core(g).exited()) << "hart " << g;
        cycles = std::max(cycles, proto.core(g).cycles());
    }
    EXPECT_EQ(proto.memory().load(prog.symbol("counter"), 8), 200u);
    return cycles;
}

TEST(BridgeReliability, TwoFpgaPrototypeUnderOnePercentFaults)
{
    // Acceptance scenario: a 2-FPGA prototype with a seeded >= 1% fault
    // plan on the inter-node crossing still runs coherence traffic to
    // the exact result, with the repairs visible in the platform
    // StatRegistry and paid for in cycles.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.reliability.enabled = true;
    cfg.reliability.ackTimeout = 32;
    platform::Prototype clean(cfg);
    Cycles clean_cycles = runSharedCounter(clean);

    cfg.faultPlan.seed = 2026;
    cfg.faultPlan.drop("bridge.tx", 0.01);
    cfg.faultPlan.corrupt("bridge.tx", 0.01);
    platform::Prototype proto(cfg);
    ASSERT_NE(proto.faultInjector(), nullptr);
    Cycles cycles = runSharedCounter(proto);

    // Faults actually fired, the link repaired every one of them, and
    // the registry exposes the whole story.
    const sim::FaultInjector &fi = *proto.faultInjector();
    EXPECT_GT(fi.dropsInjected(), 0u);
    EXPECT_GT(fi.corruptionsInjected(), 0u);
    const sim::StatRegistry &stats = proto.stats();
    EXPECT_EQ(stats.counterValue("bridge.retransmits"),
              fi.dropsInjected() + fi.corruptionsInjected());
    EXPECT_EQ(stats.counterValue("bridge.crcErrors"),
              fi.corruptionsInjected());
    EXPECT_GT(cycles, clean_cycles);
}

/** @p proto's stats dump without the injector's own fault.* lines. */
std::string
statsWithoutFaultLines(platform::Prototype &proto)
{
    std::ostringstream os;
    proto.stats().dump(os);
    std::istringstream lines(os.str());
    std::string kept;
    for (std::string line; std::getline(lines, line);) {
        if (!line.starts_with("fault."))
            kept += line + "\n";
    }
    return kept;
}

TEST(BridgeReliability, CleanLinkDeliversWithoutRetransmits)
{
    // A reliable crossing that sees no fault costs nothing: every
    // crossing consults the injector, none is replayed, and cycles and
    // stats equal the paper's lossless link with no injector at all.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    platform::Prototype lossless(cfg);
    Cycles lossless_cycles = runSharedCounter(lossless);

    cfg.reliability.enabled = true;
    cfg.faultPlan.drop("bridge.tx", 0.0);
    cfg.faultPlan.corrupt("bridge.tx", 0.0);
    platform::Prototype proto(cfg);
    Cycles cycles = runSharedCounter(proto);

    EXPECT_GT(proto.faultInjector()->siteEvents("bridge.tx"), 0u);
    EXPECT_EQ(cycles, lossless_cycles);
    EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"), 0u);
    EXPECT_EQ(proto.stats().counterValue("bridge.crcErrors"), 0u);
    EXPECT_EQ(statsWithoutFaultLines(proto),
              statsWithoutFaultLines(lossless));
}

TEST(BridgeReliability, SurvivesDropStormExactlyOnce)
{
    // One crossing in five is lost: each is replayed until it lands, so
    // no update is lost or applied twice, and no CRC error is counted.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.reliability.enabled = true;
    cfg.reliability.ackTimeout = 32;
    cfg.faultPlan.seed = 1234;
    cfg.faultPlan.drop("bridge.tx", 0.2);
    platform::Prototype proto(cfg);
    runSharedCounter(proto);

    const sim::FaultInjector &fi = *proto.faultInjector();
    EXPECT_GT(fi.dropsInjected(), 0u);
    EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"),
              fi.dropsInjected());
    EXPECT_EQ(proto.stats().counterValue("bridge.crcErrors"), 0u);
}

TEST(BridgeReliability, CrcCatchesCorruptionAndRetransmits)
{
    // Every corrupted crossing is caught by the CRC and replayed: one
    // CRC error and one retransmit per corruption, and the counter,
    // whose value crossed the link, is exact.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.reliability.enabled = true;
    cfg.reliability.ackTimeout = 32;
    cfg.faultPlan.seed = 7;
    cfg.faultPlan.corrupt("bridge.tx", 0.1);
    platform::Prototype proto(cfg);
    runSharedCounter(proto);

    const sim::FaultInjector &fi = *proto.faultInjector();
    EXPECT_GT(fi.corruptionsInjected(), 0u);
    EXPECT_EQ(fi.dropsInjected(), 0u);
    EXPECT_EQ(proto.stats().counterValue("bridge.crcErrors"),
              fi.corruptionsInjected());
    EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"),
              fi.corruptionsInjected());
}

/** Intsort on @p tiles of a 2x1x2 guest with NUMA off, so its pages
 *  and their misses spread over both nodes. */
workload::IntSortResult
guestIntSort(platform::Prototype &proto,
             const std::vector<GlobalTileId> &tiles)
{
    auto guest = proto.makeGuest(os::NumaMode::kOff);
    workload::IntSortConfig cfg;
    cfg.keys = 1 << 12;
    cfg.maxKey = 1 << 10;
    cfg.buckets = 64;
    return workload::runIntSort(*guest, tiles, cfg);
}

TEST(BridgeReliability, GuestIntSortUnderOnePercentFaults)
{
    // The figures' guest-OS path crosses nodes on the same repaired
    // link: under 1% drops and 1% corruptions intsort still sorts
    // exactly and every fault is replayed. On all four harts a replay
    // also reorders the fibers and so changes the traffic itself, which
    // can make the run shorter; on one hart the traffic is fixed, and
    // the replays can only add cycles.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.reliability.enabled = true;
    platform::PrototypeConfig faulty = cfg;
    faulty.faultPlan.seed = 2023;
    faulty.faultPlan.drop("bridge.tx", 0.01);
    faulty.faultPlan.corrupt("bridge.tx", 0.01);

    for (const std::vector<GlobalTileId> &tiles :
         {std::vector<GlobalTileId>{0, 1, 2, 3},
          std::vector<GlobalTileId>{0}}) {
        SCOPED_TRACE(tiles.size() == 1 ? "one hart" : "four harts");
        platform::Prototype clean(cfg);
        workload::IntSortResult clean_run = guestIntSort(clean, tiles);
        ASSERT_TRUE(clean_run.sorted);

        platform::Prototype proto(faulty);
        workload::IntSortResult run = guestIntSort(proto, tiles);
        const sim::FaultInjector &fi = *proto.faultInjector();
        EXPECT_TRUE(run.sorted);
        EXPECT_GT(fi.dropsInjected(), 0u);
        EXPECT_GT(fi.corruptionsInjected(), 0u);
        EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"),
                  fi.dropsInjected() + fi.corruptionsInjected());
        EXPECT_EQ(proto.stats().counterValue("bridge.crcErrors"),
                  fi.corruptionsInjected());
        if (tiles.size() == 1) {
            EXPECT_EQ(proto.stats().counterValue("cs.bridge.crossings"),
                      clean.stats().counterValue("cs.bridge.crossings"));
            EXPECT_GT(run.cycles, clean_run.cycles);
        }
    }
}

TEST(BridgeReliability, RoundTripDropWithoutReliabilityIsFatal)
{
    // Fig 7's probe crosses nodes outside runCores: a dropped crossing
    // there must stop the probe too, not return a latency.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.faultPlan.drop("bridge.tx", 1.0);
    platform::Prototype proto(cfg);
    EXPECT_NO_THROW(proto.measureRoundTrip(0, 1)); // Same node.
    EXPECT_THROW(proto.measureRoundTrip(0, 2), FatalError);
}

TEST(BridgeReliability, CrossingDelayAddsCyclesWithoutRepair)
{
    // A delayed crossing is late, not lost: it needs no reliable link
    // and is never replayed.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    platform::Prototype clean(cfg);
    Cycles clean_cycles = runSharedCounter(clean);

    cfg.faultPlan.delay("bridge.tx", 1.0, 100);
    platform::Prototype proto(cfg);
    Cycles cycles = runSharedCounter(proto);
    EXPECT_GT(proto.faultInjector()->delaysInjected(), 0u);
    EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"), 0u);
    EXPECT_GE(cycles, clean_cycles + 100);
}

TEST(BridgeReliability, CrossingDropWithoutReliabilityIsFatal)
{
    // On the paper's lossless link a lost crossing has no repair: it
    // must stop the run, never be absorbed silently.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.faultPlan.drop("bridge.tx", 1.0);
    platform::Prototype proto(cfg);
    proto.loadSource(kSharedCounterSource);
    try {
        proto.runCores({0, 1, 2, 3}, 100'000);
        FAIL() << "a dropped crossing went unnoticed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bridge.tx drop"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BridgeReliability, CrossingReplayExhaustionPanics)
{
    // A crossing that corrupts every copy exhausts maxRetries replays.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.faultPlan.corrupt("bridge.tx", 1.0);
    cfg.reliability.enabled = true;
    cfg.reliability.maxRetries = 3;
    platform::Prototype proto(cfg);
    proto.loadSource(kSharedCounterSource);
    EXPECT_THROW(proto.runCores({0, 1, 2, 3}, 100'000), PanicError);
    // The first copy and its 3 replays were all corrupted, and the
    // failed run's stats still show the repair attempts.
    EXPECT_EQ(proto.faultInjector()->corruptionsInjected(), 4u);
    EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"), 3u);
    EXPECT_EQ(proto.stats().counterValue("bridge.crcErrors"), 4u);
}

TEST(BridgeReliability, ReplayExhaustionPanics)
{
    // Fig 7's probe over a crossing that drops every copy: the reliable
    // link replays maxRetries times, then panics rather than return a
    // latency. Drops are replayed but are not CRC errors.
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.faultPlan.drop("bridge.tx", 1.0);
    cfg.reliability.enabled = true;
    cfg.reliability.maxRetries = 3;
    platform::Prototype proto(cfg);
    EXPECT_NO_THROW(proto.measureRoundTrip(0, 1)); // Same node.
    try {
        proto.measureRoundTrip(0, 2);
        FAIL() << "a crossing that never gets through returned a latency";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("replay retries exhausted"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(proto.faultInjector()->dropsInjected(), 4u);
    EXPECT_EQ(proto.faultInjector()->corruptionsInjected(), 0u);
}

TEST(BridgeReliability, ReplayBackoffDoublesUpTo256Times)
{
    EXPECT_EQ(cache::replayBackoff(32, 0), 32u);
    EXPECT_EQ(cache::replayBackoff(32, 1), 64u);
    EXPECT_EQ(cache::replayBackoff(32, 8), 32u * 256);
    EXPECT_EQ(cache::replayBackoff(32, 20), 32u * 256);
}

} // namespace
} // namespace smappic
