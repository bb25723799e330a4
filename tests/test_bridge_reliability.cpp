/**
 * @file
 * Tests for the bridge's reliable link layer: exactly-once in-order
 * delivery under seeded drop/corrupt/delay storms, CRC-triggered
 * retransmission, duplicate suppression, graceful degradation of an
 * unresponsive peer (with recovery) and replay exhaustion panics on the
 * standalone bridge; and on the prototype's inter-node crossing, repair
 * of coherence traffic under a >= 1% fault plan, the fatal drop on the
 * lossless link and replay exhaustion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bridge/inter_node_bridge.hpp"
#include "pcie/pcie_fabric.hpp"
#include "platform/prototype.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"

namespace smappic
{
namespace
{

/** Bridge tunables with the reliable link layer on and short timers. */
bridge::BridgeConfig
reliableCfg(std::uint32_t credits = 8)
{
    bridge::BridgeConfig c;
    c.creditsPerNoc = credits;
    c.creditPollInterval = 16;
    c.reliability.enabled = true;
    c.reliability.maxRetries = 32;
    c.reliability.ackTimeout = 32;
    c.replayDepth = 16;
    c.creditRetryLimit = 3;
    c.reprobeInterval = 64;
    return c;
}

/** Two bridges with the reliable link layer on, plus a fault injector. */
struct ReliableHarness
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric;
    sim::FaultInjector fi;
    bridge::BridgeConfig cfg;
    bridge::InterNodeBridge bridge0;
    bridge::InterNodeBridge bridge1;
    std::vector<noc::Packet> at0;
    std::vector<noc::Packet> at1;

    explicit ReliableHarness(const sim::FaultPlan &plan,
                             const bridge::BridgeConfig &c = reliableCfg())
        : fabric(eq, 63, 16.0, &stats), fi(plan, &stats), cfg(c),
          bridge0(0, 0, 0x0000000, eq, fabric, cfg, &stats),
          bridge1(1, 1, 0x1000000, eq, fabric, cfg, &stats)
    {
        fabric.setFaultInjector(&fi);
        bridge0.setFaultInjector(&fi);
        bridge1.setFaultInjector(&fi);
        bridge0.addPeer(1, bridge1.windowBase());
        bridge1.addPeer(0, bridge0.windowBase());
        bridge0.setDeliverFn(
            [this](const noc::Packet &p) { at0.push_back(p); });
        bridge1.setDeliverFn(
            [this](const noc::Packet &p) { at1.push_back(p); });
    }

    /** Packet whose addr encodes (src, noc, sequence) for order checks. */
    noc::Packet
    makePacket(NodeId src, NodeId dst, std::uint64_t seq,
               noc::NocIndex idx, std::size_t payload = 2)
    {
        noc::Packet p;
        p.noc = idx;
        p.srcNode = src;
        p.srcTile = 1;
        p.dstNode = dst;
        p.dstTile = 0;
        p.type = noc::MsgType::kDataResp;
        p.addr = (static_cast<Addr>(src) << 40) |
                 (static_cast<Addr>(idx) << 32) | seq;
        for (std::size_t i = 0; i < payload; ++i)
            p.payload.push_back(seq * 31 + i);
        return p;
    }
};

/** Asserts @p got is every sequence 0..n-1 exactly once, in order, per
 *  (src, noc) stream. */
void
expectExactlyOnceInOrder(const std::vector<noc::Packet> &got,
                         std::size_t expected_total)
{
    ASSERT_EQ(got.size(), expected_total);
    std::map<std::pair<NodeId, int>, std::uint64_t> next;
    for (const noc::Packet &p : got) {
        auto key = std::make_pair(p.srcNode, static_cast<int>(p.noc));
        std::uint64_t seq = p.addr & 0xffffffff;
        EXPECT_EQ(seq, next[key])
            << "src " << p.srcNode << " noc " << static_cast<int>(p.noc);
        next[key] = seq + 1;
    }
}

TEST(BridgeReliability, CleanLinkDeliversWithoutRetransmits)
{
    ReliableHarness h((sim::FaultPlan{}));
    for (std::uint64_t i = 0; i < 30; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, i, noc::NocIndex::kNoc1));
    h.eq.run();
    expectExactlyOnceInOrder(h.at1, 30);
    EXPECT_EQ(h.bridge0.retransmits(), 0u);
    EXPECT_EQ(h.bridge1.crcErrors(), 0u);
    EXPECT_EQ(h.bridge1.duplicatesSuppressed(), 0u);
    EXPECT_TRUE(h.bridge0.sendIdle());
}

TEST(BridgeReliability, SurvivesDropStormExactlyOnce)
{
    sim::FaultPlan plan;
    plan.seed = 1234;
    plan.drop("pcie.write", 0.05); // 5% of frames lost in flight.
    ReliableHarness h(plan);
    for (std::uint64_t i = 0; i < 80; ++i) {
        h.bridge0.sendPacket(h.makePacket(
            0, 1, i, static_cast<noc::NocIndex>(i % 3)));
    }
    h.eq.run();
    // Per-NoC streams interleave per arrival; check per-stream order.
    std::map<int, std::vector<std::uint64_t>> streams;
    for (const noc::Packet &p : h.at1)
        streams[static_cast<int>(p.noc)].push_back(p.addr & 0xffffffff);
    std::size_t total = 0;
    for (auto &[nocidx, seqs] : streams) {
        for (std::size_t k = 1; k < seqs.size(); ++k)
            EXPECT_LT(seqs[k - 1], seqs[k]) << "noc " << nocidx;
        total += seqs.size();
    }
    EXPECT_EQ(total, 80u);
    EXPECT_GT(h.fi.dropsInjected(), 0u);
    EXPECT_GT(h.bridge0.retransmits(), 0u);
    EXPECT_TRUE(h.bridge0.sendIdle());
}

TEST(BridgeReliability, CrcCatchesCorruptionAndRetransmits)
{
    sim::FaultPlan plan;
    plan.seed = 7;
    plan.corrupt("bridge.tx", 0.1); // 10% of frames take a bit flip.
    ReliableHarness h(plan);
    for (std::uint64_t i = 0; i < 60; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, i, noc::NocIndex::kNoc2));
    h.eq.run();
    expectExactlyOnceInOrder(h.at1, 60);
    // Every injected corruption was caught by the receiver's CRC and
    // repaired by replay; the payloads above must therefore be intact.
    EXPECT_GT(h.fi.corruptionsInjected(), 0u);
    EXPECT_GE(h.bridge1.crcErrors(), h.fi.corruptionsInjected());
    EXPECT_GT(h.bridge0.retransmits(), 0u);
    EXPECT_EQ(h.stats.counterValue("bridge.crcErrors"),
              h.bridge1.crcErrors());
    for (const noc::Packet &p : h.at1) {
        std::uint64_t seq = p.addr & 0xffffffff;
        ASSERT_EQ(p.payload.size(), 2u);
        EXPECT_EQ(p.payload[0], seq * 31);
        EXPECT_EQ(p.payload[1], seq * 31 + 1);
    }
}

TEST(BridgeReliability, ReorderingDelaysForceDuplicateSuppression)
{
    // Delaying a fraction of frames makes later frames arrive first: the
    // receiver NACKs the gap, the sender goes back, and the late original
    // finally lands as a duplicate that must be suppressed, not
    // redelivered.
    sim::FaultPlan plan;
    plan.seed = 99;
    plan.delay("pcie.write", 0.15, 400);
    plan.drop("pcie.write", 0.03);
    ReliableHarness h(plan);
    for (std::uint64_t i = 0; i < 100; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, i, noc::NocIndex::kNoc1));
    h.eq.run();
    expectExactlyOnceInOrder(h.at1, 100);
    EXPECT_GT(h.bridge1.outOfOrderRejected() +
                  h.bridge1.duplicatesSuppressed(),
              0u);
    EXPECT_TRUE(h.bridge0.sendIdle());
}

TEST(BridgeReliability, BidirectionalStormBothDirectionsExactlyOnce)
{
    sim::FaultPlan plan;
    plan.seed = 5;
    plan.drop("pcie.write", 0.04);
    plan.corrupt("bridge.tx", 0.04);
    ReliableHarness h(plan);
    for (std::uint64_t i = 0; i < 50; ++i) {
        h.bridge0.sendPacket(h.makePacket(
            0, 1, i, static_cast<noc::NocIndex>(i % 3)));
        h.bridge1.sendPacket(h.makePacket(
            1, 0, i, static_cast<noc::NocIndex>((i + 1) % 3)));
    }
    h.eq.run();
    EXPECT_EQ(h.at0.size(), 50u);
    EXPECT_EQ(h.at1.size(), 50u);
    EXPECT_TRUE(h.bridge0.sendIdle());
    EXPECT_TRUE(h.bridge1.sendIdle());
}

TEST(BridgeReliability, ReplayExhaustionPanics)
{
    // A permanently corrupting link is unrecoverable by design: after
    // maxRetries replays of the same frame the bridge must fail loudly.
    sim::FaultPlan plan;
    plan.corrupt("bridge.tx", 1.0);
    bridge::BridgeConfig cfg = reliableCfg();
    cfg.reliability.maxRetries = 3;
    ReliableHarness h(plan, cfg);
    h.bridge0.sendPacket(h.makePacket(0, 1, 0, noc::NocIndex::kNoc1));
    EXPECT_THROW(h.eq.run(), PanicError);
    EXPECT_GE(h.bridge1.crcErrors(), 3u);
}

TEST(BridgeReliability, UnresponsivePeerDegradesThenRecovers)
{
    // The first run of credit reads is dropped before reaching the wire;
    // after creditRetryLimit failures the peer degrades (no spinning),
    // probes keep going while traffic waits, and the first answered probe
    // recovers the link and drains the queue.
    sim::FaultPlan plan;
    // Events 0..5 at the credit-read site all fail.
    plan.add(sim::FaultRule{"bridge.creditRead", sim::FaultKind::kDrop,
                            1.0, 0, 0, 5});
    // 2 credits: polls start early.
    bridge::BridgeConfig cfg = reliableCfg(2);
    ReliableHarness h(plan, cfg);
    for (std::uint64_t i = 0; i < 20; ++i)
        h.bridge0.sendPacket(h.makePacket(0, 1, i, noc::NocIndex::kNoc1));
    h.eq.run();
    expectExactlyOnceInOrder(h.at1, 20);
    EXPECT_EQ(h.bridge0.degradeEvents(), 1u);
    EXPECT_EQ(h.bridge0.recoverEvents(), 1u);
    EXPECT_FALSE(h.bridge0.peerDegraded(1));
    EXPECT_GE(h.bridge0.creditTimeouts(),
              static_cast<std::uint64_t>(cfg.creditRetryLimit));
    EXPECT_EQ(h.stats.counterValue("bridge.peerDegraded"), 1u);
    EXPECT_EQ(h.stats.counterValue("bridge.peerRecovered"), 1u);
    EXPECT_TRUE(h.bridge0.sendIdle());
}

TEST(BridgeReliability, LegacyWireFormatUnchangedWhenDisabled)
{
    // Reliability off must keep the paper's exact wire format: a 10-flit
    // packet still costs 10 flits / 4 writes and no trailer bytes, so the
    // seed benchmarks see identical traffic.
    sim::EventQueue eq;
    sim::StatRegistry stats;
    pcie::PcieFabric fabric(eq, 63, 16.0, &stats);
    bridge::BridgeConfig cfg; // reliability.enabled defaults to false.
    bridge::InterNodeBridge b0(0, 0, 0x0, eq, fabric, cfg, &stats);
    bridge::InterNodeBridge b1(1, 1, 0x1000000, eq, fabric, cfg, &stats);
    b0.addPeer(1, b1.windowBase());
    b1.addPeer(0, b0.windowBase());
    std::vector<noc::Packet> got;
    b1.setDeliverFn([&](const noc::Packet &p) { got.push_back(p); });

    noc::Packet p;
    p.noc = noc::NocIndex::kNoc1;
    p.srcNode = 0;
    p.dstNode = 1;
    p.dstTile = 5;
    p.type = noc::MsgType::kReqRd;
    p.addr = 0xabc000;
    p.payload.assign(8, 3);
    b0.sendPacket(p);
    eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(b0.flitsSent(), 10u);
    EXPECT_EQ(b0.retransmits(), 0u);
    EXPECT_EQ(b1.crcErrors(), 0u);
    EXPECT_EQ(stats.counterValue("bridge.retransmits"), 0u);
}

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
    // The first copy and its 3 replays were all corrupted.
    EXPECT_EQ(proto.faultInjector()->corruptionsInjected(), 4u);
}

TEST(BridgeReliability, ReplayBackoffDoublesUpTo256Times)
{
    EXPECT_EQ(bridge::replayBackoff(32, 0), 32u);
    EXPECT_EQ(bridge::replayBackoff(32, 1), 64u);
    EXPECT_EQ(bridge::replayBackoff(32, 8), 32u * 256);
    EXPECT_EQ(bridge::replayBackoff(32, 20), 32u * 256);
}

} // namespace
} // namespace smappic
