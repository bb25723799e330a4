/**
 * @file
 * Tests of the observability layer: Tracer ring/merge semantics, the
 * binary container and Chrome JSON exporter, and the platform-level
 * contract that binary traces are bit-identical across phased worker
 * counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/tracer.hpp"
#include "platform/prototype.hpp"
#include "sim/log.hpp"
#include "sim/parallel.hpp"

namespace smappic::obs
{
namespace
{

TraceConfig
enabledConfig(std::size_t capacity = 64)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ringCapacity = capacity;
    return cfg;
}

TraceEvent
eventAt(EventKind kind, Cycles cycle, std::uint16_t node = 0)
{
    TraceEvent ev = event(kind);
    ev.cycle = cycle;
    ev.node = node;
    return ev;
}

TEST(Tracer, DisabledTracerIsInert)
{
    Tracer t;
    t.configure(TraceConfig{}, 2);
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.handleFor(Component::kCache), nullptr);
    EXPECT_EQ(t.handleFor(Component::kCore), nullptr);
    t.record(eventAt(EventKind::kCacheMiss, 1));
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.merged().empty());
}

TEST(Tracer, HandleForRespectsComponentMask)
{
    Tracer t;
    TraceConfig cfg = enabledConfig();
    cfg.components = componentBit(Component::kNoc) |
                     componentBit(Component::kCore);
    t.configure(cfg, 1);
    EXPECT_EQ(t.handleFor(Component::kNoc), &t);
    EXPECT_EQ(t.handleFor(Component::kCore), &t);
    EXPECT_EQ(t.handleFor(Component::kCache), nullptr);
    EXPECT_EQ(t.handleFor(Component::kPcie), nullptr);
    EXPECT_EQ(t.handleFor(Component::kBridge), nullptr);
}

TEST(Tracer, EveryKindMapsToItsComponent)
{
    for (std::uint32_t k = 0; k < kNumEventKinds; ++k) {
        if (!isEventKind(k))
            continue;
        auto kind = static_cast<EventKind>(k);
        TraceEvent ev = event(kind);
        EXPECT_EQ(ev.kind, k);
        EXPECT_EQ(ev.component,
                  static_cast<std::uint8_t>(kindComponent(kind)));
        EXPECT_NE(kindName(kind), nullptr);
        EXPECT_NE(componentName(kindComponent(kind)), nullptr);
    }
}

TEST(Tracer, FullRingOverwritesOldestAndCountsDrops)
{
    Tracer t;
    t.configure(enabledConfig(4), 1);
    for (Cycles c = 0; c < 6; ++c)
        t.record(eventAt(EventKind::kNocPath, c));
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.heldOn(0), 4u);
    EXPECT_EQ(t.dropped(), 2u);
    EXPECT_EQ(t.droppedOn(0), 2u);
    std::vector<TraceEvent> got = t.merged();
    ASSERT_EQ(got.size(), 4u);
    // Oldest retained first: cycles 2..5.
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].cycle, i + 2);
}

TEST(Tracer, SerialContextUsesEventNodeTag)
{
    Tracer t;
    t.configure(enabledConfig(), 2);
    t.record(eventAt(EventKind::kCacheMiss, 1, 0));
    t.record(eventAt(EventKind::kCacheMiss, 2, 1));
    // Off-range tags (e.g. an FPGA id in a weird config) clamp to the
    // last ring instead of dying.
    t.record(eventAt(EventKind::kPcieWrite, 3, 7));
    EXPECT_EQ(t.heldOn(0), 1u);
    EXPECT_EQ(t.heldOn(1), 2u);
    std::vector<TraceEvent> got = t.merged();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].cycle, 1u);
    EXPECT_EQ(got[1].cycle, 2u);
    EXPECT_EQ(got[2].cycle, 3u);
}

TEST(Tracer, NodePhaseRecordsLandInActingNodesRing)
{
    Tracer t;
    t.configure(enabledConfig(), 2);
    {
        // Inside node 1's phase even node-0-tagged events stay in ring 1:
        // one writer per ring per phase is the determinism invariant.
        sim::ActingNodeScope acting(1);
        t.record(eventAt(EventKind::kNocPath, 5, 0));
    }
    EXPECT_EQ(t.heldOn(0), 0u);
    EXPECT_EQ(t.heldOn(1), 1u);
}

TEST(Tracer, ClearKeepsConfiguration)
{
    Tracer t;
    t.configure(enabledConfig(), 2);
    t.record(eventAt(EventKind::kCoreCommit, 1));
    t.clear();
    EXPECT_TRUE(t.enabled());
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.merged().empty());
    t.record(eventAt(EventKind::kCoreCommit, 2));
    EXPECT_EQ(t.recorded(), 1u);
}

TEST(TraceIo, BinaryRoundTripPreservesEverything)
{
    Tracer t;
    t.configure(enabledConfig(4), 2);
    TraceEvent ev = event(EventKind::kCacheMiss);
    ev.cycle = 0x1122334455667788ULL;
    ev.arg = 0x8000abcd;
    ev.duration = 97;
    ev.extra = 3;
    ev.node = 0;
    ev.tile = 1;
    ev.flags = 1;
    t.record(ev);
    for (Cycles c = 0; c < 6; ++c)
        t.record(eventAt(EventKind::kCoreCommit, c, 1)); // Wraps ring 1.

    std::ostringstream os;
    writeBinary(t, os);
    std::istringstream is(os.str());
    TraceData td = readBinary(is);

    EXPECT_EQ(td.version, kTraceFormatVersion);
    EXPECT_EQ(td.nodes, 2u);
    ASSERT_EQ(td.perNodeHeld.size(), 2u);
    EXPECT_EQ(td.perNodeHeld[0], 1u);
    EXPECT_EQ(td.perNodeHeld[1], 4u);
    EXPECT_EQ(td.perNodeDropped[0], 0u);
    EXPECT_EQ(td.perNodeDropped[1], 2u);
    EXPECT_EQ(td.dropped(), 2u);
    ASSERT_EQ(td.events.size(), 5u);
    EXPECT_EQ(td.events[0].cycle, ev.cycle);
    EXPECT_EQ(td.events[0].arg, ev.arg);
    EXPECT_EQ(td.events[0].duration, ev.duration);
    EXPECT_EQ(td.events[0].extra, ev.extra);
    EXPECT_EQ(td.events[0].tile, ev.tile);
    EXPECT_EQ(td.events[0].flags, ev.flags);
    EXPECT_EQ(td.events[0].kind,
              static_cast<std::uint8_t>(EventKind::kCacheMiss));
    EXPECT_EQ(td.events[1].cycle, 2u); // Ring 1's oldest retained event.
}

TEST(TraceIo, RejectsMalformedInput)
{
    std::istringstream bad_magic("XXXX----------------");
    EXPECT_THROW(readBinary(bad_magic), FatalError);

    Tracer t;
    t.configure(enabledConfig(), 1);
    t.record(eventAt(EventKind::kNocPath, 1));
    std::ostringstream os;
    writeBinary(t, os);
    std::string bytes = os.str();
    std::istringstream truncated(bytes.substr(0, bytes.size() - 7));
    EXPECT_THROW(readBinary(truncated), FatalError);
}

/** The --window predicate shared with trace_dump is half-open [A, B):
 *  the start cycle is in, the end cycle is out, adjacent windows tile
 *  a trace exactly, and an empty/inverted window selects nothing. */
TEST(TraceIo, WindowPredicateIsHalfOpenOnBoundaryCycles)
{
    EXPECT_TRUE(cycleInWindow(10, 10, 20));  // from is inclusive
    EXPECT_TRUE(cycleInWindow(19, 10, 20));  // last cycle inside
    EXPECT_FALSE(cycleInWindow(20, 10, 20)); // to is exclusive
    EXPECT_FALSE(cycleInWindow(9, 10, 20));

    // Adjacent windows <A:B> <B:C> partition: every boundary cycle is
    // claimed by exactly one of the two.
    for (Cycles c = 8; c <= 22; ++c)
        EXPECT_EQ(cycleInWindow(c, 8, 22),
                  cycleInWindow(c, 8, 15) != cycleInWindow(c, 15, 22))
            << "cycle " << c;

    EXPECT_FALSE(cycleInWindow(10, 10, 10)); // empty window
    EXPECT_FALSE(cycleInWindow(10, 20, 10)); // inverted window
    EXPECT_TRUE(cycleInWindow(0, 0, 1));     // cycle 0 is reachable
}

TEST(TraceIo, ChromeJsonEmitsSlicesAndInstants)
{
    TraceEvent slice = event(EventKind::kCacheMiss);
    slice.cycle = 100;
    slice.duration = 42;
    slice.node = 1;
    slice.tile = 3;
    TraceEvent instant = event(EventKind::kNocPath);
    instant.cycle = 7;

    std::ostringstream os;
    writeChromeJson({slice, instant}, os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cacheMiss\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":42"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_EQ(json.find(",}"), std::string::npos);
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

} // namespace
} // namespace smappic::obs

namespace smappic::platform
{
namespace
{

/** The parallel-executor test's cross-node ping-pong (see
 *  test_parallel_executor.cpp for the walkthrough). */
constexpr const char *kPingPongSource = R"(
_start:
    csrr t0, 0xf14
    li t1, 2
    beq t0, zero, pinger
    beq t0, t1, ponger
compute:
    li t2, 0
    li t3, 0
    li t4, 2000
loop:
    add t3, t3, t2
    addi t2, t2, 1
    bne t2, t4, loop
    la t5, sum
    sd t3, 0(t5)
    andi a0, t3, 0x3f
    li a7, 93
    ecall
pinger:
    la t0, h0
    csrw 0x305, t0
    li t2, 0x8
    csrw 0x304, t2
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3
    li t1, 0x02000008
    li t2, 1
    sw t2, 0(t1)
w0: wfi
    j w0
h0:
    li a0, 5
    li a7, 93
    ecall
ponger:
    la t0, h1
    csrw 0x305, t0
    li t2, 0x8
    csrw 0x304, t2
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3
w1: wfi
    j w1
h1:
    la t3, flag
    li t4, 1
    sd t4, 0(t3)
    li t1, 0x02000000
    li t2, 1
    sw t2, 0(t1)
    li a0, 7
    li a7, 93
    ecall

.data
.align 3
flag: .dword 0
sum:  .dword 0
)";

/** Runs the ping-pong with tracing on and returns the binary trace. */
std::string
tracedPingPong(std::uint32_t threads, Cycles quantum)
{
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = quantum;
    cfg.trace.enabled = true;
    Prototype proto(cfg);
    proto.loadSourceReplicated(kPingPongSource);
    proto.runCores({0, 1, 2, 3}, 500000);
    std::ostringstream os;
    obs::writeBinary(proto.tracer(), os);
    return os.str();
}

TEST(PlatformTrace, CapturesCoreCacheAndNocEvents)
{
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.trace.enabled = true;
    Prototype proto(cfg);
    proto.loadSourceReplicated(kPingPongSource);
    proto.runCores({0, 1, 2, 3}, 500000);

    EXPECT_GT(proto.tracer().recorded(), 0u);
    std::uint64_t perKind[obs::kNumEventKinds] = {};
    for (const obs::TraceEvent &ev : proto.tracer().merged()) {
        ASSERT_LT(ev.kind, obs::kNumEventKinds);
        perKind[ev.kind] += 1;
    }
    auto count = [&](obs::EventKind k) {
        return perKind[static_cast<std::uint32_t>(k)];
    };
    EXPECT_GT(count(obs::EventKind::kCoreCommit), 0u);
    EXPECT_GT(count(obs::EventKind::kCoreStall), 0u);
    EXPECT_GT(count(obs::EventKind::kCacheMiss), 0u);
    EXPECT_GT(count(obs::EventKind::kNocPath), 0u);
}

TEST(PlatformTrace, BridgeTrafficEmitsBridgeAndPcieEvents)
{
    // Code and data on node 0: node 1's harts fetch and load across the
    // inter-node crossing (bridge and PCIe, paper section 3.1), which
    // traces as a kNocPath event flagged crossed, one per crossing.
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.trace.enabled = true;
    Prototype proto(cfg);
    proto.loadSource(R"(
_start:
    la t0, word
    ld a0, 0(t0)
    li a7, 93
    ecall
.data
word: .dword 0
)");
    proto.runCores({0, 1, 2, 3}, 10'000);
    ASSERT_EQ(proto.tracer().dropped(), 0u);

    std::uint64_t crossed = 0;
    std::uint64_t local = 0;
    for (const obs::TraceEvent &ev : proto.tracer().merged()) {
        if (ev.kind != static_cast<std::uint32_t>(obs::EventKind::kNocPath))
            continue;
        auto src = static_cast<std::uint16_t>(ev.arg >> 48);
        auto dst = static_cast<std::uint16_t>(ev.arg >> 16);
        EXPECT_EQ(ev.flags == 1, src != dst);
        (ev.flags == 1 ? crossed : local) += 1;
    }
    EXPECT_GT(crossed, 0u);
    EXPECT_GT(local, 0u);
    EXPECT_EQ(crossed, proto.stats().counterValue("cs.bridge.crossings"));
}

TEST(PlatformTrace, ComponentMaskLimitsWhatIsRecorded)
{
    PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
    cfg.trace.enabled = true;
    cfg.trace.components = obs::componentBit(obs::Component::kCache);
    Prototype proto(cfg);
    proto.loadSource("_start: li a0, 0\n li a7, 93\n ecall\n");
    proto.runCore(0);

    for (const obs::TraceEvent &ev : proto.tracer().merged()) {
        EXPECT_EQ(ev.component,
                  static_cast<std::uint8_t>(obs::Component::kCache));
    }
}

TEST(PlatformTrace, WriteTraceProducesReadableFile)
{
    PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
    cfg.trace.enabled = true;
    cfg.trace.path = "test_tracer_out.smtr";
    Prototype proto(cfg);
    proto.loadSource("_start: li a0, 0\n li a7, 93\n ecall\n");
    proto.runCore(0);
    proto.writeTrace();

    std::ifstream is(cfg.trace.path, std::ios::binary);
    ASSERT_TRUE(is.good());
    obs::TraceData td = obs::readBinary(is);
    EXPECT_EQ(td.nodes, 1u);
    EXPECT_EQ(td.events.size(), proto.tracer().merged().size());
    std::remove(cfg.trace.path.c_str());
}

TEST(PlatformTrace, WriteTraceWithoutTracingFails)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    EXPECT_THROW(proto.writeTrace("nowhere.smtr"), FatalError);
}

TEST(PlatformTrace, BinaryTraceBitIdenticalAcrossWorkerCounts)
{
    // The tentpole acceptance contract: same seed, same quantum, phased
    // workers in {1, 2, 4} — the serialized trace must match byte for
    // byte, not just event for event.
    std::string ref = tracedPingPong(1, 63);
    EXPECT_FALSE(ref.empty());
    for (std::uint32_t threads : {2u, 4u}) {
        std::string got = tracedPingPong(threads, 63);
        EXPECT_EQ(got, ref) << "trace diverged at " << threads
                            << " workers";
    }
}

} // namespace
} // namespace smappic::platform
