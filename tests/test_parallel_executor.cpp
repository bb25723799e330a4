/**
 * @file
 * Tests of the phased parallel execution engine: the ParallelExecutor
 * primitive, quantum-boundary delivery of deferred cross-node interrupt
 * wire changes, and the headline contract — a cross-node ping-pong
 * workload whose final stats, exit codes and guest memory are
 * bit-identical for any worker count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "platform/prototype.hpp"
#include "sim/log.hpp"
#include "sim/parallel.hpp"
#include "sim/stats.hpp"

namespace smappic::platform
{
namespace
{

TEST(ParallelExecutor, RunsEveryGroupEachEpochAndStopsOnBarrier)
{
    const std::uint32_t groups = 6;
    const std::uint64_t epochs = 4;
    // One slot per group: written only by the worker owning the group.
    std::vector<std::uint64_t> runs(groups, 0);
    std::uint64_t barriers = 0;

    sim::ParallelExecutor exec(3);
    exec.run(
        groups, [&](std::uint32_t g) { runs[g] += 1; },
        [&](std::uint64_t epoch) {
            EXPECT_EQ(epoch, barriers);
            // Every group advanced exactly once since the last barrier.
            for (std::uint32_t g = 0; g < groups; ++g)
                EXPECT_EQ(runs[g], epoch + 1);
            return ++barriers < epochs;
        });

    EXPECT_EQ(barriers, epochs);
    for (std::uint32_t g = 0; g < groups; ++g)
        EXPECT_EQ(runs[g], epochs);
}

TEST(ParallelExecutor, SerialPathMatchesThreadedPath)
{
    for (std::uint32_t workers : {1u, 2u, 8u}) {
        std::vector<std::uint64_t> runs(4, 0);
        std::uint64_t barriers = 0;
        sim::ParallelExecutor exec(workers);
        exec.run(
            4, [&](std::uint32_t g) { runs[g] += 1; },
            [&](std::uint64_t) { return ++barriers < 3; });
        EXPECT_EQ(barriers, 3u);
        for (auto r : runs)
            EXPECT_EQ(r, 3u);
    }
}

TEST(ParallelExecutor, GroupExceptionsPropagate)
{
    sim::ParallelExecutor exec(2);
    EXPECT_THROW(
        exec.run(
            4,
            [&](std::uint32_t g) {
                if (g == 2)
                    panic("boom");
            },
            [&](std::uint64_t) { return true; }),
        PanicError);
}

TEST(ParallelExecutor, BarrierExceptionsPropagate)
{
    // 16 workers exceed the CPUs of most hosts, so this also runs the
    // barrier's park-only path.
    for (std::uint32_t workers : {2u, 4u, 16u}) {
        std::uint64_t barriers = 0;
        sim::ParallelExecutor exec(workers);
        EXPECT_THROW(exec.run(
                         16, [](std::uint32_t) {},
                         [&](std::uint64_t epoch) {
                             ++barriers;
                             if (epoch == 3)
                                 panic("barrier boom");
                             return true;
                         }),
                     PanicError)
            << workers << " workers";
        // The throwing epoch is the last one.
        EXPECT_EQ(barriers, 4u) << workers << " workers";
    }
}

TEST(ParallelExecutor, ManyEpochsStress)
{
    // Plain (non-atomic) data crossing the barrier both ways: groups
    // write their slot from `next`, which only the serial section
    // writes. Any missing happens-before edge shows up as a stale value
    // here, and as a data race under TSan.
    constexpr std::uint32_t kGroups = 16;
    constexpr std::uint64_t kEpochs = 10'000;
    for (std::uint32_t workers : {2u, 4u, 16u}) {
        std::vector<std::uint64_t> slots(kGroups, 0);
        std::uint64_t next = 1;
        std::uint64_t stale = 0;
        sim::ParallelExecutor exec(workers);
        exec.run(
            kGroups, [&](std::uint32_t g) { slots[g] = next + g; },
            [&](std::uint64_t epoch) {
                for (std::uint32_t g = 0; g < kGroups; ++g)
                    stale += slots[g] != epoch + 1 + g;
                next = epoch + 2;
                return epoch + 1 < kEpochs;
            });
        EXPECT_EQ(stale, 0u) << workers << " workers";
        EXPECT_EQ(next, kEpochs + 1) << workers << " workers";
        for (std::uint32_t g = 0; g < kGroups; ++g)
            EXPECT_EQ(slots[g], kEpochs + g) << workers << " workers";
    }
}

TEST(ParallelStats, ShardsRedirectAndMergeDeterministically)
{
    sim::StatRegistry root;
    root.counter("a").increment(5);
    root.summaryStat("s").sample(1.0);

    sim::StatRegistry shard0;
    sim::StatRegistry shard1;
    {
        sim::StatRegistry::Redirect r(&root, &shard0);
        root.counter("a").increment(2); // Lands in shard0.
        root.summaryStat("s").sample(3.0);
    }
    {
        sim::StatRegistry::Redirect r(&root, &shard1);
        root.counter("a").increment(1); // Lands in shard1.
    }
    EXPECT_EQ(root.counterValue("a"), 5u);
    EXPECT_EQ(shard0.counterValue("a"), 2u);
    EXPECT_EQ(shard1.counterValue("a"), 1u);

    root.mergeFrom(shard0);
    root.mergeFrom(shard1);
    EXPECT_EQ(root.counterValue("a"), 8u);
    EXPECT_EQ(root.summaries().at("s").count(), 2u);
    EXPECT_DOUBLE_EQ(root.summaries().at("s").sum(), 4.0);
}

/**
 * Cross-node ping-pong: hart 0 (node 0) rings hart 2's (node 1) MSIP
 * doorbell and parks in wfi; hart 2 wakes, stores a node-local flag,
 * rings back, and exits; hart 0 wakes and exits. Harts 1 and 3 run a
 * node-local compute loop (sum 0..1999 = 1999000; exit 1999000 & 63 =
 * 24). All data references are `la`-relative, so the replicated loader
 * keeps every hart's footprint on its own node's DRAM.
 */
constexpr const char *kPingPongSource = R"(
_start:
    csrr t0, 0xf14       # mhartid
    li t1, 2
    beq t0, zero, pinger
    beq t0, t1, ponger
compute:                 # Harts 1 and 3: node-local work.
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
    csrw 0x305, t0       # mtvec
    li t2, 0x8
    csrw 0x304, t2       # mie.MSIE
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3       # mstatus.MIE
    li t1, 0x02000008    # CLINT MSIP of hart 2
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
    li t1, 0x02000000    # CLINT MSIP of hart 0
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

struct PingPongRun
{
    std::vector<std::int64_t> exits;
    std::uint64_t irqDeferred = 0;
    std::uint64_t flagNode1 = 0;
    std::uint64_t sumNode0 = 0;
    std::uint64_t sumNode1 = 0;
    std::string dump;
};

PingPongRun
runPingPong(std::uint32_t threads, Cycles quantum)
{
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = quantum;
    Prototype proto(cfg);
    riscv::Program prog = proto.loadSourceReplicated(kPingPongSource);
    proto.runCores({0, 1, 2, 3}, 500000);

    PingPongRun out;
    for (GlobalTileId g = 0; g < 4; ++g) {
        EXPECT_TRUE(proto.core(g).exited()) << "hart " << g;
        out.exits.push_back(proto.core(g).exitCode());
    }
    out.irqDeferred = proto.stats().counterValue("platform.irqDeferred");
    // The ponger (node 1) stored through its node-local replica of `flag`,
    // one DRAM channel above node 0's copy.
    std::uint64_t stride = cfg.memPerNode;
    out.flagNode1 = proto.memory().load(prog.symbol("flag") + stride, 8);
    out.sumNode0 = proto.memory().load(prog.symbol("sum"), 8);
    out.sumNode1 = proto.memory().load(prog.symbol("sum") + stride, 8);
    std::ostringstream os;
    proto.stats().dump(os);
    out.dump = os.str();
    return out;
}

TEST(ParallelPlatform, PingPongBitIdenticalAcrossThreadCounts)
{
    // The acceptance contract: identical seeds and quantum, threads in
    // {1, 2, 4} — final stats, exit codes and guest memory must match bit
    // for bit. threads=1 runs the reference schedule on the calling
    // thread.
    PingPongRun ref = runPingPong(1, 63);
    EXPECT_EQ(ref.exits, (std::vector<std::int64_t>{5, 24, 7, 24}));
    EXPECT_EQ(ref.flagNode1, 1u);
    EXPECT_EQ(ref.sumNode0, 1999000u);
    EXPECT_EQ(ref.sumNode1, 1999000u);
    EXPECT_GE(ref.irqDeferred, 2u) << "cross-node irqs must defer";

    for (std::uint32_t threads : {2u, 4u}) {
        PingPongRun got = runPingPong(threads, 63);
        EXPECT_EQ(got.exits, ref.exits) << threads << " threads";
        EXPECT_EQ(got.flagNode1, ref.flagNode1);
        EXPECT_EQ(got.sumNode0, ref.sumNode0);
        EXPECT_EQ(got.sumNode1, ref.sumNode1);
        EXPECT_EQ(got.dump, ref.dump)
            << "stat dump diverged at " << threads << " threads";
    }
}

/**
 * Harts 0 (node 0) and 2 (node 1) ring each other's MSIP in the same
 * epoch, with interrupts disabled, then read their own mip at once.
 * Both CLINT stores yield, so both run in the barrier's remainders:
 * node 0's, then node 1's. Each hart exits with its first MSIP reading
 * plus 1. Harts 1 and 3 exit at once. The quantum is long enough that
 * each hart's store and first read fall in the first epoch.
 */
constexpr const char *kCrossRingSource = R"(
_start:
    csrr t0, 0xf14       # mhartid
    li t1, 2
    beq t0, zero, ring2
    beq t0, t1, ring0
    li a0, 0
    li a7, 93
    ecall
ring2:
    li t1, 0x02000008    # CLINT MSIP of hart 2
    j ring
ring0:
    li t1, 0x02000000    # CLINT MSIP of hart 0
ring:
    li t2, 1
    sw t2, 0(t1)
    csrr a0, 0x344       # mip
    andi a0, a0, 8
wait:
    csrr t3, 0x344
    andi t3, t3, 8
    beqz t3, wait
    addi a0, a0, 1
    li a7, 93
    ecall
)";

TEST(ParallelPlatform, CrossNodeIrqsApplyAfterEveryRemainder)
{
    auto run = [](std::uint32_t threads, std::vector<std::int64_t> &exits) {
        PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
        cfg.parallel.threads = threads;
        cfg.parallel.quantum = 100'000;
        Prototype proto(cfg);
        proto.loadSourceReplicated(kCrossRingSource);
        proto.runCores({0, 1, 2, 3}, 500'000);
        exits.clear();
        for (GlobalTileId g = 0; g < 4; ++g) {
            EXPECT_TRUE(proto.core(g).exited()) << "hart " << g;
            exits.push_back(proto.core(g).exitCode());
        }
        EXPECT_EQ(proto.stats().counterValue("platform.irqDeferred"), 2u);
        EXPECT_EQ(proto.stats().counterValue("platform.irqPackets"), 2u);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    // Hart 2 rings hart 0 in node 1's remainder, after node 0's
    // remainder raised hart 2's MSIP; it still reads its MSIP low (exit
    // 1, not 9), since that change waits for the end of the barrier.
    std::vector<std::int64_t> ref_exits;
    std::string ref = run(1, ref_exits);
    EXPECT_EQ(ref_exits, (std::vector<std::int64_t>{1, 0, 1, 0}));
    for (std::uint32_t threads : {2u, 4u}) {
        std::vector<std::int64_t> exits;
        EXPECT_EQ(run(threads, exits), ref) << threads << " threads";
        EXPECT_EQ(exits, ref_exits) << threads << " threads";
    }
}

TEST(ParallelPlatform, IrqDeferralInsideConfinedPhasePanics)
{
    // A confined phase yields before any CLINT access, so a deferral
    // there means a shared device ran inside the phase.
    Prototype proto(PrototypeConfig::parse("2x1x2"));
    sim::ActingNodeScope acting(0);
    sim::ConfinedScope confined;
    // Hart 1 shares node 0: its wire changes at once.
    proto.clint().write(riscv::kClintMsipBase + 4 * 1, 1, 4);
    EXPECT_EQ(proto.stats().counterValue("platform.irqPackets"), 1u);
    // Hart 2 sits on node 1.
    EXPECT_THROW(proto.clint().write(riscv::kClintMsipBase + 4 * 2, 1, 4),
                 PanicError);
    EXPECT_EQ(proto.stats().counterValue("platform.irqDeferred"), 0u);
}

/** Every hart on both nodes bumps one counter with amoadd; code and
 *  counter live on node 0, so node 1 fetches and updates remotely. */
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

TEST(ParallelPlatform, CrossNodeSharingBitIdenticalAcrossThreadCounts)
{
    // Cross-node misses are not node-confined: a worker's phase yields at
    // them and the barrier finishes that node's epoch in node order, so
    // even a workload where every node hammers one line is reproducible.
    auto run = [](std::uint32_t threads) {
        PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
        cfg.parallel.threads = threads;
        cfg.parallel.quantum = 63;
        Prototype proto(cfg);
        riscv::Program prog = proto.loadSource(kSharedCounterSource);
        proto.runCores({0, 1, 2, 3}, 100000);
        for (GlobalTileId g = 0; g < 4; ++g)
            EXPECT_TRUE(proto.core(g).exited()) << "hart " << g;
        EXPECT_EQ(proto.memory().load(prog.symbol("counter"), 8), 200u);
        EXPECT_GT(proto.stats().counterValue("platform.phaseYields"), 0u);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    std::string ref = run(1);
    for (std::uint32_t threads : {2u, 4u})
        EXPECT_EQ(run(threads), ref) << threads << " threads";
}

TEST(ParallelPlatform, OneNodePhasesRunUnconfined)
{
    // A one-node prototype has no other node to be confined from, so its
    // shared-device steps (here each hart's console-write ecall) run in
    // the phase instead of yielding to the barrier.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
.data
msg: .asciiz "hi\n"
.text
_start:
    li a0, 1
    la a1, msg
    li a2, 3
    li a7, 64
    ecall
    li a0, 0
    li a7, 93
    ecall
)");
    proto.runCores({0, 1}, 10'000);
    EXPECT_EQ(proto.console(0).captured(), "hi\nhi\n");
    EXPECT_EQ(proto.stats().counterValue("platform.phaseYields"), 0u);
}

} // namespace
} // namespace smappic::platform
