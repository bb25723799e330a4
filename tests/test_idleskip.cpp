/**
 * @file
 * Uncore idle-skip tests: the event-horizon queries every skip decision
 * rests on, the run engine's parked-core bookkeeping, and the
 * replicate-or-change-nothing contract — stats, traces and SMCK
 * checkpoints byte-identical with uncore.idleSkip on or off, at the
 * default config and at 1/2/4 workers, including runs where the
 * watchdog and periodic checkpoints are live at skipped barriers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"
#include "riscv/interrupts.hpp"
#include "sim/event_queue.hpp"
#include "sim/watchdog.hpp"
#include "snap/snapshot.hpp"

namespace smappic
{
namespace
{

namespace fs = std::filesystem;

fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("idleskip_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------- horizon queries

TEST(IdleSkipHorizon, EventQueueNextDeadline)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.nextDeadline(), sim::kNoDeadline);
    int fired = 0;
    eq.schedule(40, [&] { ++fired; });
    eq.schedule(10, [&] { ++fired; });
    EXPECT_EQ(eq.nextDeadline(), 10u);
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.nextDeadline(), 40u);
    eq.runUntil(100);
    EXPECT_EQ(eq.nextDeadline(), sim::kNoDeadline);
}

TEST(IdleSkipHorizon, ClintNextTimerCycle)
{
    riscv::ClintController clint(2);
    // Reset mtimecmp (~0) never counts as an armed timer.
    EXPECT_EQ(clint.nextTimerCycle(), sim::kNoDeadline);
    clint.write(riscv::kClintMtimecmpBase, 500, 8);
    clint.write(riscv::kClintMtimecmpBase + 8, 300, 8);
    EXPECT_EQ(clint.nextTimerCycle(), 300u);
    clint.setTime(300); // Hart 1's timer fires; hart 0's still pending.
    EXPECT_EQ(clint.nextTimerCycle(), 500u);
    clint.setTime(600);
    EXPECT_EQ(clint.nextTimerCycle(), sim::kNoDeadline);
}

TEST(IdleSkipHorizon, WatchdogNextDeadline)
{
    sim::WatchdogConfig cfg;
    cfg.stallCycles = 100;
    sim::Watchdog wd(cfg, 2, nullptr);
    EXPECT_EQ(wd.nextDeadline(), sim::kNoDeadline); // Unprimed.
    wd.observe(50, {10, 20}, {true, true});
    EXPECT_EQ(wd.nextDeadline(), 150u);
    // Node 0 commits at 120: its window re-arms; node 1 doesn't.
    wd.observe(120, {15, 20}, {true, true});
    EXPECT_EQ(wd.nextDeadline(), 150u);
    auto verdict = wd.observe(150, {15, 20}, {true, true});
    EXPECT_TRUE(verdict.stallDetected);
    ASSERT_EQ(verdict.stalledNodes.size(), 1u);
    EXPECT_EQ(verdict.stalledNodes[0], 1u);
    EXPECT_EQ(wd.nextDeadline(), 220u); // Node 1 rebased at the fire.
}

// --------------------------------------------------- parked cores

/** Regression for the historical all-wfi predicate: hart 0 sleeps on a
 *  timer set far past hart 1's exit. The old bookkeeping classified the
 *  run as all-idle the moment hart 0 was the only live core, advanced
 *  device time by a token 1000 cycles and marked hart 0 done without
 *  ever delivering its interrupt; the parked flag plus the barrier
 *  jump must instead wake it and let it exit. Default config: one
 *  worker at the lookahead quantum. */
constexpr const char *kParkedRegressionSource = R"(
_start:
    csrr t0, 0xf14
    bnez t0, hart1
    la t0, handler
    csrw 0x305, t0       # mtvec
    li t1, 0x80
    csrw 0x304, t1       # mie.MTIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2       # mstatus.MIE
    li t3, 0x02004000    # mtimecmp[0] = 500000, long after hart 1 exits
    li t4, 500000
    sd t4, 0(t3)
idle:
    wfi
    j idle
handler:
    li a0, 55
    li a7, 93
    ecall
hart1:
    li t5, 100           # Short compute loop, then exit.
busy:
    addi t5, t5, -1
    bnez t5, busy
    li a0, 7
    li a7, 93
    ecall
)";

class IdleSkipSequential : public ::testing::TestWithParam<bool>
{
};

TEST_P(IdleSkipSequential, ParkedCoreWakesAfterSiblingExits)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("1x1x2");
    cfg.uncore.idleSkip = GetParam();
    platform::Prototype proto(cfg);
    proto.loadSource(kParkedRegressionSource);
    proto.runCores({0, 1}, 50'000);
    EXPECT_EQ(proto.core(1).exitCode(), 7);
    EXPECT_EQ(proto.core(0).exitCode(), 55)
        << "parked hart was never woken by its timer";
}

INSTANTIATE_TEST_SUITE_P(OnAndOff, IdleSkipSequential,
                         ::testing::Values(true, false));

// -------------------------------------- replicate-or-change-nothing

/** Timer-driven WFI workload exercising every skip site: hart 0 sleeps
 *  between CLINT timer interrupts (20 wakeups, 8000 cycles apart), all
 *  other harts exit immediately — so runs cross long runs of idle
 *  barriers. */
constexpr const char *kWfiTimerSource = R"(
_start:
    csrr t0, 0xf14
    bnez t0, finish
    la t0, handler
    csrw 0x305, t0
    li t1, 0x80
    csrw 0x304, t1
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2
    li s0, 0
    li s1, 20
    li s2, 0x0200bff8
    li s3, 0x02004000
    li s4, 8000
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
idle:
    wfi
    j idle
handler:
    addi s0, s0, 1
    bge s0, s1, last
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
    mret
last:
    la t3, finish
    csrw 0x341, t3
    li t3, -1
    sd t3, 0(s3)
    mret
finish:
    li a0, 0
    li a7, 93
    ecall
)";

struct Surface
{
    std::string stats;
    std::string trace;
    std::string snapshot;
};

/** The full observable surface of one run under @p parallel. */
Surface
runSurface(bool idleSkip, sim::ParallelConfig parallel, const fs::path &dir)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.uncore.idleSkip = idleSkip;
    cfg.parallel = parallel;
    cfg.trace.enabled = true;
    platform::Prototype proto(cfg);
    proto.loadSourceReplicated(kWfiTimerSource);
    proto.runCores({0, 1, 2, 3}, 60'000);

    Surface out;
    std::ostringstream stats;
    proto.stats().dump(stats);
    out.stats = stats.str();
    std::ostringstream trace;
    obs::writeBinary(proto.tracer(), trace);
    out.trace = trace.str();
    std::string snap = (dir / "surface.smck").string();
    proto.checkpoint(snap);
    auto bytes = slurp(snap);
    out.snapshot.assign(bytes.begin(), bytes.end());
    return out;
}

TEST(IdleSkipIdentity, SequentialStatsTraceAndCheckpointMatchOff)
{
    // The default config: one worker at the lookahead quantum.
    fs::path dir = scratchDir("seq");
    Surface on = runSurface(true, {}, dir);
    Surface off = runSurface(false, {}, dir);
    EXPECT_FALSE(on.stats.empty());
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_EQ(on.trace == off.trace, true);
    EXPECT_EQ(on.snapshot == off.snapshot, true);
}

TEST(IdleSkipIdentity, PhasedStatsTraceAndCheckpointMatchOffAcrossWorkers)
{
    fs::path dir = scratchDir("phased");
    Surface ref = runSurface(true, {1, 63}, dir);
    EXPECT_FALSE(ref.stats.empty());
    EXPECT_FALSE(ref.trace.empty());
    EXPECT_FALSE(ref.snapshot.empty());
    for (bool idleSkip : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (idleSkip && threads == 1)
                continue; // The reference itself.
            Surface got = runSurface(idleSkip, {threads, 63}, dir);
            EXPECT_EQ(got.stats, ref.stats)
                << "idleSkip " << idleSkip << ", " << threads << " workers";
            EXPECT_EQ(got.trace == ref.trace, true)
                << "idleSkip " << idleSkip << ", " << threads << " workers";
            EXPECT_EQ(got.snapshot == ref.snapshot, true)
                << "idleSkip " << idleSkip << ", " << threads << " workers";
        }
    }
}

/** The skip must see the watchdog's deadline: a live node whose only
 *  core is parked commits nothing for whole stall windows, so report-
 *  mode stall verdicts fire at idle barriers — the exact barriers a
 *  naive skip would jump over. The verdict sequence (and so the stats
 *  dump) must be identical with the skip on or off. */
TEST(IdleSkipIdentity, WatchdogVerdictsMatchOff)
{
    auto dumpFor = [](bool idleSkip) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("2x1x2");
        cfg.uncore.idleSkip = idleSkip;
        cfg.parallel.threads = 2;
        cfg.parallel.quantum = 63;
        cfg.watchdog.stallCycles = 4000;
        cfg.watchdog.action = sim::WatchdogAction::kReport;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(kWfiTimerSource);
        proto.runCores({0, 1, 2, 3}, 60'000);
        std::ostringstream os;
        proto.stats().dump(os);
        return std::make_pair(
            os.str(),
            proto.stats().counterValue("watchdog.stallsDetected"));
    };
    auto on = dumpFor(true);
    auto off = dumpFor(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
    EXPECT_GT(on.second, 0u) << "workload never tripped the watchdog — "
                                "the deadline interaction went untested";
}

/** Periodic checkpoints land on interval marks the skip must not jump
 *  past: the mid-run checkpoint sets must be byte-identical on/off. */
TEST(IdleSkipIdentity, PeriodicCheckpointsMatchOff)
{
    auto checkpointsFor = [](bool idleSkip, const fs::path &dir) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("2x1x2");
        cfg.uncore.idleSkip = idleSkip;
        cfg.parallel.threads = 2;
        cfg.parallel.quantum = 63;
        cfg.snapshot.interval = 20'000;
        cfg.snapshot.dir = dir.string();
        cfg.snapshot.keep = 0;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(kWfiTimerSource);
        proto.runCores({0, 1, 2, 3}, 60'000);
        return snap::listCheckpoints(dir.string());
    };
    fs::path dir_on = scratchDir("snap_on");
    fs::path dir_off = scratchDir("snap_off");
    auto on = checkpointsFor(true, dir_on);
    auto off = checkpointsFor(false, dir_off);
    ASSERT_GE(on.size(), 2u) << "workload too short to checkpoint";
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
        EXPECT_EQ(fs::path(on[i]).filename(), fs::path(off[i]).filename());
        EXPECT_EQ(slurp(on[i]) == slurp(off[i]), true)
            << "checkpoint " << i << " diverged";
    }
}

/** A skip-on run's mid-run checkpoint restores into a skip-off
 *  prototype and the final states match byte for byte: the knob lives
 *  outside the checkpoint and outside the config fingerprint. */
TEST(IdleSkipIdentity, CheckpointsInterchangeBetweenOnAndOff)
{
    auto configFor = [](bool idleSkip, const std::string &dir) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("2x1x2");
        cfg.uncore.idleSkip = idleSkip;
        cfg.parallel.threads = 2;
        cfg.parallel.quantum = 63;
        cfg.snapshot.interval = 20'000;
        cfg.snapshot.dir = dir;
        cfg.snapshot.keep = 0;
        return cfg;
    };
    fs::path dir_a = scratchDir("interchange_a");
    fs::path dir_b = scratchDir("interchange_b");

    platform::Prototype a(configFor(true, dir_a.string()));
    a.loadSourceReplicated(kWfiTimerSource);
    a.runCores({0, 1, 2, 3}, 60'000);
    std::string final_a = (dir_a / "final.smck").string();
    a.checkpoint(final_a);

    auto mids = snap::listCheckpoints(dir_a.string());
    ASSERT_GE(mids.size(), 2u) << "workload too short to checkpoint";

    platform::Prototype b(configFor(false, dir_b.string()));
    b.loadSourceReplicated(kWfiTimerSource);
    b.restore(mids[mids.size() / 2]);
    b.runCores({0, 1, 2, 3}, 60'000);
    std::string final_b = (dir_b / "final.smck").string();
    b.checkpoint(final_b);

    EXPECT_EQ(slurp(final_a), slurp(final_b));
}

/** A run whose parked core has no wake source at all ends through the
 *  idle-epoch give-up; the skip collapses the idle barrier walk into
 *  one jump, and the observable surface must not notice. */
constexpr const char *kNoWakeSource = R"(
_start:
    csrr t0, 0xf14
    bnez t0, finish
    wfi                  # No timer, no handler: parked forever.
    j _start
finish:
    li a0, 0
    li a7, 93
    ecall
)";

TEST(IdleSkipIdentity, GiveUpAfterIdleBudgetMatchesOff)
{
    auto surfaceFor = [](bool idleSkip, const fs::path &dir) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("2x1x2");
        cfg.uncore.idleSkip = idleSkip;
        cfg.parallel.threads = 2;
        cfg.parallel.quantum = 63;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(kNoWakeSource);
        proto.runCores({0, 1, 2, 3}, 20'000);
        Surface out;
        std::ostringstream stats;
        proto.stats().dump(stats);
        out.stats = stats.str();
        std::string snap = (dir / "giveup.smck").string();
        proto.checkpoint(snap);
        auto bytes = slurp(snap);
        out.snapshot.assign(bytes.begin(), bytes.end());
        return out;
    };
    fs::path dir = scratchDir("giveup");
    Surface on = surfaceFor(true, dir);
    Surface off = surfaceFor(false, dir);
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_EQ(on.snapshot == off.snapshot, true);
}

} // namespace
} // namespace smappic
