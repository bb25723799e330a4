/**
 * @file
 * Tests of the checkpoint/restore subsystem (src/snap/) and the
 * watchdog-driven crash recovery built on it: SMCK container
 * round-trips and corruption detection, MainMemory page/epoch state,
 * worker-count-invariant checkpoint bytes, restore-and-resume equality
 * against an uninterrupted run, the Watchdog state machine, and the
 * wedged-node recovery path. Also covers the FaultPlan edge cases the
 * recovery machinery leans on (zero-rate and saturating-rate plans).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/torture.hpp"
#include "mem/main_memory.hpp"
#include "platform/prototype.hpp"
#include "sim/fault.hpp"
#include "sim/log.hpp"
#include "sim/watchdog.hpp"
#include "snap/snapshot.hpp"
#include "snap/state_io.hpp"

namespace smappic
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("snap_" + name);
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

// ---------------------------------------------------------------- SMCK

TEST(StateIo, PrimitiveRoundTrip)
{
    fs::path dir = scratchDir("prim");
    std::string path = (dir / "a.smck").string();
    {
        std::ofstream os(path, std::ios::binary);
        snap::Writer w(os);
        w.setConfigHash(0xdeadbeefcafef00dULL);
        w.begin(snap::Section::kMeta);
        w.u8(7);
        w.u16(300);
        w.u32(70'000);
        w.u64(1ULL << 40);
        w.f64(-2.5);
        w.boolean(true);
        w.str("hello");
        w.end();
        w.begin(snap::Section::kMemory);
        const std::uint8_t raw[4] = {1, 2, 3, 4};
        w.bytes(raw, sizeof raw);
        w.end();
        w.finish();
    }
    snap::Reader r(path);
    EXPECT_EQ(r.version(), snap::kSmckVersion);
    EXPECT_EQ(r.configHash(), 0xdeadbeefcafef00dULL);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_TRUE(r.has(snap::Section::kMeta));
    EXPECT_TRUE(r.has(snap::Section::kMemory));
    EXPECT_FALSE(r.has(snap::Section::kCores));

    r.open(snap::Section::kMeta);
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u16(), 300u);
    EXPECT_EQ(r.u32(), 70'000u);
    EXPECT_EQ(r.u64(), 1ULL << 40);
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.remaining(), 0u);

    r.open(snap::Section::kMemory);
    std::uint8_t raw[4] = {};
    r.bytes(raw, sizeof raw);
    EXPECT_EQ(raw[3], 4u);
}

TEST(StateIo, CorruptionIsDetected)
{
    fs::path dir = scratchDir("crc");
    std::string path = (dir / "a.smck").string();
    {
        std::ofstream os(path, std::ios::binary);
        snap::Writer w(os);
        w.begin(snap::Section::kMeta);
        for (int i = 0; i < 64; ++i)
            w.u64(static_cast<std::uint64_t>(i));
        w.end();
        w.finish();
    }
    // Flip one payload byte: open() must reject the section.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(0xa5));
    }
    snap::Reader r(path);
    EXPECT_THROW(r.open(snap::Section::kMeta), FatalError);

    // Truncation must fail header or section parsing, not crash.
    std::vector<std::uint8_t> bytes = slurp(path);
    std::string trunc = (dir / "t.smck").string();
    {
        std::ofstream os(trunc, std::ios::binary);
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(snap::Reader{trunc}, FatalError);
}

TEST(StateIo, ReadPastSectionEndThrows)
{
    fs::path dir = scratchDir("bounds");
    std::string path = (dir / "a.smck").string();
    {
        std::ofstream os(path, std::ios::binary);
        snap::Writer w(os);
        w.begin(snap::Section::kMeta);
        w.u32(1);
        w.end();
        w.finish();
    }
    snap::Reader r(path);
    r.open(snap::Section::kMeta);
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_THROW(r.u32(), FatalError);
}

TEST(Snapshot, FileNamingAndRetention)
{
    EXPECT_EQ(snap::checkpointFileName(5040), "smck-000000005040.smck");

    fs::path dir = scratchDir("retention");
    for (Cycles c : {100, 200, 300, 400}) {
        std::ofstream os(dir / snap::checkpointFileName(c),
                         std::ios::binary);
        os << "x";
    }
    EXPECT_EQ(snap::listCheckpoints(dir.string()).size(), 4u);
    EXPECT_EQ(fs::path(snap::latestCheckpoint(dir.string())).filename(),
              snap::checkpointFileName(400));

    snap::pruneCheckpoints(dir.string(), 2);
    auto left = snap::listCheckpoints(dir.string());
    ASSERT_EQ(left.size(), 2u);
    EXPECT_EQ(fs::path(left.front()).filename(),
              snap::checkpointFileName(300));

    snap::pruneCheckpoints(dir.string(), 0); // 0 keeps everything.
    EXPECT_EQ(snap::listCheckpoints(dir.string()).size(), 2u);
}

// -------------------------------------------------------- MainMemory

TEST(MainMemorySnap, RoundTripAndDirtyEpochs)
{
    mem::MainMemory a;
    a.store(0x1000, 8, 0x1122334455667788ULL);
    a.store(0x40'0000, 8, 7);
    EXPECT_EQ(a.pagesDirtySince(0), 2u);

    std::uint64_t epoch = a.beginEpoch();
    EXPECT_EQ(a.pagesDirtySince(epoch), 0u);
    a.store(0x1008, 8, 9); // Same page as 0x1000: re-dirties it.
    EXPECT_EQ(a.pagesDirtySince(epoch), 1u);
    EXPECT_EQ(a.pagesDirtySince(0), 2u);

    fs::path dir = scratchDir("mem");
    std::string path = (dir / "m.smck").string();
    {
        std::ofstream os(path, std::ios::binary);
        snap::Writer w(os);
        w.begin(snap::Section::kMemory);
        a.saveState(w);
        w.end();
        w.finish();
    }

    mem::MainMemory b;
    b.store(0x9000, 8, 42); // Must vanish on restore.
    snap::Reader r(path);
    r.open(snap::Section::kMemory);
    b.restoreState(r);
    EXPECT_EQ(b.load(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(b.load(0x1008, 8), 9u);
    EXPECT_EQ(b.load(0x40'0000, 8), 7u);
    EXPECT_EQ(b.load(0x9000, 8), 0u);
}

// ------------------------------------------------ platform checkpoints

platform::PrototypeConfig
tortureProtoConfig(std::uint32_t threads, Cycles interval,
                   const std::string &dir)
{
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse("2x1x2");
    cfg.seed = 11;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    cfg.snapshot.interval = interval;
    cfg.snapshot.dir = dir;
    cfg.snapshot.keep = 0; // Keep everything: the tests diff the sets.
    return cfg;
}

check::TortureProgram
tortureWorkload()
{
    check::TortureConfig tcfg;
    tcfg.platform = platform::PrototypeConfig::parse("2x1x2");
    tcfg.seed = 11;
    tcfg.opsPerCore = 48;
    tcfg.sharedLines = 4;
    return check::generateTorture(tcfg);
}

void
runWorkload(platform::Prototype &proto)
{
    std::vector<GlobalTileId> gids;
    for (std::uint32_t c = 0; c < proto.coreCount(); ++c)
        gids.push_back(c);
    proto.runCores(gids, 100'000);
}

TEST(PlatformSnap, CheckpointsAreWorkerCountInvariant)
{
    std::vector<std::string> dirs;
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        fs::path dir =
            scratchDir("workers" + std::to_string(threads));
        platform::Prototype proto(
            tortureProtoConfig(threads, 4000, dir.string()));
        proto.loadSource(tortureWorkload().source);
        runWorkload(proto);
        dirs.push_back(dir.string());
    }
    auto ref = snap::listCheckpoints(dirs[0]);
    ASSERT_GE(ref.size(), 2u) << "workload too short to checkpoint";
    for (std::size_t d = 1; d < dirs.size(); ++d) {
        auto got = snap::listCheckpoints(dirs[d]);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(fs::path(ref[i]).filename(),
                      fs::path(got[i]).filename());
            EXPECT_EQ(slurp(ref[i]), slurp(got[i]))
                << ref[i] << " vs " << got[i];
        }
    }
}

TEST(PlatformSnap, RestoreAndResumeMatchesUninterruptedRun)
{
    fs::path dir_a = scratchDir("resume_a");
    fs::path dir_b = scratchDir("resume_b");
    check::TortureProgram prog = tortureWorkload();

    // Reference: uninterrupted run, then a final explicit checkpoint
    // capturing cores + memory + caches + stats in one comparable blob.
    platform::Prototype a(tortureProtoConfig(2, 4000, dir_a.string()));
    a.loadSource(prog.source);
    runWorkload(a);
    std::string final_a = (dir_a / "final.smck").string();
    a.checkpoint(final_a);

    auto mids = snap::listCheckpoints(dir_a.string());
    ASSERT_GE(mids.size(), 2u);

    // Resume from a mid-run checkpoint in a fresh prototype; worker
    // count deliberately differs from the writer's.
    platform::Prototype b(tortureProtoConfig(4, 4000, dir_b.string()));
    b.loadSource(prog.source);
    b.restore(mids[mids.size() / 2]);
    runWorkload(b);
    std::string final_b = (dir_b / "final.smck").string();
    b.checkpoint(final_b);

    EXPECT_EQ(slurp(final_a), slurp(final_b));
    EXPECT_EQ(b.eventQueue().now(), a.eventQueue().now());
    EXPECT_EQ(b.stats().counter("snap.checkpoints").value(),
              a.stats().counter("snap.checkpoints").value());
}

/** A run resumed from a checkpoint taken after some of its cores
 *  finished reports why each of them stopped, as the uninterrupted run
 *  does: hart 0 exits and hart 1 hits an ebreak early, harts 2 and 3
 *  spin past the last checkpoint and exit. */
TEST(PlatformSnap, ResumedRunReportsHaltReasonsOfCoresDoneBeforeIt)
{
    const std::string source = R"(
_start:
    csrr t0, 0xf14
    beqz t0, quit
    li t1, 1
    beq t0, t1, brk
    li t2, 5000
spin:
    addi t2, t2, -1
    bnez t2, spin
    li a0, 7
    li a7, 93
    ecall
quit:
    li a0, 5
    li a7, 93
    ecall
brk:
    ebreak
)";
    const std::vector<GlobalTileId> all = {0, 1, 2, 3};
    const std::vector<riscv::HaltReason> expected = {
        riscv::HaltReason::kExited, riscv::HaltReason::kEbreak,
        riscv::HaltReason::kExited, riscv::HaltReason::kExited};

    fs::path dir_a = scratchDir("halts_a");
    platform::Prototype a(tortureProtoConfig(1, 2000, dir_a.string()));
    a.loadSource(source);
    EXPECT_EQ(a.runCores(all), expected);
    auto mids = snap::listCheckpoints(dir_a.string());
    ASSERT_GE(mids.size(), 2u);

    fs::path dir_b = scratchDir("halts_b");
    platform::Prototype b(tortureProtoConfig(1, 2000, dir_b.string()));
    b.loadSource(source);
    b.restore(mids.back());
    EXPECT_TRUE(b.core(0).exited());
    EXPECT_FALSE(b.core(2).exited());
    EXPECT_EQ(b.runCores(all), expected);
    EXPECT_EQ(b.core(0).exitCode(), 5);
    EXPECT_EQ(b.core(2).exitCode(), 7);
}

TEST(PlatformSnap, RestoreRejectsMismatchedConfig)
{
    fs::path dir = scratchDir("mismatch");
    platform::Prototype a(tortureProtoConfig(1, 0, dir.string()));
    a.loadSource(tortureWorkload().source);
    std::string path = (dir / "a.smck").string();
    a.checkpoint(path);

    platform::PrototypeConfig other =
        tortureProtoConfig(1, 0, dir.string());
    other.seed = 99; // Different seed -> different fingerprint.
    platform::Prototype b(other);
    EXPECT_THROW(b.restore(path), FatalError);

    snap::SnapshotInfo info = snap::inspect(path);
    EXPECT_EQ(info.configName, "2x1x2");
    EXPECT_EQ(info.nodes, 2u);
    EXPECT_EQ(info.tilesPerNode, 2u);
    std::string error;
    EXPECT_TRUE(snap::validate(path, &error)) << error;
    EXPECT_TRUE(snap::diff(path, path).empty());
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, PrimesThenFiresOnFlatCommits)
{
    sim::StatRegistry stats;
    sim::WatchdogConfig cfg;
    cfg.stallCycles = 100;
    sim::Watchdog wd(cfg, 2, &stats);

    std::vector<std::uint64_t> committed{10, 10};
    std::vector<bool> live{true, true};

    // First observation primes; it can never fire.
    EXPECT_FALSE(wd.observe(1000, committed, live).stallDetected);
    // Progress on node 0 only; node 1 flat but under threshold.
    committed[0] = 20;
    EXPECT_FALSE(wd.observe(1050, committed, live).stallDetected);
    // Node 1 crosses the threshold, node 0 keeps committing.
    committed[0] = 30;
    auto v = wd.observe(1150, committed, live);
    ASSERT_TRUE(v.stallDetected);
    ASSERT_EQ(v.stalledNodes.size(), 1u);
    EXPECT_EQ(v.stalledNodes[0], 1u);
    EXPECT_EQ(wd.stallsDetected(), 1u);
    EXPECT_EQ(stats.counter("watchdog.stallsDetected").value(), 1u);

    // The firing rebased node 1's mark: no immediate re-fire.
    EXPECT_FALSE(wd.observe(1200, committed, live).stallDetected);
    // ...but another full window of silence fires again.
    EXPECT_TRUE(wd.observe(1260, committed, live).stallDetected);
}

TEST(Watchdog, DoneNodesAndDisabledConfigNeverStall)
{
    sim::StatRegistry stats;
    sim::WatchdogConfig off; // stallCycles = 0.
    sim::Watchdog disabled(off, 1, &stats);
    std::vector<std::uint64_t> committed{5};
    std::vector<bool> live{true};
    EXPECT_FALSE(disabled.observe(1'000'000, committed, live)
                     .stallDetected);

    sim::WatchdogConfig cfg;
    cfg.stallCycles = 10;
    sim::Watchdog wd(cfg, 1, &stats);
    live[0] = false; // Node finished: flat commits are fine forever.
    wd.observe(0, committed, live);
    EXPECT_FALSE(wd.observe(1'000'000, committed, live).stallDetected);

    // rebase() forgets the marks: the next observe re-primes.
    live[0] = true;
    wd.rebase();
    EXPECT_FALSE(wd.observe(2'000'000, committed, live).stallDetected);
}

platform::PrototypeConfig
wedgedConfig(const std::string &dir, sim::WatchdogAction action)
{
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse("2x1x2");
    cfg.seed = 11;
    cfg.parallel.threads = 2;
    cfg.parallel.quantum = 63;
    cfg.snapshot.interval = 1000;
    cfg.snapshot.dir = dir;
    cfg.snapshot.keep = 2;
    // Commits arrive in ~100-instruction bursts whose spacing is set by
    // miss latency; the threshold must exceed the burst period or a
    // healthy node trips it.
    cfg.watchdog.stallCycles = 8000;
    cfg.watchdog.action = action;
    sim::FaultRule rule;
    rule.site = "node.wedge.node1";
    rule.kind = sim::FaultKind::kDrop;
    rule.probability = 1.0;
    rule.firstEvent = 30; // Wedge node 1 at its 31st barrier.
    cfg.faultPlan.seed = 11;
    cfg.faultPlan.add(rule);
    return cfg;
}

TEST(WatchdogRecovery, WedgedNodeRollsBackAndCompletes)
{
    fs::path dir = scratchDir("recover");
    platform::Prototype proto(
        wedgedConfig(dir.string(), sim::WatchdogAction::kRecover));
    check::TortureProgram prog = tortureWorkload();
    proto.loadSource(prog.source);
    runWorkload(proto);

    // The wedge fired, the watchdog saw it, and recovery rolled the run
    // back far enough to finish the workload anyway.
    EXPECT_EQ(proto.stats().counter("fault.nodeWedge").value(), 1u);
    EXPECT_GE(proto.stats().counter("watchdog.stallsDetected").value(),
              1u);
    EXPECT_GE(proto.stats().counter("watchdog.recoveries").value(), 1u);

    // Completion check: every core ran to the same exit a clean
    // (wedge-free) run reaches.
    platform::Prototype clean(tortureProtoConfig(2, 0, dir.string()));
    clean.loadSource(prog.source);
    runWorkload(clean);
    for (std::uint32_t c = 0; c < proto.coreCount(); ++c)
        EXPECT_EQ(proto.core(c).exitCode(), clean.core(c).exitCode())
            << "core " << c;
}

TEST(WatchdogRecovery, ReportActionOnlyCounts)
{
    fs::path dir = scratchDir("report");
    platform::Prototype proto(
        wedgedConfig(dir.string(), sim::WatchdogAction::kReport));
    proto.loadSource(tortureWorkload().source);
    runWorkload(proto); // Must terminate via the idle-epoch limit.
    EXPECT_GE(proto.stats().counter("watchdog.stallsDetected").value(),
              1u);
    EXPECT_EQ(proto.stats().counter("watchdog.recoveries").value(), 0u);
}

TEST(WatchdogRecovery, PanicActionThrows)
{
    fs::path dir = scratchDir("panic");
    platform::Prototype proto(
        wedgedConfig(dir.string(), sim::WatchdogAction::kPanic));
    proto.loadSource(tortureWorkload().source);
    EXPECT_THROW(runWorkload(proto), PanicError);
}

// ------------------------------------------------- FaultPlan edge cases

/** The torture workload's cycles and stats dump on a prototype built
 *  from @p cfg. */
std::pair<Cycles, std::string>
tortureRun(const platform::PrototypeConfig &cfg)
{
    platform::Prototype proto(cfg);
    proto.loadSource(tortureWorkload().source);
    runWorkload(proto);
    Cycles cycles = 0;
    for (std::uint32_t c = 0; c < proto.coreCount(); ++c) {
        EXPECT_TRUE(proto.core(c).exited()) << "core " << c;
        cycles = std::max(cycles, proto.core(c).cycles());
    }
    if (const sim::FaultInjector *fi = proto.faultInjector()) {
        // Sites are consulted but nothing ever fires.
        EXPECT_GT(fi->siteEvents("bridge.tx"), 0u);
        EXPECT_EQ(fi->dropsInjected() + fi->corruptionsInjected() +
                      fi->delaysInjected() + fi->slvErrsInjected(),
                  0u);
    }
    std::ostringstream os;
    proto.stats().dump(os);
    std::istringstream lines(os.str());
    std::string kept;
    for (std::string line; std::getline(lines, line);) {
        if (!line.starts_with("fault."))
            kept += line + "\n";
    }
    return {cycles, kept};
}

TEST(FaultPlanEdges, ZeroRatePlanInjectsNothing)
{
    // A plan full of zero-probability rules must behave exactly like no
    // plan on coherence traffic that crosses nodes: same cycles, same
    // stats outside fault.*.
    platform::PrototypeConfig cfg = tortureProtoConfig(1, 0, "");
    cfg.reliability.enabled = true;
    auto [clean_cycles, clean_stats] = tortureRun(cfg);

    cfg.faultPlan.seed = 11;
    cfg.faultPlan.corrupt("bridge.tx", 0.0);
    cfg.faultPlan.drop("bridge.tx", 0.0);
    cfg.faultPlan.delay("bridge.tx", 0.0, 100);
    cfg.faultPlan.drop("pcie.write", 0.0);
    cfg.faultPlan.drop("node.wedge", 0.0);
    auto [cycles, stats] = tortureRun(cfg);

    EXPECT_GT(clean_cycles, 0u);
    EXPECT_EQ(cycles, clean_cycles);
    EXPECT_EQ(stats, clean_stats);
    EXPECT_NE(stats.find("cs.bridge.crossings"), std::string::npos);
    EXPECT_EQ(stats.find("bridge.retransmits"), std::string::npos);
}

TEST(FaultPlanEdges, SaturatingDropsDegradeDeterministically)
{
    // Every crossing of a reliable link dropped, forever: the first
    // crossing exhausts its replays and the run panics at the same
    // point, with the same stats, at any worker count.
    std::string dumps[2];
    for (std::uint32_t threads : {1u, 2u}) {
        platform::PrototypeConfig cfg = tortureProtoConfig(threads, 0, "");
        cfg.reliability.enabled = true;
        cfg.reliability.maxRetries = 4;
        cfg.faultPlan.seed = 11;
        cfg.faultPlan.drop("bridge.tx", 1.0);
        platform::Prototype proto(cfg);
        proto.loadSource(tortureWorkload().source);
        EXPECT_THROW(runWorkload(proto), PanicError);

        // The first copy and its 4 replays were all lost.
        EXPECT_EQ(proto.faultInjector()->dropsInjected(), 5u);
        EXPECT_EQ(proto.stats().counterValue("bridge.retransmits"), 4u);
        std::ostringstream os;
        proto.stats().dump(os);
        dumps[threads - 1] = os.str();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

} // namespace
} // namespace smappic
