/**
 * @file
 * L1D fast-path tests: side-effect parity of MemPort::loadFastHit /
 * storeFastHit against the full CoherentSystem::access() walk. The
 * fast path must be observably invisible — stats, traces and SMCK
 * checkpoints byte-identical with the fast path on or off at 1/2/4
 * workers — including the
 * bail-heavy regimes where the audit looked for double side effects:
 * shared-line bounces (the fast path attempts and bails mid-run),
 * armed test mutations and attached coherence observers (the fast path
 * must not engage at all). Also pins the per-run batching of the core's
 * and the port's counters across mid-chunk yields, and the port's page
 * handle across loader, DMA and restore() writes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cache/coherent_system.hpp"
#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"
#include "sim/log.hpp"
#include "snap/snapshot.hpp"

namespace smappic
{
namespace
{

namespace fs = std::filesystem;

fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("l1dfp_" + name);
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

/** Private-line streaming plus a shared-line RMW every iteration: the
 *  private slots keep the fast path engaged (steady-state L1D/BPC-M
 *  hits) while the shared line bounces between harts, forcing the fast
 *  path to attempt and bail around every recall. All access widths are
 *  naturally aligned; sub-dword widths (lb/lh/lw, sb/sh/sw) keep the
 *  width plumbing honest. */
constexpr const char *kShareMixSource = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 3
    slli t1, t0, 7       # 128-byte private stride per hart
    la t6, buf
    add t6, t6, t1
    la a5, shared
    li t2, 0
loop:
    ld t3, 0(t6)
    add t3, t3, t2
    sd t3, 0(t6)
    lw t4, 8(t6)
    addw t4, t4, t3
    sw t4, 8(t6)
    lh t5, 12(t6)
    sh t5, 12(t6)
    lb a1, 14(t6)
    sb a1, 14(t6)
    ld a2, 0(a5)         # shared-line bounce
    add a2, a2, t3
    sd a2, 0(a5)
    addi t2, t2, 1
    j loop

.data
.align 7
buf:    .dword 1
        .dword 2
        .dword 3
        .dword 4
.align 7
        .dword 5
        .dword 6
        .dword 7
        .dword 8
.align 7
        .dword 9
        .dword 10
        .dword 11
        .dword 12
.align 7
        .dword 13
        .dword 14
        .dword 15
        .dword 16
.align 7
shared: .dword 100
)";

platform::PrototypeConfig
mixConfig(bool fastPath, std::uint32_t threads)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.core.dataFastPath = fastPath;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    return cfg;
}

struct Surface
{
    std::string stats;
    std::string trace;
    std::string snapshot;
};

Surface
runSurface(bool fastPath, std::uint32_t threads, const fs::path &dir)
{
    platform::PrototypeConfig cfg = mixConfig(fastPath, threads);
    cfg.trace.enabled = true;
    platform::Prototype proto(cfg);
    proto.loadSourceReplicated(kShareMixSource);
    proto.runCores({0, 1, 2, 3}, 20'000);

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

TEST(L1dFastPathIdentity, StatsTraceAndCheckpointMatchOffAcrossWorkers)
{
    fs::path dir = scratchDir("surface");
    Surface ref = runSurface(true, 1, dir);
    EXPECT_FALSE(ref.stats.empty());
    EXPECT_FALSE(ref.trace.empty());
    EXPECT_FALSE(ref.snapshot.empty());
    for (bool fastPath : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (fastPath && threads == 1)
                continue; // The reference itself.
            Surface got = runSurface(fastPath, threads, dir);
            EXPECT_EQ(got.stats, ref.stats)
                << "fastpath " << fastPath << ", " << threads << " workers";
            EXPECT_EQ(got.trace == ref.trace, true)
                << "fastpath " << fastPath << ", " << threads << " workers";
            EXPECT_EQ(got.snapshot == ref.snapshot, true)
                << "fastpath " << fastPath << ", " << threads << " workers";
        }
    }
}

platform::PrototypeConfig
resumeConfig(bool fastPath, const std::string &dir)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.core.dataFastPath = fastPath;
    cfg.parallel.threads = 2;
    cfg.parallel.quantum = 63;
    cfg.snapshot.interval = 4000;
    cfg.snapshot.dir = dir;
    cfg.snapshot.keep = 0;
    return cfg;
}

TEST(L1dFastPathIdentity, CheckpointsInterchangeBetweenOnAndOff)
{
    // A fast-path-on run's mid-run checkpoint restores into a
    // fast-path-off prototype (and the final states match byte for
    // byte): the fast path is pure replay of the hit path, outside the
    // checkpoint and outside the config fingerprint.
    fs::path dir_a = scratchDir("interchange_a");
    fs::path dir_b = scratchDir("interchange_b");

    platform::Prototype a(resumeConfig(true, dir_a.string()));
    a.loadSourceReplicated(kShareMixSource);
    a.runCores({0, 1, 2, 3}, 30'000);
    std::string final_a = (dir_a / "final.smck").string();
    a.checkpoint(final_a);

    auto mids = snap::listCheckpoints(dir_a.string());
    ASSERT_GE(mids.size(), 2u) << "workload too short to checkpoint";

    platform::Prototype b(resumeConfig(false, dir_b.string()));
    b.loadSourceReplicated(kShareMixSource);
    b.restore(mids[mids.size() / 2]);
    b.runCores({0, 1, 2, 3}, 30'000);
    std::string final_b = (dir_b / "final.smck").string();
    b.checkpoint(final_b);

    EXPECT_EQ(slurp(final_a), slurp(final_b));
}

// ------------------------------------------ bail-parity (audit pins)

/** Audit pin: a bailing fast-path attempt must leave no side effect
 *  behind before the slow path re-runs the same access. The shared
 *  line bounces between harts, so store attempts bail on every
 *  post-recall iteration; any LRU touch or counter bump leaked by a
 *  failed attempt would shift the stats dump. */
TEST(L1dFastPathBail, SharedLineBounceStatsMatchOff)
{
    auto dumpFor = [](bool fastPath) {
        platform::Prototype proto(mixConfig(fastPath, 1));
        proto.loadSourceReplicated(kShareMixSource);
        proto.runCores({0, 1, 2, 3}, 40'000);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    EXPECT_EQ(dumpFor(true), dumpFor(false));
}

/** Audit pin: an armed TestMutation must force every access down the
 *  slow path (the stale-copy bookkeeping lives there), and the armed
 *  runs must be stats-identical with the fast path on or off. */
TEST(L1dFastPathBail, ArmedMutationStatsMatchOff)
{
    auto runFor = [](bool fastPath) {
        platform::Prototype proto(mixConfig(fastPath, 1));
        riscv::Program prog = proto.loadSourceReplicated(kShareMixSource);
        Addr shared = 0;
        for (const auto &sym : prog.symbols) {
            if (sym.first == "shared")
                shared = sym.second;
        }
        EXPECT_NE(shared, 0u);
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation, shared);
        proto.runCores({0, 1, 2, 3}, 40'000);
        std::ostringstream os;
        proto.stats().dump(os);
        return std::make_pair(os.str(),
                              proto.memorySystem().staleCopyActive());
    };
    auto on = runFor(true);
    auto off = runFor(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

/** Audit pin: with a coherence checker attached the fast path must not
 *  engage (observers contract to see full transitions), and the run
 *  stays stats-identical and violation-free either way. */
TEST(L1dFastPathBail, AttachedCheckerStatsMatchOff)
{
    auto runFor = [](bool fastPath) {
        platform::PrototypeConfig cfg = mixConfig(fastPath, 1);
        cfg.check.enabled = true;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(kShareMixSource);
        proto.runCores({0, 1, 2, 3}, 40'000);
        EXPECT_EQ(proto.checker()->violations().size(), 0u);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    EXPECT_EQ(runFor(true), runFor(false));
}

/** Direct unit probe of the bail contract: a missing line returns
 *  false having mutated nothing — the subsequent access() must behave
 *  exactly as on a system that never saw the fast-path attempt. */
TEST(L1dFastPathUnit, FailedAttemptLeavesNoTrace)
{
    auto build = [] {
        cache::Geometry geo;
        geo.nodes = 1;
        geo.tilesPerNode = 2;
        geo.dramBase = 0x8000'0000;
        geo.memPerNode = 1ull << 20;
        geo.llcSliceBytes = 1ull << 16;
        return geo;
    };
    sim::StatRegistry stats_a;
    sim::StatRegistry stats_b;
    cache::TimingParams timing;
    cache::CoherentSystem a(build(), timing,
                            cache::HomingPolicy::kAddressNode, &stats_a);
    cache::CoherentSystem b(build(), timing,
                            cache::HomingPolicy::kAddressNode, &stats_b);

    // `a` suffers a barrage of failed fast-path attempts, `b` none.
    Cycles lat = 0;
    for (int i = 0; i < 16; ++i) {
        EXPECT_FALSE(a.loadFastHit(0, 0x8000'0000, lat));
        EXPECT_FALSE(a.storeFastHit(0, 0x8000'0000, lat));
    }

    // Identical access sequences from here on must produce identical
    // timing and identical stats on both systems.
    for (cache::AccessType t :
         {cache::AccessType::kLoad, cache::AccessType::kStore,
          cache::AccessType::kLoad}) {
        auto ra = a.access(0, 0x8000'0000, t, 8, 100);
        auto rb = b.access(0, 0x8000'0000, t, 8, 100);
        EXPECT_EQ(ra.latency, rb.latency);
    }
    std::ostringstream da;
    std::ostringstream db;
    stats_a.dump(da);
    stats_b.dump(db);
    EXPECT_EQ(da.str(), db.str());

    // And a successful fast hit replays the slow hit exactly.
    Cycles fast_lat = 0;
    ASSERT_TRUE(a.loadFastHit(0, 0x8000'0000, fast_lat));
    auto slow = b.access(0, 0x8000'0000, cache::AccessType::kLoad, 8, 200);
    EXPECT_EQ(fast_lat, slow.latency);
    ASSERT_TRUE(a.storeFastHit(0, 0x8000'0000, fast_lat));
    auto slow_st =
        b.access(0, 0x8000'0000, cache::AccessType::kStore, 8, 300);
    EXPECT_EQ(fast_lat, slow_st.latency);
    // The fast hits count through the caller, as a core's port does at
    // the end of each run().
    a.addFastHits(1, 1);
    std::ostringstream da2;
    std::ostringstream db2;
    stats_a.dump(da2);
    stats_b.dump(db2);
    EXPECT_EQ(da2.str(), db2.str());
}

// ------------------------------------------- per-run counter batching

/** Private-line fast hits with a CLINT load every eighth iteration: on
 *  a 2x1x2 prototype every node phase is confined, so each CLINT load
 *  yields in the middle of a 100-instruction chunk, after fast hits the
 *  core and its port have batched but not yet flushed. */
constexpr const char *kYieldMixSource = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 1
    slli t0, t0, 7       # 128-byte private stride per hart
    la t6, buf
    add t6, t6, t0
    li t5, 0x0200bff8    # CLINT mtime
    li t2, 0
loop:
    ld t3, 0(t6)
    addi t3, t3, 1
    sd t3, 0(t6)
    lw t4, 8(t6)
    addi t2, t2, 1
    andi t1, t2, 7
    bnez t1, loop
    ld a1, 0(t5)         # device access: a confined phase yields here
    j loop

.data
.align 7
buf:    .dword 1
        .dword 2
.align 7
        .dword 3
        .dword 4
)";

TEST(L1dFastPathBatching, MidChunkYieldsFlushTheRunsCounts)
{
    // The counts step() and the port batch reach the node's shard when
    // run() unwinds at the yield; the re-run at the barrier counts its
    // own. Fast paths off, nothing is batched in the port and every hit
    // counts through access().
    auto runFor = [](bool fast, std::uint32_t threads) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("2x1x2");
        cfg.core.dataFastPath = fast;
        cfg.core.decodeCache.enabled = fast;
        cfg.parallel.threads = threads;
        cfg.parallel.quantum = 63;
        platform::Prototype proto(cfg);
        proto.loadSourceReplicated(kYieldMixSource);
        proto.runCores({0, 1, 2, 3}, 20'000);
        EXPECT_GT(proto.stats().counterValue("platform.phaseYields"), 0u);
        std::uint64_t instret = 0;
        for (GlobalTileId g = 0; g < 4; ++g)
            instret += proto.core(g).instret();
        EXPECT_EQ(proto.stats().counterValue("core.instret"), instret)
            << "fast " << fast << ", " << threads << " workers";
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    std::string off = runFor(false, 1);
    EXPECT_EQ(runFor(true, 1), off);
    EXPECT_EQ(runFor(true, 2), off);
}

// ------------------------------------------------- port page handle

/** Hart 0 streams a word of its data page, hart 1 one of node 0's SD
 *  region; each stores back to the same page, which keeps the page's
 *  write stamp wired so the port's page handle engages. */
std::string
pageLoopSource(Addr sd_word)
{
    return strfmt(R"(
_start:
    csrr t0, 0xf14
    la t6, buf
    beqz t0, loop
    li t6, 0x%llx
loop:
    ld a0, 0(t6)
    sd a0, 8(t6)
    j loop

.data
.align 7
buf:    .dword 0x1111
        .dword 0
)",
                  static_cast<unsigned long long>(sd_word));
}

TEST(L1dFastPathPageHandle, LoadsSeeLoaderDmaAndRestoreWrites)
{
    fs::path dir = scratchDir("page_handle");
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("1x1x2");
    platform::Prototype proto(cfg);
    Addr sd_word = proto.sdCard(0).regionBase();
    riscv::Program prog = proto.loadSource(pageLoopSource(sd_word));
    Addr buf = 0;
    for (const auto &sym : prog.symbols) {
        if (sym.first == "buf")
            buf = sym.second;
    }
    ASSERT_NE(buf, 0u);

    proto.runCores({0, 1}, 2'000);
    EXPECT_EQ(proto.core(0).reg(10), 0x1111u);
    EXPECT_EQ(proto.core(1).reg(10), 0u);
    std::string snap = (dir / "before.smck").string();
    proto.checkpoint(snap);

    // A loader write to hart 0's page and an SD-card (DMA) block write
    // to hart 1's, while both lines stay in the L1Ds.
    std::uint64_t loaded = 0x2222;
    proto.memory().writeBytes(buf, &loaded, sizeof(loaded));
    std::vector<std::uint8_t> block(512, 0);
    block[0] = 0x33;
    block[1] = 0x33;
    proto.sdCard(0).writeBlock(0, block);
    proto.runCores({0, 1}, 2'000);
    EXPECT_EQ(proto.core(0).reg(10), 0x2222u);
    EXPECT_EQ(proto.core(1).reg(10), 0x3333u);

    // restore() replaces every page: the handles taken above must not
    // serve the old image.
    proto.restore(snap);
    proto.core(0).setReg(10, 0xdead);
    proto.core(1).setReg(10, 0xdead);
    proto.runCores({0, 1}, 2'000);
    EXPECT_EQ(proto.core(0).reg(10), 0x1111u);
    EXPECT_EQ(proto.core(1).reg(10), 0u);
}

} // namespace
} // namespace smappic
