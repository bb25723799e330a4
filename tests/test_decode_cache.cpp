/**
 * @file
 * Decode-cache tests: the DecodeCache container itself (fill / find /
 * flush / write-stamp invalidation), self-modifying-code correctness
 * through a hart's own store port and through a second hart over the
 * coherent path — at 1/2/4 workers — and the observability contract:
 * stats, traces and SMCK checkpoints are byte-identical with the cache
 * on or off, checkpoints interchange freely between on and off, and
 * restore leaves no stale decoded state behind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"
#include "riscv/decode_cache.hpp"
#include "riscv/isa.hpp"
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
    fs::path dir = fs::path(::testing::TempDir()) / ("dcache_" + name);
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

// ------------------------------------------------------- the container

constexpr std::uint32_t kAddiWord = 0x00138393; // addi t2, t2, 1

riscv::DecodeCache
makeCache(std::uint32_t sets = 16)
{
    riscv::DecodeCacheConfig cfg;
    cfg.sets = sets;
    return riscv::DecodeCache(cfg);
}

TEST(DecodeCacheUnit, FillFindAndStats)
{
    std::atomic<std::uint64_t> stamp{7};
    riscv::DecodeCache dc = makeCache();
    riscv::CodeRef ref{&stamp, stamp.load()};
    dc.fill(0x8000'0000, kAddiWord, riscv::decode(kAddiWord), ref);
    EXPECT_EQ(dc.stats().fills, 1u);

    const riscv::DecodeCache::Entry *e = dc.find(0x8000'0000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->word, kAddiWord);
    dc.countHit();
    EXPECT_EQ(dc.stats().hits, 1u);

    // A different pc in a different set is a plain miss.
    EXPECT_EQ(dc.find(0x8000'0004), nullptr);
    EXPECT_EQ(dc.stats().misses, 1u);
}

TEST(DecodeCacheUnit, StampBumpInvalidates)
{
    std::atomic<std::uint64_t> stamp{0};
    riscv::DecodeCache dc = makeCache();
    riscv::CodeRef ref{&stamp, stamp.load()};
    dc.fill(0x1000, kAddiWord, riscv::decode(kAddiWord), ref);
    ASSERT_NE(dc.find(0x1000), nullptr);

    // The owning page was written: the entry must die on next lookup.
    stamp.fetch_add(1, std::memory_order_release);
    EXPECT_EQ(dc.find(0x1000), nullptr);
    EXPECT_EQ(dc.stats().invalidations, 1u);

    // Refilled with the fresh stamp value it is live again.
    dc.fill(0x1000, kAddiWord, riscv::decode(kAddiWord),
            riscv::CodeRef{&stamp, stamp.load()});
    EXPECT_NE(dc.find(0x1000), nullptr);
}

TEST(DecodeCacheUnit, FlushInvalidatesEverything)
{
    std::atomic<std::uint64_t> stamp{0};
    riscv::DecodeCache dc = makeCache();
    riscv::CodeRef ref{&stamp, stamp.load()};
    for (Addr pc = 0x1000; pc < 0x1040; pc += 4)
        dc.fill(pc, kAddiWord, riscv::decode(kAddiWord), ref);
    ASSERT_NE(dc.find(0x1000), nullptr);

    dc.flush();
    EXPECT_EQ(dc.stats().flushes, 1u);
    for (Addr pc = 0x1000; pc < 0x1040; pc += 4)
        EXPECT_EQ(dc.find(pc), nullptr) << std::hex << pc;
}

TEST(DecodeCacheUnit, NullStampRefIsNeverCached)
{
    riscv::DecodeCache dc = makeCache();
    dc.fill(0x1000, kAddiWord, riscv::decode(kAddiWord), riscv::CodeRef{});
    EXPECT_EQ(dc.find(0x1000), nullptr);
    EXPECT_EQ(dc.stats().fills, 0u);
}

TEST(DecodeCacheUnit, DisabledCacheIsInert)
{
    std::atomic<std::uint64_t> stamp{0};
    riscv::DecodeCacheConfig cfg;
    cfg.enabled = false;
    riscv::DecodeCache dc(cfg);
    EXPECT_FALSE(dc.enabled());
    dc.fill(0x1000, kAddiWord, riscv::decode(kAddiWord),
            riscv::CodeRef{&stamp, stamp.load()});
    EXPECT_EQ(dc.find(0x1000), nullptr);
    EXPECT_EQ(dc.stats().fills, 0u);
}

TEST(DecodeCacheUnit, ConflictingPcEvictsTheOldEntry)
{
    std::atomic<std::uint64_t> stamp{0};
    riscv::DecodeCache dc = makeCache(16);
    riscv::CodeRef ref{&stamp, stamp.load()};
    const Addr a = 0x1000;
    const Addr b = a + 16 * 4; // Same set, different tag.
    dc.fill(a, kAddiWord, riscv::decode(kAddiWord), ref);
    dc.fill(b, kAddiWord, riscv::decode(kAddiWord), ref);
    EXPECT_NE(dc.find(b), nullptr);
    EXPECT_EQ(dc.find(a), nullptr);
}

TEST(DecodeCacheUnit, TableIsBuiltByTheFirstFill)
{
    std::atomic<std::uint64_t> stamp{0};
    riscv::DecodeCache dc = makeCache(64);
    EXPECT_EQ(dc.sets(), 64u);
    // No table yet: a counted miss, and the configured size stands.
    EXPECT_EQ(dc.find(0x1000), nullptr);
    EXPECT_EQ(dc.stats().misses, 1u);
    EXPECT_EQ(dc.sets(), 64u);

    riscv::CodeRef ref{&stamp, stamp.load()};
    dc.fill(0x1000, kAddiWord, riscv::decode(kAddiWord), ref);
    dc.fill(0x1004, kAddiWord, riscv::decode(kAddiWord), ref);
    // Both hit, so they sit in different entries of a full-size table.
    EXPECT_NE(dc.find(0x1000), nullptr);
    EXPECT_NE(dc.find(0x1004), nullptr);
    EXPECT_EQ(dc.stats().misses, 1u);
    EXPECT_EQ(dc.sets(), 64u);
    // And pcs 64 entries apart still share one.
    dc.fill(0x1000 + 64 * 4, kAddiWord, riscv::decode(kAddiWord), ref);
    EXPECT_EQ(dc.find(0x1000), nullptr);
}

TEST(DecodeCacheUnit, NonPowerOfTwoSetCountFatals)
{
    riscv::DecodeCacheConfig cfg;
    cfg.sets = 3;
    EXPECT_THROW(riscv::DecodeCache dc(cfg), FatalError);
    cfg.sets = 0;
    EXPECT_THROW(riscv::DecodeCache dc(cfg), FatalError);
}

// --------------------------------------------- self-modifying programs

/** A hart patches the instruction at `site` through its own store port
 *  and executes it on the very next fetch, 2000 times with alternating
 *  encodings. The 1000 even iterations add 5 and the 1000 odd ones add
 *  1: exit code 6000 — any stale decoded instruction shifts the sum.
 *  Long enough that a 4000-cycle snapshot interval fires mid-run. */
constexpr const char *kOwnStoreSmc = R"(
_start:
    li t1, 2000
    li t2, 0
    la t3, site
    li a2, 0x00138393    # addi t2, t2, 1
    li a4, 0x00538393    # addi t2, t2, 5
loop:
    andi a1, t1, 1
    bne a1, zero, odd
    sw a4, 0(t3)
    j site
odd:
    sw a2, 0(t3)
site:
    addi t2, t2, 0       # patched before every execution
    addi t1, t1, -1
    bne t1, zero, loop
    addi a0, t2, 0
    li a7, 93
    ecall
)";

constexpr std::int64_t kOwnStoreExit = 1000 * 5 + 1000 * 1;

/** Hart 0 spins executing the instruction at `site` until it produces a
 *  non-zero a0; hart 1 patches that instruction over the coherent path
 *  after a delay long enough for hart 0 to have decoded and cached the
 *  original. Hart 0 must observe the new encoding and exit 42. */
constexpr const char *kCrossHartSmc = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 1
    bne t0, zero, writer
site:
    addi a0, zero, 0     # patched to addi a0, zero, 42 by hart 1
    beq a0, zero, site
    li a7, 93
    ecall
writer:
    li t1, 1000
w_delay:
    addi t1, t1, -1
    bne t1, zero, w_delay
    la t2, site
    li t3, 0x02A00513    # addi a0, zero, 42
    sw t3, 0(t2)
    li a0, 0
    li a7, 93
    ecall
)";

/** Two harts (at least) for the SMC programs. With one worker both sit
 *  on one node; with more, the harts get one node each and the spec has
 *  a node per worker, so every worker really runs. */
platform::PrototypeConfig
smcConfig(bool cacheOn, std::uint32_t threads)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse(
        threads == 1 ? "1x1x2" : threads == 2 ? "2x1x1" : "4x1x1");
    cfg.core.decodeCache.enabled = cacheOn;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    EXPECT_EQ(cfg.workers(), threads);
    return cfg;
}

TEST(DecodeCacheSmc, OwnStorePatchIsObserved)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        platform::Prototype proto(smcConfig(true, threads));
        proto.loadSource(kOwnStoreSmc);
        proto.runCores({0}, 100'000);
        ASSERT_TRUE(proto.core(0).exited()) << threads << " threads";
        EXPECT_EQ(proto.core(0).exitCode(), kOwnStoreExit)
            << threads << " threads";
        EXPECT_GT(proto.core(0).decodeCache().stats().invalidations, 0u)
            << "the patched page never invalidated a cached decode";
    }
}

TEST(DecodeCacheSmc, OwnStoreStatsMatchCacheOff)
{
    auto dumpFor = [](bool cacheOn) {
        platform::Prototype proto(smcConfig(cacheOn, 1));
        proto.loadSource(kOwnStoreSmc);
        proto.runCores({0}, 100'000);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    EXPECT_EQ(dumpFor(true), dumpFor(false));
}

TEST(DecodeCacheSmc, BypassHeavyLoopStatsMatchCacheOff)
{
    // Audit pin for the bail path: a straight-line loop bigger than the
    // L1I keeps decode entries alive while fetchFastHit misses, so the
    // core takes the find-hit/fast-miss bypass on most fetches. A
    // failed fast attempt that leaked an LRU touch or an "cs.l1.hits"
    // bump before the slow fetch re-ran the access would shift the
    // stats dump against the cache-off run.
    std::ostringstream src;
    src << "_start:\n";
    for (int i = 0; i < 6000; ++i) // 24 KiB of code vs a 16 KiB L1I.
        src << "  addi t0, t0, 1\n";
    src << "  j _start\n";

    std::uint64_t bypasses = 0;
    auto dumpFor = [&](bool cacheOn) {
        platform::Prototype proto(smcConfig(cacheOn, 1));
        proto.loadSource(src.str());
        proto.runCores({0}, 40'000);
        if (cacheOn)
            bypasses = proto.core(0).decodeCache().stats().bypasses;
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    EXPECT_EQ(dumpFor(true), dumpFor(false));
    EXPECT_GT(bypasses, 0u)
        << "the loop never exercised the fast-miss bypass under audit";
}

TEST(DecodeCacheSmc, CrossHartPatchIsObserved)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        platform::Prototype proto(smcConfig(true, threads));
        proto.loadSource(kCrossHartSmc);
        proto.runCores({0, 1}, 200'000);
        ASSERT_TRUE(proto.core(0).exited()) << threads << " threads";
        ASSERT_TRUE(proto.core(1).exited()) << threads << " threads";
        EXPECT_EQ(proto.core(0).exitCode(), 42) << threads << " threads";
        EXPECT_EQ(proto.core(1).exitCode(), 0) << threads << " threads";
        EXPECT_GT(proto.core(0).decodeCache().stats().invalidations, 0u)
            << "hart 0 kept executing a stale decode of the patched site";
    }
}

// --------------------------------------------- the observable surface

/** Budget-bounded workload mixing ALU work, loads and stores (the
 *  stores keep the page-stamp machinery busy on the data page). */
constexpr const char *kMixSource = R"(
_start:
    csrr t0, 0xf14
    andi t0, t0, 3
    slli t0, t0, 3
    la t1, buf
    add t1, t1, t0
    li t2, 0
loop:
    ld t3, 0(t1)
    add t3, t3, t2
    sd t3, 0(t1)
    xor t2, t2, t3
    andi t2, t2, 2047
    addi t2, t2, 1
    j loop

.data
.align 3
buf: .dword 1
     .dword 2
     .dword 3
     .dword 4
)";

struct Surface
{
    std::string stats;
    std::string trace;
    std::string snapshot;
};

Surface
runSurface(bool cacheOn, std::uint32_t threads, const fs::path &dir)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.core.decodeCache.enabled = cacheOn;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    cfg.trace.enabled = true;
    platform::Prototype proto(cfg);
    proto.loadSourceReplicated(kMixSource);
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

TEST(DecodeCacheIdentity, StatsTraceAndCheckpointMatchCacheOffAcrossWorkers)
{
    fs::path dir = scratchDir("surface");
    Surface ref = runSurface(true, 1, dir);
    EXPECT_FALSE(ref.stats.empty());
    EXPECT_FALSE(ref.trace.empty());
    EXPECT_FALSE(ref.snapshot.empty());
    for (bool cacheOn : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (cacheOn && threads == 1)
                continue; // The reference itself.
            Surface got = runSurface(cacheOn, threads, dir);
            EXPECT_EQ(got.stats, ref.stats)
                << "cache " << cacheOn << ", " << threads << " workers";
            EXPECT_EQ(got.trace == ref.trace, true)
                << "cache " << cacheOn << ", " << threads << " workers";
            EXPECT_EQ(got.snapshot == ref.snapshot, true)
                << "cache " << cacheOn << ", " << threads << " workers";
        }
    }
}

platform::PrototypeConfig
resumeConfig(bool cacheOn, const std::string &dir)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse("2x1x2");
    cfg.core.decodeCache.enabled = cacheOn;
    cfg.parallel.threads = 2;
    cfg.parallel.quantum = 63;
    cfg.snapshot.interval = 4000;
    cfg.snapshot.dir = dir;
    cfg.snapshot.keep = 0;
    return cfg;
}

TEST(DecodeCacheIdentity, CheckpointsInterchangeBetweenOnAndOff)
{
    // A cache-on run's mid-run checkpoint restores into a cache-off
    // prototype (and the final states match byte for byte): the decode
    // cache is transient state outside the checkpoint and outside the
    // config fingerprint.
    fs::path dir_a = scratchDir("interchange_a");
    fs::path dir_b = scratchDir("interchange_b");

    platform::Prototype a(resumeConfig(true, dir_a.string()));
    a.loadSourceReplicated(kMixSource);
    a.runCores({0, 1, 2, 3}, 30'000);
    std::string final_a = (dir_a / "final.smck").string();
    a.checkpoint(final_a);

    auto mids = snap::listCheckpoints(dir_a.string());
    ASSERT_GE(mids.size(), 2u) << "workload too short to checkpoint";

    platform::Prototype b(resumeConfig(false, dir_b.string()));
    b.loadSourceReplicated(kMixSource);
    b.restore(mids[mids.size() / 2]);
    b.runCores({0, 1, 2, 3}, 30'000);
    std::string final_b = (dir_b / "final.smck").string();
    b.checkpoint(final_b);

    EXPECT_EQ(slurp(final_a), slurp(final_b));
}

TEST(DecodeCacheIdentity, RestoreDropsDecodesOfTheOverwrittenImage)
{
    // Warm a cache-on prototype on one program, then restore a
    // checkpoint of a *different* program into it: the cores must run
    // the restored image's instructions, not stale decodes of the old
    // one at the same PCs.
    fs::path dir_ref = scratchDir("restore_ref");
    fs::path dir_got = scratchDir("restore_got");

    platform::Prototype ref(resumeConfig(true, dir_ref.string()));
    ref.loadSource(kOwnStoreSmc);
    ref.runCores({0}, 30'000);
    std::string final_ref = (dir_ref / "final.smck").string();
    ref.checkpoint(final_ref);
    auto mids = snap::listCheckpoints(dir_ref.string());
    ASSERT_GE(mids.size(), 2u);

    platform::Prototype got(resumeConfig(true, dir_got.string()));
    got.loadSource(kMixSource); // Different code at the same PCs.
    got.runCores({0}, 20'000);  // Warm its decode cache.
    got.restore(mids[mids.size() / 2]);
    got.runCores({0}, 30'000);
    std::string final_got = (dir_got / "final.smck").string();
    got.checkpoint(final_got);

    EXPECT_EQ(slurp(final_ref), slurp(final_got));
    ASSERT_TRUE(got.core(0).exited());
    EXPECT_EQ(got.core(0).exitCode(), kOwnStoreExit);
}

} // namespace
} // namespace smappic
