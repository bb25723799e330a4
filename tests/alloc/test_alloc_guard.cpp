/**
 * @file
 * Allocation guard for the per-access paths. This executable replaces the
 * global operator new/delete with counting versions, so it is built apart
 * from smappic_tests. After a warm-up (first-use stat slots, cache fills,
 * page materialization), each test asserts that steady-state accesses make
 * no heap allocation at all: an invariant check that passes must not build
 * its message, and nothing else on these paths may allocate either.
 *
 * Under ASan/TSan the sanitizer owns operator new, so the replacements are
 * left out and every test skips.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/coherent_system.hpp"
#include "mem/main_memory.hpp"
#include "os/guest_system.hpp"
#include "platform/prototype.hpp"
#include "riscv/core.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMAPPIC_ALLOC_GUARD_SANITIZED 1
#else
#define SMAPPIC_ALLOC_GUARD_SANITIZED 0
#endif

namespace
{

std::atomic<std::uint64_t> gAllocations{0};
/** Allocations of 64 KiB or more (a fiber stack is 256 KiB). */
std::atomic<std::uint64_t> gLargeAllocations{0};

} // namespace

#if !SMAPPIC_ALLOC_GUARD_SANITIZED

namespace
{

void
countAllocation(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (bytes >= (64 << 10))
        gLargeAllocations.fetch_add(1, std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t bytes)
{
    countAllocation(bytes);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    countAllocation(bytes);
    auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (bytes + a - 1) / a * a);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // !SMAPPIC_ALLOC_GUARD_SANITIZED

namespace smappic
{
namespace
{

/** Skips every test when a sanitizer owns operator new. */
class AllocGuard : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (SMAPPIC_ALLOC_GUARD_SANITIZED)
            GTEST_SKIP() << "the sanitizer replaces operator new, so "
                            "allocations cannot be counted";
    }
};

std::uint64_t
allocations()
{
    return gAllocations.load(std::memory_order_relaxed);
}

std::uint64_t
largeAllocations()
{
    return gLargeAllocations.load(std::memory_order_relaxed);
}

/**
 * Heap allocations made by the second of two runs of @p fn; the first
 * warms up first-use state (stat slots) on the same path.
 */
template <typename Fn>
std::uint64_t
allocationsAfterWarmUp(Fn &&fn)
{
    fn();
    std::uint64_t before = allocations();
    fn();
    return allocations() - before;
}

constexpr Addr kLine = kCacheLineBytes;

/** 2 nodes x 2 tiles; the L1D is smaller than the BPC so BPC hits exist. */
cache::Geometry
guardGeo()
{
    cache::Geometry g;
    g.nodes = 2;
    g.tilesPerNode = 2;
    g.memPerNode = 1ULL << 30;
    g.l1dBytes = 1 << 10;
    g.bpcBytes = 4 << 10;
    return g;
}

/**
 * Loads @p lines consecutive lines from @p base on @p gid, @p passes
 * times, and returns how many accesses were served at @p level.
 */
std::uint64_t
sweep(cache::CoherentSystem &cs, GlobalTileId gid, Addr base,
      std::uint32_t lines, int passes, Cycles &now, cache::ServiceLevel level)
{
    std::uint64_t at_level = 0;
    for (int p = 0; p < passes; ++p) {
        for (std::uint32_t i = 0; i < lines; ++i) {
            auto r = cs.access(gid, base + i * kLine, cache::AccessType::kLoad,
                               8, now);
            now += r.latency;
            at_level += r.level == level ? 1 : 0;
        }
    }
    return at_level;
}

TEST_F(AllocGuard, CoherentAccessL1Hits)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    Cycles now = 0;
    const Addr a = 0x10000;
    cs.access(0, a, cache::AccessType::kLoad, 8, now);
    cs.access(0, a, cache::AccessType::kStore, 8, now += 500);
    cs.access(0, a, cache::AccessType::kLoad, 8, now += 500);

    std::uint64_t l1_hits = 0;
    std::uint64_t n = allocationsAfterWarmUp([&] {
        l1_hits = 0;
        for (int i = 0; i < 1000; ++i) {
            auto r = cs.access(0, a + (i % 8) * 8, cache::AccessType::kLoad,
                               8, ++now);
            l1_hits += r.level == cache::ServiceLevel::kL1 ? 1 : 0;
            cs.access(0, a, cache::AccessType::kStore, 8, ++now);
        }
    });
    EXPECT_EQ(l1_hits, 1000u);
    EXPECT_EQ(n, 0u);
}

TEST_F(AllocGuard, CoherentAccessBpcHits)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    Cycles now = 0;
    // 32 lines: twice the 1 KiB L1D, half the 4 KiB BPC.
    const Addr base = 0x20000;
    sweep(cs, 0, base, 32, 2, now, cache::ServiceLevel::kPrivate);

    std::uint64_t bpc_hits = 0;
    std::uint64_t n = allocationsAfterWarmUp([&] {
        bpc_hits =
            sweep(cs, 0, base, 32, 4, now, cache::ServiceLevel::kPrivate);
    });
    EXPECT_EQ(bpc_hits, 4u * 32);
    EXPECT_EQ(n, 0u);
}

TEST_F(AllocGuard, CoherentAccessLlcHitsLocalAndRemote)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    Cycles now = 0;
    // 256 lines homed on node 0: four times the BPC, an eighth of node
    // 0's LLC. Tile 1 is on node 0, tile 2 on node 1.
    const Addr base = 0x40000;
    sweep(cs, 1, base, 256, 1, now, cache::ServiceLevel::kLlcLocal);
    sweep(cs, 2, base, 256, 1, now, cache::ServiceLevel::kLlcRemote);

    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t n = allocationsAfterWarmUp([&] {
        local = 0;
        remote = 0;
        for (int p = 0; p < 3; ++p) {
            local += sweep(cs, 1, base, 256, 1, now,
                           cache::ServiceLevel::kLlcLocal);
            remote += sweep(cs, 2, base, 256, 1, now,
                            cache::ServiceLevel::kLlcRemote);
        }
    });
    EXPECT_EQ(local, 3u * 256);
    EXPECT_EQ(remote, 3u * 256);
    EXPECT_EQ(n, 0u);
}

TEST_F(AllocGuard, CoherentAccessLlcFillsAndEvictions)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    Cycles now = 0;
    // 8192 lines homed on node 0: four times its two 64 KiB LLC slices,
    // so every load fills the LLC from DRAM and evicts a victim, whose
    // directory entry is erased. The first sweeps grow the shard.
    const Addr base = 0x100000;
    sweep(cs, 1, base, 8192, 2, now, cache::ServiceLevel::kDramLocal);

    std::uint64_t from_dram = 0;
    std::uint64_t before = cs.stats().counterValue("cs.llc.evictions");
    std::uint64_t n = allocationsAfterWarmUp([&] {
        from_dram =
            sweep(cs, 1, base, 8192, 2, now, cache::ServiceLevel::kDramLocal);
    });
    EXPECT_EQ(from_dram, 2u * 8192);
    EXPECT_EQ(cs.stats().counterValue("cs.llc.evictions") - before,
              4u * 8192);
    EXPECT_EQ(n, 0u);
}

TEST_F(AllocGuard, MainMemoryOnMaterializedPages)
{
    mem::MainMemory m;
    const Addr base = 0x123000;
    for (Addr a = base; a < base + 4 * mem::MainMemory::kPageBytes; a += 64)
        m.store(a, 8, a);

    std::uint64_t sum = 0;
    std::uint64_t n = allocationsAfterWarmUp([&] {
        for (Addr a = base; a < base + 4 * mem::MainMemory::kPageBytes;
             a += 8) {
            sum += m.load(a, 8) + m.load(a + 1, 4) + m.load(a + 3, 1);
            m.store(a, 8, sum);
            m.store(a + 2, 2, sum);
        }
    });
    EXPECT_NE(sum, 0u);
    EXPECT_EQ(n, 0u);
}

TEST_F(AllocGuard, WorkerAccessesInsideAPhase)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    os::GuestSystem os(cs, os::NumaMode::kOff, 3);
    // Each worker owns 16 lines that straddle a page boundary.
    const Addr region = os.vmAlloc(4 * os::GuestSystem::kPageBytes);
    const std::vector<GlobalTileId> tiles = {0, 2};
    auto base_of = [&](os::Worker &w) {
        return region + os::GuestSystem::kPageBytes - 8 * kLine +
               (w.tile() == 0 ? 0 : 2 * os::GuestSystem::kPageBytes);
    };
    os.parallelPhase(tiles, [&](os::Worker &w) {
        for (Addr i = 0; i < 16; ++i)
            w.store(base_of(w) + i * kLine, i);
    });

    // The same phase twice: the first warms up, the second is counted.
    std::vector<std::uint64_t> made(tiles.size(), ~std::uint64_t{0});
    auto body = [&](os::Worker &w) {
        std::uint64_t before = allocations();
        Addr base = base_of(w);
        for (int pass = 0; pass < 50; ++pass) {
            for (Addr i = 0; i < 16; ++i) {
                std::uint64_t v = w.load(base + i * kLine);
                w.compute(40);
                w.store(base + i * kLine, v + 1);
            }
        }
        made[w.tile() == 0 ? 0 : 1] = allocations() - before;
    };
    os.parallelPhase(tiles, body);
    os.parallelPhase(tiles, body);
    EXPECT_EQ(made[0], 0u);
    EXPECT_EQ(made[1], 0u);
}

TEST_F(AllocGuard, ParallelPhaseReusesFiberStacks)
{
    cache::CoherentSystem cs(guardGeo(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    os::GuestSystem os(cs, os::NumaMode::kOff, 3);
    const std::vector<GlobalTileId> tiles = {0, 1, 2, 3};
    int finished = 0;
    auto body = [&](os::Worker &w) {
        for (int i = 0; i < 20; ++i)
            w.compute(40 + 10 * w.tile()); // Interleaves the fibers.
        ++finished;
    };

    std::uint64_t before = largeAllocations();
    os.parallelPhase(tiles, body);
    EXPECT_GE(largeAllocations() - before, tiles.size())
        << "the first phase's fiber stacks went uncounted";

    before = largeAllocations();
    os.parallelPhase(tiles, body);
    os.parallelPhase({tiles[1], tiles[3]}, body);
    EXPECT_EQ(largeAllocations() - before, 0u);
    EXPECT_EQ(finished, 10);
}

TEST_F(AllocGuard, CoreRunsAnL1ResidentLoop)
{
    platform::Prototype p(platform::PrototypeConfig::parse("1x1x1"));
    p.loadSource(R"(
_start:
    la t6, data
    li t1, 0
loop:
    ld t4, 0(t6)
    add t1, t1, t4
    addi t1, t1, 1
    andi t2, t1, 3
    beqz t2, skip
    sd t1, 8(t6)
skip:
    j loop

.data
.align 6
data: .space 64
)");
    riscv::RvCore &core = p.core(0);
    riscv::HaltReason why = riscv::HaltReason::kExited;
    std::uint64_t n =
        allocationsAfterWarmUp([&] { why = core.run(100'000); });
    EXPECT_EQ(why, riscv::HaltReason::kInstrBudget);
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace smappic
