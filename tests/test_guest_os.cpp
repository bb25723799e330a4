/**
 * @file
 * Tests for the guest-OS model: page placement under both NUMA modes,
 * explicit policies, phase scheduling, and the placement effects the
 * paper's Figs 8-9 rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "os/guest_system.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::os
{
namespace
{

cache::Geometry
geo4x4()
{
    cache::Geometry g;
    g.nodes = 4;
    g.tilesPerNode = 4;
    g.memPerNode = 256ULL << 20;
    return g;
}

TEST(GuestSystem, FirstTouchPlacesLocally)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    Addr va = os.vmAlloc(4 * GuestSystem::kPageBytes);

    // Touch page 0 from node 0, page 1 from node 2.
    GlobalTileId t_node0 = 0;
    GlobalTileId t_node2 = 9; // Node 2, tile 1.
    os.parallelPhase({t_node0}, [&](Worker &w) { w.load(va); });
    os.parallelPhase({t_node2}, [&](Worker &w) {
        w.load(va + GuestSystem::kPageBytes);
    });

    EXPECT_EQ(os.pageNode(va), 0);
    EXPECT_EQ(os.pageNode(va + GuestSystem::kPageBytes), 2);
    EXPECT_EQ(os.pageNode(va + 3 * GuestSystem::kPageBytes), -1);
}

TEST(GuestSystem, NumaOffIgnoresToucher)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOff, 7);
    Addr va = os.vmAlloc(256 * GuestSystem::kPageBytes);
    // All touches from node 0; pages should still scatter.
    os.parallelPhase({0}, [&](Worker &w) {
        for (int p = 0; p < 256; ++p)
            w.load(va + static_cast<Addr>(p) * GuestSystem::kPageBytes);
    });
    auto per_node = os.pagesPerNode();
    int nodes_used = 0;
    for (auto n : per_node)
        nodes_used += n > 0 ? 1 : 0;
    EXPECT_EQ(nodes_used, 4);
}

TEST(GuestSystem, ExplicitPolicies)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);

    Addr on3 = os.vmAlloc(8 * GuestSystem::kPageBytes,
                          AllocPolicy::kOnNode, 3);
    for (int p = 0; p < 8; ++p)
        EXPECT_EQ(os.pageNode(on3 + static_cast<Addr>(p) *
                                        GuestSystem::kPageBytes),
                  3);

    Addr il = os.vmAlloc(8 * GuestSystem::kPageBytes,
                         AllocPolicy::kInterleave);
    int seen[4] = {0, 0, 0, 0};
    for (int p = 0; p < 8; ++p)
        seen[os.pageNode(il + static_cast<Addr>(p) *
                                  GuestSystem::kPageBytes)] += 1;
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(seen[n], 2);
}

TEST(GuestSystem, OnNodeFramesArePhysicallyContiguous)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    Addr va = os.vmAlloc(4 * GuestSystem::kPageBytes, AllocPolicy::kOnNode,
                         1);
    Addr pa0 = os.translate(va, 1);
    for (int p = 1; p < 4; ++p) {
        Addr pa = os.translate(va + static_cast<Addr>(p) *
                                        GuestSystem::kPageBytes,
                               1);
        EXPECT_EQ(pa, pa0 + static_cast<Addr>(p) * GuestSystem::kPageBytes);
    }
}

TEST(GuestSystem, LocalAccessFasterThanRemote)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    Addr local = os.vmAlloc(GuestSystem::kPageBytes, AllocPolicy::kOnNode,
                            0);
    Addr remote = os.vmAlloc(GuestSystem::kPageBytes, AllocPolicy::kOnNode,
                             3);
    Cycles t_local = 0;
    Cycles t_remote = 0;
    os.parallelPhase({0}, [&](Worker &w) {
        Cycles before = w.now();
        w.load(local);
        t_local = w.now() - before;
        before = w.now();
        w.load(remote);
        t_remote = w.now() - before;
    });
    EXPECT_GT(t_remote, t_local + 100);
}

TEST(GuestSystem, PhaseBarrierTakesMaxOfClocks)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    os.setBarrierCost(100);
    Cycles before = os.elapsed();
    os.parallelPhase({0, 1}, [&](Worker &w) {
        w.compute(w.tile() == 0 ? 1000 : 5000);
    });
    EXPECT_EQ(os.elapsed() - before, 5100u);
}

TEST(GuestSystem, PhaseSchedulerMatchesLaggingFirstScan)
{
    // Each worker's compute() steps. Every worker starts at the same
    // clock and workers 0 and 1 step in lockstep, so ties are frequent;
    // worker 5 has zero-cycle steps and worker 7 none at all.
    const std::vector<std::vector<Cycles>> scripts = {
        {100, 100, 100, 100, 100, 100, 100, 100},
        {100, 100, 100, 100, 100, 100, 100, 100},
        {400, 400, 400},
        {1, 1, 1, 500, 1, 1, 1, 200},
        {50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50},
        {0, 300, 0, 150, 150, 0},
        {200, 10, 190, 600},
        {},
    };
    constexpr Cycles kQuantum = 150; // GuestSystem's scheduling quantum.
    const std::size_t workers = scripts.size();
    using Resume = std::pair<std::size_t, Cycles>; // (worker, clock)

    // The scan the scheduler must reproduce: resume the lowest clock,
    // the first index on a tie, until the clock passes the second-lowest
    // clock plus the quantum.
    std::vector<Resume> expected;
    {
        std::vector<Cycles> clock(workers, 0);
        std::vector<std::size_t> pos(workers, 0);
        std::vector<bool> done(workers, false);
        while (true) {
            std::size_t next = workers;
            for (std::size_t i = 0; i < workers; ++i) {
                if (!done[i] && (next == workers || clock[i] < clock[next]))
                    next = i;
            }
            if (next == workers)
                break;
            Cycles second = ~Cycles{0};
            for (std::size_t i = 0; i < workers; ++i) {
                if (!done[i] && i != next)
                    second = std::min(second, clock[i]);
            }
            Cycles threshold =
                second == ~Cycles{0} ? ~Cycles{0} : second + kQuantum;
            expected.emplace_back(next, clock[next]);
            while (true) {
                if (pos[next] == scripts[next].size()) {
                    done[next] = true;
                    break;
                }
                clock[next] += scripts[next][pos[next]++];
                if (clock[next] > threshold)
                    break;
            }
        }
    }

    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    std::vector<GlobalTileId> tiles;
    for (std::size_t i = 0; i < workers; ++i)
        tiles.push_back(static_cast<GlobalTileId>(i));
    for (int phase = 0; phase < 2; ++phase) {
        // Clocks relative to the phase's start; a resume is a body
        // running after another's.
        std::vector<Resume> resumed;
        std::size_t running = workers;
        auto note = [&](std::size_t me, Cycles now) {
            if (me != running)
                resumed.emplace_back(me, now - os.elapsed());
            running = me;
        };
        os.parallelPhase(tiles, [&](Worker &w) {
            const std::size_t me = w.tile();
            for (Cycles step : scripts[me]) {
                note(me, w.now());
                w.compute(step);
            }
            note(me, w.now());
        });
        EXPECT_EQ(resumed, expected) << "phase " << phase;
    }
}

TEST(GuestSystem, UnmappedAccessIsFatal)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    EXPECT_THROW(
        os.parallelPhase({0}, [&](Worker &w) { w.load(0xdead0000); }),
        FatalError);
}

TEST(GuestSystem, AmoAddIsAtomicFunctionally)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    Addr ctr = os.vmAlloc(8);
    std::vector<GlobalTileId> tiles = {0, 4, 8, 12};
    os.parallelPhase(tiles, [&](Worker &w) {
        for (int i = 0; i < 10; ++i)
            w.amoAdd(ctr, 1);
    });
    os.parallelPhase({0}, [&](Worker &w) {
        EXPECT_EQ(w.load(ctr), 40u);
    });
}

/** Writes @p m to a fresh checkpoint file; returns its path. */
std::string
saveMemory(const mem::MainMemory &m, const std::string &name)
{
    std::string path =
        (std::filesystem::path(::testing::TempDir()) / (name + ".smck"))
            .string();
    std::ofstream os(path, std::ios::binary);
    snap::Writer w(os);
    w.begin(snap::Section::kMemory);
    m.saveState(w);
    w.end();
    w.finish();
    return path;
}

void
restoreMemory(mem::MainMemory &m, const std::string &path)
{
    snap::Reader r(path);
    r.open(snap::Section::kMemory);
    m.restoreState(r);
}

TEST(GuestSystem, WorkerPageCacheHonorsClearRestoreAndDeviceWindows)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    mem::MainMemory &m = cs.memory();
    Addr va = os.vmAlloc(GuestSystem::kPageBytes);
    os.parallelPhase({0}, [&](Worker &w) {
        w.store(va, 5);
        EXPECT_EQ(w.load(va), 5u); // Caches the page...
        EXPECT_EQ(w.load(va), 5u); // ...and hits it.

        m.clear();
        EXPECT_EQ(w.load(va), 0u) << "a load read a page clear() dropped";

        w.store(va, 7);
        EXPECT_EQ(w.load(va), 7u);
        std::string path = saveMemory(m, "guest_page_cache");
        w.store(va, 9);
        EXPECT_EQ(w.load(va), 9u);
        restoreMemory(m, path);
        EXPECT_EQ(w.load(va), 7u) << "a load read the pre-restore page";

        w.store(va, 11);
        EXPECT_EQ(w.load(va), 11u);
        EXPECT_EQ(w.load(va), 11u);
        // An identity window over the cached page: va now means PA va.
        m.store(va, 8, 0xd00d);
        os.mapDeviceIdentity(va, GuestSystem::kPageBytes);
        EXPECT_EQ(w.load(va), 0xd00du)
            << "a load used the translation a device window replaced";
    });
}

TEST(GuestSystem, WorkerPageCacheKeepsAliasingPagesApart)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOff, 5);
    mem::MainMemory &m = cs.memory();
    constexpr std::uint64_t kPages = 256;
    constexpr Addr kPage = GuestSystem::kPageBytes;
    const Addr va = os.vmAlloc(kPages * kPage);
    // The worker cache's slot for a VA page, and the plain modulo it
    // replaced; pages that share a slot evict each other.
    std::uint64_t (*const indexes[])(std::uint64_t) = {
        [](std::uint64_t vpn) { return (vpn ^ (vpn >> 6)) % 64; },
        [](std::uint64_t vpn) { return vpn % 64; },
    };
    for (auto slot : indexes) {
        // Every page sharing page 0's slot, plus page 16 and page 1.
        std::vector<Addr> pages;
        for (std::uint64_t p = 0; p < kPages; ++p) {
            if (slot(va / kPage + p) == slot(va / kPage))
                pages.push_back(va + p * kPage);
        }
        ASSERT_GE(pages.size(), 3u);
        pages.push_back(va + 16 * kPage);
        pages.push_back(va + kPage);
        auto value = [](int round, std::size_t i) {
            return 0x1000u * static_cast<std::uint64_t>(round) + i;
        };
        auto offset = [](std::size_t i) { return (i * 72) % kPage; };
        os.parallelPhase({0}, [&](Worker &w) {
            for (int round = 1; round <= 3; ++round) {
                for (std::size_t i = 0; i < pages.size(); ++i) {
                    if (round > 1) {
                        EXPECT_EQ(w.load(pages[i] + offset(i)),
                                  value(round - 1, i));
                    }
                    w.store(pages[i] + offset(i), value(round, i));
                    EXPECT_EQ(w.load(pages[0] + offset(0)),
                              value(round, 0));
                }
                for (std::size_t i = pages.size(); i-- > 0;) {
                    EXPECT_EQ(w.amoAdd(pages[i] + offset(i), 0),
                              value(round, i));
                }
            }
        });
        for (std::size_t i = 0; i < pages.size(); ++i) {
            EXPECT_EQ(m.load(os.translate(pages[i] + offset(i), 0), 8),
                      value(3, i));
        }
    }
}

TEST(GuestSystem, StoreThroughCachedPageBumpsStampAndEpoch)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    mem::MainMemory &m = cs.memory();
    Addr va = os.vmAlloc(GuestSystem::kPageBytes);
    os.parallelPhase({0}, [&](Worker &w) {
        w.store(va, 1);
        EXPECT_EQ(w.load(va), 1u); // The page is cached from here on.
        const auto &stamp = m.pageWriteStamp(os.translate(va, 0));
        std::uint64_t epoch = m.beginEpoch();
        EXPECT_EQ(m.pagesDirtySince(epoch), 0u);

        std::uint64_t before = stamp.load();
        w.store(va + 8, 2);
        EXPECT_GT(stamp.load(), before);
        EXPECT_EQ(m.pagesDirtySince(epoch), 1u);

        before = stamp.load();
        EXPECT_EQ(w.amoAdd(va + 8, 3), 2u);
        EXPECT_GT(stamp.load(), before);
        EXPECT_EQ(m.load(os.translate(va + 8, 0), 8), 5u);
    });
}

TEST(GuestSystem, StoreToRestoredPageBumpsItsStamp)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    mem::MainMemory &m = cs.memory();
    Addr va = os.vmAlloc(GuestSystem::kPageBytes);
    os.parallelPhase({0}, [&](Worker &w) { w.store(va, 1); });
    restoreMemory(m, saveMemory(m, "guest_restored_stamp"));

    // The restored page has no stamp wired until its first store.
    const auto &stamp = m.pageWriteStamp(os.translate(va, 0));
    os.parallelPhase({0}, [&](Worker &w) {
        EXPECT_EQ(w.load(va), 1u);
        std::uint64_t before = stamp.load();
        w.store(va, 2);
        EXPECT_GT(stamp.load(), before)
            << "a store to a restored page left its stamp unchanged";
        EXPECT_EQ(w.load(va), 2u);
        before = stamp.load();
        w.store(va, 3);
        EXPECT_GT(stamp.load(), before);
        EXPECT_EQ(w.load(va), 3u);
    });
}

TEST(GuestSystem, FiberExceptionReachesCallerAndNextPhaseRuns)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    std::vector<GlobalTileId> tiles = {0, 4, 8, 12};
    int started = 0;
    int finished = 0;
    int startedAtThrow = -1;
    int finishedAtThrow = -1;
    try {
        os.parallelPhase(tiles, [&](Worker &w) {
            ++started;
            for (int i = 0; i < 100; ++i) {
                w.compute(100); // Interleaves the four fibers.
                if (w.tile() == 8 && i == 20) {
                    startedAtThrow = started;
                    finishedAtThrow = finished;
                    throw std::runtime_error("fiber on tile 8");
                }
            }
            ++finished;
        });
        FAIL() << "the fiber's exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fiber on tile 8");
    }
    // The other three were suspended mid-body when tile 8 threw.
    EXPECT_EQ(startedAtThrow, 4);
    EXPECT_EQ(finishedAtThrow, 0);

    int completed = 0;
    os.parallelPhase(tiles, [&](Worker &w) {
        for (int i = 0; i < 100; ++i)
            w.compute(100);
        ++completed;
    });
    EXPECT_EQ(completed, 4);
}

TEST(GuestSystem, FiberFloatingPointControlIsPerFiber)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    volatile double one = 1.0;
    volatile double three = 3.0;
    const double nearest = one / three;
    int wrong = 0;
    os.parallelPhase({0, 4, 8, 12}, [&](Worker &w) {
        const bool upward = w.tile() == 0;
        if (upward)
            std::fesetround(FE_UPWARD);
        for (int i = 0; i < 20; ++i) {
            w.compute(100); // Yields to and from the other fibers.
            double third = one / three;
            if (std::fegetround() != (upward ? FE_UPWARD : FE_TONEAREST))
                ++wrong;
            if (upward ? !(third > nearest) : third != nearest)
                ++wrong;
        }
    });
    EXPECT_EQ(wrong, 0);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / three, nearest);
}

TEST(GuestSystem, FiberBodyMayUseDeepStack)
{
    cache::CoherentSystem cs(geo4x4(), cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    GuestSystem os(cs, NumaMode::kOn);
    constexpr std::size_t kWords = (128 << 10) / sizeof(std::uint64_t);
    int intact = 0;
    os.parallelPhase({0, 4}, [&](Worker &w) {
        volatile std::uint64_t buf[kWords]; // ~128 KiB of fiber stack.
        for (std::size_t i = 0; i < kWords; ++i) {
            buf[i] = i * 31 + w.tile();
            if (i % 4096 == 0)
                w.compute(200); // Suspend with the buffer partly written.
        }
        bool ok = true;
        for (std::size_t i = 0; i < kWords; ++i)
            ok = ok && buf[i] == i * 31 + w.tile();
        intact += ok ? 1 : 0;
    });
    EXPECT_EQ(intact, 2);
}

} // namespace
} // namespace smappic::os
