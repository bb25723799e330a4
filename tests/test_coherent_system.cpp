/**
 * @file
 * Tests for the transaction-level coherent memory system: hit/miss walks,
 * MESI directory transitions, SMAPPIC homing policies, inter-node latency
 * structure, and randomized invariant checking.
 */

#include <gtest/gtest.h>

#include <exception>
#include <latch>
#include <sstream>
#include <thread>

#include "cache/coherent_system.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "snap/state_io.hpp"

namespace smappic::cache
{
namespace
{

Geometry
smallGeo(std::uint32_t nodes, std::uint32_t tiles)
{
    Geometry g;
    g.nodes = nodes;
    g.tilesPerNode = tiles;
    g.memPerNode = 1ULL << 30;
    return g;
}

TEST(CoherentSystem, ColdMissThenHits)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    auto miss = cs.access(0, 0x1000, AccessType::kLoad, 8, 0);
    EXPECT_GT(miss.latency, cs.timing().dramLatency);
    EXPECT_TRUE(miss.level == ServiceLevel::kDramLocal);

    auto hit = cs.access(0, 0x1008, AccessType::kLoad, 8, 1000);
    EXPECT_EQ(hit.level, ServiceLevel::kL1);
    EXPECT_EQ(hit.latency, cs.timing().l1HitLatency);
}

/** A confined node phase takes a miss only when every step of it stays
 *  on the requester's node. Any other miss throws sim::NodeYield before
 *  it changes the directory, the arrays or the stats. */
TEST(CoherentSystem, ConfinedMissYieldsBeforeChangingAnything)
{
    Geometry geo = smallGeo(2, 2);
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);
    Addr local = geo.dramBase + 0x1000;  // Homed on node 0.
    Addr shared = geo.dramBase + 0x2000; // Homed on node 0, cached by node 1.
    Addr remote = geo.dramBase + geo.memPerNode + 0x1000; // Node 1.
    cs.access(2, shared, AccessType::kLoad, 8, 0);

    auto misses = [&] { return cs.stats().counterValue("cs.bpc.misses"); };
    std::uint64_t before = misses();
    {
        sim::ConfinedScope confined;
        EXPECT_THROW(cs.access(0, remote, AccessType::kLoad, 8, 100),
                     sim::NodeYield);
        EXPECT_THROW(cs.access(1, shared, AccessType::kStore, 8, 100),
                     sim::NodeYield);
        EXPECT_EQ(misses(), before);
        EXPECT_FALSE(cs.inspectLine(remote).hasDirEntry);
        EXPECT_EQ(cs.inspectLine(shared).sharers, 1ULL << 2);
        EXPECT_EQ(cs.inspectLine(shared).owner, -1);

        // Node 0's own line: the whole miss stays on node 0.
        auto r = cs.access(0, local, AccessType::kLoad, 8, 100);
        EXPECT_EQ(r.level, ServiceLevel::kDramLocal);
        EXPECT_EQ(misses(), before + 1);
        // Hits never yield.
        EXPECT_EQ(cs.access(0, local, AccessType::kLoad, 8, 200).level,
                  ServiceLevel::kL1);
    }
    // Outside the scope the same steps simply run.
    EXPECT_NO_THROW(cs.access(1, shared, AccessType::kStore, 8, 300));
    EXPECT_EQ(cs.inspectLine(shared).owner, 1);
    EXPECT_TRUE(cs.checkDirectory());
}

/** Runs node @p n's share of the confined-race workload the way the
 *  phased engine runs a node phase: confined, acting for @p n, with its
 *  stats redirected into @p shard. @return False if anything yielded. */
bool
runConfinedNode(CoherentSystem &cs, NodeId n, const std::vector<Addr> &lines,
                sim::StatRegistry &shard)
{
    sim::ActingNodeScope acting(n);
    sim::ConfinedScope confined;
    sim::StatRegistry::Redirect redirect(&cs.stats(), &shard);
    std::uint32_t tiles = cs.geometry().tilesPerNode;
    sim::Xoroshiro rng(0xc0ffee + n);
    Cycles now = 0;
    try {
        for (int i = 0; i < 20000; ++i) {
            auto gid = static_cast<GlobalTileId>(n * tiles + rng.below(tiles));
            Addr addr = lines[rng.below(lines.size())];
            std::uint64_t pick = rng.below(100);
            AccessType type = pick < 50   ? AccessType::kLoad
                              : pick < 85 ? AccessType::kStore
                                          : AccessType::kAtomic;
            now += cs.access(gid, addr, type, 8, now).latency;
        }
    } catch (const sim::NodeYield &) {
        return false;
    }
    return true;
}

/** Both nodes' confined phases racing on two host threads touch disjoint
 *  state (directory shards, private arrays, LLC slices, servers): no
 *  step yields, the directory stays precise, and the merged stats and
 *  checkpoint bytes equal a serial node-0-then-node-1 run. Under TSan
 *  this is the check that the coherence state needs no lock. */
TEST(CoherentSystem, ConfinedPhasesRaceOnDisjointNodes)
{
    Geometry geo = smallGeo(2, 2);
    // Small arrays, so the workload forces BPC and LLC evictions.
    geo.l1dBytes = 1 << 10;
    geo.l1dWays = 2;
    geo.bpcBytes = 2 << 10;
    geo.bpcWays = 4;
    geo.llcSliceBytes = 4 << 10;
    geo.llcWays = 4;

    for (HomingPolicy homing :
         {HomingPolicy::kAddressNode, HomingPolicy::kGlobalHash}) {
        SCOPED_TRACE(static_cast<int>(homing));
        // Per node: lines whose home and DRAM are both that node, so
        // every miss (fills, recalls, victims) stays on the node.
        auto nodeLines = [&](const CoherentSystem &cs, NodeId n) {
            std::vector<Addr> lines;
            Addr a = geo.dramBase + n * geo.memPerNode;
            for (; lines.size() < 512; a += kCacheLineBytes) {
                if (cs.homeOf(a).first == n)
                    lines.push_back(a);
            }
            return lines;
        };
        struct Outcome
        {
            std::string stats;
            std::string state;
            bool directoryOk = false;
            std::uint64_t llcEvictions = 0;
            std::uint64_t bpcEvictions = 0;
        };
        auto finish = [](CoherentSystem &cs, sim::StatRegistry *shards) {
            cs.stats().mergeFrom(shards[0]);
            cs.stats().mergeFrom(shards[1]);
            Outcome out;
            std::ostringstream stats;
            cs.stats().dump(stats);
            out.stats = stats.str();
            std::ostringstream state;
            snap::Writer w(state);
            w.begin(snap::Section::kCache);
            cs.saveState(w);
            w.end();
            w.finish();
            out.state = state.str();
            out.directoryOk = cs.checkDirectory() && cs.checkInclusion();
            out.llcEvictions = cs.stats().counterValue("cs.llc.evictions");
            out.bpcEvictions =
                cs.stats().counterValue("cs.bpc.writebacks") +
                cs.stats().counterValue("cs.bpc.cleanEvicts");
            return out;
        };

        CoherentSystem serial(geo, TimingParams{}, homing);
        sim::StatRegistry serialShards[2];
        for (NodeId n = 0; n < 2; ++n) {
            EXPECT_TRUE(runConfinedNode(serial, n, nodeLines(serial, n),
                                        serialShards[n]));
        }
        Outcome ref = finish(serial, serialShards);

        CoherentSystem raced(geo, TimingParams{}, homing);
        sim::StatRegistry racedShards[2];
        bool stayed[2] = {false, false};
        std::exception_ptr failure[2];
        std::latch start(2);
        auto worker = [&](NodeId n) {
            std::vector<Addr> lines = nodeLines(raced, n);
            start.arrive_and_wait();
            try {
                stayed[n] = runConfinedNode(raced, n, lines, racedShards[n]);
            } catch (...) {
                failure[n] = std::current_exception(); // A panic.
            }
        };
        std::thread t0(worker, 0);
        std::thread t1(worker, 1);
        t0.join();
        t1.join();
        for (const std::exception_ptr &e : failure) {
            if (e)
                std::rethrow_exception(e);
        }
        EXPECT_TRUE(stayed[0]);
        EXPECT_TRUE(stayed[1]);
        Outcome got = finish(raced, racedShards);

        EXPECT_TRUE(ref.directoryOk);
        EXPECT_TRUE(got.directoryOk);
        EXPECT_GT(ref.llcEvictions, 0u);
        EXPECT_GT(ref.bpcEvictions, 0u);
        EXPECT_EQ(got.stats, ref.stats);
        EXPECT_TRUE(got.state == ref.state) << "checkpoint bytes differ";
    }
}

TEST(CoherentSystem, SecondTileHitsLlc)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    cs.access(0, 0x2000, AccessType::kLoad, 8, 0);
    // Tile 1 misses privately but the line is now in the LLC.
    auto r = cs.access(1, 0x2000, AccessType::kLoad, 8, 1000);
    EXPECT_EQ(r.level, ServiceLevel::kLlcLocal);
    EXPECT_LT(r.latency, cs.timing().dramLatency + 100);
}

/** A line the BPC wrote back dirty holds data DRAM does not have, so
 *  the LLC must write it back when it evicts the line, even though no
 *  private copy owns it any more. */
TEST(CoherentSystem, LlcEvictionWritesBackLineABpcWroteBackDirty)
{
    Geometry geo = smallGeo(1, 1);
    geo.l1iBytes = geo.l1dBytes = geo.bpcBytes = 2 * kCacheLineBytes;
    geo.l1iWays = geo.l1dWays = geo.bpcWays = 2; // One 2-way set.
    geo.llcSliceBytes = 4 * kCacheLineBytes;
    geo.llcWays = 4; // One 4-way set.
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);
    auto line = [&](Addr i) { return geo.dramBase + i * kCacheLineBytes; };
    auto count = [&](const char *name) {
        return cs.stats().counterValue(name);
    };

    Cycles now = 0;
    cs.access(0, line(0), AccessType::kStore, 8, now += 1000);
    cs.access(0, line(1), AccessType::kLoad, 8, now += 1000);
    // The BPC evicts line 0 and writes it back into the LLC.
    cs.access(0, line(2), AccessType::kLoad, 8, now += 1000);
    EXPECT_EQ(count("cs.bpc.writebacks"), 1u);
    EXPECT_EQ(cs.inspectLine(line(0)).owner, -1);
    cs.access(0, line(3), AccessType::kLoad, 8, now += 1000);
    EXPECT_EQ(count("cs.llc.evictions"), 0u);
    // The LLC evicts line 0, its least recently used line.
    cs.access(0, line(4), AccessType::kLoad, 8, now += 1000);
    EXPECT_EQ(count("cs.llc.evictions"), 1u);
    EXPECT_FALSE(cs.inspectLine(line(0)).hasDirEntry);
    EXPECT_EQ(count("cs.llc.writebacks"), 1u);
}

TEST(CoherentSystem, StoreInvalidatesSharers)
{
    CoherentSystem cs(smallGeo(1, 4), TimingParams{},
                      HomingPolicy::kAddressNode);
    // All four tiles share the line.
    for (GlobalTileId g = 0; g < 4; ++g)
        cs.access(g, 0x3000, AccessType::kLoad, 8, 0);
    EXPECT_TRUE(cs.checkDirectory());

    // Tile 0 writes: everyone else must lose the line.
    cs.access(0, 0x3000, AccessType::kStore, 8, 10000);
    EXPECT_TRUE(cs.checkDirectory());
    EXPECT_GE(cs.stats().counterValue("cs.dir.invalidations"), 3u);

    // Sharers re-miss after the invalidation.
    auto r = cs.access(1, 0x3000, AccessType::kLoad, 8, 20000);
    EXPECT_NE(r.level, ServiceLevel::kL1);
    EXPECT_NE(r.level, ServiceLevel::kPrivate);
}

TEST(CoherentSystem, LoadFromOwnerForwardsAndDowngrades)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    cs.access(0, 0x4000, AccessType::kStore, 8, 0);
    auto r = cs.access(1, 0x4000, AccessType::kLoad, 8, 10000);
    EXPECT_EQ(cs.stats().counterValue("cs.dir.downgrades"), 1u);
    EXPECT_EQ(r.level, ServiceLevel::kLlcLocal);
    EXPECT_TRUE(cs.checkDirectory());

    // Former owner can still read at L1 speed (downgraded, not dropped).
    auto r0 = cs.access(0, 0x4000, AccessType::kLoad, 8, 20000);
    EXPECT_EQ(r0.level, ServiceLevel::kL1);
}

TEST(CoherentSystem, StoreHitInModifiedIsFast)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    cs.access(0, 0x5000, AccessType::kStore, 8, 0);
    auto r = cs.access(0, 0x5000, AccessType::kStore, 8, 1000);
    EXPECT_EQ(r.latency, cs.timing().l1HitLatency);
}

TEST(CoherentSystem, UpgradeFromSharedCostsATransaction)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    cs.access(0, 0x6000, AccessType::kLoad, 8, 0);
    auto r = cs.access(0, 0x6000, AccessType::kStore, 8, 1000);
    EXPECT_GT(r.latency, cs.timing().l1HitLatency * 10);
    EXPECT_TRUE(cs.checkDirectory());
}

TEST(CoherentSystem, HomingPolicies)
{
    Geometry geo = smallGeo(4, 4);
    {
        CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);
        // Address in node 2's DRAM region must home on node 2.
        Addr a = 2 * geo.memPerNode + 0x1000;
        EXPECT_EQ(cs.homeOf(a).first, 2u);
        EXPECT_EQ(cs.addrNode(a), 2u);
    }
    {
        CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kNode0);
        Addr a = 3 * geo.memPerNode + 0x1000;
        EXPECT_EQ(cs.homeOf(a).first, 0u);
    }
    {
        CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kGlobalHash);
        // Hash homing spreads lines across all nodes.
        bool node_seen[4] = {false, false, false, false};
        for (Addr a = 0; a < 256 * 64; a += 64)
            node_seen[cs.homeOf(a).first] = true;
        EXPECT_TRUE(node_seen[0] && node_seen[1] && node_seen[2] &&
                    node_seen[3]);
    }
}

TEST(CoherentSystem, InterNodeLatencyMatchesPaperShape)
{
    // Fig 7: intra-node round trips ~100 cycles, inter-node ~250 (2.5x).
    Geometry geo = smallGeo(4, 12);
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);

    // Warm the LLC so the measured path is requester -> home LLC -> back.
    Addr local = 0x10000;              // Node 0 DRAM.
    Addr remote = geo.memPerNode + 0x10000; // Node 1 DRAM.
    cs.access(1, local, AccessType::kLoad, 8, 0);
    cs.access(1, remote, AccessType::kLoad, 8, 5000);
    cs.flushPrivate(1);

    auto intra = cs.access(1, local, AccessType::kLoad, 8, 100000);
    cs.flushPrivate(1);
    auto inter = cs.access(1, remote, AccessType::kLoad, 8, 200000);

    EXPECT_EQ(intra.level, ServiceLevel::kLlcLocal);
    EXPECT_EQ(inter.level, ServiceLevel::kLlcRemote);
    EXPECT_TRUE(inter.crossedNode);

    // Paper shape: intra in [70, 140], inter/intra in [2.0, 3.0].
    EXPECT_GE(intra.latency, 70u);
    EXPECT_LE(intra.latency, 140u);
    double ratio = static_cast<double>(inter.latency) /
                   static_cast<double>(intra.latency);
    EXPECT_GE(ratio, 2.0);
    EXPECT_LE(ratio, 3.0);
}

TEST(CoherentSystem, RemoteDramCostsMoreThanLocal)
{
    Geometry geo = smallGeo(2, 2);
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);
    auto local = cs.access(0, 0x1000, AccessType::kLoad, 8, 0);
    auto remote = cs.access(0, geo.memPerNode + 0x1000, AccessType::kLoad, 8,
                            10000);
    EXPECT_EQ(local.level, ServiceLevel::kDramLocal);
    EXPECT_EQ(remote.level, ServiceLevel::kDramRemote);
    EXPECT_GT(remote.latency, local.latency + cs.timing().pcieRtt / 2);
}

TEST(CoherentSystem, AtomicsSerializeAtHome)
{
    CoherentSystem cs(smallGeo(1, 4), TimingParams{},
                      HomingPolicy::kAddressNode);
    for (GlobalTileId g = 0; g < 4; ++g)
        cs.access(g, 0x7000, AccessType::kLoad, 8, 0);
    auto r = cs.access(0, 0x7000, AccessType::kAtomic, 8, 10000);
    EXPECT_GT(r.latency, cs.timing().llcLatency);
    EXPECT_TRUE(cs.checkDirectory());
    // After the atomic nobody holds a private copy.
    auto r2 = cs.access(0, 0x7000, AccessType::kLoad, 8, 20000);
    EXPECT_NE(r2.level, ServiceLevel::kL1);
}

TEST(CoherentSystem, DramChannelCongestionQueues)
{
    Geometry geo = smallGeo(1, 4);
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);
    // Hammer distinct lines at the same instant: the single DRAM channel
    // must serialize them.
    for (int i = 0; i < 64; ++i)
        cs.access(static_cast<GlobalTileId>(i % 4),
                  0x100000 + static_cast<Addr>(i) * 4096,
                  AccessType::kLoad, 8, 0);
    EXPECT_GT(cs.dramQueuedCycles(0), 0u);
}

TEST(CoherentSystem, InstructionFetchFillsL1I)
{
    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    auto miss = cs.access(0, 0x8000, AccessType::kFetch, 4, 0);
    EXPECT_NE(miss.level, ServiceLevel::kL1);
    auto hit = cs.access(0, 0x8000, AccessType::kFetch, 4, 1000);
    EXPECT_EQ(hit.level, ServiceLevel::kL1);
    // Fetch and load streams are separate L1 arrays.
    auto dmiss = cs.access(0, 0x8000, AccessType::kLoad, 8, 2000);
    EXPECT_EQ(dmiss.level, ServiceLevel::kPrivate); // BPC holds the line.
}

TEST(CoherentSystem, DeviceWindowRoutesToDevice)
{
    struct Echo : NcDevice
    {
        std::uint64_t
        ncLoad(Addr off, std::uint32_t, Cycles, Cycles &service) override
        {
            service = 5;
            return off + 100;
        }
        void
        ncStore(Addr, std::uint32_t, std::uint64_t value, Cycles,
                Cycles &service) override
        {
            service = 5;
            last = value;
        }
        std::uint64_t last = 0;
    };

    CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                      HomingPolicy::kAddressNode);
    Echo dev;
    cs.addDevice(0xf0000000, 0x1000, 1, &dev);

    auto r = cs.access(0, 0xf0000008, AccessType::kNcLoad, 8, 0);
    EXPECT_EQ(r.level, ServiceLevel::kDevice);
    EXPECT_EQ(cs.memory().load(0xf0000008, 8), 108u);

    cs.memory().store(0xf0000010, 8, 77);
    cs.access(0, 0xf0000010, AccessType::kNcStore, 8, 100);
    EXPECT_EQ(dev.last, 77u);
}

TEST(CoherentSystem, PropertyRandomizedInvariants)
{
    sim::Xoroshiro rng(2024);
    Geometry geo = smallGeo(2, 4);
    geo.bpcBytes = 1 << 10; // Small caches force evictions/recalls.
    geo.l1dBytes = 512;
    geo.l1iBytes = 512;
    geo.llcSliceBytes = 4 << 10;
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kAddressNode);

    Cycles now = 0;
    for (int i = 0; i < 8000; ++i) {
        auto gid = static_cast<GlobalTileId>(rng.below(8));
        Addr addr = (rng.below(512) * 64) +
                    (rng.chance(0.5) ? geo.memPerNode : 0);
        AccessType type;
        switch (rng.below(4)) {
          case 0:
            type = AccessType::kStore;
            break;
          case 3:
            type = AccessType::kAtomic;
            break;
          default:
            type = AccessType::kLoad;
            break;
        }
        now += 20;
        cs.access(gid, addr, type, 8, now);
        if (i % 500 == 0) {
            ASSERT_TRUE(cs.checkInclusion()) << "iteration " << i;
            ASSERT_TRUE(cs.checkDirectory()) << "iteration " << i;
        }
    }
    EXPECT_TRUE(cs.checkInclusion());
    EXPECT_TRUE(cs.checkDirectory());
    EXPECT_GT(cs.stats().counterValue("cs.llc.evictions"), 0u);
    EXPECT_GT(cs.stats().counterValue("cs.bpc.writebacks"), 0u);
}

TEST(CoherentSystem, GlobalHashHomingCrossesForFills)
{
    // Under kGlobalHash a line whose DRAM is local can be homed remotely;
    // the ablation bench quantifies this, here we check it happens.
    Geometry geo = smallGeo(4, 4);
    CoherentSystem cs(geo, TimingParams{}, HomingPolicy::kGlobalHash);
    std::uint64_t crossings = 0;
    for (int i = 0; i < 64; ++i) {
        auto r = cs.access(0, static_cast<Addr>(i) * 64, AccessType::kLoad,
                           8, static_cast<Cycles>(i) * 1000);
        crossings += r.crossedNode ? 1 : 0;
    }
    EXPECT_GT(crossings, 0u);
}

TEST(CoherentSystem, RejectsOversizedSystems)
{
    EXPECT_THROW(CoherentSystem(smallGeo(8, 12), TimingParams{},
                                HomingPolicy::kAddressNode),
                 FatalError);
}

} // namespace
} // namespace smappic::cache

namespace smappic::cache
{
namespace
{

TEST(CoherentSystem, CdrRestrictsCachingToTheDomain)
{
    Geometry geo;
    geo.nodes = 2;
    geo.tilesPerNode = 2;
    geo.memPerNode = 1ULL << 30;
    CoherentSystem cs(geo, TimingParams{},
                      HomingPolicy::kCoherenceDomains);

    // In-domain accesses cache normally.
    cs.access(0, 0x1000, AccessType::kLoad, 8, 0);
    auto hit = cs.access(0, 0x1000, AccessType::kLoad, 8, 1000);
    EXPECT_EQ(hit.level, ServiceLevel::kL1);

    // Out-of-domain accesses are uncached every time.
    Addr remote = geo.memPerNode + 0x1000;
    auto r1 = cs.access(0, remote, AccessType::kLoad, 8, 2000);
    auto r2 = cs.access(0, remote, AccessType::kLoad, 8, 10000);
    EXPECT_EQ(r1.level, ServiceLevel::kDramRemote);
    EXPECT_EQ(r2.level, ServiceLevel::kDramRemote); // Never a cache hit.
    EXPECT_TRUE(r2.crossedNode);
    EXPECT_EQ(cs.stats().counterValue("cs.cdr.uncachedRemote"), 2u);
    // The domain's own tiles are unaffected.
    auto local_other = cs.access(2, remote, AccessType::kLoad, 8, 20000);
    (void)local_other;
    auto local_hit = cs.access(2, remote, AccessType::kLoad, 8, 30000);
    EXPECT_EQ(local_hit.level, ServiceLevel::kL1);
}

TEST(CoherentSystem, CdrSlowerThanSmappicHomingOnSharedData)
{
    // The quantitative version of "works out of the box": cross-node
    // sharing under CDR pays an uncached round trip per access.
    Geometry geo;
    geo.nodes = 2;
    geo.tilesPerNode = 2;
    geo.memPerNode = 1ULL << 30;

    auto total = [&](HomingPolicy policy) {
        CoherentSystem cs(geo, TimingParams{}, policy);
        Cycles sum = 0;
        Addr base = geo.memPerNode + 0x4000; // Node 1 memory.
        for (int i = 0; i < 32; ++i) {
            auto r = cs.access(0, base + static_cast<Addr>(i % 4) * 8,
                               AccessType::kLoad, 8,
                               static_cast<Cycles>(i) * 1000);
            sum += r.latency;
        }
        return sum;
    };

    Cycles smappic = total(HomingPolicy::kAddressNode);
    Cycles cdr = total(HomingPolicy::kCoherenceDomains);
    EXPECT_GT(cdr, smappic * 5); // Reuse caches under SMAPPIC, never CDR.
}

// ---------- table-driven MESI directory transitions ----------

/** Compact directory-state descriptor for one line, derived from the
 *  inspection API: "I" (no entry), "M<g>" (owned), "S{a,b}" (shared),
 *  "L" (resident at home with no private copies — post-atomic/recall). */
std::string
dirState(CoherentSystem &cs, Addr line)
{
    cache::LineView v = cs.inspectLine(line);
    if (!v.hasDirEntry)
        return "I";
    if (v.owner >= 0)
        return "M" + std::to_string(v.owner);
    if (v.sharers != 0) {
        std::string s = "S{";
        bool first = true;
        for (std::uint32_t g = 0; g < v.tiles.size(); ++g) {
            if (!((v.sharers >> g) & 1))
                continue;
            s += (first ? "" : ",") + std::to_string(g);
            first = false;
        }
        return s + "}";
    }
    return "L";
}

TEST(CoherentSystem, MesiTransitionTableCrossProduct)
{
    // Written-down expected-next-state table: every reachable directory
    // start state x every request shape on a 1x2 system. Start states
    // are established by a setup access sequence on a fresh system.
    using Op = std::pair<GlobalTileId, AccessType>;
    struct Start
    {
        const char *name;
        std::vector<Op> setup;
    };
    const std::vector<Start> starts = {
        {"I", {}},
        {"S{0}", {{0, AccessType::kLoad}}},
        {"S{0,1}", {{0, AccessType::kLoad}, {1, AccessType::kLoad}}},
        {"M0", {{0, AccessType::kStore}}},
        {"L", {{0, AccessType::kAtomic}}},
    };
    const std::vector<Op> requests = {
        {0, AccessType::kLoad},  {1, AccessType::kLoad},
        {0, AccessType::kStore}, {1, AccessType::kStore},
        {1, AccessType::kFetch}, {1, AccessType::kAtomic},
    };
    // expected[start][request]: rows in `starts` order, columns in
    // `requests` order.
    const char *expected[5][6] = {
        // 0:load    1:load    0:store 1:store 1:fetch   1:atomic
        {"S{0}", "S{1}", "M0", "M1", "S{1}", "L"},     // from I
        {"S{0}", "S{0,1}", "M0", "M1", "S{0,1}", "L"}, // from S0
        {"S{0,1}", "S{0,1}", "M0", "M1", "S{0,1}", "L"}, // from S01
        {"M0", "S{0,1}", "M0", "M1", "S{0,1}", "L"},   // from M0
        {"S{0}", "S{1}", "M0", "M1", "S{1}", "L"},     // from L
    };

    const Addr line = 0x8000;
    for (std::size_t si = 0; si < starts.size(); ++si) {
        for (std::size_t ri = 0; ri < requests.size(); ++ri) {
            CoherentSystem cs(smallGeo(1, 2), TimingParams{},
                              HomingPolicy::kAddressNode);
            Cycles t = 0;
            for (const Op &op : starts[si].setup)
                cs.access(op.first, line, op.second, 8, t += 1000);
            ASSERT_EQ(dirState(cs, line), starts[si].name)
                << "setup for " << starts[si].name;

            cs.access(requests[ri].first, line, requests[ri].second, 8,
                      t += 1000);
            EXPECT_EQ(dirState(cs, line), expected[si][ri])
                << "from " << starts[si].name << ", request "
                << static_cast<int>(requests[ri].second) << " by tile "
                << requests[ri].first;
            EXPECT_TRUE(cs.checkDirectory());
        }
    }
}

} // namespace
} // namespace smappic::cache
