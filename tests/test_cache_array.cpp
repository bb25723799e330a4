/**
 * @file
 * Unit and property tests for the set-associative CacheArray.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/line_table.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic::cache
{
namespace
{

TEST(CacheArray, GeometryDerivation)
{
    CacheArray c(8 << 10, 4, 64); // Table 2 L1D: 8 KB, 4 ways.
    EXPECT_EQ(c.sets(), 32u);
    EXPECT_EQ(c.ways(), 4u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(1000, 3, 64), FatalError);
    EXPECT_THROW(CacheArray(8 << 10, 0, 64), FatalError);
    EXPECT_THROW(CacheArray(8 << 10, 4, 48), FatalError);
}

TEST(CacheArray, InsertThenHit)
{
    CacheArray c(4 << 10, 4);
    EXPECT_FALSE(c.lookup(0x1000));
    EXPECT_FALSE(c.insert(0x1000, 7).has_value());
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.lookup(0x103f)); // Same line.
    EXPECT_FALSE(c.lookup(0x1040)); // Next line.
    EXPECT_EQ(c.state(0x1000), 7u);
}

TEST(CacheArray, LookupIfStateMatchesProbeStateLookupFusion)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    c.insert(0x000, 2);
    c.insert(0x100, 3);
    // State mismatch: no hit, and crucially no LRU movement.
    EXPECT_FALSE(c.lookupIfState(0x000, 3));
    EXPECT_FALSE(c.lookupIfState(0x200, 2)); // Not resident.
    // Matching state hits and touches LRU exactly like lookup():
    // after touching only line 0x100, line 0x000 must be the victim.
    EXPECT_TRUE(c.lookupIfState(0x100, 3));
    c.insert(0x200, 0);
    c.insert(0x300, 0);
    auto victim = c.insert(0x400, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0x000u);
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    // Fill the set; all map to set 0.
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(c.insert(a * 256 * 1, 0).has_value());
    // Touch lines 1..3, leaving line 0 LRU.
    for (Addr a = 1; a < 4; ++a)
        EXPECT_TRUE(c.lookup(a * 256));
    auto victim = c.insert(4 * 256, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0u);
}

TEST(CacheArray, VictimCarriesState)
{
    CacheArray c(64, 1, 64); // Direct-mapped, one set.
    c.insert(0x0, 42);
    auto victim = c.insert(0x40 * 1, 0); // Same set? sets=1, yes.
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->state, 42u);
}

TEST(CacheArray, InvalidateReturnsState)
{
    CacheArray c(4 << 10, 4);
    c.insert(0x2000, 3);
    auto st = c.invalidate(0x2000);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(*st, 3u);
    EXPECT_FALSE(c.lookup(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000).has_value());
}

TEST(CacheArray, DoubleInsertPanics)
{
    CacheArray c(4 << 10, 4);
    c.insert(0x3000);
    EXPECT_THROW(c.insert(0x3000), PanicError);
}

TEST(CacheArray, InsertFillsFirstHoleAndStillSeesLinesBehindIt)
{
    CacheArray c(256, 4, 64); // One set, 4 ways.
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 256);
    c.invalidate(1 * 256);
    c.invalidate(2 * 256);
    // Way 3 sits behind two free ways; it must still count as resident.
    EXPECT_THROW(c.insert(3 * 256), PanicError);
    EXPECT_FALSE(c.insert(4 * 256).has_value()); // Takes way 1.
    EXPECT_FALSE(c.insert(5 * 256).has_value()); // Takes way 2.
    // Full again: the victim is the least recently used, line 0.
    auto victim = c.insert(6 * 256);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 0u);
}

TEST(CacheArray, FlushAndOccupancy)
{
    CacheArray c(4 << 10, 4);
    for (Addr a = 0; a < 10; ++a)
        c.insert(a * 64);
    EXPECT_EQ(c.occupancy(), 10u);
    c.flush();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, ForEachLineEnumerates)
{
    CacheArray c(4 << 10, 4);
    std::set<Addr> inserted;
    for (Addr a = 0; a < 16; ++a) {
        c.insert(a * 64, static_cast<std::uint32_t>(a));
        inserted.insert(a * 64);
    }
    std::set<Addr> seen;
    c.forEachLine([&](Addr line, std::uint32_t state) {
        seen.insert(line);
        EXPECT_EQ(state, line / 64);
    });
    EXPECT_EQ(seen, inserted);
}

/** Property: occupancy never exceeds capacity; a hit after insert-without-
 *  eviction is guaranteed. */
TEST(CacheArray, PropertyRandomizedOccupancyBound)
{
    sim::Xoroshiro rng(123);
    CacheArray c(2 << 10, 2);
    std::uint64_t capacity = c.sets() * c.ways();
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 20) & ~0x3fULL;
        if (!c.probe(addr))
            c.insert(addr);
        ASSERT_LE(c.occupancy(), capacity);
        ASSERT_TRUE(c.probe(addr)); // Just-inserted line is resident.
    }
}

/** Property: a working set no larger than one set's ways never thrashes. */
TEST(CacheArray, PropertyNoConflictWithinAssociativity)
{
    CacheArray c(8 << 10, 4);
    // Four lines in the same set must all stay resident.
    std::uint64_t set_stride = 64ULL * c.sets();
    for (int w = 0; w < 4; ++w)
        c.insert(0x100000 + w * set_stride);
    for (int w = 0; w < 4; ++w)
        EXPECT_TRUE(c.probe(0x100000 + w * set_stride));
}

/** victimFor() names exactly the line insert() then evicts, and
 *  changes nothing itself (not even LRU order). */
TEST(CacheArray, VictimForPredictsInsertWithoutMutating)
{
    CacheArray c(8 << 10, 4);
    std::uint64_t set_stride = 64ULL * c.sets();
    EXPECT_FALSE(c.victimFor(0x100000)); // Empty set: a free way.
    for (int w = 0; w < 4; ++w)
        c.insert(0x100000 + w * set_stride, w);
    c.lookup(0x100000); // Way 0 is now most recent; way 1 is LRU.
    EXPECT_FALSE(c.victimFor(0x100000)) << "resident line evicts nothing";

    Addr next = 0x100000 + 4 * set_stride;
    auto predicted = c.victimFor(next);
    ASSERT_TRUE(predicted);
    EXPECT_EQ(predicted->line, 0x100000 + set_stride);
    EXPECT_EQ(predicted->state, 1u);
    EXPECT_EQ(c.victimFor(next)->line, predicted->line);
    auto evicted = c.insert(next);
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->line, predicted->line);
    EXPECT_EQ(evicted->state, predicted->state);
}

TEST(LineTable, MatchesAMapUnderRandomInsertsAndErases)
{
    // Like a directory shard: lines come from a large space and the
    // entry count hovers around 300, so the table grows, then runs at a
    // steady size through many tombstone purges.
    LineTable<std::uint64_t> table;
    std::map<Addr, std::uint64_t> ref;
    std::vector<Addr> live;
    sim::Xoroshiro rng(5);
    auto any_line = [&] { return rng.below(1 << 20) * kCacheLineBytes; };
    for (int op = 0; op < 200'000; ++op) {
        bool grow = live.size() < 300 ? rng.below(3) != 0 : rng.below(3) == 0;
        if (grow || live.empty()) {
            Addr line = any_line();
            if (ref.find(line) == ref.end())
                live.push_back(line);
            table.insert(line) += 1;
            ref[line] += 1;
        } else {
            std::size_t k = rng.below(live.size());
            Addr line = rng.below(8) == 0 ? any_line() : live[k];
            if (line == live[k]) {
                live[k] = live.back();
                live.pop_back();
            }
            table.erase(line);
            ref.erase(line);
        }
        Addr probe = live.empty() || rng.below(2) == 0
                         ? any_line()
                         : live[rng.below(live.size())];
        const std::uint64_t *got = table.find(probe);
        auto it = ref.find(probe);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
        if (got)
            ASSERT_EQ(*got, it->second) << "op " << op;
        ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    }
    std::map<Addr, std::uint64_t> all;
    table.forEach([&](Addr line, std::uint64_t v) { all[line] = v; });
    EXPECT_EQ(all, ref);
}

TEST(LineTable, EraseMovesNoOtherEntry)
{
    LineTable<std::uint64_t> table;
    for (Addr i = 0; i < 1000; ++i)
        table.insert(i * kCacheLineBytes) = i;
    std::uint64_t &held = table.insert(500 * kCacheLineBytes);
    for (Addr i = 0; i < 1000; ++i) {
        if (i != 500)
            table.erase(i * kCacheLineBytes);
    }
    EXPECT_EQ(&held, table.find(500 * kCacheLineBytes));
    EXPECT_EQ(held, 500u);
    EXPECT_EQ(table.size(), 1u);
}

} // namespace
} // namespace smappic::cache
