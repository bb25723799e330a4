/**
 * @file
 * Unit and property tests for the set-associative CacheArray.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/line_table.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "snap/state_io.hpp"

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

/**
 * The array-of-entries CacheArray that the set-contiguous one replaced,
 * kept as a reference model: one {line, state, lastUse, valid} record
 * per way, a valid flag instead of a sentinel tag, a divide for the set
 * index. Its saveState() writes the checkpoint format the real array
 * must keep.
 */
class RefCacheArray
{
  public:
    RefCacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                  std::uint32_t line_bytes)
        : ways_(ways), lineBytes_(line_bytes),
          sets_(static_cast<std::uint32_t>(size_bytes / ways / line_bytes)),
          entries_(static_cast<std::size_t>(sets_) * ways_)
    {
    }

    bool
    lookup(Addr addr)
    {
        Entry *e = find(addr);
        if (!e)
            return false;
        e->lastUse = ++useClock_;
        return true;
    }

    bool
    lookupIfState(Addr addr, std::uint32_t state)
    {
        Entry *e = find(addr);
        if (!e || e->state != state)
            return false;
        e->lastUse = ++useClock_;
        return true;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    std::uint32_t
    state(Addr addr)
    {
        Entry *e = find(addr);
        panicIf(!e, "state() on non-resident line");
        return e->state;
    }

    void
    setState(Addr addr, std::uint32_t state)
    {
        Entry *e = find(addr);
        panicIf(!e, "setState() on non-resident line");
        e->state = state;
    }

    std::optional<Victim>
    insert(Addr addr, std::uint32_t state)
    {
        Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
        std::size_t base = setIndex(addr) * ways_;
        Entry *free = nullptr;
        Entry *lru = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (!e.valid) {
                if (!free)
                    free = &e;
                continue;
            }
            panicIf(e.line == line, "insert() of already-resident line");
            if (!lru || e.lastUse < lru->lastUse)
                lru = &e;
        }
        std::optional<Victim> victim;
        Entry *slot = free;
        if (!slot) {
            slot = lru;
            victim = Victim{slot->line, slot->state};
        }
        slot->line = line;
        slot->state = state;
        slot->valid = true;
        slot->lastUse = ++useClock_;
        return victim;
    }

    std::optional<Victim>
    insertIfAbsent(Addr addr, std::uint32_t state)
    {
        if (probe(addr))
            return std::nullopt;
        return insert(addr, state);
    }

    std::optional<Victim>
    victimFor(Addr addr)
    {
        Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
        std::size_t base = setIndex(addr) * ways_;
        const Entry *lru = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Entry &e = entries_[base + w];
            if (!e.valid || e.line == line)
                return std::nullopt;
            if (!lru || e.lastUse < lru->lastUse)
                lru = &e;
        }
        return Victim{lru->line, lru->state};
    }

    std::optional<std::uint32_t>
    invalidate(Addr addr)
    {
        Entry *e = find(addr);
        if (!e)
            return std::nullopt;
        e->valid = false;
        return e->state;
    }

    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    void
    saveState(snap::Writer &w) const
    {
        w.u32(sets_);
        w.u32(ways_);
        w.u32(lineBytes_);
        w.u64(useClock_);
        for (const Entry &e : entries_) {
            w.boolean(e.valid);
            if (!e.valid)
                continue;
            w.u64(e.line);
            w.u32(e.state);
            w.u64(e.lastUse);
        }
    }

  private:
    struct Entry
    {
        Addr line = 0;
        std::uint32_t state = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr / lineBytes_) & (sets_ - 1));
    }

    Entry *
    find(Addr addr)
    {
        Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
        std::size_t base = setIndex(addr) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.valid && e.line == line)
                return &e;
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint32_t sets_;
    std::uint64_t useClock_ = 0;
    std::vector<Entry> entries_;
};

/** One array's checkpoint payload, as a byte string. */
template <typename Array>
std::string
savedBytes(const Array &array)
{
    std::ostringstream out;
    snap::Writer w(out);
    w.begin(snap::Section::kCache);
    array.saveState(w);
    w.end();
    w.finish();
    return out.str();
}

/** Restores @p bytes (a savedBytes() image) into @p array. */
void
restoreBytes(CacheArray &array, const std::string &bytes,
             const std::string &name)
{
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) / (name + ".smck");
    {
        std::ofstream os(path, std::ios::binary);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    snap::Reader r(path.string());
    r.open(snap::Section::kCache);
    array.restoreState(r);
    EXPECT_EQ(r.remaining(), 0u);
    std::filesystem::remove(path);
}

using ArrayGeom = std::tuple<std::uint32_t, std::uint32_t>; // ways, line.

class CacheArrayOracle : public ::testing::TestWithParam<ArrayGeom>
{
};

/** Every operation returns what the reference model returns, and the
 *  checkpoint bytes stay equal, under seeded random traffic that hits,
 *  misses, evicts, changes states and flushes. */
TEST_P(CacheArrayOracle, MatchesTheArrayOfEntriesModel)
{
    auto [ways, line_bytes] = GetParam();
    constexpr std::uint32_t kSets = 8;
    std::uint64_t bytes = std::uint64_t{kSets} * ways * line_bytes;
    CacheArray real(bytes, ways, line_bytes);
    RefCacheArray ref(bytes, ways, line_bytes);
    sim::Xoroshiro rng(ways * 1000 + line_bytes);
    // Three times the capacity in distinct lines, so sets overflow and
    // lines come back after eviction; any byte within a line.
    const std::uint64_t lines = std::uint64_t{kSets} * ways * 3;
    auto any_addr = [&] {
        return 0x80000000 + rng.below(lines) * line_bytes +
               rng.below(line_bytes);
    };
    const std::string name = "oracle_" + std::to_string(ways) + "_" +
                             std::to_string(line_bytes);

    for (int batch = 0; batch < 60; ++batch) {
        for (int op = 0; op < 250; ++op) {
            Addr addr = any_addr();
            auto state = static_cast<std::uint32_t>(rng.below(4));
            SCOPED_TRACE(::testing::Message()
                         << "batch " << batch << " op " << op << " addr 0x"
                         << std::hex << addr);
            switch (rng.below(10)) {
              case 0:
                ASSERT_EQ(real.lookup(addr), ref.lookup(addr));
                break;
              case 1:
                ASSERT_EQ(real.lookupIfState(addr, state),
                          ref.lookupIfState(addr, state));
                break;
              case 2:
                ASSERT_EQ(real.probe(addr), ref.probe(addr));
                break;
              case 3:
                if (ref.probe(addr)) {
                    ASSERT_EQ(real.state(addr), ref.state(addr));
                    real.setState(addr, state);
                    ref.setState(addr, state);
                } else {
                    EXPECT_THROW(real.state(addr), PanicError);
                    EXPECT_THROW(real.setState(addr, state), PanicError);
                }
                break;
              case 4:
              case 5:
                if (ref.probe(addr)) {
                    EXPECT_THROW(real.insert(addr, state), PanicError);
                } else {
                    auto got = real.insert(addr, state);
                    auto want = ref.insert(addr, state);
                    ASSERT_EQ(got.has_value(), want.has_value());
                    if (want) {
                        ASSERT_EQ(got->line, want->line);
                        ASSERT_EQ(got->state, want->state);
                    }
                }
                break;
              case 6: {
                  auto got = real.insertIfAbsent(addr, state);
                  auto want = ref.insertIfAbsent(addr, state);
                  ASSERT_EQ(got.has_value(), want.has_value());
                  if (want) {
                      ASSERT_EQ(got->line, want->line);
                      ASSERT_EQ(got->state, want->state);
                  }
                  break;
              }
              case 7: {
                  auto got = real.victimFor(addr);
                  auto want = ref.victimFor(addr);
                  ASSERT_EQ(got.has_value(), want.has_value());
                  if (want) {
                      ASSERT_EQ(got->line, want->line);
                      ASSERT_EQ(got->state, want->state);
                  }
                  break;
              }
              case 8:
                ASSERT_EQ(real.invalidate(addr), ref.invalidate(addr));
                break;
              default:
                // A flush now and then; mostly more lookups.
                if (rng.below(100) == 0) {
                    real.flush();
                    ref.flush();
                } else {
                    ASSERT_EQ(real.lookup(addr), ref.lookup(addr));
                }
                break;
            }
        }
        ASSERT_EQ(real.occupancy(), ref.occupancy()) << "batch " << batch;
        std::string saved = savedBytes(real);
        ASSERT_EQ(saved, savedBytes(ref)) << "batch " << batch;

        // A restore into a fresh array reproduces the bytes, and the
        // restored array carries on as the original would.
        if (batch % 10 == 9) {
            CacheArray restored(bytes, ways, line_bytes);
            restoreBytes(restored, saved, name);
            ASSERT_EQ(savedBytes(restored), saved) << "batch " << batch;
            real = restored;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WaysAndLines, CacheArrayOracle,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(32u, 64u)),
    [](const ::testing::TestParamInfo<ArrayGeom> &info) {
        return std::to_string(std::get<0>(info.param)) + "way" +
               std::to_string(std::get<1>(info.param)) + "B";
    });

TEST(CacheArray, RejectsOneByteLines)
{
    // A free way's tag is all ones, which only a 1-byte line could be.
    EXPECT_THROW(CacheArray(64, 4, 1), FatalError);
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
        if (got) {
            ASSERT_EQ(*got, it->second) << "op " << op;
        }
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
