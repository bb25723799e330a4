#include "cache/cache_array.hpp"

#include <algorithm>
#include <bit>

#include "snap/state_io.hpp"

namespace smappic::cache
{

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
    : ways_(ways), lineBytes_(line_bytes)
{
    fatalIf(ways == 0, "cache needs at least one way");
    fatalIf(line_bytes < 2 || !std::has_single_bit(line_bytes),
            "cache line size must be a power of two of at least 2 bytes");
    fatalIf(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) != 0,
            "cache size must be a multiple of ways * line size");
    std::uint64_t sets = size_bytes / ways / line_bytes;
    fatalIf(sets == 0 || !std::has_single_bit(sets),
            "cache set count must be a nonzero power of two");
    sets_ = static_cast<std::uint32_t>(sets);
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    std::size_t entries = static_cast<std::size_t>(sets_) * ways_;
    tags_.assign(entries, kInvalid);
    states_.assign(entries, 0);
    stamps_.assign(entries, 0);
}

std::optional<Victim>
CacheArray::place(Addr addr, std::uint32_t state, bool if_absent)
{
    Addr line = lineOf(addr);
    std::size_t base = setBase(addr);

    // One pass with selects, no data-dependent branch: a free way ranks
    // 0 and a resident one 1 + its stamp, and the first lowest rank
    // wins. That is the first free way, else the true-LRU one (stamps
    // are unique and stay far below 2^64 - 1).
    bool present = false;
    std::size_t slot = base;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t i = base; i < base + ways_; ++i) {
        Addr tag = tags_[i];
        present |= tag == line;
        std::uint64_t rank = tag == kInvalid ? 0 : stamps_[i] + 1;
        bool lower = rank < best;
        slot = lower ? i : slot;
        best = lower ? rank : best;
    }
    if (present) {
        panicIf(!if_absent, "insert() of already-resident line");
        return std::nullopt;
    }

    std::optional<Victim> victim;
    if (best != 0)
        victim = Victim{tags_[slot], states_[slot]};
    tags_[slot] = line;
    states_[slot] = state;
    stamps_[slot] = ++useClock_;
    return victim;
}

std::optional<Victim>
CacheArray::victimFor(Addr addr) const
{
    Addr line = lineOf(addr);
    std::size_t base = setBase(addr);
    std::size_t lru = kNone;
    for (std::size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == kInvalid || tags_[i] == line)
            return std::nullopt;
        if (lru == kNone || stamps_[i] < stamps_[lru])
            lru = i;
    }
    return Victim{tags_[lru], states_[lru]};
}

void
CacheArray::flush()
{
    std::fill(tags_.begin(), tags_.end(), kInvalid);
}

void
CacheArray::forEachLine(
    const std::function<void(Addr, std::uint32_t)> &fn) const
{
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] != kInvalid)
            fn(tags_[i], states_[i]);
    }
}

std::uint64_t
CacheArray::occupancy() const
{
    return static_cast<std::uint64_t>(tags_.size()) -
           static_cast<std::uint64_t>(
               std::count(tags_.begin(), tags_.end(), kInvalid));
}

void
CacheArray::saveState(snap::Writer &w) const
{
    w.u32(sets_);
    w.u32(ways_);
    w.u32(lineBytes_);
    w.u64(useClock_);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        bool valid = tags_[i] != kInvalid;
        w.boolean(valid);
        if (!valid)
            continue;
        w.u64(tags_[i]);
        w.u32(states_[i]);
        w.u64(stamps_[i]);
    }
}

void
CacheArray::restoreState(snap::Reader &r)
{
    std::uint32_t sets = r.u32();
    std::uint32_t ways = r.u32();
    std::uint32_t line_bytes = r.u32();
    fatalIf(sets != sets_ || ways != ways_ || line_bytes != lineBytes_,
            strfmt("checkpoint cache geometry %ux%u/%uB does not match the "
                   "live array's %ux%u/%uB",
                   sets, ways, line_bytes, sets_, ways_, lineBytes_));
    useClock_ = r.u64();
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (!r.boolean()) {
            tags_[i] = kInvalid;
            states_[i] = 0;
            stamps_[i] = 0;
            continue;
        }
        tags_[i] = r.u64();
        states_[i] = r.u32();
        stamps_[i] = r.u64();
    }
}

} // namespace smappic::cache
