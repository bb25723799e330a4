#include "cache/cache_array.hpp"

#include <bit>

#include "snap/state_io.hpp"

namespace smappic::cache
{

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
    : ways_(ways), lineBytes_(line_bytes)
{
    fatalIf(ways == 0, "cache needs at least one way");
    fatalIf(line_bytes == 0 || !std::has_single_bit(line_bytes),
            "cache line size must be a power of two");
    fatalIf(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) != 0,
            "cache size must be a multiple of ways * line size");
    std::uint64_t sets = size_bytes / ways / line_bytes;
    fatalIf(sets == 0 || !std::has_single_bit(sets),
            "cache set count must be a nonzero power of two");
    sets_ = static_cast<std::uint32_t>(sets);
    entries_.resize(static_cast<std::size_t>(sets_) * ways_);
}

std::uint32_t
CacheArray::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / lineBytes_) & (sets_ - 1));
}

CacheArray::Entry *
CacheArray::find(Addr addr)
{
    Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
    std::size_t base = static_cast<std::size_t>(setIndex(addr)) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid && e.line == line)
            return &e;
    }
    return nullptr;
}

const CacheArray::Entry *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

bool
CacheArray::lookup(Addr addr)
{
    Entry *e = find(addr);
    if (!e)
        return false;
    e->lastUse = ++useClock_;
    return true;
}

bool
CacheArray::lookupIfState(Addr addr, std::uint32_t state)
{
    Entry *e = find(addr);
    if (!e || e->state != state)
        return false;
    e->lastUse = ++useClock_;
    return true;
}

bool
CacheArray::probe(Addr addr) const
{
    return find(addr) != nullptr;
}

std::uint32_t
CacheArray::state(Addr addr) const
{
    const Entry *e = find(addr);
    panicIf(!e, "state() on non-resident line");
    return e->state;
}

void
CacheArray::setState(Addr addr, std::uint32_t state)
{
    Entry *e = find(addr);
    panicIf(!e, "setState() on non-resident line");
    e->state = state;
}

std::optional<Victim>
CacheArray::insert(Addr addr, std::uint32_t state)
{
    Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
    std::size_t base = static_cast<std::size_t>(setIndex(addr)) * ways_;

    // One pass: check residency and pick the first invalid way, else the
    // true-LRU one.
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
CacheArray::victimFor(Addr addr) const
{
    Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
    std::size_t base = static_cast<std::size_t>(setIndex(addr)) * ways_;
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
CacheArray::invalidate(Addr addr)
{
    Entry *e = find(addr);
    if (!e)
        return std::nullopt;
    e->valid = false;
    return e->state;
}

void
CacheArray::flush()
{
    for (Entry &e : entries_)
        e.valid = false;
}

void
CacheArray::forEachLine(
    const std::function<void(Addr, std::uint32_t)> &fn) const
{
    for (const Entry &e : entries_) {
        if (e.valid)
            fn(e.line, e.state);
    }
}

std::uint64_t
CacheArray::occupancy() const
{
    std::uint64_t n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

void
CacheArray::saveState(snap::Writer &w) const
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
    for (Entry &e : entries_) {
        e.valid = r.boolean();
        if (!e.valid) {
            e = Entry{};
            continue;
        }
        e.line = r.u64();
        e.state = r.u32();
        e.lastUse = r.u64();
    }
}

} // namespace smappic::cache
