/**
 * @file
 * Open-addressing hash table keyed by cache-line address, used for the
 * coherence directory's shards (CoherentSystem).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace smappic::cache
{

/**
 * Map from line address (64-byte aligned) to @p Entry, stored inline in
 * one array with linear probing. No entry is a heap node of its own, and
 * inserts and erases at a steady entry count allocate nothing.
 *
 * erase() leaves a tombstone and never moves another entry, so a
 * reference to one entry survives erasing others. Only insert() moves
 * entries, when it grows the array or purges its tombstones: take
 * references after the insert.
 */
template <typename Entry>
class LineTable
{
  public:
    /** @p line's entry, or null when the table has none. */
    Entry *
    find(Addr line)
    {
        if (slots_.empty())
            return nullptr;
        Slot &s = slots_[probe(line)];
        return s.key == line ? &s.entry : nullptr;
    }

    const Entry *
    find(Addr line) const
    {
        return const_cast<LineTable *>(this)->find(line);
    }

    /** @p line's entry, value-initialized if it had none. May move every
     *  other entry. */
    Entry &
    insert(Addr line)
    {
        // One walk of @p line's probe run finds its slot or, when it is
        // absent, where it belongs: the run's first slot that holds no
        // line (its first tombstone, else the empty slot ending it).
        std::size_t i = 0;
        std::size_t hole = kNoSlot;
        if (!slots_.empty()) {
            for (i = homeSlot(line); slots_[i].key != kEmpty; i = next(i)) {
                if (slots_[i].key == line)
                    return slots_[i].entry;
                if (hole == kNoSlot && slots_[i].key == kTombstone)
                    hole = i;
            }
            if (hole != kNoSlot)
                i = hole;
        }
        // At most half the slots hold lines and at most three quarters
        // are not empty, so probe runs stay short and always end. Both
        // rebuilds move lines, so the walk is redone after them.
        if ((live_ + 1) * 2 > slots_.size()) {
            grow();
            i = firstFree(line);
        } else if ((live_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
            purge();
            i = firstFree(line);
        }
        if (slots_[i].key == kTombstone)
            --tombstones_;
        slots_[i] = Slot{line, Entry{}};
        ++live_;
        return slots_[i].entry;
    }

    /** Drops @p line's entry, if any; moves no other entry. */
    void
    erase(Addr line)
    {
        if (slots_.empty())
            return;
        Slot &s = slots_[probe(line)];
        if (s.key != line)
            return;
        s.key = kTombstone;
        --live_;
        ++tombstones_;
    }

    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmpty;
        live_ = 0;
        tombstones_ = 0;
    }

    std::size_t size() const { return live_; }

    /** Calls @p fn(line, entry) for every entry, in table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (isLine(s.key))
                fn(s.key, s.entry);
        }
    }

  private:
    struct Slot
    {
        Addr key = kEmpty;
        Entry entry{};
    };
    // Keys that are no line address: lines are 64-byte aligned.
    static constexpr Addr kEmpty = 1;
    static constexpr Addr kTombstone = 2;
    static constexpr Addr kUnplaced = 4; ///< Marks a line during purge().
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    static bool isLine(Addr key) { return (key & 7) == 0; }

    std::size_t
    homeSlot(Addr line) const
    {
        return static_cast<std::size_t>(
            ((line >> 6) * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    /** First slot of absent @p line's probe run that holds no line. */
    std::size_t
    firstFree(Addr line) const
    {
        std::size_t i = homeSlot(line);
        while (isLine(slots_[i].key))
            i = next(i);
        return i;
    }

    /** Index of @p line's slot, or of the empty slot that ends its probe
     *  run. The table must have a slot. */
    std::size_t
    probe(Addr line) const
    {
        std::size_t i = homeSlot(line);
        while (slots_[i].key != line && slots_[i].key != kEmpty)
            i = next(i);
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        std::size_t size = std::max<std::size_t>(16, old.size() * 2);
        slots_.assign(size, Slot{});
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(size));
        tombstones_ = 0;
        for (const Slot &s : old) {
            if (!isLine(s.key))
                continue;
            std::size_t i = homeSlot(s.key);
            while (slots_[i].key != kEmpty)
                i = next(i);
            slots_[i] = s;
        }
    }

    /**
     * Drops the tombstones in place, so a steady entry count never
     * allocates. Every line is marked unplaced and every tombstone
     * becomes empty. Each unplaced line then moves to the first slot of
     * its probe run that holds no placed line. That slot is at or before
     * its own; when another unplaced line sits there, the two swap and
     * the swapped-in one is placed next. A placed line never moves
     * again, and every slot between its home and it holds a placed line,
     * so lookups find it.
     */
    void
    purge()
    {
        for (Slot &s : slots_) {
            if (s.key == kTombstone)
                s.key = kEmpty;
            else if (isLine(s.key))
                s.key |= kUnplaced;
        }
        tombstones_ = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            while ((slots_[i].key & kUnplaced) != 0) {
                Addr line = slots_[i].key & ~kUnplaced;
                std::size_t j = homeSlot(line);
                while (isLine(slots_[j].key))
                    j = next(j);
                if (j == i) {
                    slots_[i].key = line;
                } else if (slots_[j].key == kEmpty) {
                    slots_[j] = Slot{line, slots_[i].entry};
                    slots_[i].key = kEmpty;
                } else {
                    std::swap(slots_[i], slots_[j]);
                    slots_[j].key = line;
                }
            }
        }
    }

    std::vector<Slot> slots_; ///< Power-of-two size, or empty.
    std::size_t live_ = 0;
    std::size_t tombstones_ = 0;
    unsigned shift_ = 64;
};

} // namespace smappic::cache
