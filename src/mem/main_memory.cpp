#include "mem/main_memory.hpp"

#include <algorithm>

#include "snap/state_io.hpp"

namespace smappic::mem
{

const MainMemory::PageEntry *
MainMemory::findPage(std::uint64_t idx) const
{
    auto it = pages_.find(idx);
    return it == pages_.end() ? nullptr : &it->second;
}

MainMemory::PageEntry &
MainMemory::touchPage(std::uint64_t idx)
{
    auto it = pages_.find(idx);
    if (it == pages_.end()) {
        it = pages_.emplace(idx, PageEntry{}).first;
        it->second.bytes.assign(kPageBytes, 0);
    }
    PageEntry &page = it->second;
    if (page.stamp == nullptr)
        page.stamp = &stampSlot(idx);
    markWritten(page);
    return page;
}

MainMemory::PageEntry *
MainMemory::directPage(Addr addr)
{
    if (concurrent_)
        return nullptr;
    auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end() || it->second.stamp == nullptr)
        return nullptr;
    return &it->second;
}

std::atomic<std::uint64_t> &
MainMemory::stampSlot(std::uint64_t idx)
{
    auto &slot = stamps_[idx];
    if (!slot)
        slot = std::make_unique<std::atomic<std::uint64_t>>(0);
    return *slot;
}

void
MainMemory::bumpAllStamps()
{
    for (auto &[idx, slot] : stamps_)
        slot->fetch_add(1, std::memory_order_release);
}

const std::atomic<std::uint64_t> &
MainMemory::pageWriteStamp(Addr addr)
{
    // Write lock: the slot may have to be created, rehashing stamps_.
    auto lock = writeLock();
    return stampSlot(addr / kPageBytes);
}

void
MainMemory::clear()
{
    auto lock = writeLock();
    pages_.clear();
    ++generation_;
    bumpAllStamps();
}

void
MainMemory::readBytes(Addr addr, void *out, std::uint64_t len) const
{
    auto lock = readLock();
    readBytesImpl(addr, out, len);
}

void
MainMemory::readBytesImpl(Addr addr, void *out, std::uint64_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t chunk = std::min(len, kPageBytes - off);
        if (const PageEntry *p = findPage(page))
            std::memcpy(dst, p->bytes.data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
MainMemory::writeBytes(Addr addr, const void *in, std::uint64_t len)
{
    auto lock = writeLock();
    writeBytesImpl(addr, in, len);
}

void
MainMemory::writeBytesImpl(Addr addr, const void *in, std::uint64_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        std::uint64_t page = addr / kPageBytes;
        std::uint64_t off = addr % kPageBytes;
        std::uint64_t chunk = std::min(len, kPageBytes - off);
        std::memcpy(touchPage(page).bytes.data() + off, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

std::uint64_t
MainMemory::load(Addr addr, std::uint32_t bytes) const
{
    panicIf(bytes == 0 || bytes > 8, "load width must be 1..8 bytes");
    std::uint64_t value = 0;
    auto lock = readLock();
    // Host is little-endian like RISC-V.
    readBytesImpl(addr, &value, bytes);
    return value;
}

void
MainMemory::store(Addr addr, std::uint32_t bytes, std::uint64_t value)
{
    panicIf(bytes == 0 || bytes > 8, "store width must be 1..8 bytes");
    auto lock = writeLock();
    writeBytesImpl(addr, &value, bytes);
}

std::size_t
MainMemory::pagesDirtySince(std::uint64_t since) const
{
    auto lock = readLock();
    std::size_t n = 0;
    for (const auto &[idx, page] : pages_) {
        if (page.epoch >= since)
            ++n;
    }
    return n;
}

void
MainMemory::saveState(snap::Writer &w) const
{
    auto lock = readLock();
    std::vector<std::uint64_t> indices;
    indices.reserve(pages_.size());
    for (const auto &[idx, page] : pages_)
        indices.push_back(idx);
    std::sort(indices.begin(), indices.end());
    w.u64(indices.size());
    for (std::uint64_t idx : indices) {
        const PageEntry &page = pages_.at(idx);
        w.u64(idx);
        w.bytes(page.bytes.data(), page.bytes.size());
    }
}

void
MainMemory::restoreState(snap::Reader &r)
{
    auto lock = writeLock();
    pages_.clear();
    ++generation_;
    // Every memoized reader (decode caches) must drop bytes read from
    // the pre-restore image, including from pages absent afterwards.
    bumpAllStamps();
    epoch_ = 0;
    std::uint64_t count = r.u64();
    pages_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t idx = r.u64();
        PageEntry &page = pages_[idx];
        page.bytes.resize(kPageBytes);
        r.bytes(page.bytes.data(), kPageBytes);
    }
}

} // namespace smappic::mem
