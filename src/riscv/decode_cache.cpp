#include "riscv/decode_cache.hpp"

#include <sys/mman.h>

#include <new>

#include "sim/log.hpp"

namespace smappic::riscv
{

DecodeCache::DecodeCache(const DecodeCacheConfig &cfg)
    : enabled_(cfg.enabled)
{
    if (!enabled_)
        return;
    fatalIf(cfg.sets == 0 || (cfg.sets & (cfg.sets - 1)) != 0,
            "decode cache entry count must be a power of two");
    sets_ = cfg.sets;
}

DecodeCache::~DecodeCache()
{
    if (entries_ != &placeholder_)
        munmap(entries_, sets_ * sizeof(Entry));
}

void
DecodeCache::allocate()
{
    // All-zero bytes are an invalid entry, and a fresh anonymous mapping
    // is zero without being touched, so only the pages that fills reach
    // are ever faulted in: a core that runs a short loop pays for a page
    // or two, not for the whole table. (malloc would hand out reused
    // heap memory once its dynamic mmap threshold has risen, and calloc
    // would then clear all of it.)
    void *table = mmap(nullptr, sets_ * sizeof(Entry), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED)
        throw std::bad_alloc();
    entries_ = static_cast<Entry *>(table);
    mask_ = sets_ - 1;
}

} // namespace smappic::riscv
