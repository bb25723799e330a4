#include "workload/intsort.hpp"

#include <algorithm>

#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic::workload
{

namespace
{

const sim::StatId kLlcRemote("cs.serviced.llcRemote");
const sim::StatId kDramRemote("cs.serviced.dramRemote");
const sim::StatId kLlcLocal("cs.serviced.llcLocal");
const sim::StatId kDramLocal("cs.serviced.dramLocal");

} // namespace

IntSortResult
runIntSort(os::GuestSystem &os, const std::vector<GlobalTileId> &tiles,
           const IntSortConfig &cfg)
{
    fatalIf(tiles.empty(), "integer sort needs at least one worker");
    auto &cs = os.memorySystem();
    auto &mem = cs.memory();
    const std::uint64_t n = cfg.keys;
    const std::uint32_t workers = static_cast<std::uint32_t>(tiles.size());
    const std::uint64_t chunk = (n + workers - 1) / workers;
    const std::uint32_t buckets = cfg.buckets;

    // Virtual allocations: key chunks are per-worker so first touch places
    // them locally under NUMA-on; shared arrays are touched by everyone.
    Addr keys_va = os.vmAlloc(n * 8);
    Addr staging_va = os.vmAlloc(n * 8); ///< Per-worker, bucket-grouped.
    Addr out_va = os.vmAlloc(n * 8);
    Addr hist_va = os.vmAlloc(static_cast<std::uint64_t>(workers) *
                              buckets * 8);
    Addr base_va = os.vmAlloc(buckets * 8);

    auto worker_index = [&](GlobalTileId tile) {
        for (std::uint32_t i = 0; i < workers; ++i) {
            if (tiles[i] == tile)
                return i;
        }
        panic("worker tile not found");
    };
    auto key_range = [&](std::uint32_t w, std::uint64_t &begin,
                         std::uint64_t &end) {
        begin = static_cast<std::uint64_t>(w) * chunk;
        end = std::min(n, begin + chunk);
    };
    auto bucket_of = [&](std::uint64_t key) {
        return static_cast<std::uint32_t>(key * buckets / cfg.maxKey);
    };

    std::uint64_t snapshot_remote =
        cs.stats().counterValue(kLlcRemote) +
        cs.stats().counterValue(kDramRemote);
    std::uint64_t snapshot_total =
        snapshot_remote + cs.stats().counterValue(kLlcLocal) +
        cs.stats().counterValue(kDramLocal);

    Cycles start = os.elapsed();

    // Init phase: each worker generates and writes its own chunk (this is
    // the first touch that places key pages under NUMA-on).
    os.parallelPhase(tiles, [&](os::Worker &w) {
        std::uint32_t me = worker_index(w.tile());
        std::uint64_t begin;
        std::uint64_t end;
        key_range(me, begin, end);
        sim::Xoroshiro rng(cfg.seed + me);
        for (std::uint64_t i = begin; i < end; ++i) {
            std::uint64_t key = rng.below(cfg.maxKey);
            w.compute(2);
            w.store(keys_va + i * 8, key);
        }
    });

    for (std::uint32_t iter = 0; iter < cfg.iterations; ++iter) {
        // Phase 1: local histograms.
        os.parallelPhase(tiles, [&](os::Worker &w) {
            std::uint32_t me = worker_index(w.tile());
            Addr my_hist = hist_va +
                           static_cast<Addr>(me) * buckets * 8;
            for (std::uint32_t b = 0; b < buckets; ++b)
                w.store(my_hist + b * 8, 0);
            std::uint64_t begin;
            std::uint64_t end;
            key_range(me, begin, end);
            for (std::uint64_t i = begin; i < end; ++i) {
                std::uint64_t key = w.load(keys_va + i * 8);
                std::uint32_t b = bucket_of(key);
                w.compute(cfg.computePerKey);
                std::uint64_t c = w.load(my_hist + b * 8);
                w.store(my_hist + b * 8, c + 1);
            }
        });

        // Phase 2: reduction + prefix sum (parallelized over buckets).
        os.parallelPhase(tiles, [&](os::Worker &w) {
            std::uint32_t me = worker_index(w.tile());
            for (std::uint32_t b = me; b < buckets; b += workers) {
                std::uint64_t sum = 0;
                for (std::uint32_t k = 0; k < workers; ++k) {
                    sum += w.load(hist_va +
                                  (static_cast<Addr>(k) * buckets + b) * 8);
                    w.compute(1);
                }
                w.store(base_va + b * 8, sum);
            }
        });
        os.serialSection(tiles[0], [&](os::Worker &w) {
            std::uint64_t running = 0;
            for (std::uint32_t b = 0; b < buckets; ++b) {
                std::uint64_t count = w.load(base_va + b * 8);
                w.store(base_va + b * 8, running);
                running += count;
                w.compute(1);
            }
        });

        // Per-(worker,bucket) offsets within each worker's staging chunk
        // (prefix sums of the worker's own histogram; register/stack
        // bookkeeping in the real kernel).
        std::vector<std::uint64_t> local_base(
            static_cast<std::size_t>(workers) * buckets);
        for (std::uint32_t k = 0; k < workers; ++k) {
            std::uint64_t running = 0;
            for (std::uint32_t b = 0; b < buckets; ++b) {
                local_base[static_cast<std::size_t>(k) * buckets + b] =
                    running;
                running += mem.load(
                    os.translate(
                        hist_va + (static_cast<Addr>(k) * buckets + b) * 8,
                        0),
                    8);
            }
        }

        // Phase 3a: each worker groups its own keys by bucket into its
        // local staging chunk (local traffic under first touch).
        os.parallelPhase(tiles, [&](os::Worker &w) {
            std::uint32_t me = worker_index(w.tile());
            std::uint64_t begin;
            std::uint64_t end;
            key_range(me, begin, end);
            std::vector<std::uint64_t> cursor(
                local_base.begin() +
                    static_cast<std::ptrdiff_t>(me) * buckets,
                local_base.begin() +
                    static_cast<std::ptrdiff_t>(me + 1) * buckets);
            Addr my_staging = staging_va + begin * 8;
            for (std::uint64_t i = begin; i < end; ++i) {
                std::uint64_t key = w.load(keys_va + i * 8);
                std::uint32_t b = bucket_of(key);
                w.compute(cfg.computePerKey);
                w.store(my_staging + cursor[b] * 8, key);
                ++cursor[b];
            }
        });

        // Phase 3b: the key exchange. Each worker owns a contiguous range
        // of buckets and gathers those buckets' segments from every
        // worker's staging chunk — the all-to-all communication step.
        os.parallelPhase(tiles, [&](os::Worker &w) {
            std::uint32_t me = worker_index(w.tile());
            std::uint32_t b_begin = me * buckets / workers;
            std::uint32_t b_end = (me + 1) * buckets / workers;
            for (std::uint32_t b = b_begin; b < b_end; ++b) {
                std::uint64_t out_pos = mem.load(
                    os.translate(base_va + b * 8, 0), 8);
                for (std::uint32_t k = 0; k < workers; ++k) {
                    std::uint64_t kb_begin;
                    std::uint64_t kb_end;
                    key_range(k, kb_begin, kb_end);
                    std::uint64_t seg =
                        local_base[static_cast<std::size_t>(k) * buckets +
                                   b];
                    std::uint64_t count = mem.load(
                        os.translate(hist_va +
                                         (static_cast<Addr>(k) * buckets +
                                          b) *
                                             8,
                                     0),
                        8);
                    w.compute(2);
                    for (std::uint64_t j = 0; j < count; ++j) {
                        std::uint64_t key = w.load(
                            staging_va + (kb_begin + seg + j) * 8);
                        w.compute(cfg.computePerKey);
                        w.store(out_va + (out_pos + j) * 8, key);
                    }
                    out_pos += count;
                }
            }
        });
    }

    IntSortResult result;
    result.cycles = os.elapsed() - start;

    // Functional verification straight from the backing store.
    result.sorted = true;
    std::uint64_t prev_bucket = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = mem.load(os.translate(out_va + i * 8, 0), 8);
        std::uint64_t b = bucket_of(v);
        if (b < prev_bucket) {
            result.sorted = false;
            break;
        }
        prev_bucket = b;
    }

    std::uint64_t remote =
        cs.stats().counterValue(kLlcRemote) +
        cs.stats().counterValue(kDramRemote) - snapshot_remote;
    std::uint64_t total =
        cs.stats().counterValue(kLlcRemote) +
        cs.stats().counterValue(kDramRemote) +
        cs.stats().counterValue(kLlcLocal) +
        cs.stats().counterValue(kDramLocal) - snapshot_total;
    result.remoteFraction =
        total ? static_cast<double>(remote) / static_cast<double>(total)
              : 0.0;
    return result;
}

} // namespace smappic::workload
