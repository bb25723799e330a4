/**
 * @file
 * NUMA study on the 48-core multi-node prototype (paper section 4.1):
 * probes the inter-core latency structure, then runs the parallel integer
 * sort under both kernel NUMA modes and reports the placement breakdown —
 * the workflow a systems researcher would use SMAPPIC for.
 *
 *   $ ./numa_study [threads]
 *
 * Exits non-zero when either sort leaves its keys unsorted.
 */

#include <cstdio>
#include <cstdlib>

#include "platform/prototype.hpp"
#include "workload/intsort.hpp"

using namespace smappic;
using namespace smappic::workload;

int
main(int argc, char **argv)
{
    std::uint32_t threads = argc > 1
                                ? static_cast<std::uint32_t>(
                                      std::atoi(argv[1]))
                                : 16;

    std::printf("== latency structure (4x1x12) ==\n");
    platform::Prototype probe(platform::PrototypeConfig::parse("4x1x12"));
    Cycles same = probe.measureRoundTrip(0, 5);
    Cycles cross = probe.measureRoundTrip(0, 12 + 5);
    std::printf("round trip to a same-node LLC slice:  %llu cycles\n",
                static_cast<unsigned long long>(same));
    std::printf("round trip to a cross-node LLC slice: %llu cycles "
                "(%.1fx)\n",
                static_cast<unsigned long long>(cross),
                static_cast<double>(cross) / static_cast<double>(same));

    std::printf("\n== parallel integer sort, %u threads ==\n", threads);
    IntSortConfig cfg;
    cfg.keys = 1 << 16;
    std::vector<GlobalTileId> tiles;
    for (std::uint32_t i = 0; i < threads; ++i)
        tiles.push_back((i % 4) * 12 + i / 4);

    bool all_sorted = true;

    for (auto mode : {os::NumaMode::kOn, os::NumaMode::kOff}) {
        platform::Prototype proto(
            platform::PrototypeConfig::parse("4x1x12"));
        auto guest = proto.makeGuest(mode);
        auto r = runIntSort(*guest, tiles, cfg);
        all_sorted = all_sorted && r.sorted;
        std::printf("NUMA %-3s: %9llu cycles (%s), %4.1f%% of misses "
                    "serviced remotely\n",
                    mode == os::NumaMode::kOn ? "on" : "off",
                    static_cast<unsigned long long>(r.cycles),
                    r.sorted ? "sorted" : "SORT FAILED",
                    r.remoteFraction * 100);
        auto pages = guest->pagesPerNode();
        std::printf("          pages per node:");
        for (auto p : pages)
            std::printf(" %llu", static_cast<unsigned long long>(p));
        std::printf("\n");
    }
    return all_sorted ? 0 : 1;
}
