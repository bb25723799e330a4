/**
 * @file
 * Fault-resilience bench: the figures' own inter-node traffic on the
 * prototype's crossing (cache::CoherentSystem::nocPath) as the
 * transient-fault rate rises. Each run builds the 4x1x12 prototype twice
 * and runs two figure workloads on it:
 *   - Fig 7's probes: measureRoundTrip over every ordered pair of cores;
 *   - one Fig 8 point: intsort on 12 threads spread over the 4 nodes,
 *     NUMA off, 2^16 keys, on the guest-OS model.
 * The reliable link is on and "bridge.tx" drops plus corruptions (half
 * each) fire at 0%, 0.1% and 1% of crossings; one more run keeps the
 * paper's lossless link (reliability off, no injector). It reports
 * cycles, the mean inter-node probe latency and the repair work, as a
 * table and as a JSON line for tools/check_bench.py.
 *
 * Checks (the exit code follows them): intsort sorts exactly at every
 * rate; retransmits equal drops plus corruptions; the 0% run, which
 * consults the injector at every crossing, equals the lossless run
 * exactly; and cycles do not fall as the rate rises.
 */

#include <cstdio>
#include <vector>

#include "platform/prototype.hpp"
#include "sim/fault.hpp"
#include "workload/intsort.hpp"

using namespace smappic;

namespace
{

constexpr const char *kSpec = "4x1x12";
constexpr std::uint32_t kThreads = 12;
constexpr std::uint64_t kKeys = 1 << 16;

struct RunResult
{
    double faultRate = 0;
    bool reliable = false;
    Cycles probeCycles = 0;      ///< Sum of every probe's round trip.
    double interNodeLatency = 0; ///< Mean inter-node round trip.
    Cycles intsortCycles = 0;
    bool sorted = false;
    std::uint64_t crossings = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t crcErrors = 0;
    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;

    std::uint64_t faultsInjected() const { return drops + corruptions; }
};

platform::PrototypeConfig
configFor(double fault_rate, bool reliable)
{
    platform::PrototypeConfig cfg = platform::PrototypeConfig::parse(kSpec);
    if (reliable) {
        // Zero-rate rules too: the 0% run consults the injector at every
        // crossing, which must cost nothing.
        cfg.reliability.enabled = true;
        cfg.faultPlan.seed = 2023;
        cfg.faultPlan.drop("bridge.tx", fault_rate / 2);
        cfg.faultPlan.corrupt("bridge.tx", fault_rate / 2);
    }
    return cfg;
}

/** Adds @p proto's crossings and repair counters to @p r. */
void
addLinkWork(RunResult &r, platform::Prototype &proto)
{
    const sim::StatRegistry &stats = proto.stats();
    r.crossings += stats.counterValue("cs.bridge.crossings");
    r.retransmits += stats.counterValue("bridge.retransmits");
    r.crcErrors += stats.counterValue("bridge.crcErrors");
    if (const sim::FaultInjector *fi = proto.faultInjector()) {
        r.drops += fi->dropsInjected();
        r.corruptions += fi->corruptionsInjected();
    }
}

/** Fig 7's probes over every ordered pair of cores. */
void
runProbes(RunResult &r, const platform::PrototypeConfig &cfg)
{
    platform::Prototype proto(cfg);
    const std::uint32_t n = cfg.totalTiles();
    double inter_sum = 0;
    std::uint64_t inter_n = 0;
    for (GlobalTileId s = 0; s < n; ++s) {
        for (GlobalTileId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Cycles c = proto.measureRoundTrip(s, d);
            r.probeCycles += c;
            if (s / cfg.tilesPerNode != d / cfg.tilesPerNode) {
                inter_sum += static_cast<double>(c);
                ++inter_n;
            }
        }
    }
    r.interNodeLatency = inter_sum / static_cast<double>(inter_n);
    addLinkWork(r, proto);
}

/** Fig 8's 12-thread NUMA-off point: threads round-robin over nodes. */
void
runIntSortPoint(RunResult &r, const platform::PrototypeConfig &cfg)
{
    platform::Prototype proto(cfg);
    std::vector<GlobalTileId> tiles;
    for (std::uint32_t i = 0; i < kThreads; ++i) {
        tiles.push_back((i % cfg.totalNodes()) * cfg.tilesPerNode +
                        i / cfg.totalNodes());
    }
    workload::IntSortConfig sort_cfg;
    sort_cfg.keys = kKeys;
    auto guest = proto.makeGuest(os::NumaMode::kOff);
    workload::IntSortResult res = workload::runIntSort(*guest, tiles,
                                                       sort_cfg);
    r.intsortCycles = res.cycles;
    r.sorted = res.sorted;
    addLinkWork(r, proto);
}

RunResult
runAt(double fault_rate, bool reliable)
{
    RunResult r;
    r.faultRate = fault_rate;
    r.reliable = reliable;
    platform::PrototypeConfig cfg = configFor(fault_rate, reliable);
    runProbes(r, cfg);
    runIntSortPoint(r, cfg);
    return r;
}

const char *
verdict(bool ok)
{
    return ok ? "PASS" : "FAIL";
}

} // namespace

int
main()
{
    const double rates[] = {0.0, 0.001, 0.01};

    std::printf("=== Fault resilience: bridge.tx drop+corrupt on the "
                "inter-node crossing, %s ===\n",
                kSpec);
    std::printf("workloads: Fig 7 probes (every ordered core pair), Fig 8 "
                "intsort (%u threads, NUMA off, %llu keys)\n\n",
                kThreads, static_cast<unsigned long long>(kKeys));

    std::vector<RunResult> runs;
    for (double rate : rates)
        runs.push_back(runAt(rate, true));
    runs.push_back(runAt(0.0, false));

    std::printf("%10s %8s %12s %10s %14s %6s %10s %11s %8s %7s\n",
                "fault rate", "reliable", "probe cyc", "inter mean",
                "intsort cyc", "sorted", "crossings", "retransmits",
                "crc rej", "faults");
    for (const RunResult &r : runs) {
        std::printf("%9.2f%% %8s %12llu %10.1f %14llu %6s %10llu %11llu "
                    "%8llu %7llu\n",
                    r.faultRate * 100, r.reliable ? "on" : "off",
                    static_cast<unsigned long long>(r.probeCycles),
                    r.interNodeLatency,
                    static_cast<unsigned long long>(r.intsortCycles),
                    r.sorted ? "yes" : "NO",
                    static_cast<unsigned long long>(r.crossings),
                    static_cast<unsigned long long>(r.retransmits),
                    static_cast<unsigned long long>(r.crcErrors),
                    static_cast<unsigned long long>(r.faultsInjected()));
    }

    bool sorted = true;
    bool repaired = true;
    for (const RunResult &r : runs) {
        sorted = sorted && r.sorted;
        repaired = repaired && r.retransmits == r.faultsInjected() &&
                   r.crcErrors == r.corruptions;
    }
    const RunResult &zero = runs[0];
    const RunResult &lossless = runs.back();
    bool zero_cost = zero.probeCycles == lossless.probeCycles &&
                     zero.interNodeLatency == lossless.interNodeLatency &&
                     zero.intsortCycles == lossless.intsortCycles &&
                     zero.crossings == lossless.crossings &&
                     zero.retransmits == 0 && zero.faultsInjected() == 0;
    bool monotone = true;
    for (std::size_t i = 1; i < std::size(rates); ++i) {
        monotone = monotone &&
                   runs[i].probeCycles >= runs[i - 1].probeCycles &&
                   runs[i].intsortCycles >= runs[i - 1].intsortCycles;
    }

    std::printf("\njson: {\"bench\": \"fault_resilience\", \"spec\": "
                "\"%s\", \"threads\": %u, \"keys\": %llu, \"runs\": [",
                kSpec, kThreads, static_cast<unsigned long long>(kKeys));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        std::printf("%s{\"fault_rate\": %g, \"reliable\": %s, "
                    "\"probe_cycles\": %llu, \"inter_node_latency\": %.3f, "
                    "\"intsort_cycles\": %llu, \"sorted\": %s, "
                    "\"crossings\": %llu, \"retransmits\": %llu, "
                    "\"crc_errors\": %llu, \"faults_injected\": %llu}",
                    i ? ", " : "", r.faultRate,
                    r.reliable ? "true" : "false",
                    static_cast<unsigned long long>(r.probeCycles),
                    r.interNodeLatency,
                    static_cast<unsigned long long>(r.intsortCycles),
                    r.sorted ? "true" : "false",
                    static_cast<unsigned long long>(r.crossings),
                    static_cast<unsigned long long>(r.retransmits),
                    static_cast<unsigned long long>(r.crcErrors),
                    static_cast<unsigned long long>(r.faultsInjected()));
    }
    std::printf("], \"checks\": {\"sorted\": %s, \"repaired\": %s, "
                "\"zero_cost\": %s, \"monotone\": %s}}\n",
                sorted ? "true" : "false", repaired ? "true" : "false",
                zero_cost ? "true" : "false", monotone ? "true" : "false");

    std::printf("\nexpected: exact results at every rate; each repair "
                "costs a backoff plus another pass through the bridge "
                "and PCIe servers\n");
    std::printf("sort check (intsort sorted in every run): %s\n",
                verdict(sorted));
    std::printf("repair check (retransmits = drops + corruptions, CRC "
                "errors = corruptions): %s\n",
                verdict(repaired));
    std::printf("zero-cost check (0%% reliable run equals the lossless "
                "run exactly): %s\n",
                verdict(zero_cost));
    std::printf("monotone check (probe and intsort cycles do not fall as "
                "the rate rises): %s\n",
                verdict(monotone));
    bool ok = sorted && repaired && zero_cost && monotone;
    std::printf("shape check (all of the above): %s\n", verdict(ok));
    return ok ? 0 : 1;
}
