/**
 * @file
 * Tests of the perfbench driver itself, on scaled-down workloads:
 * host-side references, failure counting, metric names against
 * BENCHMARK.json, and the layers each workload is predicted to leave idle.
 */

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench.hpp"

using namespace perfbench;

namespace
{

constexpr double kSmall = 1.0 / 64;

Options
small(const std::string &workload, bool trace)
{
    Options o;
    o.workload = workload;
    o.seed = 7;
    o.seconds = 0.01;
    o.trace = trace;
    o.scale = kSmall;
    return o;
}

std::map<std::string, double>
byName(const Report &r)
{
    std::map<std::string, double> m;
    for (const Metric &x : r.metrics)
        m[x.name] = x.value;
    return m;
}

/** Metric names listed under @p section of BENCHMARK.json. */
std::set<std::string>
declared(const std::string &section)
{
    std::ifstream in(PERFBENCH_ROOT "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::size_t from = text.find("\"" + section + "\"");
    std::size_t to = text.find(']', from);
    std::string body = text.substr(from, to - from);
    std::set<std::string> names;
    std::regex re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), re), end;
         it != end; ++it)
        names.insert((*it)[1]);
    return names;
}

} // namespace

TEST(PerfbenchReference, ComputeChecksumFollowsTheGuestLoop)
{
    // Two iterations by hand: each adds the stored line to the
    // accumulator, steps xorshift64, adds (odd) or xors (even) the state
    // in, and stores the accumulator back to the line.
    auto step = [](std::uint64_t x) {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    };
    std::uint64_t x1 = step(5 ^ 0x9E3779B97F4A7C15ULL);
    std::uint64_t x2 = step(x1);
    std::uint64_t acc = 2 * x1; // Iteration 1 leaves acc = line = x1.
    acc = (x2 & 1) ? acc + x2 : acc ^ x2;
    EXPECT_EQ(computeChecksum(5, 0, 1), x1);
    EXPECT_EQ(computeChecksum(5, 0, 2), acc);
    EXPECT_NE(computeChecksum(5, 0, 100), computeChecksum(5, 1, 100));
    EXPECT_NE(computeChecksum(5, 0, 100), computeChecksum(6, 0, 100));
}

TEST(PerfbenchReference, MemoryChecksumMatchesClosedForm)
{
    const std::uint64_t key = 1234567;
    const std::uint64_t lines = 1024;
    const std::uint64_t passes = 24;
    std::uint64_t perPass = lines * key + lines * (lines - 1) / 2;
    EXPECT_EQ(memoryChecksum(key, lines, passes),
              passes * (passes - 1) / 2 * perPass);
}

TEST(PerfbenchReference, GuestsMatchHostReference)
{
    for (const std::string &name : workloadNames()) {
        auto w = makeWorkload(name, 11, kSmall);
        w->construct();
        w->load();
        w->run();
        Outcome o = w->check();
        EXPECT_GT(o.attempted, 0u) << name;
        EXPECT_EQ(o.failed, 0u) << name;
        EXPECT_GT(o.targetCycles, 0u) << name;
        EXPECT_GT(o.guestOps, 0u) << name;
    }
}

TEST(PerfbenchFailures, WrongExpectedChecksumIsCounted)
{
    for (const char *name : {"core_compute", "phased_memory"}) {
        auto w = makeWorkload(name, 11, kSmall);
        w->skewExpected(1);
        w->construct();
        w->load();
        w->run();
        Outcome o = w->check();
        EXPECT_GT(o.attempted, 0u) << name;
        EXPECT_EQ(o.failed, o.attempted) << name;
    }
}

TEST(PerfbenchMetrics, NamesAreValidAndMatchBenchmarkJson)
{
    EXPECT_TRUE(validMetricName("cache.l1_hit_ratio"));
    EXPECT_FALSE(validMetricName("bad name"));
    EXPECT_FALSE(validMetricName(""));
    std::set<std::string> endToEnd = declared("end_to_end");
    std::set<std::string> perLayer = declared("per_layer");
    ASSERT_FALSE(endToEnd.empty());
    ASSERT_FALSE(perLayer.empty());
    for (const std::string &name : workloadNames()) {
        for (bool trace : {false, true}) {
            Report r = trace ? traceRun(small(name, true))
                             : measure(small(name, false));
            EXPECT_TRUE(r.correct()) << name;
            std::set<std::string> got;
            for (const Metric &m : r.metrics) {
                EXPECT_TRUE(validMetricName(m.name)) << m.name;
                got.insert(m.name);
            }
            EXPECT_EQ(got, trace ? perLayer : endToEnd) << name;
            EXPECT_EQ(toJson(r).find('\n'), std::string::npos);
        }
    }
}

TEST(PerfbenchLayers, PredictedIdleLayersReadIdle)
{
    auto intsort = byName(traceRun(small("numa_intsort", true)));
    EXPECT_EQ(intsort["riscv.instret"], 0);
    EXPECT_EQ(intsort["platform.epochs"], 0);
    EXPECT_GT(intsort["cache.remote_fraction"], 0.5);

    auto compute = byName(traceRun(small("core_compute", true)));
    EXPECT_GT(compute["cache.l1_hit_ratio"], 0.99);
    EXPECT_LT(compute["cache.bpc_misses"], 0.01 * compute["cache.accesses"]);
    EXPECT_EQ(compute["platform.epochs"], 0);
    EXPECT_GT(compute["riscv.instret"], 0);

    auto phased = byName(traceRun(small("phased_memory", true)));
    EXPECT_GT(phased["platform.epochs"], 0);
    EXPECT_GT(phased["mem.dram_accesses"], 0);
}
