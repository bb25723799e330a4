/**
 * @file
 * Tests for the multi-core memory torture harness (src/check/torture):
 * the generator is a pure function of its seed, clean runs match the
 * flat golden model at the default config (one worker), at 1/2/4
 * workers and on a faulty-substrate + reliable-bridge configuration
 * (whose faults fire, get repaired, and leave the stats identical at
 * 1/2/4 workers), and an armed
 * directory mutation produces a failing report that minimizes and
 * carries a deterministically reproducing seed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/campaign.hpp"
#include "check/torture.hpp"
#include "sim/types.hpp"

namespace smappic::check
{
namespace
{

TEST(TortureGenerator, IsAPureFunctionOfTheSeed)
{
    TortureConfig cfg;
    cfg.seed = 99;
    TortureProgram a = generateTorture(cfg);
    TortureProgram b = generateTorture(cfg);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.finalSlots, b.finalSlots);
    EXPECT_EQ(a.checksums, b.checksums);

    cfg.seed = 100;
    TortureProgram c = generateTorture(cfg);
    EXPECT_NE(a.source, c.source);
}

TEST(TortureGenerator, RejectsDegenerateShapes)
{
    TortureConfig cfg;
    cfg.sharedLines = 0;
    EXPECT_THROW(generateTorture(cfg), FatalError);
    cfg.sharedLines = 33; // past imm12-addressable window
    EXPECT_THROW(generateTorture(cfg), FatalError);
    cfg.sharedLines = 4;
    cfg.opsPerCore = 0;
    EXPECT_THROW(generateTorture(cfg), FatalError);
}

TEST(TortureHarness, SequentialRunMatchesGoldenModel)
{
    TortureConfig cfg;
    cfg.seed = 5;
    TortureReport rep = runTorture(cfg);
    EXPECT_TRUE(rep.passed)
        << (rep.mismatches.empty() ? "checker" : rep.mismatches[0]);
    EXPECT_EQ(rep.checkerViolations, 0u);
    EXPECT_NE(reproCommand(cfg).find("--seed 5"), std::string::npos);
}

TEST(TortureHarness, SeedSweepPassesSequentially)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TortureConfig cfg;
        cfg.seed = seed;
        cfg.opsPerCore = 48;
        TortureReport rep = runTorture(cfg);
        EXPECT_TRUE(rep.passed)
            << "seed " << seed << ": "
            << (rep.mismatches.empty() ? "checker violations"
                                       : rep.mismatches[0]);
    }
}

TEST(TortureHarness, ParallelEngineMatchesGoldenModel)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        TortureConfig cfg;
        cfg.seed = 11;
        cfg.platform.parallel.threads = threads;
        cfg.platform.parallel.quantum = 63;
        TortureReport rep = runTorture(cfg);
        EXPECT_TRUE(rep.passed)
            << threads << " workers: "
            << (rep.mismatches.empty() ? "checker violations"
                                       : rep.mismatches[0]);
        EXPECT_NE(reproCommand(cfg).find("--threads"), std::string::npos);
    }
}

TEST(TortureHarness, SurvivesFaultySubstrateWithReliableBridge)
{
    TortureConfig cfg;
    cfg.seed = 21;
    cfg.platform.faultPlan.seed = 77;
    cfg.platform.faultPlan.drop("bridge.tx", 0.02);
    cfg.platform.faultPlan.corrupt("bridge.tx", 0.02);
    cfg.platform.reliability.enabled = true;
    TortureReport rep = runTorture(cfg);
    EXPECT_TRUE(rep.passed)
        << (rep.mismatches.empty() ? "checker violations"
                                   : rep.mismatches[0]);
    // The faults reached the coherence traffic and were repaired.
    EXPECT_GT(rep.faultsInjected, 0u);
    EXPECT_GT(rep.retransmits, 0u);
}

TEST(TortureHarness, FaultySubstrateIsBitIdenticalAcrossWorkerCounts)
{
    // The --faulty substrate decides every crossing's fault in serial
    // context, so the worker count changes neither which crossings are
    // hit nor anything the stats record.
    auto dump = [](std::uint32_t threads) {
        TortureConfig cfg;
        cfg.seed = 6;
        makeFaulty(cfg.platform, cfg.seed);
        cfg.platform.parallel.threads = threads;
        cfg.platform.parallel.quantum = 63;
        TortureProgram gen = generateTorture(cfg);
        platform::Prototype proto(cfg.platform);
        proto.loadSource(gen.source);
        proto.runCores({0, 1, 2, 3}, cfg.maxInstructions);
        EXPECT_GT(proto.stats().counterValue("bridge.retransmits"), 0u);
        std::ostringstream os;
        proto.stats().dump(os);
        return os.str();
    };
    std::string ref = dump(1);
    for (std::uint32_t threads : {2u, 4u})
        EXPECT_EQ(dump(threads), ref) << threads << " workers";
}

TEST(TortureHarness, MutationFailsMinimizesAndReproduces)
{
    TortureConfig cfg;
    cfg.seed = 31;
    cfg.opsPerCore = 64;
    cfg.sharedLines = 8;
    // Arm the lost-invalidation mutation on the first shared line; the
    // harness must fail (stale data and/or checker violations), shrink,
    // and hand back a seed that still reproduces the failure.
    cfg.preRun = [](platform::Prototype &proto,
                    const riscv::Program &prog) {
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation,
            lineAlign(prog.symbol("shared")));
    };

    auto m = minimize(cfg);
    EXPECT_FALSE(m.verdict.passed);
    EXPECT_GT(m.steps, 0u);
    EXPECT_LE(m.config.opsPerCore, cfg.opsPerCore);
    EXPECT_LE(m.config.sharedLines, cfg.sharedLines);
    EXPECT_EQ(m.config.seed, cfg.seed);
    EXPECT_NE(reproCommand(m.config).find("--seed 31"), std::string::npos);

    // Deterministic replay: rebuild the minimized config from the
    // sizes the repro names and re-run — the failure must reproduce
    // identically.
    TortureConfig replay = cfg;
    replay.opsPerCore = m.config.opsPerCore;
    replay.sharedLines = m.config.sharedLines;
    TortureReport again = runTorture(replay);
    EXPECT_FALSE(again.passed);
    EXPECT_EQ(again.checkerViolations, m.verdict.checkerViolations);
    EXPECT_EQ(again.mismatches, m.verdict.mismatches);
}

} // namespace
} // namespace smappic::check
