/**
 * @file
 * Litmus suite acceptance tests: every standard test's outcomes stay
 * inside its allowed-outcome table on real multi-core / multi-node
 * prototypes at the default config and at 1, 2 and 4 workers, always
 * with the online coherence checker attached. The self-test arms a
 * deliberately broken directory transition (lost invalidation) and
 * demands that BOTH the litmus run and the checker catch it — and that
 * the identical setup passes unmutated.
 */

#include <gtest/gtest.h>

#include "check/litmus.hpp"
#include "riscv/assembler.hpp"
#include "sim/types.hpp"

namespace smappic::check
{
namespace
{

TEST(Litmus, EmitterProducesAssemblableProgramsWithMangledLabels)
{
    riscv::Assembler as;
    for (const LitmusTest &t : standardLitmusSuite()) {
        auto harts = litmusPlacement(
            platform::PrototypeConfig::parse("2x1x2"), t.threads.size());
        std::vector<std::uint32_t> skews(t.threads.size(), 3);
        std::string src = emitLitmusAsm(t, harts, skews);
        EXPECT_EQ(src.find("%t"), std::string::npos) << t.name;
        EXPECT_NO_THROW(as.assemble(src)) << t.name << ":\n" << src;
    }
}

TEST(Litmus, PlacementRoundRobinsAcrossNodes)
{
    auto cfg = platform::PrototypeConfig::parse("2x1x2");
    EXPECT_EQ(litmusPlacement(cfg, 2),
              (std::vector<GlobalTileId>{0, 2}));
    EXPECT_EQ(litmusPlacement(cfg, 4),
              (std::vector<GlobalTileId>{0, 2, 1, 3}));
    EXPECT_THROW(litmusPlacement(cfg, 5), FatalError);
}

/** Worker sweep: 0 keeps the kind's default config (1 worker at the
 *  lookahead quantum). */
class LitmusEngines : public ::testing::TestWithParam<int>
{
  protected:
    LitmusConfig
    config() const
    {
        LitmusConfig cfg;
        cfg.seed = 7 + static_cast<std::uint64_t>(GetParam());
        cfg.iterations = 4;
        if (GetParam() > 0) {
            cfg.platform.parallel.threads =
                static_cast<std::uint32_t>(GetParam());
            cfg.platform.parallel.quantum = 63;
        }
        return cfg;
    }
};

TEST_P(LitmusEngines, StandardSuiteStaysWithinAllowedOutcomes)
{
    for (const LitmusTest &t : standardLitmusSuite()) {
        LitmusResult r = runLitmus(t, config());
        EXPECT_TRUE(r.passed)
            << t.name << " observed " << r.histogram() << " ("
            << r.checkerViolations << " checker violations)";
        EXPECT_EQ(r.outcomes.size(), 4u);
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, LitmusEngines,
                         ::testing::Values(0, 1, 2, 4));

/** SB/MP/IRIW with the L1D fast path forced on AND off at 1/2/4
 *  workers: deterministic seeds mean every pairing must observe the
 *  identical outcome sequence — and both must pass. The checker is
 *  detached for these runs; an attached observer makes the fast path
 *  bail everywhere, which would compare the slow path against itself.
 *  The 1-worker leg runs the cross-node 2x1x2 spec; the 2/4-worker
 *  legs keep all harts on one node (1x1x4). */
TEST(Litmus, DataFastPathOnAndOffObserveIdenticalOutcomes)
{
    for (const LitmusTest &t : standardLitmusSuite()) {
        if (t.name != "SB" && t.name != "MP" && t.name != "IRIW")
            continue;
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (threads > 1 && t.threads.size() > 4)
                continue;
            LitmusConfig cfg;
            // A bare parsed platform has no checker attached. Four harts
            // on at least as many nodes as workers, so each leg really
            // runs that many workers.
            cfg.platform = platform::PrototypeConfig::parse(
                threads == 4 ? "4x1x1" : "2x1x2");
            cfg.seed = threads == 1 ? 31 : 31 + threads; // 31, 33, 35.
            cfg.iterations = 4;
            cfg.platform.parallel.threads = threads;
            cfg.platform.parallel.quantum = 63;
            ASSERT_EQ(cfg.platform.workers(), threads);

            cfg.platform.core.dataFastPath = true;
            LitmusResult on = runLitmus(t, cfg);
            cfg.platform.core.dataFastPath = false;
            LitmusResult off = runLitmus(t, cfg);

            EXPECT_TRUE(on.passed) << t.name << " fastpath on, "
                                   << threads << " workers: "
                                   << on.histogram();
            EXPECT_TRUE(off.passed) << t.name << " fastpath off, "
                                    << threads << " workers: "
                                    << off.histogram();
            ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
            for (std::size_t i = 0; i < on.outcomes.size(); ++i)
                EXPECT_EQ(on.outcomes[i].values, off.outcomes[i].values)
                    << t.name << " iteration " << i << ", " << threads
                    << " workers";
        }
    }
}

/** The mutation self-test's shared setup: MP+preload with the writer
 *  skewed late so the reader's preload always lands first. */
LitmusConfig
mutationConfig()
{
    LitmusConfig cfg;
    cfg.iterations = 2;
    cfg.fixedSkews = {40, 0}; // thread 0 = writer (late), 1 = reader
    return cfg;
}

TEST(Litmus, MutationCatchTestPassesOnUnmutatedPlatform)
{
    LitmusResult r = runLitmus(mutationCatchTest(), mutationConfig());
    EXPECT_TRUE(r.passed) << r.histogram() << " / "
                          << r.checkerViolations << " violations";
    // The reader must actually have seen the flag (spin succeeded) in
    // every iteration, or the test would vacuously pass.
    for (const LitmusOutcome &o : r.outcomes) {
        ASSERT_EQ(o.values.size(), 2u);
        EXPECT_EQ(o.values[0], 1u) << "reader never saw the flag";
        EXPECT_EQ(o.values[1], 1u);
    }
}

TEST(Litmus, LostInvalidationIsCaughtByLitmusAndChecker)
{
    LitmusConfig cfg = mutationConfig();
    cfg.preRun = [](platform::Prototype &proto,
                    const riscv::Program &prog) {
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation,
            lineAlign(prog.symbol("x")));
    };

    LitmusResult r = runLitmus(mutationCatchTest(), cfg);

    // Caught by the litmus outcome table: the reader saw the flag yet
    // read stale data — the forbidden (1, 0).
    EXPECT_FALSE(r.passed);
    bool forbidden_seen = false;
    for (const LitmusOutcome &o : r.outcomes)
        forbidden_seen |=
            !o.allowed &&
            o.values == std::vector<std::uint64_t>{1, 0};
    EXPECT_TRUE(forbidden_seen) << "observed " << r.histogram();

    // And caught independently by the online invariant checker.
    EXPECT_GT(r.checkerViolations, 0u);
}

} // namespace
} // namespace smappic::check
