/**
 * @file
 * Tests for the shared seeded-check campaign (src/check/campaign.*) and
 * check_run's flag parser (tools/cli.*): a repro line rendered for a
 * config with every knob off its default parses back to the same config
 * for each kind, a torture run builds its prototype with the knobs its
 * flags ask for, a kind rejects flags it cannot honour, a failing
 * campaign prints its verdict, a minimized repro and the step count, and
 * an armed defect counts as caught only by a lockstep divergence.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "cli.hpp"

namespace smappic::check
{
namespace
{

void
expectSamePlatform(const platform::PrototypeConfig &a,
                   const platform::PrototypeConfig &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.parallel.threads, b.parallel.threads);
    EXPECT_EQ(a.quantum(), b.quantum());
    EXPECT_EQ(a.check.enabled, b.check.enabled);
    EXPECT_EQ(a.core.decodeCache.enabled, b.core.decodeCache.enabled);
    EXPECT_EQ(a.core.dataFastPath, b.core.dataFastPath);
    EXPECT_EQ(a.uncore.idleSkip, b.uncore.idleSkip);
    EXPECT_EQ(a.reliability.enabled, b.reliability.enabled);
    EXPECT_EQ(a.faultPlan.seed, b.faultPlan.seed);
    ASSERT_EQ(a.faultPlan.rules.size(), b.faultPlan.rules.size());
    for (std::size_t i = 0; i < a.faultPlan.rules.size(); ++i) {
        EXPECT_EQ(a.faultPlan.rules[i].site, b.faultPlan.rules[i].site);
        EXPECT_EQ(a.faultPlan.rules[i].kind, b.faultPlan.rules[i].kind);
        EXPECT_EQ(a.faultPlan.rules[i].probability,
                  b.faultPlan.rules[i].probability);
    }
}

/** Renders @p cfg's repro line and parses it back through check_run. */
template <class Cfg>
Cfg
roundTrip(const Cfg &cfg)
{
    std::istringstream line(reproCommand(cfg));
    std::vector<std::string> words{std::istream_iterator<std::string>(line),
                                   {}};
    EXPECT_EQ(words.at(0), "check_run");
    words.erase(words.begin());
    Campaign c = cli::parseCampaign(words);
    EXPECT_EQ(c.runs, 1u);
    EXPECT_FALSE(c.minimize);
    return std::get<Cfg>(c.config);
}

/** Every knob check_run has a flag for, off its default. */
void
offDefault(platform::PrototypeConfig &p, std::uint64_t seed)
{
    p.nodesPerFpga = 2;
    p.parallel = {3, 77};
    p.core.decodeCache.enabled = false;
    p.core.dataFastPath = false;
    p.uncore.idleSkip = false;
    makeFaulty(p, seed);
}

TEST(CheckCampaign, TortureReproRoundTrips)
{
    TortureConfig def;
    TortureConfig back = roundTrip(def);
    expectSamePlatform(back.platform, def.platform);

    TortureConfig cfg;
    cfg.seed = 1234;
    cfg.opsPerCore = 17;
    cfg.sharedLines = 3;
    offDefault(cfg.platform, cfg.seed);
    back = roundTrip(cfg);
    expectSamePlatform(back.platform, cfg.platform);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.opsPerCore, cfg.opsPerCore);
    EXPECT_EQ(back.sharedLines, cfg.sharedLines);
}

TEST(CheckCampaign, LitmusReproRoundTrips)
{
    LitmusConfig def;
    LitmusConfig back = roundTrip(def);
    expectSamePlatform(back.platform, def.platform);

    LitmusConfig cfg;
    cfg.seed = 42;
    cfg.iterations = 5;
    offDefault(cfg.platform, cfg.seed);
    back = roundTrip(cfg);
    expectSamePlatform(back.platform, cfg.platform);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.iterations, cfg.iterations);
}

TEST(LockstepFuzz, ReproCommandRoundTrips)
{
    FuzzConfig def;
    FuzzConfig back = roundTrip(def);
    expectSamePlatform(back.platform, def.platform);

    FuzzConfig cfg;
    cfg.seed = 99;
    cfg.count = 64;
    cfg.mix = FuzzMix::kMul;
    cfg.shared = true;
    cfg.defect = riscv::CoreTestMutation::kMulhCorrupt;
    offDefault(cfg.platform, cfg.seed);
    EXPECT_EQ(reproCommand(cfg),
              "check_run fuzz --spec 1x2x2 --seed 99 --count 64 --mix mul "
              "--shared --defect mulh --threads 3 --quantum 77 "
              "--no-decode-cache --no-data-fastpath --no-idle-skip "
              "--faulty");
    back = roundTrip(cfg);
    expectSamePlatform(back.platform, cfg.platform);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.count, cfg.count);
    EXPECT_EQ(back.mix, cfg.mix);
    EXPECT_EQ(back.shared, cfg.shared);
    EXPECT_EQ(back.defect, cfg.defect);
}

TEST(CheckCampaign, TortureBuildsThePrototypeItsFlagsAsk)
{
    using Built = platform::PrototypeConfig;
    struct Case
    {
        std::vector<std::string> flags;
        bool (*applied)(const Built &);
    };
    const Case cases[] = {
        {{"--no-data-fastpath"},
         [](const Built &b) { return !b.core.dataFastPath; }},
        {{"--no-idle-skip"}, [](const Built &b) { return !b.uncore.idleSkip; }},
        {{"--no-decode-cache"},
         [](const Built &b) { return !b.core.decodeCache.enabled; }},
        {{"--faulty"},
         [](const Built &b) {
             return b.faultPlan.rules.size() == 2 && b.reliability.enabled;
         }},
        {{"--threads", "2"},
         [](const Built &b) {
             return b.parallel.threads == 2 && b.quantum() == 63;
         }},
    };
    for (const Case &c : cases) {
        std::vector<std::string> args = {"torture", "--ops", "16"};
        args.insert(args.end(), c.flags.begin(), c.flags.end());
        TortureConfig cfg =
            std::get<TortureConfig>(cli::parseCampaign(args).config);
        Built built;
        cfg.preRun = [&](platform::Prototype &proto, const riscv::Program &) {
            built = proto.config();
        };
        EXPECT_TRUE(runTorture(cfg).passed) << c.flags[0];
        EXPECT_TRUE(c.applied(built)) << c.flags[0];
    }
}

TEST(CheckCampaign, KindsRejectFlagsTheyCannotHonour)
{
    const std::vector<std::vector<std::string>> bad = {
        {},
        {"stress"},
        {"litmus", "--minimize"},
        {"litmus", "--ops", "8"},
        {"torture", "--count", "8"},
        {"torture", "--mix", "alu"},
        {"fuzz", "--lines", "2"},
        {"fuzz", "--iters", "2"},
        {"fuzz", "--frobnicate"},
        {"torture", "--seed", "12x"},
        {"torture", "--seed", "-1"},
        {"torture", "--seed"},
        {"torture", "--threads", "0"},
        {"torture", "--threads", "1", "--quantum", "0"},
        {"torture", "--lines", "33"},
        {"fuzz", "--count", "0"},
        {"fuzz", "--mix", "fp"},
        {"fuzz", "--runs", "0"},
        {"litmus", "--spec", "2x1"},
    };
    for (const auto &args : bad) {
        EXPECT_THROW(cli::parseCampaign(args), cli::UsageError)
            << ::testing::PrintToString(args);
    }
    EXPECT_EQ(cli::parseU64("seed", "0x1f"), 31u);
}

TEST(CheckCampaign, FailingRunPrintsMinimizedRepro)
{
    TortureConfig cfg;
    cfg.seed = 31;
    cfg.sharedLines = 8;
    cfg.preRun = [](platform::Prototype &proto, const riscv::Program &prog) {
        proto.memorySystem().setTestMutation(
            cache::TestMutation::kLostInvalidation,
            lineAlign(prog.symbol("shared")));
    };
    std::ostringstream out;
    EXPECT_EQ(runCampaign(Campaign{cfg, 1, true}, out), 1);
    const std::string text = out.str();
    EXPECT_NE(text.find("torture seed 31 ops "), std::string::npos) << text;
    EXPECT_NE(text.find(": FAIL"), std::string::npos) << text;
    EXPECT_NE(text.find("\nrepro: check_run torture --spec 2x1x2 --seed 31 "),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\nminimized in "), std::string::npos) << text;
}

/** A hang the lockstep checker does not see: the run never exits and
 *  records no divergence. */
FuzzResult
hungWithoutDivergence(const FuzzConfig &)
{
    FuzzResult r;
    r.commits = 2'000'000;
    return r;
}

TEST(CheckCampaign, DefectNeedsADivergenceNotAHang)
{
    FuzzConfig cfg;
    cfg.mix = FuzzMix::kMul;
    cfg.defect = riscv::CoreTestMutation::kMulhCorrupt;
    std::ostringstream out;
    EXPECT_EQ(runCampaign(Campaign{cfg, 2, false}, out,
                          &hungWithoutDivergence),
              1);
    const std::string text = out.str();
    EXPECT_EQ(text.find("detected"), std::string::npos) << text;
    EXPECT_NE(text.find("[no clean exit]"), std::string::npos) << text;
    EXPECT_NE(text.find("defect MISSED in 0/2 run(s)"), std::string::npos)
        << text;
    // Not shrunk: a hang is not the failure the shrinker keeps.
    EXPECT_EQ(text.find("minimized in"), std::string::npos) << text;
    EXPECT_NE(text.find("repro: check_run fuzz --spec 1x1x2 --seed 1 "
                        "--count 256 "),
              std::string::npos)
        << text;

    // The real run of the same config diverges and is detected.
    std::ostringstream real;
    EXPECT_EQ(runCampaign(Campaign{cfg, 1, false}, real), 0) << real.str();
    EXPECT_NE(real.str().find("defect detected in 1/1 run(s)"),
              std::string::npos)
        << real.str();
}

} // namespace
} // namespace smappic::check
