#include "check/campaign.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/log.hpp"

namespace smappic::check
{
namespace
{

constexpr const char *kKindNames[] = {"litmus", "torture", "fuzz"};

bool
onFaultySubstrate(const platform::PrototypeConfig &p)
{
    return !p.faultPlan.empty() || p.reliability.enabled;
}

/** One run of a kind: its generator and its verdict. */
constexpr auto run = [](const auto &cfg) {
    using Cfg = std::decay_t<decltype(cfg)>;
    if constexpr (std::is_same_v<Cfg, LitmusConfig>) {
        std::vector<LitmusResult> results;
        for (const LitmusTest &t : standardLitmusSuite())
            results.push_back(runLitmus(t, cfg));
        return results;
    } else if constexpr (std::is_same_v<Cfg, TortureConfig>) {
        return runTorture(cfg);
    } else {
        return runFuzz(cfg);
    }
};

template <class Verdict>
bool
passed(const Verdict &v)
{
    if constexpr (std::is_same_v<Verdict, FuzzResult>)
        return !v.diverged && v.exitedCleanly;
    else if constexpr (std::is_same_v<Verdict, TortureReport>)
        return v.passed;
    else
        return std::all_of(v.begin(), v.end(),
                           [](const LitmusResult &r) { return r.passed; });
}

/** The failure a shrink keeps and an armed defect must produce. For
 *  fuzz that is a lockstep divergence: a run that merely never exits
 *  shows no defect, only a harness fault. */
template <class Verdict>
bool
caught(const Verdict &v)
{
    if constexpr (std::is_same_v<Verdict, FuzzResult>)
        return v.diverged;
    else
        return !passed(v);
}

void
printVerdict(std::ostream &out, const LitmusConfig &,
             const std::vector<LitmusResult> &results)
{
    for (const LitmusResult &r : results)
        out << strfmt("litmus %-10s %s  outcomes: %s  violations: %llu\n",
                      r.test.c_str(), r.passed ? "PASS" : "FAIL",
                      r.histogram().c_str(),
                      static_cast<unsigned long long>(r.checkerViolations));
}

void
printVerdict(std::ostream &out, const TortureConfig &cfg,
             const TortureReport &rep)
{
    out << strfmt("torture seed %llu ops %u lines %u: %s  violations: "
                  "%llu  mismatches: %zu\n",
                  static_cast<unsigned long long>(cfg.seed),
                  cfg.opsPerCore, cfg.sharedLines,
                  rep.passed ? "PASS" : "FAIL",
                  static_cast<unsigned long long>(rep.checkerViolations),
                  rep.mismatches.size());
    if (onFaultySubstrate(cfg.platform))
        out << strfmt("  faults injected: %llu  retransmits: %llu\n",
                      static_cast<unsigned long long>(rep.faultsInjected),
                      static_cast<unsigned long long>(rep.retransmits));
    for (const std::string &m : rep.mismatches)
        out << "  mismatch: " << m << "\n";
}

void
printVerdict(std::ostream &out, const FuzzConfig &cfg, const FuzzResult &res)
{
    out << strfmt("seed %llu: %llu commits, %zu divergence(s)%s\n",
                  static_cast<unsigned long long>(cfg.seed),
                  static_cast<unsigned long long>(res.commits),
                  res.divergences.size(),
                  res.exitedCleanly ? "" : " [no clean exit]");
    for (const Divergence &d : res.divergences)
        out << d.message << "\n";
}

template <class Cfg, class Run>
auto
shrink(const Cfg &cfg, Run runOne)
{
    Shrunk<Cfg, decltype(runOne(cfg))> out{cfg, runOne(cfg)};
    for (const SizeField<Cfg> &f : sizeFields(cfg)) {
        while (caught(out.verdict) && out.config.*f.value > f.floor) {
            Cfg trial = out.config;
            trial.*f.value = std::max(f.floor, trial.*f.value / 2);
            auto verdict = runOne(trial);
            ++out.steps;
            if (!caught(verdict))
                break;
            out.config = std::move(trial);
            out.verdict = std::move(verdict);
        }
    }
    return out;
}

template <class Cfg, class Run>
int
sweep(const Campaign &campaign, const Cfg &base, std::ostream &out,
      Run runOne)
{
    bool defect = false;
    if constexpr (std::is_same_v<Cfg, FuzzConfig>)
        defect = base.defect != riscv::CoreTestMutation::kNone;
    const bool shrinks = campaign.minimize || defect;
    std::uint64_t failed = 0;
    std::uint64_t caughtRuns = 0;
    for (std::uint64_t r = 0; r < campaign.runs; ++r) {
        Cfg cfg = base;
        cfg.seed = base.seed + r;
        if (onFaultySubstrate(cfg.platform))
            makeFaulty(cfg.platform, cfg.seed);

        Shrunk<Cfg, decltype(runOne(cfg))> s{cfg, {}};
        if constexpr (std::is_same_v<Cfg, LitmusConfig>)
            fatalIf(shrinks, "litmus keeps no shrinker");
        else if (shrinks)
            s = shrink(cfg, runOne);
        if (!shrinks)
            s.verdict = runOne(cfg);

        printVerdict(out, s.config, s.verdict);
        caughtRuns += caught(s.verdict) ? 1 : 0;
        if (passed(s.verdict))
            continue;
        ++failed;
        out << "repro: " << reproCommand(s.config) << "\n";
        if (s.steps > 0)
            out << "minimized in " << s.steps << " steps\n";
    }

    if (defect) {
        const bool detected = caughtRuns == campaign.runs;
        out << "defect " << (detected ? "detected" : "MISSED") << " in "
            << caughtRuns << "/" << campaign.runs << " run(s)\n";
        return detected ? 0 : 1;
    }
    if (failed == 0 && campaign.runs > 1)
        out << kindName(kindOf(campaign.config)) << " sweep: "
            << campaign.runs << " seeds passed\n";
    return failed == 0 ? 0 : 1;
}

} // namespace

const char *
kindName(CheckKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

void
makeFaulty(platform::PrototypeConfig &platform, std::uint64_t seed)
{
    platform.faultPlan = sim::FaultPlan{};
    platform.faultPlan.seed = seed ^ 0xfau;
    platform.faultPlan.drop("bridge.tx", 0.02).corrupt("bridge.tx", 0.02);
    platform.reliability.enabled = true;
}

std::string
reproCommand(const KindConfig &config)
{
    std::ostringstream os;
    std::visit(
        [&](const auto &cfg) {
            const platform::PrototypeConfig &p = cfg.platform;
            os << "check_run " << kindName(kindOf(config)) << " --spec "
               << p.name() << " --seed " << cfg.seed;
            for (const auto &f : sizeFields(cfg))
                os << ' ' << f.flag << ' ' << cfg.*f.value;
            if constexpr (std::is_same_v<decltype(cfg), const FuzzConfig &>) {
                // The mix is a generator input like a size: always named.
                os << " --mix " << mixName(cfg.mix);
                if (cfg.shared)
                    os << " --shared";
                if (cfg.defect != riscv::CoreTestMutation::kNone)
                    os << " --defect " << defectName(cfg.defect);
            }
            os << " --threads " << p.parallel.threads << " --quantum "
               << p.quantum();
            if (!p.core.decodeCache.enabled)
                os << " --no-decode-cache";
            if (!p.core.dataFastPath)
                os << " --no-data-fastpath";
            if (!p.uncore.idleSkip)
                os << " --no-idle-skip";
            if (onFaultySubstrate(p))
                os << " --faulty";
        },
        config);
    return os.str();
}

Shrunk<TortureConfig, TortureReport>
minimize(const TortureConfig &cfg)
{
    return shrink(cfg, run);
}

Shrunk<FuzzConfig, FuzzResult>
minimize(const FuzzConfig &cfg)
{
    return shrink(cfg, run);
}

int
runCampaign(const Campaign &campaign, std::ostream &out)
{
    return std::visit(
        [&](const auto &cfg) { return sweep(campaign, cfg, out, run); },
        campaign.config);
}

int
runCampaign(const Campaign &campaign, std::ostream &out,
            FuzzResult (*fuzz)(const FuzzConfig &))
{
    return sweep(campaign, std::get<FuzzConfig>(campaign.config), out, fuzz);
}

} // namespace smappic::check
