/**
 * @file
 * One seeded-check campaign over the three seeded harnesses: litmus
 * (check/litmus.hpp), memory torture (check/torture.hpp) and lockstep
 * ISA fuzz (check/isa_fuzz.hpp).
 *
 * Each harness keeps only its program generator and its verdict. The
 * rest lives here once: the run knobs (one platform::PrototypeConfig per
 * config, starting from the kind's default), the seed sweep with its
 * verdict and repro lines, the halving shrinker over the kind's size
 * fields, and the repro renderer. tools/check_run parses the repro
 * flags back; the round-trip tests hold the two in step.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <variant>

#include "check/isa_fuzz.hpp"
#include "check/litmus.hpp"
#include "check/torture.hpp"

namespace smappic::check
{

/** The seeded harnesses, in the order of KindConfig's alternatives. */
enum class CheckKind : std::uint8_t
{
    kLitmus,
    kTorture,
    kFuzz,
};

/** One kind's config; the active alternative selects the kind. */
using KindConfig = std::variant<LitmusConfig, TortureConfig, FuzzConfig>;

/** check_run's name for a kind: "litmus", "torture" or "fuzz". */
const char *kindName(CheckKind kind);

inline CheckKind
kindOf(const KindConfig &cfg)
{
    return static_cast<CheckKind>(cfg.index());
}

/** The substrate behind `--faulty`: 2% drops and 2% corruptions on
 *  `bridge.tx` under the reliable bridge, seeded from the run seed. */
void makeFaulty(platform::PrototypeConfig &platform, std::uint64_t seed);

/** One size field of a kind's config. */
template <class Cfg>
struct SizeField
{
    const char *flag; ///< check_run flag, also used in repro lines.
    std::uint32_t Cfg::*value;
    std::uint32_t floor; ///< The shrinker halves the field no lower.
    std::uint32_t max;   ///< Largest value the flag accepts.
};

/** The kind's size fields, in shrink order. Litmus keeps no shrinker,
 *  so its `--iters` is only parsed and rendered. */
inline std::span<const SizeField<LitmusConfig>>
sizeFields(const LitmusConfig &)
{
    static constexpr SizeField<LitmusConfig> kFields[] = {
        {"--iters", &LitmusConfig::iterations, 1, UINT32_MAX}};
    return kFields;
}

/** Ops before lines: a shorter failing program localizes a bug better
 *  than a smaller address set. */
inline std::span<const SizeField<TortureConfig>>
sizeFields(const TortureConfig &)
{
    static constexpr SizeField<TortureConfig> kFields[] = {
        {"--ops", &TortureConfig::opsPerCore, 4, UINT32_MAX},
        {"--lines", &TortureConfig::sharedLines, 1, 32}};
    return kFields;
}

inline std::span<const SizeField<FuzzConfig>>
sizeFields(const FuzzConfig &)
{
    static constexpr SizeField<FuzzConfig> kFields[] = {
        {"--count", &FuzzConfig::count, 8, 100'000}};
    return kFields;
}

/**
 * The check_run line that reproduces one run of @p cfg: the spec, the
 * seed and the generator's inputs (size fields, fuzz mix), then every
 * other knob that differs from the kind's default. Knobs without a
 * flag (checker switch, fixed skews, pre-run hook) cannot be named; a
 * hand-built fault plan renders as `--faulty`.
 */
std::string reproCommand(const KindConfig &cfg);

/** A run shrunk as far as it still fails. */
template <class Cfg, class Verdict>
struct Shrunk
{
    Cfg config;      ///< Smallest failing config (the input if it passed).
    Verdict verdict; ///< The verdict of `config`.
    std::uint32_t steps = 0; ///< Trial runs the shrinker made.
};

/** Runs @p cfg; while it fails, halves each size field in turn and
 *  keeps a halving only if the failure reproduces. A fuzz run counts as
 *  failing here only if it diverged: one that just never exits is not
 *  shrunk. */
Shrunk<TortureConfig, TortureReport> minimize(const TortureConfig &cfg);
Shrunk<FuzzConfig, FuzzResult> minimize(const FuzzConfig &cfg);

/** A kind's config run over consecutive seeds. */
struct Campaign
{
    KindConfig config;
    /** Seeds config.seed .. config.seed + runs - 1; a faulty substrate
     *  is rebuilt from each run's seed (makeFaulty). */
    std::uint64_t runs = 1;
    bool minimize = false; ///< Shrink a failing run (not for litmus).
};

/**
 * Runs every seed of @p campaign, printing each run's verdict lines to
 * @p out and, after a failing run, its `repro:` line. A fuzz run with a
 * defect armed is always minimized and must diverge; a run that ends
 * without a clean exit and without a divergence fails even then.
 * Returns 0 if every run passed (with a defect: every run diverged), 1
 * otherwise.
 */
int runCampaign(const Campaign &campaign, std::ostream &out);

/** runCampaign over a fuzz campaign with @p fuzz in place of runFuzz,
 *  so a test can play a verdict no generated program produces. */
int runCampaign(const Campaign &campaign, std::ostream &out,
                FuzzResult (*fuzz)(const FuzzConfig &));

} // namespace smappic::check
