/**
 * @file
 * Seeded ISA fuzzing for the lockstep differential checker.
 *
 * generateFuzzProgram() builds a self-terminating random RV64 assembly
 * program from a (seed, count, mix) triple: an mhartid dispatch header
 * sends each hart into its own instruction stream (disjoint 512-byte
 * data regions, optional cross-hart shared lines), every branch is
 * forward-only over a bounded filler window so termination needs no
 * reasoning, and each stream funnels into the standard
 * `a7=93 ecall` exit stub. Generation is a pure function of the config,
 * so any divergence reproduces from its command line alone.
 *
 * runFuzz() stands up a Prototype from the config's run knobs with the
 * lockstep checker enabled, runs the generated program under the
 * configured knobs (N workers, decode cache on or off, optionally with
 * a test-only defect armed) and returns the divergence evidence.
 * Shrinking a divergence (halving the instruction count) and rendering
 * its repro line are shared with the other seeded harnesses
 * (check/campaign.hpp).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/lockstep.hpp"
#include "platform/prototype.hpp"
#include "riscv/core.hpp"

namespace smappic::check
{

/** Instruction mix of a fuzz program. */
enum class FuzzMix : std::uint8_t
{
    kAlu, ///< Base-ISA ALU ops, lui, forward branches.
    kMul, ///< M extension (with ALU operand churn).
    kMem, ///< Loads/stores over the hart's private region.
    kAmo, ///< LR/SC pairs and AMOs (plus loads/stores).
    kCsr, ///< CSR read/modify/write traffic incl. counter reads.
    kAll, ///< Weighted blend of all of the above.
    kSmc, ///< Self-modifying patch loop (decode-invalidation stress).
};

const char *mixName(FuzzMix mix);
/** @throws FatalError on an unknown mix name. */
FuzzMix parseMix(const std::string &name);

/** Command-line name of a test-only core defect ("mulh",
 *  "stale-decode"; "none" when unarmed). */
const char *defectName(riscv::CoreTestMutation defect);
/** @throws FatalError on an unknown defect name. */
riscv::CoreTestMutation parseDefect(const std::string &name);

/** One fuzz run, fully determined by its field values. */
struct FuzzConfig
{
    FuzzConfig();

    /** Run knobs; every hart runs. Default: 1x1x2, one worker at the
     *  lookahead quantum. runFuzz adds the lockstep checker. */
    platform::PrototypeConfig platform;
    std::uint64_t seed = 1;
    std::uint32_t count = 256; ///< Instruction slots per hart.
    FuzzMix mix = FuzzMix::kAll;
    bool shared = false;   ///< Sprinkle cross-hart shared-line accesses.
    riscv::CoreTestMutation defect = riscv::CoreTestMutation::kNone;
};

/** Outcome of one fuzz run. */
struct FuzzResult
{
    bool diverged = false;
    std::uint64_t commits = 0;
    bool exitedCleanly = false; ///< Every hart reached the exit stub.
    std::vector<Divergence> divergences;
};

/** Deterministic program text for @p cfg on @p harts harts. */
std::string generateFuzzProgram(const FuzzConfig &cfg,
                                std::uint32_t harts);

/** Builds the platform, runs the program, returns the evidence. */
FuzzResult runFuzz(const FuzzConfig &cfg);

} // namespace smappic::check
