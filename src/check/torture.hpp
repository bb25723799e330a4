/**
 * @file
 * Multi-core memory torture generator with golden-model cross-checking
 * and failing-seed minimization.
 *
 * From one seed the generator emits a per-core random load/store program
 * (AMO-free) over a small set of shared, false-sharing-prone cache
 * lines: every 8-byte slot of the shared region is owned by exactly one
 * core; cores store random values only to their own slots, fold loads of
 * their own slots into a running checksum, and load other cores' slots
 * purely to provoke coherence traffic. Because slot ownership is
 * disjoint, the final memory image and every per-core checksum are
 * deterministic functions of the seed alone — a flat golden replay
 * predicts both exactly, for any engine, thread count or interleaving.
 *
 * A run executes the program on a real prototype built from the config's
 * run knobs (worker count and quantum, optionally under a FaultPlan
 * and the reliable bridge) with the online coherence checker attached,
 * then cross-checks the image, the checksums, the exit codes and the
 * checker verdict. Shrinking a failure and rendering its repro line are
 * shared with the other seeded harnesses (check/campaign.hpp).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "platform/prototype.hpp"

namespace smappic::check
{

/** One torture run's shape. Everything observable derives from these. */
struct TortureConfig
{
    TortureConfig();

    /** Run knobs; all harts run. Default: 2x1x2, one worker at the
     *  lookahead quantum, checker attached. */
    platform::PrototypeConfig platform;
    std::uint64_t seed = 1;
    std::uint32_t opsPerCore = 64;
    /** Shared cache lines (8 slots each). Max 32 (imm12 addressing). */
    std::uint32_t sharedLines = 4;
    std::uint64_t maxInstructions = 2'000'000;
    /** Runs after program load, before the cores start (arm mutations). */
    std::function<void(platform::Prototype &, const riscv::Program &)>
        preRun;
};

/** Verdict of one torture run. */
struct TortureReport
{
    bool passed = false;
    std::uint64_t checkerViolations = 0;
    /** Faults the run's FaultPlan injected (0 without a plan). */
    std::uint64_t faultsInjected = 0;
    /** Crossings the reliable link replayed (bridge.retransmits). */
    std::uint64_t retransmits = 0;
    /** Human-readable golden-model mismatches (bounded). */
    std::vector<std::string> mismatches;
};

/** Deterministic program + golden expectation for one config. */
struct TortureProgram
{
    std::string source; ///< RV64 asm (mhartid-dispatched, one per core).
    std::vector<std::uint64_t> finalSlots; ///< Expected slot values.
    std::vector<std::uint64_t> checksums;  ///< Expected per-core chk.
};

/** Generates the program and its golden expectation (pure function of
 *  seed, opsPerCore, sharedLines and the platform's hart count). */
TortureProgram generateTorture(const TortureConfig &cfg);

/** Runs one torture config to a verdict. */
TortureReport runTorture(const TortureConfig &cfg);

} // namespace smappic::check
