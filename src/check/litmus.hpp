/**
 * @file
 * Litmus-test DSL and runner.
 *
 * A LitmusTest names a handful of shared memory locations and a few
 * threads of RV64 assembly that race over them; the runner lowers the
 * test to one program (mhartid dispatch, locations bound to callee-saved
 * registers, observed registers stored to a results area), executes it on
 * a real multi-core / multi-node prototype many times under varying
 * per-thread start skews, and validates every observed outcome against
 * the test's allowed-outcome table.
 *
 * The platform's data plane is sequentially consistent by construction
 * (cores interleave instruction by instruction over one functional
 * memory), so the shipped suite (SB, MP, LB, CoRR, CoWW, IRIW) uses
 * SC/coherence outcome tables: a forbidden outcome on unmutated code is
 * always a bug. A pre-run hook lets tests arm CoherentSystem test
 * mutations so the suite can demonstrate it actually catches one.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "platform/prototype.hpp"

namespace smappic::check
{

/** One racing thread: an asm body plus its observable registers. */
struct LitmusThread
{
    /**
     * Assembly body. Shared locations are pre-bound to s2, s3, s4, s5
     * (in LitmusTest::locations order) and every label must embed the
     * `%t` placeholder (mangled to the thread index) so bodies can be
     * instantiated more than once per program.
     */
    std::string body;
    /** Registers whose final values form this thread's outcome slice. */
    std::vector<std::string> observed;
};

/** One litmus test: locations, threads and the allowed-outcome table. */
struct LitmusTest
{
    std::string name;
    /** Shared dword locations, each on its own cache line. Max 4. */
    std::vector<std::string> locations;
    std::vector<LitmusThread> threads;
    /**
     * Allowed outcomes: each entry concatenates the threads' observed
     * registers in declaration order. Any observed tuple outside this
     * table fails the run.
     */
    std::vector<std::vector<std::uint64_t>> allowed;
};

/** How to run a litmus test. */
struct LitmusConfig
{
    LitmusConfig();

    /** Run knobs; needs >= threads harts. Default: 2x1x2, one worker at
     *  the lookahead quantum, checker attached. An attached checker
     *  makes the L1D fast path bail, so disable `platform.check` to
     *  genuinely exercise it. */
    platform::PrototypeConfig platform;
    /** Runs per test; each gets fresh caches and new start skews. */
    std::uint32_t iterations = 8;
    /** Seed for the per-iteration skew draw. */
    std::uint64_t seed = 1;
    /** When non-empty (one entry per thread), used verbatim every
     *  iteration instead of the seeded draw — e.g. to pin the writer
     *  after the reader's preload in the mutation-catch test. */
    std::vector<std::uint32_t> fixedSkews;
    std::uint64_t maxInstructions = 200'000;
    /** Runs after program load, before the cores start (arm mutations,
     *  warm caches, ...). */
    std::function<void(platform::Prototype &, const riscv::Program &)>
        preRun;
};

/** One iteration's observation. */
struct LitmusOutcome
{
    std::vector<std::uint64_t> values;
    bool allowed = false;
};

/** Aggregate verdict for one test under one config. */
struct LitmusResult
{
    std::string test;
    std::vector<LitmusOutcome> outcomes; ///< One per iteration.
    std::uint64_t checkerViolations = 0; ///< Summed over iterations.
    bool passed = false; ///< Every outcome allowed and zero violations.

    /** Human-readable outcome histogram ("1,0 x3  0,0 x5"). */
    std::string histogram() const;
};

/**
 * Lowers @p test to one RV64 program for the given hart placement and
 * per-thread start-skew delays. Exposed for unit tests; runLitmus() is
 * the normal entry point.
 */
std::string emitLitmusAsm(const LitmusTest &test,
                          const std::vector<GlobalTileId> &harts,
                          const std::vector<std::uint32_t> &skews);

/**
 * Round-robins @p threads over the nodes of an AxBxC prototype so a
 * 2-thread test on a 2-node box really crosses the inter-node bridge.
 */
std::vector<GlobalTileId> litmusPlacement(const platform::PrototypeConfig &,
                                          std::size_t threads);

/** Runs @p test under @p cfg; see LitmusResult. */
LitmusResult runLitmus(const LitmusTest &test, const LitmusConfig &cfg);

/** The standard suite: SB, MP (plain + spin), LB, CoRR, CoWW, IRIW. */
std::vector<LitmusTest> standardLitmusSuite();

/**
 * The mutation-demonstration test: MP where the reader preloads the data
 * line so a lost invalidation (TestMutation::kLostInvalidation armed on
 * that line) leaves it reading stale data after it saw the flag — the
 * forbidden (flag=1, data=0) outcome.
 */
LitmusTest mutationCatchTest();

} // namespace smappic::check
