/**
 * @file
 * The perfbench driver: three workloads that each load one simulator
 * layer heavily and leave another idle, an untraced measurement loop
 * that reports the end-to-end metrics, and a traced run that reports
 * per-layer metrics measured from outside the simulator (spans around
 * the driver's own calls into public functions, StatRegistry counter
 * deltas, and short probes of single public functions).
 *
 * Workloads (see README.md for why each exists):
 *  - core_compute:  sequential 1x1x2, an L1-resident RV64 ALU/branch/
 *                   load/store loop per hart, exits with a checksum.
 *  - numa_intsort:  the Fig 8/9 guest-OS model, NUMA mode off, 12
 *                   workers round-robin over the 4 nodes of 4x1x12.
 *  - phased_memory: 4x1x2 under the phased engine (2 workers, quantum
 *                   63), load-add-store passes over a 64 KiB region per
 *                   hart.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/prototype.hpp"

namespace perfbench
{

/** One named measurement, printed in the result JSON. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run produced, checked against the host reference. */
struct Outcome
{
    std::uint64_t attempted = 0; ///< Outputs checked.
    std::uint64_t failed = 0;    ///< Outputs that did not match.
    /** Maximum hart cycle count, or the guest's virtual time. */
    smappic::Cycles targetCycles = 0;
    /** Retired RV64 instructions, or coherent accesses for the guest. */
    std::uint64_t guestOps = 0;
};

/**
 * One workload instance. The harness calls construct(), load(), run()
 * and check() once each, in that order; a fresh instance is made for
 * every repetition.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the Prototype. */
    virtual void construct() = 0;
    /** Loads the program, or creates the guest OS. */
    virtual void load() = 0;
    /** The timed body. */
    virtual void run() = 0;
    /** Compares the outputs with the host-side reference. */
    virtual Outcome check() = 0;
    /** Worker threads of the run (1 for the sequential engines). */
    virtual std::uint32_t workers() const { return 1; }

    smappic::platform::Prototype &proto() { return *proto_; }

    /** Adds @p delta to every expected checksum (tests use it to show
     *  that a wrong output is counted as a failure). */
    void skewExpected(std::uint64_t delta) { skew_ = delta; }

  protected:
    std::unique_ptr<smappic::platform::Prototype> proto_;
    std::uint64_t skew_ = 0;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Makes workload @p name for @p seed. @p scale multiplies the work per
 * run (tests use small scales); @p workers overrides the phased
 * engine's worker count when non-zero.
 * @throws std::invalid_argument on an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, double scale = 1.0,
                                       std::uint32_t workers = 0);

/** Host reference for core_compute: hart @p hart's exit value. */
std::uint64_t computeChecksum(std::uint64_t seed, std::uint32_t hart,
                              std::uint64_t iterations);

/** Host reference for phased_memory: the exit value of a hart whose
 *  per-line increment key is @p key. */
std::uint64_t memoryChecksum(std::uint64_t key, std::uint64_t lines,
                             std::uint64_t passes);

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
};

/** The result of one invocation. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result JSON. */
    std::vector<std::string> notes;

    bool correct() const { return attempted > 0 && failed == 0; }
};

/**
 * Untraced run: repeats the workload for opt.seconds and reports the
 * end-to-end metrics. Times are the repetitions' 10th percentile (median
 * for set-up), scaled to a quiet host by a fixed reference block of host
 * work timed before every repetition (see README.md, "Noise").
 */
Report measure(const Options &opt);

/** Traced run: per-layer metrics (raw host time), spans and the tracing
 *  overhead. */
Report traceRun(const Options &opt);

/** The result object, on one line. */
std::string toJson(const Report &report);

/** True when @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** FNV-1a 64 of @p text (stats-dump digests). */
std::uint64_t fnv1a(const std::string &text);

} // namespace perfbench
