/**
 * @file
 * Lockstep differential checker tests (src/ref/ + src/check/).
 *
 * Four layers:
 *  - bare-core wiring: clean programs produce zero divergences, and the
 *    two test-only defeat switches (CoreTestMutation::kMulhCorrupt and
 *    kStaleDecode) are each caught within a bounded number of commits;
 *  - pinned regressions for the CSR WARL and word-AMO defects the golden
 *    model originally flagged in RvCore (mstatus field mask + MPP
 *    legalization, mtvec mode legalization, mepc IALIGN mask, satp
 *    reserved-mode ignore, amomaxu.w upper-bit truncation);
 *  - the seeded ISA fuzzer: fixed-seed runs at the default config and
 *    at 1/2/4 workers, shared-line variants, decode cache on/off — all
 *    clean — plus defect runs that must minimize to a `repro:` line;
 *  - prototype integration: a platform with config().lockstep.enabled
 *    checks a multi-hart program transparently.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/campaign.hpp"
#include "check/isa_fuzz.hpp"
#include "check/lockstep.hpp"
#include "platform/prototype.hpp"
#include "riscv/assembler.hpp"
#include "riscv/core.hpp"
#include "support/flat_port.hpp"

namespace smappic::check
{
namespace
{

using riscv::CoreTestMutation;
using riscv::HaltReason;
using test::FlatPort;

/** One bare core + checker over a FlatPort, ready to run @p src. */
struct Harness
{
    FlatPort port;
    riscv::Program prog;
    std::unique_ptr<riscv::RvCore> core;
    std::unique_ptr<LockstepChecker> checker;

    explicit Harness(const std::string &src,
                     CoreTestMutation mutation = CoreTestMutation::kNone)
    {
        riscv::Assembler as;
        prog = as.assemble(src);
        test::loadProgram(port.memory, prog);
        riscv::CoreConfig cfg;
        cfg.resetPc = prog.entry;
        core = std::make_unique<riscv::RvCore>(cfg, port);
        test::installExitHandler(*core);
        core->setTestMutation(mutation);

        checker = std::make_unique<LockstepChecker>(LockstepConfig{});
        checker->attach(*core);
        for (const auto &seg : prog.segments)
            checker->loadImage(seg.base, seg.bytes.data(),
                               seg.bytes.size());
    }

    HaltReason run(std::uint64_t budget = 20000)
    {
        return core->run(budget);
    }
};

constexpr const char *kExitStub = "  li a0, 0\n  li a7, 93\n  ecall\n";

TEST(Lockstep, CleanProgramHasNoDivergences)
{
    std::ostringstream src;
    src << "_start:\n"
        << "  li x5, 123456789\n"
        << "  li x6, -987654321\n"
        << "  mulh x7, x5, x6\n"
        << "  divu x20, x6, x5\n"
        << "  li x8, 0x80004000\n"
        << "  sd x7, 0(x8)\n"
        << "  ld x21, 0(x8)\n"
        << "  beq x21, x7, skip\n"
        << "  addi x22, x22, 1\n"
        << "skip:\n"
        << "  csrw 0x340, x21\n"
        << "  csrr x23, 0x340\n"
        << kExitStub;
    Harness h(src.str());
    ASSERT_EQ(h.run(), HaltReason::kExited);
    EXPECT_GT(h.checker->commits(), 10u);
    EXPECT_TRUE(h.checker->divergences().empty()) << h.checker->report();
}

TEST(Lockstep, MulhCorruptionIsCaughtWithinBoundedCommits)
{
    std::ostringstream src;
    src << "_start:\n"
        << "  li x5, -1\n"
        << "  li x6, 7\n"
        << "  mulh x7, x5, x6\n"
        << kExitStub;
    Harness h(src.str(), CoreTestMutation::kMulhCorrupt);
    ASSERT_EQ(h.run(), HaltReason::kExited);
    auto divs = h.checker->divergences();
    ASSERT_FALSE(divs.empty());
    // li expands to a handful of instructions; the corrupt mulh is the
    // first divergence and must surface immediately, not at exit.
    EXPECT_LE(divs[0].commitIndex, 12u);
    EXPECT_NE(divs[0].message.find("x7"), std::string::npos)
        << divs[0].message;
}

/** Self-modifying patch loop: each round stores `addi x20, x20, k` over
 *  the patch point before executing it (k = 1..4). */
std::string
smcProgram()
{
    auto word = [](std::uint32_t k) {
        return 0x13u | (20u << 7) | (20u << 15) | (k << 20);
    };
    std::ostringstream src;
    src << "_start:\n"
        << "  la x8, words\n"
        << "  la x9, patch\n"
        << "  li x20, 0\n"
        << "  li x21, 0\n"
        << "  li x22, 4\n"
        << "loop:\n"
        << "  slli x23, x21, 2\n"
        << "  add x23, x23, x8\n"
        << "  lw x24, 0(x23)\n"
        << "  sw x24, 0(x9)\n"
        << "patch:\n"
        << "  addi x20, x20, 1\n"
        << "  addi x21, x21, 1\n"
        << "  blt x21, x22, loop\n"
        << kExitStub
        << "words:\n";
    for (std::uint32_t k = 1; k <= 4; ++k)
        src << "  .word " << word(k) << "\n";
    return src.str();
}

TEST(Lockstep, SmcLoopIsCleanWithoutMutation)
{
    Harness h(smcProgram());
    ASSERT_EQ(h.run(), HaltReason::kExited);
    EXPECT_TRUE(h.checker->divergences().empty()) << h.checker->report();
    // x20 accumulated every patched increment: 1 + 2 + 3 + 4.
    EXPECT_EQ(h.core->reg(20), 10u);
    // The stamp machinery did real work: the patched entry was dropped.
    EXPECT_GT(h.core->decodeCache().stats().invalidations, 0u);
}

TEST(Lockstep, StaleDecodeIsCaughtWithinBoundedCommits)
{
    Harness h(smcProgram(), CoreTestMutation::kStaleDecode);
    ASSERT_EQ(h.run(), HaltReason::kExited);
    auto divs = h.checker->divergences();
    ASSERT_FALSE(divs.empty()) << "stale decode not detected";
    // Round 2 is the first one served from a stale entry; the whole
    // program is well under 60 commits by then.
    EXPECT_LE(divs[0].commitIndex, 60u);
    EXPECT_NE(divs[0].message.find("stale decode"), std::string::npos)
        << divs[0].message;
    // The defeat switch suppressed the invalidation path entirely.
    EXPECT_EQ(h.core->decodeCache().stats().invalidations, 0u);
}

// ---------------------------------------------------------------------
// Pinned regressions for the DUT defects the golden model flagged.
// Each was a real mismatch between RvCore and the spec before the
// lockstep work landed; the WARL choices now live in riscv/isa.hpp and
// are shared by both interpreters.

/** Runs @p body on a bare core and returns the final value of csr @p n. */
std::uint64_t
csrAfter(const std::string &body, std::uint16_t n)
{
    Harness h("_start:\n" + body + kExitStub);
    EXPECT_EQ(h.run(), HaltReason::kExited);
    EXPECT_TRUE(h.checker->divergences().empty()) << h.checker->report();
    return h.core->csr(n);
}

TEST(LockstepCsrRegression, MstatusWriteKeepsOnlyWritableFields)
{
    std::uint64_t v = csrAfter("  li x5, -1\n  csrw 0x300, x5\n",
                               riscv::kCsrMstatus);
    // All-ones lands on the writable mask (MPP = 3 is legal).
    EXPECT_EQ(v, riscv::kMstatusWritableMask);
}

TEST(LockstepCsrRegression, MstatusReservedMppIsLegalized)
{
    // MPP = 2 (hypervisor) is reserved; writing it must not stick —
    // an mret through MPP = 2 would land the core in a privilege mode
    // that does not exist.
    std::uint64_t mpp2 = 2ULL << riscv::kMstatusMppShift;
    std::ostringstream body;
    body << "  li x5, " << (mpp2 | riscv::kMstatusMie) << "\n"
         << "  csrw 0x300, x5\n";
    std::uint64_t v = csrAfter(body.str(), riscv::kCsrMstatus);
    EXPECT_EQ(v, riscv::kMstatusMie);
}

TEST(LockstepCsrRegression, MepcWriteMasksIalignBits)
{
    // IALIGN = 32 (no compressed): mepc[1:0] must read back zero; the
    // old mask only cleared bit 0.
    std::uint64_t v = csrAfter(
        "  li x5, 0x80000006\n  csrw 0x341, x5\n", riscv::kCsrMepc);
    EXPECT_EQ(v, 0x80000004u);
}

TEST(LockstepCsrRegression, MtvecReservedModeIsLegalized)
{
    std::uint64_t v = csrAfter(
        "  li x5, 0x80000003\n  csrw 0x305, x5\n", riscv::kCsrMtvec);
    EXPECT_EQ(v & 3, 0u); // Reserved mode 3 falls back to direct.
    std::uint64_t vectored = csrAfter(
        "  li x5, 0x80000001\n  csrw 0x305, x5\n", riscv::kCsrMtvec);
    EXPECT_EQ(vectored & 3, 1u); // Mode 1 (vectored) is preserved.
}

TEST(LockstepCsrRegression, SatpReservedModeWriteIsIgnored)
{
    // Mode 5 is reserved: the whole write is discarded (WARL keeps the
    // old value), it must not store the raw bits.
    std::uint64_t v = csrAfter(
        "  li x5, 0x5000000000001234\n  csrw 0x180, x5\n",
        riscv::kCsrSatp);
    EXPECT_EQ(v, 0u);
}

TEST(LockstepAmoRegression, WordAmoIgnoresUpperSourceBits)
{
    // amomaxu.w must compare 32-bit values: rs2's dirty upper half made
    // the old implementation see 0xffffffff00000003 > 5 and clobber
    // memory with 3.
    std::ostringstream src;
    src << "_start:\n"
        << "  li x8, 0x80004000\n"
        << "  li x5, 5\n"
        << "  sw x5, 0(x8)\n"
        << "  li x6, -4294967293\n" // 0xffffffff_00000003
        << "  amomaxu.w x7, x6, (x8)\n"
        << "  lw x20, 0(x8)\n"
        << kExitStub;
    Harness h(src.str());
    ASSERT_EQ(h.run(), HaltReason::kExited);
    EXPECT_TRUE(h.checker->divergences().empty()) << h.checker->report();
    EXPECT_EQ(h.core->reg(7), 5u);  // Old value, sign-extended.
    EXPECT_EQ(h.core->reg(20), 5u); // max32(5, 3) = 5 stays in place.
}

// ---------------------------------------------------------------------
// Seeded fuzzer, fixed-seed matrix (the CI job runs the same shapes
// through `check_run fuzz`).

TEST(LockstepFuzz, FixedSeedSequentialIsClean)
{
    FuzzConfig cfg;
    cfg.seed = 7;
    cfg.count = 128;
    FuzzResult r = runFuzz(cfg);
    EXPECT_FALSE(r.diverged);
    EXPECT_TRUE(r.exitedCleanly);
    EXPECT_GT(r.commits, 2u * cfg.count);
}

TEST(LockstepFuzz, FixedSeedPhasedWorkersAreClean)
{
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        FuzzConfig cfg;
        cfg.platform = platform::PrototypeConfig::parse("1x2x1");
        cfg.platform.parallel = {workers, 256};
        cfg.seed = 11;
        cfg.count = 96;
        FuzzResult r = runFuzz(cfg);
        EXPECT_FALSE(r.diverged) << "workers " << workers;
        EXPECT_TRUE(r.exitedCleanly) << "workers " << workers;
    }
}

TEST(LockstepFuzz, FixedSeedSharedLinesAreClean)
{
    FuzzConfig cfg;
    cfg.seed = 13;
    cfg.count = 128;
    cfg.shared = true;
    FuzzResult r = runFuzz(cfg);
    EXPECT_FALSE(r.diverged);
    EXPECT_TRUE(r.exitedCleanly);
}

TEST(LockstepFuzz, DecodeCacheOffIsClean)
{
    FuzzConfig cfg;
    cfg.seed = 17;
    cfg.count = 128;
    cfg.platform.core.decodeCache.enabled = false;
    FuzzResult r = runFuzz(cfg);
    EXPECT_FALSE(r.diverged);
    EXPECT_TRUE(r.exitedCleanly);
}

TEST(LockstepFuzz, DataFastPathOnAndOffReachIdenticalFinalState)
{
    // Memory-heavy mix so the fast path actually fires, at 1/2/4
    // workers. Both variants run the identical program under the
    // golden-model checker: zero divergences each, and equal commit
    // counts pin the final architectural state as identical (every
    // commit was already golden-verified). The 1-worker leg keeps both
    // harts on one node; the others put one hart on each of as many
    // nodes as workers, so each leg really runs that many workers.
    for (std::uint32_t workers : {1u, 2u, 4u}) {
        FuzzConfig cfg;
        if (workers > 1) {
            cfg.platform = platform::PrototypeConfig::parse(
                workers == 2 ? "2x1x1" : "4x1x1");
        }
        cfg.platform.parallel = {workers, 256};
        ASSERT_EQ(cfg.platform.workers(), workers);
        cfg.seed = 23;
        cfg.count = 128;
        cfg.mix = FuzzMix::kMem;
        cfg.shared = true;

        cfg.platform.core.dataFastPath = true;
        FuzzResult on = runFuzz(cfg);
        cfg.platform.core.dataFastPath = false;
        FuzzResult off = runFuzz(cfg);

        EXPECT_FALSE(on.diverged) << "fastpath on, workers " << workers;
        EXPECT_FALSE(off.diverged) << "fastpath off, workers " << workers;
        EXPECT_TRUE(on.exitedCleanly) << "workers " << workers;
        EXPECT_TRUE(off.exitedCleanly) << "workers " << workers;
        EXPECT_EQ(on.commits, off.commits) << "workers " << workers;
    }
}

TEST(LockstepFuzz, RunsAreDeterministic)
{
    FuzzConfig cfg;
    cfg.seed = 23;
    cfg.count = 96;
    FuzzResult a = runFuzz(cfg);
    FuzzResult b = runFuzz(cfg);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.diverged, b.diverged);
    EXPECT_EQ(generateFuzzProgram(cfg, 2), generateFuzzProgram(cfg, 2));
}

TEST(LockstepFuzz, MulhDefectMinimizesToRepro)
{
    FuzzConfig cfg;
    cfg.seed = 29;
    cfg.count = 256;
    cfg.mix = FuzzMix::kMul;
    cfg.defect = CoreTestMutation::kMulhCorrupt;
    auto m = minimize(cfg);
    ASSERT_TRUE(m.verdict.diverged);
    EXPECT_LE(m.config.count, cfg.count / 2); // It actually shrank.
    std::string repro = reproCommand(m.config);
    EXPECT_EQ(repro.rfind("check_run fuzz ", 0), 0u) << repro;
    EXPECT_NE(repro.find("--count " + std::to_string(m.config.count)),
              std::string::npos)
        << repro;
    EXPECT_NE(repro.find("--defect mulh"), std::string::npos) << repro;
}

TEST(LockstepFuzz, StaleDecodeDefectIsDetected)
{
    FuzzConfig cfg;
    cfg.seed = 31;
    cfg.count = 128;
    cfg.mix = FuzzMix::kSmc;
    cfg.defect = CoreTestMutation::kStaleDecode;
    auto m = minimize(cfg);
    ASSERT_TRUE(m.verdict.diverged);
    EXPECT_NE(reproCommand(m.config).find("--mix smc"), std::string::npos)
        << reproCommand(m.config);

    // Control: the same config without the defeat switch is clean.
    cfg.defect = CoreTestMutation::kNone;
    EXPECT_FALSE(runFuzz(cfg).diverged);
}

// ---------------------------------------------------------------------
// Prototype integration: config().lockstep.enabled wires everything.

TEST(LockstepPrototype, MultiHartProgramIsCheckedTransparently)
{
    platform::PrototypeConfig pcfg = platform::PrototypeConfig::parse(
        "1x1x2");
    pcfg.lockstep.enabled = true;
    platform::Prototype proto(pcfg);
    ASSERT_NE(proto.lockstep(), nullptr);

    proto.loadSource("_start:\n"
                     "  csrr x5, 0xf14\n"
                     "  li x6, 100\n"
                     "  mul x7, x5, x6\n"
                     "  li x8, 0x80005000\n"
                     "  slli x9, x5, 3\n"
                     "  add x8, x8, x9\n"
                     "  sd x7, 0(x8)\n"
                     "  ld x20, 0(x8)\n"
                     "  li a0, 0\n  li a7, 93\n  ecall\n");
    proto.runCores({0, 1});
    EXPECT_GT(proto.lockstep()->commits(), 0u);
    EXPECT_TRUE(proto.lockstep()->divergences().empty())
        << proto.lockstep()->report();
    // No divergence -> the lazy stat was never created.
    EXPECT_EQ(proto.core(0).exited(), true);
}

TEST(LockstepPrototype, DisabledByDefault)
{
    platform::PrototypeConfig pcfg = platform::PrototypeConfig::parse(
        "1x1x1");
    platform::Prototype proto(pcfg);
    EXPECT_EQ(proto.lockstep(), nullptr);
}

} // namespace
} // namespace smappic::check
