/**
 * @file
 * Tests for the disassembler + core trace hook and the STREAM workload.
 */

#include <gtest/gtest.h>

#include <vector>

#include "platform/prototype.hpp"
#include "riscv/disasm.hpp"
#include "workload/stream.hpp"

namespace smappic
{
namespace
{

// ---------------- disassembler ----------------

TEST(Disasm, RendersCommonForms)
{
    using riscv::decode;
    using riscv::disassemble;
    EXPECT_EQ(disassemble(decode(0xffd10093)), "addi ra, sp, -3");
    EXPECT_EQ(disassemble(decode(0x005201b3)), "add gp, tp, t0");
    EXPECT_EQ(disassemble(decode(0x00000073)), "ecall");
    EXPECT_EQ(disassemble(decode(0x10500073)), "wfi");
    EXPECT_EQ(disassemble(decode(0xdeadbeef)).substr(0, 3), "jal");
    EXPECT_EQ(disassemble(decode(0x00000000)), "illegal 0x00000000");
}

TEST(Disasm, RoundTripsThroughAssembler)
{
    // Assemble a program, decode each word, re-render: every mnemonic
    // must match the source instruction's mnemonic.
    riscv::Assembler as;
    auto prog = as.assemble(R"(
_start:
    addi t0, t0, 1
    sub a0, a1, a2
    ld s2, 8(sp)
    sd s2, 16(sp)
    beq t0, t1, _start
    amoadd.d t2, t3, (t4)
    csrrw zero, 0x305, t0
    mulw s3, s4, s5
)");
    const char *expected[] = {"addi", "sub", "ld", "sd",
                              "beq",  "amoadd.d", "csrrw", "mulw"};
    const auto &text = prog.segments.at(0).bytes;
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        std::uint32_t word = 0;
        std::memcpy(&word, text.data() + i * 4, 4);
        std::string da = riscv::disassemble(riscv::decode(word));
        EXPECT_EQ(da.substr(0, std::string(expected[i]).size()),
                  expected[i])
            << da;
    }
}

TEST(Disasm, RegNames)
{
    EXPECT_STREQ(riscv::regName(0), "zero");
    EXPECT_STREQ(riscv::regName(2), "sp");
    EXPECT_STREQ(riscv::regName(10), "a0");
    EXPECT_STREQ(riscv::regName(31), "t6");
}

TEST(Disasm, CoreTraceHookFires)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    li t0, 5
    addi t0, t0, 1
    li a7, 93
    li a0, 0
    ecall
)");
    std::vector<std::string> trace;
    proto.core(0).setTraceFn(
        [&](Addr pc, const riscv::DecodedInst &d) {
            trace.push_back(strfmt("%llx: %s",
                                   static_cast<unsigned long long>(pc),
                                   riscv::disassemble(d).c_str()));
        });
    proto.runCore(0);
    ASSERT_GE(trace.size(), 5u);
    EXPECT_NE(trace[0].find("addi t0, zero, 5"), std::string::npos);
    EXPECT_NE(trace[1].find("addi t0, t0, 1"), std::string::npos);
    EXPECT_NE(trace.back().find("ecall"), std::string::npos);
}

// ---------------- STREAM ----------------

TEST(Stream, AllKernelsCorrect)
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x4"));
    auto guest = proto.makeGuest(os::NumaMode::kOn);
    workload::StreamConfig cfg;
    cfg.elementsPerThread = 1 << 10;
    for (auto k : {workload::StreamKernel::kCopy,
                   workload::StreamKernel::kScale,
                   workload::StreamKernel::kAdd,
                   workload::StreamKernel::kTriad}) {
        auto r = workload::runStream(*guest, {0, 1, 2, 3}, k, cfg);
        EXPECT_TRUE(r.correct) << workload::streamKernelName(k);
        EXPECT_GT(r.bytesPerCycle, 0.0);
    }
}

TEST(Stream, NumaOnDeliversMoreBandwidthThanOff)
{
    // The canonical NUMA measurement: local streams beat scattered ones.
    workload::StreamConfig cfg;
    cfg.elementsPerThread = 1 << 12;
    std::vector<GlobalTileId> tiles;
    for (std::uint32_t i = 0; i < 8; ++i)
        tiles.push_back((i % 4) * 12 + i / 4);

    platform::Prototype p_on(platform::PrototypeConfig::parse("4x1x12"));
    auto g_on = p_on.makeGuest(os::NumaMode::kOn);
    auto on = workload::runStream(*g_on, tiles,
                                  workload::StreamKernel::kTriad, cfg);

    platform::Prototype p_off(platform::PrototypeConfig::parse("4x1x12"));
    auto g_off = p_off.makeGuest(os::NumaMode::kOff);
    auto off = workload::runStream(*g_off, tiles,
                                   workload::StreamKernel::kTriad, cfg);

    EXPECT_TRUE(on.correct);
    EXPECT_TRUE(off.correct);
    EXPECT_GT(on.bytesPerCycle, off.bytesPerCycle * 1.3);
}

TEST(Stream, MoreThreadsMoreAggregateBandwidth)
{
    workload::StreamConfig cfg;
    cfg.elementsPerThread = 1 << 12;
    platform::Prototype p1(platform::PrototypeConfig::parse("4x1x12"));
    auto g1 = p1.makeGuest(os::NumaMode::kOn);
    auto one = workload::runStream(*g1, {0}, workload::StreamKernel::kCopy,
                                   cfg);
    platform::Prototype p8(platform::PrototypeConfig::parse("4x1x12"));
    auto g8 = p8.makeGuest(os::NumaMode::kOn);
    std::vector<GlobalTileId> tiles;
    for (std::uint32_t i = 0; i < 8; ++i)
        tiles.push_back((i % 4) * 12 + i / 4);
    auto eight = workload::runStream(*g8, tiles,
                                     workload::StreamKernel::kCopy, cfg);
    EXPECT_GT(eight.bytesPerCycle, one.bytesPerCycle * 3);
}

} // namespace
} // namespace smappic
