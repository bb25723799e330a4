/**
 * @file
 * Integration tests for the Prototype: AxBxC parsing, program execution on
 * cores against the coherent memory system, console I/O through the
 * tunnelled UART, CLINT interrupt delivery to the cores, virtual SD
 * card, the Fig-7 latency probe, and the fault-plan sites a prototype
 * accepts.
 */

#include <gtest/gtest.h>

#include "platform/prototype.hpp"
#include "sim/log.hpp"

namespace smappic::platform
{
namespace
{

TEST(PrototypeConfig, ParseAndName)
{
    auto c = PrototypeConfig::parse("4x1x12");
    EXPECT_EQ(c.fpgas, 4u);
    EXPECT_EQ(c.nodesPerFpga, 1u);
    EXPECT_EQ(c.tilesPerNode, 12u);
    EXPECT_EQ(c.totalNodes(), 4u);
    EXPECT_EQ(c.totalTiles(), 48u);
    EXPECT_EQ(c.name(), "4x1x12");

    EXPECT_THROW(PrototypeConfig::parse("4x1"), FatalError);
    EXPECT_THROW(PrototypeConfig::parse("axbxc"), FatalError);
    EXPECT_THROW(PrototypeConfig::parse("8x1x2"), FatalError);  // >4 FPGAs.
    EXPECT_THROW(PrototypeConfig::parse("1x8x2"), FatalError);  // >4 nodes.
    EXPECT_THROW(PrototypeConfig::parse("0x1x2"), FatalError);
    // Above 32 bits: the first two would wrap to a valid 1x1x2, and the
    // last does not fit 64 bits either.
    for (const char *spec :
         {"1x1x4294967298", "4294967297x1x2", "1x1x99999999999999999999"})
        EXPECT_THROW(PrototypeConfig::parse(spec), FatalError) << spec;
}

TEST(Prototype, RejectsFaultRulesThatReachNoHook)
{
    // A rule whose site matches none of the hooks a prototype evaluates
    // would inject nothing; construction refuses it instead.
    auto build = [](const std::string &site) {
        PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
        cfg.faultPlan.drop(site, 0.5);
        Prototype proto(cfg);
    };
    for (const char *site : {"dram.read", "memctrl.resp",
                             "bridge.rx", "node.wedge.node9"})
        EXPECT_THROW(build(site), FatalError) << site;
    for (const char *site : {"bridge", "bridge.tx", "pcie", "pcie.read",
                             "node.wedge", "node.wedge.node1"})
        EXPECT_NO_THROW(build(site)) << site;
}

TEST(Prototype, RunsProgramOnCore)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    li a0, 11
    li a1, 31
    add a0, a0, a1
    li a7, 93
    ecall
)");
    auto r = proto.runCore(0);
    EXPECT_EQ(r, riscv::HaltReason::kExited);
    EXPECT_EQ(proto.core(0).exitCode(), 42);
    // Memory traffic went through the coherent system.
    EXPECT_GT(proto.stats().counterValue("cs.bpc.misses"), 0u);
}

TEST(Prototype, RunCoreReportsEbreak)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    li a0, 3
    ebreak
    li a7, 93
    ecall
)");
    EXPECT_EQ(proto.runCore(0), riscv::HaltReason::kEbreak);
    EXPECT_FALSE(proto.core(0).exited());
}

TEST(Prototype, RunCoreStopsAtItsBudgetAndResumes)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    li t0, 1000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 9
    li a7, 93
    ecall
)");
    EXPECT_EQ(proto.runCore(0, 500), riscv::HaltReason::kInstrBudget);
    EXPECT_FALSE(proto.core(0).exited());
    EXPECT_EQ(proto.core(0).instret(), 500u);
    EXPECT_EQ(proto.runCore(0), riscv::HaltReason::kExited);
    EXPECT_EQ(proto.core(0).exitCode(), 9);
}

TEST(Prototype, ConsoleOutputThroughUart)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
.data
msg: .asciiz "hello, smappic\n"
.text
_start:
    li a0, 1
    la a1, msg
    li a2, 15
    li a7, 64      # write
    ecall
    li a0, 0
    li a7, 93
    ecall
)");
    proto.runCore(0);
    EXPECT_EQ(proto.console(0).captured(), "hello, smappic\n");
    EXPECT_EQ(proto.consoleUart(0).bytesTransmitted(), 15u);
}

TEST(Prototype, ConsoleInputReadBack)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.console(0).type(proto.consoleUart(0), "ok");
    proto.loadSource(R"(
.data
buf: .space 16
.text
_start:
    li a0, 0
    la a1, buf
    li a2, 2
    li a7, 63      # read
    ecall
    la a1, buf
    lb a0, 0(a1)   # 'o' == 111
    li a7, 93
    ecall
)");
    proto.runCore(0);
    EXPECT_EQ(proto.core(0).exitCode(), 'o');
}

TEST(Prototype, GuestProgramDrivesUartRegistersDirectly)
{
    // MMIO path: the guest writes the THR register of the tunnelled
    // 16550 itself (no syscall), like a real bare-metal driver.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    li t0, 0x10000000   # node 0 console UART, THR
    li t1, 65           # 'A'
    sb t1, 0(t0)
    li t1, 10           # '\n'
    sb t1, 0(t0)
    li a7, 93
    li a0, 0
    ecall
)");
    proto.runCore(0);
    EXPECT_EQ(proto.console(0).captured(), "A\n");
}

TEST(Prototype, ClintTimerInterruptsCore)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    la t0, handler
    csrw 0x305, t0
    li t1, 0x80
    csrw 0x304, t1       # mie.MTIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2       # mstatus.MIE
    # mtimecmp[0] = 2000 (hart 0).
    li t3, 0x02004000
    li t4, 2000
    sd t4, 0(t3)
spin:
    j spin
handler:
    li a0, 55
    li a7, 93
    ecall
)");
    auto r = proto.runCore(0, 1'000'000);
    EXPECT_EQ(r, riscv::HaltReason::kExited);
    EXPECT_EQ(proto.core(0).exitCode(), 55);
    EXPECT_GT(proto.stats().counterValue("platform.irqPackets"), 0u);
}

TEST(Prototype, SoftwareInterruptAcrossCores)
{
    // Core 0 rings core 1's MSIP doorbell through the CLINT; core 1 sits
    // in wfi until its MSIP line rises.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    auto prog = proto.loadSource(R"(
_start:
    csrr t0, 0xf14       # mhartid
    bnez t0, core1
    # Core 0: set MSIP for hart 1, then exit.
    li t1, 0x02000004
    li t2, 1
    sw t2, 0(t1)
    li a0, 0
    li a7, 93
    ecall
core1:
    la t0, handler
    csrw 0x305, t0
    li t1, 0x8
    csrw 0x304, t1       # mie.MSIE
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2
wait:
    wfi
    j wait
handler:
    li a0, 77
    li a7, 93
    ecall
)");
    (void)prog;
    proto.runCores({0, 1}, 100000);
    EXPECT_EQ(proto.core(0).exitCode(), 0);
    EXPECT_TRUE(proto.core(1).exited());
    EXPECT_EQ(proto.core(1).exitCode(), 77);
}

TEST(Prototype, SharedMemoryBetweenCores)
{
    // Core 0 spins on a flag core 1 sets: coherence keeps them in sync.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
.data
.align 3
flag: .dword 0
.text
_start:
    csrr t0, 0xf14
    la t1, flag
    bnez t0, setter
spinner:
    ld t2, 0(t1)
    beqz t2, spinner
    mv a0, t2
    li a7, 93
    ecall
setter:
    li t2, 123
    sd t2, 0(t1)
    li a0, 0
    li a7, 93
    ecall
)");
    proto.runCores({0, 1}, 200000);
    EXPECT_TRUE(proto.core(0).exited());
    EXPECT_EQ(proto.core(0).exitCode(), 123);
}

TEST(Prototype, VirtualSdCardGuestAccess)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    // Pre-load block 3 of the card (as the host driver would).
    std::vector<std::uint8_t> block(io::VirtualSdCard::kBlockBytes, 0);
    block[0] = 0xab;
    block[1] = 0xcd;
    proto.sdCard(0).writeBlock(3, block);

    proto.loadSource(R"(
_start:
    li t0, 0x03000000    # SD MMIO
    li t1, 3
    sd t1, 0(t0)         # LBA = 3
    li t2, 0x80500000
    sd t2, 8(t0)         # buffer
    li t3, 1
    sd t3, 16(t0)        # CMD read
    li t4, 0x80500000
    lhu a0, 0(t4)        # first two bytes: 0xcdab
    li a7, 93
    ecall
)");
    proto.runCore(0);
    EXPECT_EQ(proto.core(0).exitCode(), 0xcdab);
    EXPECT_EQ(proto.sdCard(0).commandsServed(), 1u);
}

TEST(Prototype, HostSdLoaderThroughFabric)
{
    Prototype proto(PrototypeConfig::parse("2x1x2"));
    io::HostSdLoader loader(proto.fabric(), 0x100000000ULL);
    std::vector<std::uint8_t> image(2048);
    for (std::size_t i = 0; i < image.size(); ++i)
        image[i] = static_cast<std::uint8_t>(i);
    loader.loadImage(image);
    proto.eventQueue().run();
    EXPECT_EQ(loader.bytesWritten(), image.size());

    std::vector<std::uint8_t> block;
    proto.sdCard(0).readBlock(1, block);
    EXPECT_EQ(block[0], static_cast<std::uint8_t>(512));
    EXPECT_EQ(block[5], static_cast<std::uint8_t>(517));
}

TEST(Prototype, Fig7LatencyShape)
{
    Prototype proto(PrototypeConfig::parse("2x1x4"));
    Cycles intra = proto.measureRoundTrip(0, 2); // Same node.
    Cycles inter = proto.measureRoundTrip(0, 5); // Other node.
    EXPECT_GE(intra, 60u);
    EXPECT_LE(intra, 150u);
    double ratio = static_cast<double>(inter) /
                   static_cast<double>(intra);
    EXPECT_GE(ratio, 1.8);
    EXPECT_LE(ratio, 3.2);
}

TEST(Prototype, MultiNodeInterruptCrossesNodes)
{
    // Hart 3 lives on node 1 in a 2x1x2 config; raising its MSIP from
    // serial context drives that core's line at once.
    Prototype proto(PrototypeConfig::parse("2x1x2"));
    proto.clint().write(riscv::kClintMsipBase + 4 * 3, 1, 4);
    EXPECT_TRUE(
        (proto.core(3).csr(riscv::kCsrMip) >> riscv::kIrqMsi) & 1);
    EXPECT_FALSE(
        (proto.core(0).csr(riscv::kCsrMip) >> riscv::kIrqMsi) & 1);
}

TEST(Prototype, AcceleratorRegistration)
{
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    auto &gng = proto.addGng(1);
    Addr win = proto.accelWindow(1);
    EXPECT_EQ(win, kAccelBase);

    // Guest fetches a packed sample pair.
    auto r = proto.memorySystem().access(0, win, cache::AccessType::kNcLoad,
                                         4, 0);
    EXPECT_EQ(r.level, cache::ServiceLevel::kDevice);
    EXPECT_EQ(gng.samplesServed(), 2u);
}

TEST(Prototype, DeviceWindowEdgesOnTwoNodes)
{
    // Every window of a 2-node prototype: each byte just outside a
    // window and the first and last byte inside it. With 2 GiB per node
    // the accelerator windows sit inside node 0's DRAM range.
    PrototypeConfig cfg = PrototypeConfig::parse("2x1x2");
    cfg.memPerNode = 2ULL << 30;
    Prototype proto(cfg);
    proto.addGng(1);
    proto.addMaple(2);
    struct Window
    {
        Addr base;
        std::uint64_t size;
    };
    std::vector<Window> windows = {{kClintBase, kClintSize},
                                   {kPlicBase, kPlicSize},
                                   {proto.accelWindow(1), kAccelStride},
                                   {proto.accelWindow(2), kAccelStride}};
    for (Addr n = 0; n < 2; ++n) {
        windows.push_back({kSdMmioBase + n * kSdMmioStride, kSdMmioStride});
        for (Addr u = 0; u < 2; ++u) {
            windows.push_back(
                {kUartBase + n * kUartNodeStride + u * kUartStride,
                 kUartStride});
        }
    }
    auto inside = [&](Addr addr) {
        for (const Window &w : windows) {
            if (addr >= w.base && addr - w.base < w.size)
                return true;
        }
        return false;
    };
    ASSERT_GE(proto.accelWindow(1), kDramBase);
    ASSERT_LT(proto.accelWindow(2) + kAccelStride, kDramBase + cfg.memPerNode);

    cache::CoherentSystem &cs = proto.memorySystem();
    Cycles now = 0;
    for (const Window &w : windows) {
        for (Addr addr : {w.base - 1, w.base, w.base + w.size - 1,
                          w.base + w.size}) {
            // Stores: a MAPLE window refuses loads with an empty queue.
            auto r = cs.access(0, addr, cache::AccessType::kStore, 1, now);
            now += r.latency;
            EXPECT_EQ(r.level == cache::ServiceLevel::kDevice, inside(addr))
                << std::hex << "0x" << addr;
        }
    }
}

} // namespace
} // namespace smappic::platform

namespace smappic::platform
{
namespace
{

TEST(Prototype, UartRxInterruptWakesCore)
{
    // Interrupt-driven console: the guest enables the UART RX interrupt
    // and the machine-external line, then sleeps in wfi until the host
    // types; the ISR echoes the byte as its exit code.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    la t0, handler
    csrw 0x305, t0
    li t1, 0x800         # mie.MEIE
    csrw 0x304, t1
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2
    # Enable the UART's RX-data-available interrupt (IER bit 0).
    li t3, 0x10000001
    li t4, 1
    sb t4, 0(t3)
sleep:
    wfi
    j sleep
handler:
    li t3, 0x10000000
    lbu a0, 0(t3)        # Pop the byte (drops the IRQ level).
    li a7, 93
    ecall
)");
    // Run until the guest parks in wfi.
    auto r = proto.runCore(0, 200);
    EXPECT_EQ(r, riscv::HaltReason::kWfi);
    EXPECT_FALSE(proto.core(0).exited());

    proto.console(0).type(proto.consoleUart(0), "Z");
    proto.runCore(0, 1000);
    ASSERT_TRUE(proto.core(0).exited());
    EXPECT_EQ(proto.core(0).exitCode(), 'Z');
}

} // namespace
} // namespace smappic::platform

namespace smappic::platform
{
namespace
{

TEST(Prototype, PlicClaimCompleteFromGuest)
{
    // Full external-interrupt protocol: wfi -> MEI -> claim from the
    // PLIC, service the UART, complete, and return.
    Prototype proto(PrototypeConfig::parse("1x1x2"));
    proto.loadSource(R"(
_start:
    la t0, handler
    csrw 0x305, t0
    li t1, 0x800         # mie.MEIE
    csrw 0x304, t1
    csrr t2, 0x300
    ori t2, t2, 8
    csrw 0x300, t2
    li t3, 0x10000001    # UART IER: RX interrupt on.
    li t4, 1
    sb t4, 0(t3)
sleep:
    wfi
    j sleep
handler:
    li t3, 0x0c200004    # PLIC claim register (hart 0 context).
    lwu t5, 0(t3)        # Claim: source id.
    li t6, 0x10000000
    lbu a0, 0(t6)        # Service: pop the UART byte.
    sw t5, 0(t3)         # Complete.
    # Check the claim was source 1 (node 0 console).
    li t6, 1
    bne t5, t6, bad
    li a7, 93
    ecall
bad:
    li a0, 255
    li a7, 93
    ecall
)");
    auto r = proto.runCore(0, 300);
    EXPECT_EQ(r, riscv::HaltReason::kWfi);
    proto.console(0).type(proto.consoleUart(0), "Q");
    proto.runCore(0, 2000);
    ASSERT_TRUE(proto.core(0).exited());
    EXPECT_EQ(proto.core(0).exitCode(), 'Q');
    // The PLIC source is fully retired.
    EXPECT_EQ(proto.plic().bestPending(0), 0u);
}

} // namespace
} // namespace smappic::platform
