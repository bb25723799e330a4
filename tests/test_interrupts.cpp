/**
 * @file
 * Tests for the CLINT controller (SMAPPIC section 3.3): wire-change
 * detection, register readback, and delivery onto core interrupt lines.
 */

#include <gtest/gtest.h>

#include <vector>

#include "riscv/interrupts.hpp"
#include "sim/log.hpp"

namespace smappic::riscv
{
namespace
{

TEST(Clint, MsipRegisterRaisesWire)
{
    ClintController clint(4);
    std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> changes;
    clint.setWireFn([&](std::uint32_t h, std::uint32_t irq, bool l) {
        changes.emplace_back(h, irq, l);
    });

    clint.write(kClintMsipBase + 4 * 2, 1, 4);
    EXPECT_TRUE(clint.msip(2));
    EXPECT_FALSE(clint.msip(0));
    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes[0], std::make_tuple(2u, kIrqMsi, true));

    // Rewriting the same value produces no edge.
    clint.write(kClintMsipBase + 4 * 2, 1, 4);
    EXPECT_EQ(changes.size(), 1u);

    clint.write(kClintMsipBase + 4 * 2, 0, 4);
    EXPECT_FALSE(clint.msip(2));
    EXPECT_EQ(changes.size(), 2u);
}

TEST(Clint, TimerComparatorFires)
{
    ClintController clint(2);
    int edges = 0;
    clint.setWireFn([&](std::uint32_t, std::uint32_t irq, bool) {
        if (irq == kIrqMti)
            ++edges;
    });
    clint.write(kClintMtimecmpBase + 8, 1000, 8);
    clint.setTime(999);
    EXPECT_FALSE(clint.mtip(1));
    clint.setTime(1000);
    EXPECT_TRUE(clint.mtip(1));
    EXPECT_FALSE(clint.mtip(0)); // cmp still ~0 for hart 0.
    // Pushing the comparator forward deasserts.
    clint.write(kClintMtimecmpBase + 8, 5000, 8);
    EXPECT_FALSE(clint.mtip(1));
    EXPECT_EQ(edges, 2);
}

TEST(Clint, RegisterReadback)
{
    ClintController clint(2);
    clint.write(kClintMtimecmpBase, 12345, 8);
    EXPECT_EQ(clint.read(kClintMtimecmpBase), 12345u);
    clint.setTime(777);
    EXPECT_EQ(clint.read(kClintMtime), 777u);
    clint.write(kClintMsipBase, 1, 4);
    EXPECT_EQ(clint.read(kClintMsipBase), 1u);
}

TEST(Clint, WireChangeDrivesCoreIrqLine)
{
    struct NullPort : MemPort
    {
        std::uint64_t load(Addr, std::uint32_t, Cycles,
                           Cycles &lat) override
        {
            lat = 1;
            return 0;
        }
        void store(Addr, std::uint32_t, std::uint64_t, Cycles,
                   Cycles &lat) override
        {
            lat = 1;
        }
        std::uint32_t fetch(Addr, Cycles, Cycles &lat) override
        {
            lat = 1;
            return 0x13; // nop
        }
        std::uint64_t
        atomic(Addr, std::uint32_t,
               const std::function<std::uint64_t(std::uint64_t)> &, Cycles,
               Cycles &lat) override
        {
            lat = 1;
            return 0;
        }
    };

    NullPort port;
    RvCore core(CoreConfig{}, port);
    core.setCsr(kCsrMie, 1ULL << kIrqMsi);
    core.setCsr(kCsrMstatus, 1ULL << 3); // MIE.
    EXPECT_FALSE(core.interruptPending());

    ClintController clint(1);
    clint.setWireFn([&](std::uint32_t, std::uint32_t irq, bool level) {
        core.setIrqLine(irq, level);
    });
    clint.write(kClintMsipBase, 1, 4);
    EXPECT_TRUE(core.interruptPending());

    clint.write(kClintMsipBase, 0, 4);
    EXPECT_FALSE(core.interruptPending());
}

} // namespace
} // namespace smappic::riscv
