/**
 * @file
 * Tests for the PLIC: priorities, thresholds, enables, claim/complete,
 * level-triggered gateways, and the hart-facing wire callback.
 */

#include <gtest/gtest.h>

#include <vector>

#include "riscv/plic.hpp"
#include "sim/log.hpp"

namespace smappic::riscv
{
namespace
{

TEST(Plic, BasicClaimComplete)
{
    PlicController plic(4, 2);
    plic.write(kPlicPriorityBase + 4 * 1, 5);      // src 1 prio 5.
    plic.write(kPlicEnableBase + 0, 1u << 1);      // hart 0 enables src 1.

    EXPECT_EQ(plic.bestPending(0), 0u);
    plic.setSourceLevel(1, true);
    EXPECT_EQ(plic.bestPending(0), 1u);
    EXPECT_EQ(plic.bestPending(1), 0u); // Hart 1 didn't enable it.

    EXPECT_EQ(plic.claim(0), 1u);
    EXPECT_EQ(plic.bestPending(0), 0u); // In service.
    plic.setSourceLevel(1, false);
    plic.complete(0, 1);
    EXPECT_EQ(plic.bestPending(0), 0u);
}

TEST(Plic, PriorityOrderingAndThreshold)
{
    PlicController plic(8, 1);
    plic.write(kPlicPriorityBase + 4 * 2, 3);
    plic.write(kPlicPriorityBase + 4 * 5, 7);
    plic.write(kPlicPriorityBase + 4 * 6, 7); // Tie with 5.
    plic.write(kPlicEnableBase, 0xff);

    plic.setSourceLevel(2, true);
    plic.setSourceLevel(5, true);
    plic.setSourceLevel(6, true);
    EXPECT_EQ(plic.bestPending(0), 5u); // Highest prio, lowest id on tie.

    // Threshold masks low-priority sources.
    plic.write(kPlicContextBase + 0, 6);
    EXPECT_EQ(plic.claim(0), 5u);
    EXPECT_EQ(plic.bestPending(0), 6u);
    EXPECT_EQ(plic.claim(0), 6u);
    EXPECT_EQ(plic.bestPending(0), 0u); // src 2 below threshold.
    plic.write(kPlicContextBase + 0, 0);
    EXPECT_EQ(plic.bestPending(0), 2u);
}

TEST(Plic, LevelTriggeredRelatchesAfterComplete)
{
    PlicController plic(2, 1);
    plic.write(kPlicPriorityBase + 4, 1);
    plic.write(kPlicEnableBase, 0x2);
    plic.setSourceLevel(1, true);
    EXPECT_EQ(plic.claim(0), 1u);
    // Device still asserting: completing re-latches pending.
    plic.write(kPlicContextBase + 4, 1); // Complete via MMIO.
    EXPECT_EQ(plic.bestPending(0), 1u);
    // Device deasserts; claim then complete clears it for good.
    EXPECT_EQ(plic.claim(0), 1u);
    plic.setSourceLevel(1, false);
    plic.complete(0, 1);
    EXPECT_EQ(plic.bestPending(0), 0u);
}

TEST(Plic, WireCallbackOnLevelChanges)
{
    PlicController plic(3, 2);
    std::vector<std::pair<std::uint32_t, bool>> edges;
    plic.setWireFn([&](std::uint32_t h, bool l) {
        edges.emplace_back(h, l);
    });
    plic.write(kPlicPriorityBase + 4 * 2, 1);
    plic.write(kPlicEnableBase + kPlicEnableStride, 1u << 2); // Hart 1.

    plic.setSourceLevel(2, true);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0], std::make_pair(1u, true));

    plic.claim(1);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[1], std::make_pair(1u, false));
}

TEST(Plic, ClaimViaMmioReadAndPendingBits)
{
    PlicController plic(4, 1);
    plic.write(kPlicPriorityBase + 4 * 3, 2);
    plic.write(kPlicEnableBase, 0x8);
    plic.setSourceLevel(3, true);
    EXPECT_EQ(plic.read(kPlicPendingBase), 0x8u);
    EXPECT_EQ(plic.read(kPlicContextBase + 4), 3u); // Claim.
    EXPECT_EQ(plic.read(kPlicPendingBase), 0x0u);
}

TEST(Plic, WireCallbackNamesTheTargetHart)
{
    // The prototype hands this callback's (hart, level) to the core's
    // machine-external line, on whichever node the hart sits
    // (section 3.3).
    std::vector<std::pair<std::uint32_t, bool>> edges;
    PlicController plic(2, 8);
    plic.setWireFn([&](std::uint32_t h, bool l) { edges.emplace_back(h, l); });
    plic.write(kPlicPriorityBase + 4, 1);
    plic.write(kPlicEnableBase + 6 * kPlicEnableStride, 0x2); // Hart 6.
    plic.setSourceLevel(1, true);

    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0], std::make_pair(6u, true));
}

TEST(Plic, RejectsBadGeometry)
{
    EXPECT_THROW(PlicController(0, 1), FatalError);
    EXPECT_THROW(PlicController(64, 1), FatalError);
    EXPECT_THROW(PlicController(4, 0), FatalError);
    PlicController plic(4, 1);
    EXPECT_THROW(plic.setSourceLevel(0, true), PanicError);
    EXPECT_THROW(plic.setSourceLevel(9, true), PanicError);
}

} // namespace
} // namespace smappic::riscv
