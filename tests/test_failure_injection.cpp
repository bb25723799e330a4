/**
 * @file
 * Failure-injection tests of the PCIe fabric: an access that decodes to
 * no window must complete with DECERR, never hang or be absorbed.
 */

#include <gtest/gtest.h>

#include "pcie/pcie_fabric.hpp"

namespace smappic
{
namespace
{

TEST(FailureInjection, FabricDecodeErrorCompletesWithDecErr)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq, 10, 0.0, nullptr);
    int decerrs = 0;
    fabric.read(0, axi::ReadReq{0xbad00000, 8, 0},
                [&](pcie::Completion c) {
                    decerrs += c.resp == axi::Resp::kDecErr;
                });
    fabric.write(0, axi::WriteReq{0xbad00040, {1, 2}, 0},
                 [&](pcie::Completion c) {
                     decerrs += c.resp == axi::Resp::kDecErr;
                 });
    eq.run();
    EXPECT_EQ(decerrs, 2);
    EXPECT_EQ(fabric.decodeErrors(), 2u);
}

} // namespace
} // namespace smappic
