/**
 * @file
 * Transaction-level AXI4 and AXI-Lite protocol definitions.
 *
 * The F1 hard shell exposes AXI4 (bulk data, inter-FPGA tunnelling) and
 * AXI-Lite (configuration, UART tunnelling) interfaces to the custom logic.
 * We model transactions, not per-beat channel signals, but we preserve the
 * fields SMAPPIC's bridges rely on: the full 64-bit address (which encodes
 * node IDs and flit-valid bits during NoC encapsulation), transaction IDs,
 * and the burst payload.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace smappic::axi
{

/** AXI response codes (subset used by the platform). */
enum class Resp : std::uint8_t
{
    kOkay = 0,   ///< Normal success.
    kSlvErr = 2, ///< Target signalled an error.
    kDecErr = 3, ///< No target mapped at the address.
};

/** AXI4 write transaction: AW + W channels folded together. */
struct WriteReq
{
    Addr addr = 0;                   ///< AW channel address.
    std::vector<std::uint8_t> data;  ///< W channel payload.
    std::uint16_t id = 0;            ///< AWID.
};

/** AXI4 write response: B channel. */
struct WriteResp
{
    Resp resp = Resp::kOkay;
    std::uint16_t id = 0;
};

/** AXI4 read request: AR channel. */
struct ReadReq
{
    Addr addr = 0;        ///< AR channel address.
    std::uint32_t bytes = 0; ///< Total burst length in bytes.
    std::uint16_t id = 0; ///< ARID.
};

/** AXI4 read response: R channel. */
struct ReadResp
{
    Resp resp = Resp::kOkay;
    std::vector<std::uint8_t> data;
    std::uint16_t id = 0;
};

/**
 * An AXI4 subordinate (target). Handlers are synchronous at the functional
 * level; timing is layered on by the caller (hard shell, PCIe fabric,
 * bench harness) using sim::QueueServer / sim::TrafficShaper.
 */
class Target
{
  public:
    virtual ~Target() = default;

    /** Handles a write transaction. */
    virtual WriteResp write(const WriteReq &req) = 0;

    /** Handles a read transaction. */
    virtual ReadResp read(const ReadReq &req) = 0;
};

/** AXI-Lite write (32-bit data, no bursts, no IDs). */
struct LiteWrite
{
    Addr addr = 0;
    std::uint32_t data = 0;
    std::uint8_t strb = 0xf; ///< Byte strobes.
};

/** AXI-Lite subordinate (e.g. UART16550 register file). */
class LiteTarget
{
  public:
    virtual ~LiteTarget() = default;

    /** Handles a register write. */
    virtual Resp writeReg(const LiteWrite &req) = 0;

    /** Handles a register read; @p data receives the value. */
    virtual Resp readReg(Addr addr, std::uint32_t &data) = 0;
};

} // namespace smappic::axi
