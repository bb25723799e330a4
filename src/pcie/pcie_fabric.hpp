/**
 * @file
 * Model of the F1 instance's PCIe fabric and the AWS hard shell's
 * AXI4<->PCIe transducer function.
 *
 * Each FPGA's custom logic emits outbound AXI4 transactions; the hard shell
 * converts them to PCIe transfers that are routed by address window either
 * to a peer FPGA (direct FPGA-to-FPGA, bypassing the host CPU) or to the
 * host. The measured characteristics from the paper apply: ~1250 ns
 * round-trip (125 cycles at 100 MHz), so one-way delivery costs half the
 * round trip, and responses cost the other half.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::obs
{
class Tracer;
}

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::pcie
{

/** Source id used by the host (PCIe driver / host programs). */
inline constexpr FpgaId kHostId = 0xff;

/** Completion of a fabric transaction. */
struct Completion
{
    axi::Resp resp = axi::Resp::kOkay;
    std::vector<std::uint8_t> data; ///< Read data (empty for writes).
};

using CompletionFn = std::function<void(Completion)>;

/**
 * The PCIe interconnect of one F1 instance. Owns the address map of all
 * FPGA windows plus the host window and moves transactions between them
 * with modeled latency and bandwidth.
 */
class PcieFabric
{
  public:
    /**
     * @param eq Shared event queue.
     * @param one_way One-way transfer latency in cycles.
     * @param bytes_per_cycle Per-endpoint link bandwidth (0 = uncapped).
     * @param stats Registry for fabric counters ("pcie." prefix).
     */
    PcieFabric(sim::EventQueue &eq, Cycles one_way, double bytes_per_cycle,
               sim::StatRegistry *stats);

    /**
     * Maps @p target at [base, base+size) in the fabric address space,
     * owned by endpoint @p owner (an FPGA id or kHostId).
     */
    void addWindow(Addr base, std::uint64_t size, axi::Target *target,
                   FpgaId owner, std::string name);

    /**
     * Issues a write from endpoint @p src. The completion callback fires
     * when the B response makes it back across the fabric.
     */
    void write(FpgaId src, axi::WriteReq req, CompletionFn done);

    /** Issues a read from endpoint @p src (see write()). */
    void read(FpgaId src, axi::ReadReq req, CompletionFn done);

    /**
     * Attaches a fault injector (null to detach). Sites: "pcie.write"
     * and "pcie.read". Drop loses the request in flight — the issuer's
     * completion comes back SLVERR after a completion-timeout interval,
     * mirroring a PCIe completion timeout, so callers never wedge.
     * Corrupt flips one payload bit in flight; delay adds transit
     * cycles; slverr completes with SLVERR without reaching the target.
     */
    void setFaultInjector(sim::FaultInjector *fi) { fault_ = fi; }

    /**
     * Attaches the platform tracer (null to detach). Each accepted
     * transaction emits kPcieWrite/kPcieRead with duration = one-way
     * transit (issue to far-side arrival).
     */
    void setTracer(obs::Tracer *tracer);

    Cycles oneWayLatency() const { return oneWay_; }

    /** Cycles until a lost transaction's SLVERR completion fires. */
    Cycles completionTimeout() const { return 8 * oneWay_; }

    std::uint64_t transfers() const { return transfers_; }
    std::uint64_t bytesMoved() const { return bytesMoved_; }
    std::uint64_t decodeErrors() const { return decodeErrors_; }

    /** Serializes per-endpoint link shapers and fabric counters. */
    void saveState(snap::Writer &w) const;
    void restoreState(snap::Reader &r);

  private:
    struct FabricWindow
    {
        Addr base;
        std::uint64_t size;
        axi::Target *target;
        FpgaId owner;
        std::string name;
    };

    const FabricWindow *decode(Addr addr) const;
    sim::TrafficShaper &linkOf(FpgaId endpoint);

    /** Computes the arrival time of a @p bytes transfer from @p src. */
    Cycles transferArrival(FpgaId src, std::uint64_t bytes);

    /** Applies a fault decision shared by read()/write(); returns true
     *  when the transaction was consumed (dropped or errored). */
    bool preempt(const sim::FaultDecision &d, const CompletionFn &done);

    sim::EventQueue &eq_;
    Cycles oneWay_;
    double bytesPerCycle_;
    sim::StatRegistry *stats_;
    sim::FaultInjector *fault_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    /** Emits a kPcieWrite/kPcieRead event for a transaction from @p src
     *  spanning [now, arrival). */
    void traceTransfer(bool is_write, FpgaId src, Addr addr,
                       std::uint64_t bytes, Cycles arrival);

    std::vector<FabricWindow> windows_;
    std::vector<std::pair<FpgaId, sim::TrafficShaper>> links_;

    std::uint64_t transfers_ = 0;
    std::uint64_t bytesMoved_ = 0;
    std::uint64_t decodeErrors_ = 0;
};

} // namespace smappic::pcie
