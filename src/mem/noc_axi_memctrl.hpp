/**
 * @file
 * SMAPPIC's NoC-AXI4 memory controller (paper section 3.2, Fig. 5).
 *
 * BYOC's native memory controller speaks the NoC protocol; F1 exposes
 * AXI4 DRAM interfaces. This controller transduces between them:
 *
 *   NoC deserializer -> management module (request buffering for
 *   non-blocking operation) -> read/write engines (AXI-ID assignment,
 *   MSHR + ID->MSHR mapping, 64-byte alignment) -> AXI4 -> responses are
 *   un-aligned (byte selection for sub-line reads), matched back to their
 *   MSHR, and re-serialized onto the NoC.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "mem/axi_dram.hpp"
#include "noc/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::mem
{

/** Tunables of the NoC-AXI4 memory controller. */
struct MemCtrlConfig
{
    std::uint32_t mshrs = 16;        ///< Outstanding misses per engine.
    std::uint32_t axiIds = 16;       ///< AXI-ID pool per engine.
    std::uint32_t bufferDepth = 32;  ///< Management-module buffer depth.
    Cycles pipelineLatency = 4;      ///< Deserialize+steer+serialize cost.
};

/**
 * The controller. Requests arrive as NoC packets (kMemRd / kMemWr / NC
 * accesses targeted at memory); responses leave through a caller-provided
 * send function (typically the node's off-chip hub injecting into the
 * response NoC).
 */
class NocAxiMemController
{
  public:
    using SendFn = std::function<void(const noc::Packet &)>;

    NocAxiMemController(NodeId node, sim::EventQueue &eq, AxiDram &dram,
                        const MemCtrlConfig &cfg, sim::StatRegistry *stats);

    /** Response path back into the node's NoC. */
    void setSendFn(SendFn fn) { send_ = std::move(fn); }

    /**
     * Attaches a fault injector (null to detach). Site "memctrl.resp":
     * corrupt flips one bit of a read response's payload on its way back
     * to the NoC serializer (a transducer datapath upset).
     */
    void setFaultInjector(sim::FaultInjector *fi) { fault_ = fi; }

    /**
     * Accepts one request packet from the NoC (deserializer input).
     * Requests beyond the management buffer are queued without loss, where
     * real hardware would exert NoC backpressure.
     */
    void handlePacket(const noc::Packet &pkt);

    std::uint32_t mshrsInUse() const { return mshrsInUse_; }
    std::uint64_t peakMshrsInUse() const { return peakMshrs_; }
    std::uint64_t requestsServed() const { return served_; }
    bool idle() const;

    /**
     * Horizon query for idle skipping: the earliest cycle at which the
     * controller can make progress, or sim::kNoDeadline when idle. All
     * of the controller's timing — DRAM completions, response
     * serialization — is scheduled on the shared event queue, so a
     * non-idle controller's horizon is exactly the queue's next
     * deadline; there is no private timer that could fire sooner.
     */
    Cycles nextDeadline() const;

    /**
     * Serializes the AXI-ID free-list order (a permutation of usage
     * history) and counters. Checkpoints are quiescent, so the request
     * buffer and MSHR table are empty by construction (checked).
     */
    void saveState(snap::Writer &w) const;
    void restoreState(snap::Reader &r);

  private:
    struct Mshr
    {
        noc::Packet request; ///< Original request (origin, tag, size).
        Addr alignedBase = 0;
        std::uint32_t alignedBytes = 0;
        bool isRead = true;
    };

    void tryIssue();
    void issue(const noc::Packet &pkt);
    void complete(std::size_t mshr_idx, std::vector<std::uint8_t> data,
                  axi::Resp resp);

    NodeId node_;
    sim::EventQueue &eq_;
    AxiDram &dram_;
    MemCtrlConfig cfg_;
    sim::StatRegistry *stats_;
    sim::FaultInjector *fault_ = nullptr;
    SendFn send_;

    std::deque<noc::Packet> buffer_; ///< Management-module queue.
    std::vector<std::optional<Mshr>> mshrTable_;
    std::vector<std::uint16_t> freeIds_;
    std::vector<std::size_t> idToMshr_; ///< AXI-ID -> MSHR index.
    std::uint32_t mshrsInUse_ = 0;
    std::uint64_t peakMshrs_ = 0;
    std::uint64_t served_ = 0;
};

} // namespace smappic::mem
