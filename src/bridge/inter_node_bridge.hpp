/**
 * @file
 * SMAPPIC's inter-node bridge (paper section 3.1, Fig. 4), as a
 * standalone packet-level model of the protocol. A platform::Prototype
 * builds no bridge: its coherence traffic crosses nodes on
 * cache::CoherentSystem::nocPath, which times the same stages on
 * per-node servers and shares this model's replay backoff
 * (bridge/link_reliability.hpp).
 *
 * The bridge binds nodes on the same or different FPGAs into one shared
 * memory system by encapsulating NoC traffic into AXI4 write requests that
 * the hard shell tunnels over PCIe:
 *
 *  - aw channel: the write address encodes destination node-ID, source
 *    node-ID and valid bits for the flits carried in the data.
 *  - w channel: up to three NoC flits, one per physical network, so the
 *    three-NoC deadlock-avoidance structure is preserved across the link.
 *  - ar/r channels: the sender periodically issues a read to the receiver
 *    and gets the number of credits to return per NoC, implementing
 *    credit-based flow control end to end (required for deadlock freedom).
 *  - b channel: plain write acknowledgement.
 *
 * The receive side buffers flits per (source node, NoC); a credit violation
 * (buffer overflow) is a protocol bug and panics.
 *
 * Reliable link layer (ReliabilityConfig, off by default): the paper's
 * bridge assumes a lossless fabric, but cloud PCIe links see transient
 * faults. When enabled, each encapsulated write carries a trailer with a
 * per-peer sequence number and a CRC32 over the flit payload; the receiver
 * ACKs in-order frames on the b channel (BRESP=OKAY), NACKs corrupted or
 * out-of-order frames (BRESP=SLVERR) and suppresses duplicates, and the
 * sender keeps a bounded replay buffer retransmitted go-back-N style with
 * exponential backoff. Credit-return reads are CRC-protected the same way;
 * after a run of failed credit reads the peer is marked *degraded* (the
 * sender quiesces and probes periodically) instead of spinning, and re-arms
 * when the peer answers again. Replay exhaustion still panics: persistent
 * corruption is unrecoverable by design.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "axi/axi.hpp"
#include "bridge/link_reliability.hpp"
#include "noc/packet.hpp"
#include "pcie/pcie_fabric.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::bridge
{

/** Tunables of the inter-node bridge. */
struct BridgeConfig
{
    std::uint32_t creditsPerNoc = 32; ///< Receive buffer depth per NoC.
    Cycles creditPollInterval = 64;   ///< Cycles between credit reads.
    Cycles decapLatency = 6;          ///< Receive-side decode pipeline.
    std::uint64_t windowSize = 1 << 20; ///< Fabric window per bridge.
    ReliabilityConfig reliability;    ///< Reliable link layer (opt-in).
    // Reliable-link sender limits (used only when reliability.enabled).
    std::uint32_t replayDepth = 64;  ///< Max unacked frames per peer.
    std::uint32_t creditRetryLimit = 8; ///< Failed credit reads before the
                                        ///< peer is marked degraded.
    Cycles reprobeInterval = 2048;   ///< Degraded-peer probe period.
};

/**
 * One node's inter-node bridge. Acts as an AXI target inside the PCIe
 * fabric (receive side) and an AXI initiator through it (send side).
 */
class InterNodeBridge : public axi::Target
{
  public:
    using DeliverFn = std::function<void(const noc::Packet &)>;

    /**
     * @param node This bridge's node id.
     * @param fpga The FPGA hosting the node (fabric source id).
     * @param window_base Base of this bridge's window in the fabric space.
     */
    InterNodeBridge(NodeId node, FpgaId fpga, Addr window_base,
                    sim::EventQueue &eq, pcie::PcieFabric &fabric,
                    const BridgeConfig &cfg, sim::StatRegistry *stats);

    /** Registers a peer bridge's fabric window for destination routing. */
    void addPeer(NodeId node, Addr window_base);

    /** Receive-side output: reassembled packets entering this node. */
    void setDeliverFn(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Attaches a fault injector (null to detach). Sites: "bridge.tx"
     * (corrupt flips a frame bit after the CRC is attached, so the
     * receiver's check must catch it) and "bridge.creditRead" (drop loses
     * the credit read before it reaches the fabric — a poll timeout).
     */
    void setFaultInjector(sim::FaultInjector *fi) { fault_ = fi; }

    /**
     * Attaches the platform tracer (null to detach). The bridge emits
     * kBridgeTx for every encapsulated AXI frame formed by the pump and
     * kBridgeRx for every packet reassembled on the receive side.
     */
    void setTracer(obs::Tracer *tracer);

    /**
     * Send side: accepts a NoC packet leaving this node (one that reached
     * the off-chip port with dstNode != this node).
     */
    void sendPacket(const noc::Packet &pkt);

    // axi::Target (receive side, called by the fabric).
    axi::WriteResp write(const axi::WriteReq &req) override;
    axi::ReadResp read(const axi::ReadReq &req) override;

    NodeId node() const { return node_; }
    Addr windowBase() const { return windowBase_; }
    std::uint64_t windowSize() const { return cfg_.windowSize; }

    std::uint64_t flitsSent() const { return flitsSent_; }
    std::uint64_t flitsReceived() const { return flitsReceived_; }
    std::uint64_t packetsDelivered() const { return packetsDelivered_; }
    std::uint64_t axiWritesSent() const { return axiWritesSent_; }
    std::uint64_t creditReadsSent() const { return creditReadsSent_; }

    // Reliable-link observability (all zero when reliability is off).
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t crcErrors() const { return crcErrors_; }
    std::uint64_t duplicatesSuppressed() const { return duplicates_; }
    std::uint64_t outOfOrderRejected() const { return outOfOrder_; }
    std::uint64_t creditTimeouts() const { return creditTimeouts_; }
    std::uint64_t degradeEvents() const { return degradeEvents_; }
    std::uint64_t recoverEvents() const { return recoverEvents_; }

    /** True while @p peer is marked degraded (quiesced, probing). */
    bool peerDegraded(NodeId peer) const;

    /** Sender-side view of remaining credits toward @p peer. */
    std::uint32_t creditsAvailable(NodeId peer, noc::NocIndex noc) const;

    /** True when no flit is queued or awaiting ACK on the send side. */
    bool sendIdle() const;

    /**
     * Horizon query for idle skipping: the earliest cycle at which the
     * bridge can make send-side progress, or sim::kNoDeadline when the
     * send side is idle. Every bridge timer — the pump, retransmit
     * backoff, credit polls, degraded-peer probes — is scheduled on the
     * shared event queue, so a busy bridge's horizon is exactly the
     * queue's next deadline; there is no private countdown that could
     * fire sooner.
     */
    Cycles nextDeadline() const;

    /**
     * Serializes the link layer: per-peer sender state (queues, credits,
     * sequence numbers, replay window, degraded flags), per-source
     * receiver state and the bridge counters. Checkpoints are taken at
     * quiescent points, so no pump/retransmit/poll event is in flight;
     * restoreState() re-arms the degraded-peer probes, the only events a
     * quiescent bridge can still owe.
     */
    void saveState(snap::Writer &w) const;
    void restoreState(snap::Reader &r);

  private:
    /** One unacknowledged frame held for possible retransmission. */
    struct PendingFrame
    {
        std::uint32_t seq = 0;
        std::uint8_t validMask = 0;
        std::array<std::uint64_t, noc::kNumNocs> flits{};
        std::uint32_t attempts = 0; ///< Retransmissions so far.
    };

    /** Per-destination sender state. */
    struct PeerState
    {
        Addr windowBase = 0;
        std::array<std::deque<std::uint64_t>, noc::kNumNocs> outQueue;
        std::array<std::uint32_t, noc::kNumNocs> credits;
        bool pollInFlight = false;

        // Reliable-link sender state.
        std::uint32_t nextSeq = 0;
        std::deque<PendingFrame> replay; ///< Unacked frames, seq order.
        bool retransmitScheduled = false;
        std::uint32_t backoffLevel = 0;
        std::uint32_t creditFailures = 0; ///< Consecutive failed polls.
        bool degraded = false;
        bool probeScheduled = false;
    };

    /**
     * Per-source receiver state. The hardware receive FIFO drains into the
     * local mesh at line rate, so a credit is freed (owed back to the
     * sender) as soon as a flit enters packet reassembly; `unreturned`
     * tracks credits the sender has consumed but not yet been repaid,
     * which must never exceed the configured window.
     */
    struct SourceState
    {
        std::array<std::deque<std::uint64_t>, noc::kNumNocs> assembly;
        std::array<std::uint32_t, noc::kNumNocs> owedCredits{};
        std::array<std::uint32_t, noc::kNumNocs> unreturned{};
        std::uint32_t expectedSeq = 0; ///< Next in-order frame (reliable).
    };

    static Addr encodeOffset(NodeId src, std::uint8_t valid_mask);
    static void decodeOffset(Addr offset, NodeId &src,
                             std::uint8_t &valid_mask);

    bool reliable() const { return cfg_.reliability.enabled; }
    static bool hasPendingTraffic(const PeerState &peer);

    void schedulePump();
    void pump();
    void transmitFrame(NodeId dst, const PeerState &peer,
                       const PendingFrame &frame);
    void onFrameCompletion(NodeId dst, std::uint32_t seq, axi::Resp resp);
    void scheduleRetransmit(NodeId dst);

    void scheduleCreditPoll(NodeId peer);
    void issueCreditRead(NodeId peer);
    void onCreditCompletion(NodeId peer, pcie::Completion c);
    void onCreditFailure(NodeId peer);
    void degradePeer(NodeId peer);
    void scheduleProbe(NodeId peer);
    void recoverPeer(NodeId peer);

    void acceptFlits(NodeId src, std::uint8_t valid_mask,
                     const std::uint8_t *flit_bytes);
    void tryAssemble(NodeId src, noc::NocIndex noc);

    NodeId node_;
    FpgaId fpga_;
    Addr windowBase_;
    sim::EventQueue &eq_;
    pcie::PcieFabric &fabric_;
    BridgeConfig cfg_;
    sim::StatRegistry *stats_;
    sim::FaultInjector *fault_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    std::map<NodeId, PeerState> peers_;
    std::map<NodeId, SourceState> sources_;
    DeliverFn deliver_;
    bool pumpScheduled_ = false;

    std::uint64_t flitsSent_ = 0;
    std::uint64_t flitsReceived_ = 0;
    std::uint64_t packetsDelivered_ = 0;
    std::uint64_t axiWritesSent_ = 0;
    std::uint64_t creditReadsSent_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t crcErrors_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t outOfOrder_ = 0;
    std::uint64_t creditTimeouts_ = 0;
    std::uint64_t degradeEvents_ = 0;
    std::uint64_t recoverEvents_ = 0;
};

} // namespace smappic::bridge
