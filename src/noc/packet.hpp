/**
 * @file
 * OpenPiton-style NoC packet and flit definitions.
 *
 * BYOC interconnects tiles with three physical 64-bit-flit networks (NoC1:
 * requests, NoC2: responses/data, NoC3: writebacks/acks) to guarantee
 * protocol-level deadlock freedom. The intra-node meshes are timed at
 * transaction level (cache::CoherentSystem); this packet format is the
 * wire format of the interrupt packetizer, so the flit encoding here is
 * an explicit, round-trippable bit layout.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace smappic::noc
{

/** Index of the physical network a packet travels on. */
enum class NocIndex : std::uint8_t
{
    kNoc1 = 0, ///< Requests (BPC -> LLC, LLC -> memory).
    kNoc2 = 1, ///< Responses and data fills.
    kNoc3 = 2, ///< Writebacks, invalidation acks.
};

inline constexpr std::uint32_t kNumNocs = 3;

/** Message classes carried by the networks. */
enum class MsgType : std::uint8_t
{
    kReqRd = 0,       ///< Read-shared request (BPC load miss).
    kReqEx = 1,       ///< Read-exclusive / upgrade request (store miss).
    kReqWb = 2,       ///< BPC victim writeback request.
    kDataResp = 3,    ///< Data fill response.
    kAckResp = 4,     ///< Dataless acknowledgement.
    kInv = 5,         ///< Directory-initiated invalidation.
    kInvAck = 6,      ///< Invalidation acknowledgement.
    kDowngrade = 7,   ///< Directory-initiated M->S downgrade.
    kMemRd = 8,       ///< LLC miss read to the memory controller.
    kMemWr = 9,       ///< LLC victim write to the memory controller.
    kMemRdResp = 10,  ///< Memory controller read response.
    kMemWrResp = 11,  ///< Memory controller write acknowledgement.
    kNcLoad = 12,     ///< Non-cacheable load (device/accelerator fetch).
    kNcStore = 13,    ///< Non-cacheable store.
    kNcLoadResp = 14, ///< Non-cacheable load response.
    kNcStoreResp = 15, ///< Non-cacheable store acknowledgement.
    kInterrupt = 16,  ///< Interrupt packetizer notification.
    kCreditReturn = 17, ///< Bridge credit accounting (no model sends it).
};

/** Tile id that addresses a node's off-mesh chipset/bridge hub. */
inline constexpr TileId kOffChipTile = 0xff;

/** A single 64-bit flit with wormhole framing metadata. */
struct Flit
{
    std::uint64_t data = 0;
    bool head = false;
    bool tail = false;
};

/** Transaction-level NoC packet, serializable to flits and back. */
struct Packet
{
    NocIndex noc = NocIndex::kNoc1;
    NodeId srcNode = 0;
    TileId srcTile = 0;
    NodeId dstNode = 0;
    TileId dstTile = 0;
    MsgType type = MsgType::kReqRd;
    std::uint8_t mshr = 0;      ///< Requester's MSHR tag.
    std::uint8_t sizeLog2 = 6;  ///< log2 of the access size in bytes.
    Addr addr = 0;
    std::vector<std::uint64_t> payload; ///< Data flits (e.g. a cache line).

    /** Total flits when serialized: header + address + payload. */
    std::uint32_t
    flitCount() const
    {
        return 2 + static_cast<std::uint32_t>(payload.size());
    }

    /** Total wire footprint in bytes. */
    std::uint32_t bytesOnWire() const { return flitCount() * 8; }

    bool operator==(const Packet &other) const = default;
};

/**
 * Serializes @p pkt into 64-bit flits.
 *
 * Header layout (bit 63 downto 0):
 *   [63:56] dstNode  [55:48] dstTile  [47:40] srcNode  [39:32] srcTile
 *   [31:26] type     [25:18] mshr     [17:10] payload flits
 *   [9:8]   noc index [7:0]  sizeLog2
 */
std::vector<Flit> serialize(const Packet &pkt);

/**
 * Reassembles a packet from flits produced by serialize().
 * @throws PanicError on malformed framing.
 */
Packet deserialize(const std::vector<Flit> &flits);

/** Deserializes from raw 64-bit words (head/tail inferred from layout). */
Packet deserializeWords(const std::vector<std::uint64_t> &words);

} // namespace smappic::noc
