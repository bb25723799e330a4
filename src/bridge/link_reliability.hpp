/**
 * @file
 * The reliable link layer's policy, shared by both models of the
 * inter-node link: the packet-level InterNodeBridge and the coherence
 * crossing in CoherentSystem::nocPath. A lost or corrupted transfer is
 * replayed after a backoff that doubles per failed attempt; past
 * maxRetries replays the link is unrecoverable and panics.
 */

#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/types.hpp"

namespace smappic::bridge
{

/** Reliable-link switch and repair policy; `enabled = false` keeps the
 *  paper's lossless link, on which a drop or corruption is fatal. */
struct ReliabilityConfig
{
    bool enabled = false;
    std::uint32_t maxRetries = 16; ///< Retransmissions per frame before
                                   ///< the link panics as unrecoverable.
    Cycles ackTimeout = 128;       ///< Retransmit backoff base.
};

/** Cycles to wait before the replay that follows @p level earlier
 *  replays of the same frame: ackTimeout, doubled per level up to 256x. */
constexpr Cycles
replayBackoff(Cycles ack_timeout, std::uint32_t level)
{
    return ack_timeout << std::min<std::uint32_t>(level, 8);
}

} // namespace smappic::bridge
