/**
 * @file
 * Next-free-time queueing servers used by the transaction-level timing
 * model to capture contention at shared resources (DRAM channels, PCIe
 * links, bridge serializers) without full packet simulation.
 *
 * This mirrors the role of the paper's traffic shaper (SMAPPIC section 3.5):
 * a functional path plus a configurable bandwidth/latency performance model.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::sim
{

/**
 * FIFO resource with one or more parallel servers ("ways"). A request
 * arriving at @p now occupies the least-loaded way for its service time;
 * the caller learns both the queueing delay and the departure time.
 *
 * Multiple ways model internally parallel resources (DRAM banks, multiple
 * AXI IDs) and also make the model robust to the slightly out-of-order
 * arrival times produced by the quantum-interleaved phase scheduler: a
 * late-arriving request from a lagging worker picks an idle way instead
 * of queueing behind a logically-later request.
 */
class QueueServer
{
  public:
    /** Result of offering one request to the server. */
    struct Grant
    {
        Cycles start; ///< Cycle at which service began.
        Cycles done;  ///< Cycle at which the resource is released.
        Cycles queued; ///< Cycles spent waiting behind earlier requests.
    };

    explicit QueueServer(std::uint32_t ways = 1) : nextFree_(ways, 0) {}

    /**
     * Offers a request.
     * @param now Arrival time of the request.
     * @param service Cycles of occupancy the request needs.
     */
    Grant
    offer(Cycles now, Cycles service)
    {
        // Pick the way that frees up first, the lowest index on ties.
        // Selects instead of a branch: which way wins depends on the
        // data, so a branch here mispredicts on a large share of calls.
        std::size_t best = 0;
        Cycles bestFree = nextFree_[0];
        for (std::size_t w = 1; w < nextFree_.size(); ++w) {
            Cycles lane = nextFree_[w];
            bool earlier = lane < bestFree;
            best = earlier ? w : best;
            bestFree = earlier ? lane : bestFree;
        }
        Cycles start = std::max(now, bestFree);
        nextFree_[best] = start + service;
        busy_ += service;
        requests_ += 1;
        queuedTotal_ += start - now;
        return Grant{start, nextFree_[best], start - now};
    }

    /** Earliest cycle a new arrival could begin service. */
    Cycles
    nextFree() const
    {
        Cycles best = nextFree_[0];
        for (Cycles v : nextFree_)
            best = std::min(best, v);
        return best;
    }

    /** Total cycles of occupancy granted so far. */
    Cycles busyCycles() const { return busy_; }

    /** Number of requests served. */
    std::uint64_t requests() const { return requests_; }

    /** Aggregate queueing delay across all requests. */
    Cycles queuedCycles() const { return queuedTotal_; }

    void
    reset()
    {
        std::fill(nextFree_.begin(), nextFree_.end(), 0);
        busy_ = 0;
        requests_ = 0;
        queuedTotal_ = 0;
    }

    std::uint32_t
    ways() const
    {
        return static_cast<std::uint32_t>(nextFree_.size());
    }

    /** Per-way next-free times (checkpointing). */
    const std::vector<Cycles> &lanes() const { return nextFree_; }

    /** Restores state captured with lanes()/the counters. @p lanes must
     *  match the server's way count. */
    void
    restore(std::vector<Cycles> lanes, Cycles busy,
            std::uint64_t requests, Cycles queued)
    {
        nextFree_ = std::move(lanes);
        busy_ = busy;
        requests_ = requests;
        queuedTotal_ = queued;
    }

  private:
    std::vector<Cycles> nextFree_;
    Cycles busy_ = 0;
    std::uint64_t requests_ = 0;
    Cycles queuedTotal_ = 0;
};

/**
 * Bandwidth/latency shaper: models a pipe with fixed propagation latency and
 * a bytes-per-cycle bandwidth cap. Matches the paper's configurable
 * inter-node/memory traffic shaper.
 */
class TrafficShaper
{
  public:
    /**
     * @param latency One-way propagation latency in cycles.
     * @param bytes_per_cycle Bandwidth cap; 0 disables the cap.
     * @param ways Transfers that may serialize concurrently (pipelined
     *        TLPs/bursts in flight); aggregate bandwidth is
     *        ways * bytes_per_cycle only transiently — sustained streams
     *        still queue once every way is busy.
     */
    TrafficShaper(Cycles latency, double bytes_per_cycle,
                  std::uint32_t ways = 1)
        : latency_(latency), bytesPerCycle_(bytes_per_cycle), server_(ways)
    {
    }

    /**
     * Sends @p bytes at @p now.
     * @return Cycle at which the last byte arrives at the far end.
     */
    Cycles
    send(Cycles now, std::uint64_t bytes)
    {
        Cycles serialization = 0;
        if (bytesPerCycle_ > 0.0) {
            serialization = static_cast<Cycles>(
                static_cast<double>(bytes) / bytesPerCycle_ + 0.999999);
            if (serialization == 0)
                serialization = 1;
        }
        auto grant = server_.offer(now, serialization);
        bytesSent_ += bytes;
        return grant.done + latency_;
    }

    Cycles latency() const { return latency_; }
    void setLatency(Cycles latency) { latency_ = latency; }
    double bytesPerCycle() const { return bytesPerCycle_; }
    void setBytesPerCycle(double bpc) { bytesPerCycle_ = bpc; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    const QueueServer &server() const { return server_; }
    QueueServer &server() { return server_; }
    void setBytesSent(std::uint64_t bytes) { bytesSent_ = bytes; }

    void
    reset()
    {
        server_.reset();
        bytesSent_ = 0;
    }

  private:
    Cycles latency_;
    double bytesPerCycle_;
    QueueServer server_;
    std::uint64_t bytesSent_ = 0;
};

} // namespace smappic::sim
