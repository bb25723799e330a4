#include "bridge/inter_node_bridge.hpp"

#include <algorithm>
#include <cstring>

#include "obs/tracer.hpp"
#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::bridge
{

namespace
{

const sim::StatId kRetransmits("bridge.retransmits");
const sim::StatId kCrcErrors("bridge.crcErrors");
const sim::StatId kDuplicates("bridge.duplicates");
const sim::StatId kCreditTimeouts("bridge.creditTimeouts");
const sim::StatId kPeerDegraded("bridge.peerDegraded");
const sim::StatId kPeerRecovered("bridge.peerRecovered");
const sim::StatId kAxiWrites("bridge.axiWrites");
const sim::StatId kFlitsSent("bridge.flitsSent");
const sim::StatId kCreditReads("bridge.creditReads");
const sim::StatId kOutOfOrder("bridge.outOfOrder");
const sim::StatId kAxiWritesReceived("bridge.axiWritesReceived");
const sim::StatId kPacketsDelivered("bridge.packetsDelivered");

/** One AXI write carries up to one flit per physical NoC. */
constexpr std::uint32_t kFlitsPerWrite = noc::kNumNocs;
constexpr std::uint32_t kFlitBytes = 8;
constexpr std::uint32_t kFlitPayloadBytes = kFlitsPerWrite * kFlitBytes;
/** Reliable-link trailer: 32-bit sequence number + CRC32. */
constexpr std::uint32_t kTrailerBytes = 8;
constexpr std::uint32_t kFrameBytes = kFlitPayloadBytes + kTrailerBytes;
/** Credit-return payload: one 32-bit count per NoC (+CRC when reliable). */
constexpr std::uint32_t kCreditBytes = noc::kNumNocs * 4;

/** CRC over a frame: flit payload + sequence number, bound to the flit
 *  valid mask and the sending node so a misdecoded address cannot pass. */
std::uint32_t
frameCrc(const std::uint8_t *data, std::uint8_t valid_mask, NodeId src)
{
    std::uint8_t aux[2] = {valid_mask, static_cast<std::uint8_t>(src)};
    return sim::crc32(aux, sizeof(aux),
                      sim::crc32(data, kFlitPayloadBytes + 4));
}

/** CRC over a credit-return payload, bound to the polling node. */
std::uint32_t
creditCrc(const std::uint8_t *data, NodeId poller)
{
    std::uint8_t aux = static_cast<std::uint8_t>(poller);
    return sim::crc32(&aux, 1, sim::crc32(data, kCreditBytes));
}

} // namespace

InterNodeBridge::InterNodeBridge(NodeId node, FpgaId fpga, Addr window_base,
                                 sim::EventQueue &eq,
                                 pcie::PcieFabric &fabric,
                                 const BridgeConfig &cfg,
                                 sim::StatRegistry *stats)
    : node_(node), fpga_(fpga), windowBase_(window_base), eq_(eq),
      fabric_(fabric), cfg_(cfg), stats_(stats)
{
    fatalIf(cfg.creditsPerNoc == 0, "bridge needs at least one credit");
    fatalIf(cfg.reliability.enabled && cfg.replayDepth == 0,
            "reliable bridge needs a nonzero replay window");
    fabric_.addWindow(window_base, cfg.windowSize, this, fpga,
                      strfmt("bridge.node%u", node));
    if (stats_ && cfg_.reliability.enabled) {
        // Register the reliability counters eagerly so a clean run shows
        // them at zero instead of omitting them.
        stats_->counter(kRetransmits);
        stats_->counter(kCrcErrors);
        stats_->counter(kDuplicates);
        stats_->counter(kCreditTimeouts);
        stats_->counter(kPeerDegraded);
        stats_->counter(kPeerRecovered);
    }
}

void
InterNodeBridge::addPeer(NodeId node, Addr window_base)
{
    fatalIf(node == node_, "bridge cannot peer with itself");
    PeerState &peer = peers_[node];
    peer.windowBase = window_base;
    peer.credits.fill(cfg_.creditsPerNoc);
}

Addr
InterNodeBridge::encodeOffset(NodeId src, std::uint8_t valid_mask)
{
    // Offset layout within the destination window:
    //   [19:12] source node-ID, [10:8] flit valid bits, [7:0] zero.
    return (static_cast<Addr>(src) << 12) |
           (static_cast<Addr>(valid_mask & 0x7) << 8);
}

void
InterNodeBridge::decodeOffset(Addr offset, NodeId &src,
                              std::uint8_t &valid_mask)
{
    src = static_cast<NodeId>((offset >> 12) & 0xff);
    valid_mask = static_cast<std::uint8_t>((offset >> 8) & 0x7);
}

bool
InterNodeBridge::hasPendingTraffic(const PeerState &peer)
{
    if (!peer.replay.empty())
        return true;
    for (const auto &q : peer.outQueue) {
        if (!q.empty())
            return true;
    }
    return false;
}

void
InterNodeBridge::sendPacket(const noc::Packet &pkt)
{
    panicIf(pkt.dstNode == node_, "bridge asked to send a local packet");
    auto it = peers_.find(pkt.dstNode);
    panicIf(it == peers_.end(), "bridge has no peer for destination node");
    auto noc_idx = static_cast<std::size_t>(pkt.noc);
    for (const noc::Flit &f : serialize(pkt))
        it->second.outQueue[noc_idx].push_back(f.data);
    schedulePump();
}

void
InterNodeBridge::setTracer(obs::Tracer *tracer)
{
    tracer_ =
        tracer ? tracer->handleFor(obs::Component::kBridge) : nullptr;
}

void
InterNodeBridge::schedulePump()
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    eq_.schedule(1, [this] {
        pumpScheduled_ = false;
        pump();
    });
}

void
InterNodeBridge::pump()
{
    bool work_left = false;
    for (auto &[dst, peer] : peers_) {
        if (peer.degraded) {
            // Quiesced: don't touch the wire, but keep probing while
            // traffic waits so recovery re-arms the link.
            if (hasPendingTraffic(peer))
                scheduleProbe(dst);
            continue;
        }
        if (reliable() &&
            peer.replay.size() >= cfg_.replayDepth) {
            // Replay window full: the next ACK restarts the pump.
            continue;
        }

        // Form one AXI4 write per destination per cycle carrying up to one
        // flit from each physical NoC, credits permitting.
        std::uint8_t valid_mask = 0;
        std::array<std::uint64_t, kFlitsPerWrite> flits{};
        for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
            if (peer.outQueue[n].empty())
                continue;
            if (peer.credits[n] == 0) {
                // Stalled on credits: make sure a poll is pending.
                scheduleCreditPoll(dst);
                continue;
            }
            flits[n] = peer.outQueue[n].front();
            peer.outQueue[n].pop_front();
            peer.credits[n] -= 1;
            valid_mask |= static_cast<std::uint8_t>(1u << n);
        }

        if (valid_mask != 0) {
            ++axiWritesSent_;
            flitsSent_ += __builtin_popcount(valid_mask);
            if (stats_) {
                stats_->counter(kAxiWrites).increment();
                stats_->counter(kFlitsSent)
                    .increment(__builtin_popcount(valid_mask));
            }
            if (tracer_) {
                obs::TraceEvent ev =
                    obs::event(obs::EventKind::kBridgeTx);
                ev.cycle = eq_.now();
                ev.arg = reliable() ? peer.nextSeq : axiWritesSent_;
                ev.extra = valid_mask;
                ev.node = static_cast<std::uint16_t>(node_);
                ev.tile = static_cast<std::uint16_t>(dst);
                ev.flags = 1; // Frames always cross nodes.
                tracer_->record(ev);
            }
            if (reliable()) {
                PendingFrame frame;
                frame.seq = peer.nextSeq++;
                frame.validMask = valid_mask;
                frame.flits = flits;
                peer.replay.push_back(frame);
                transmitFrame(dst, peer, peer.replay.back());
            } else {
                axi::WriteReq req;
                req.addr =
                    peer.windowBase + encodeOffset(node_, valid_mask);
                req.data.resize(kFlitPayloadBytes);
                std::memcpy(req.data.data(), flits.data(),
                            req.data.size());
                fabric_.write(fpga_, std::move(req), nullptr);
            }
        }

        for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
            if (!peer.outQueue[n].empty())
                work_left = true;
        }
    }
    if (work_left)
        schedulePump();
}

void
InterNodeBridge::transmitFrame(NodeId dst, const PeerState &peer,
                               const PendingFrame &frame)
{
    axi::WriteReq req;
    req.addr = peer.windowBase + encodeOffset(node_, frame.validMask);
    req.data.resize(kFrameBytes);
    std::memcpy(req.data.data(), frame.flits.data(), kFlitPayloadBytes);
    std::memcpy(req.data.data() + kFlitPayloadBytes, &frame.seq, 4);
    std::uint32_t crc = frameCrc(req.data.data(), frame.validMask, node_);
    std::memcpy(req.data.data() + kFlitPayloadBytes + 4, &crc, 4);

    if (fault_ && fault_->decide("bridge.tx").corrupt) {
        // Flip a bit in the CRC-covered region: the datapath between the
        // encapsulator and the shell, which the receiver must detect.
        fault_->corruptBytes("bridge.tx", req.data.data(),
                             kFlitPayloadBytes + 4);
    }

    std::uint32_t seq = frame.seq;
    fabric_.write(fpga_, std::move(req),
                  [this, dst, seq](pcie::Completion c) {
                      onFrameCompletion(dst, seq, c.resp);
                  });
}

void
InterNodeBridge::onFrameCompletion(NodeId dst, std::uint32_t seq,
                                   axi::Resp resp)
{
    auto it = peers_.find(dst);
    if (it == peers_.end())
        return;
    PeerState &peer = it->second;
    if (peer.replay.empty() ||
        static_cast<std::int32_t>(seq - peer.replay.front().seq) < 0) {
        // Stale completion for an already-acknowledged frame.
        return;
    }
    if (resp == axi::Resp::kOkay) {
        // Cumulative ACK: everything up to seq arrived in order.
        while (!peer.replay.empty() &&
               static_cast<std::int32_t>(peer.replay.front().seq - seq) <=
                   0)
            peer.replay.pop_front();
        peer.backoffLevel = 0;
        schedulePump();
        return;
    }
    // NACK (CRC reject, out-of-order reject) or completion timeout for a
    // frame still in the window: go-back-N after a backoff.
    scheduleRetransmit(dst);
}

void
InterNodeBridge::scheduleRetransmit(NodeId dst)
{
    PeerState &peer = peers_.at(dst);
    if (peer.retransmitScheduled || peer.degraded)
        return;
    peer.retransmitScheduled = true;
    Cycles backoff =
        replayBackoff(cfg_.reliability.ackTimeout, peer.backoffLevel);
    eq_.schedule(backoff, [this, dst] {
        PeerState &p = peers_.at(dst);
        p.retransmitScheduled = false;
        if (p.replay.empty() || p.degraded)
            return;
        ++p.backoffLevel;
        for (PendingFrame &f : p.replay) {
            ++f.attempts;
            panicIf(f.attempts > cfg_.reliability.maxRetries,
                    "bridge link unrecoverable: replay retries exhausted "
                    "(persistent loss or corruption)");
            ++retransmits_;
            if (stats_)
                stats_->counter(kRetransmits).increment();
            transmitFrame(dst, p, f);
        }
    });
}

void
InterNodeBridge::scheduleCreditPoll(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    if (peer.pollInFlight || peer.degraded)
        return;
    peer.pollInFlight = true;
    ++creditReadsSent_;
    if (stats_)
        stats_->counter(kCreditReads).increment();

    Cycles wait = cfg_.creditPollInterval;
    if (reliable() && peer.creditFailures > 0) {
        // Exponential backoff between failed polls.
        wait <<= std::min<std::uint32_t>(peer.creditFailures, 6);
    }
    eq_.schedule(wait, [this, peer_id] { issueCreditRead(peer_id); });
}

void
InterNodeBridge::issueCreditRead(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    if (fault_ && fault_->decide("bridge.creditRead").drop) {
        // The read never makes it to the shell: a poll timeout.
        peer.pollInFlight = false;
        onCreditFailure(peer_id);
        return;
    }
    axi::ReadReq req;
    req.addr = peer.windowBase + encodeOffset(node_, 0);
    req.bytes = kCreditBytes + (reliable() ? 4 : 0);
    fabric_.read(fpga_, req, [this, peer_id](pcie::Completion c) {
        onCreditCompletion(peer_id, std::move(c));
    });
}

void
InterNodeBridge::onCreditCompletion(NodeId peer_id, pcie::Completion c)
{
    PeerState &peer = peers_.at(peer_id);
    peer.pollInFlight = false;

    bool ok = c.resp == axi::Resp::kOkay && c.data.size() >= kCreditBytes;
    if (ok && reliable()) {
        ok = c.data.size() >= kCreditBytes + 4;
        if (ok) {
            std::uint32_t got = 0;
            std::memcpy(&got, c.data.data() + kCreditBytes, 4);
            ok = got == creditCrc(c.data.data(), node_);
            if (!ok) {
                ++crcErrors_;
                if (stats_)
                    stats_->counter(kCrcErrors).increment();
            }
        }
    }
    if (!ok) {
        onCreditFailure(peer_id);
        return;
    }

    peer.creditFailures = 0;
    if (peer.degraded)
        recoverPeer(peer_id);

    bool gained = false;
    for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
        std::uint32_t returned = 0;
        std::memcpy(&returned, c.data.data() + n * 4, 4);
        peer.credits[n] += returned;
        panicIf(peer.credits[n] > cfg_.creditsPerNoc,
                "credit overflow: receiver returned too many");
        gained = gained || returned > 0;
    }
    bool pending = false;
    for (const auto &q : peer.outQueue)
        pending = pending || !q.empty();
    if (gained && pending)
        schedulePump();
    if (pending) {
        // Keep polling while traffic is stalled.
        bool starved = false;
        for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
            starved = starved ||
                      (!peer.outQueue[n].empty() && peer.credits[n] == 0);
        }
        if (starved)
            scheduleCreditPoll(peer_id);
    }
}

void
InterNodeBridge::onCreditFailure(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    ++creditTimeouts_;
    if (stats_)
        stats_->counter(kCreditTimeouts).increment();

    if (!reliable()) {
        // Legacy behaviour: retry while traffic is pending so a single
        // failed credit read cannot wedge the link.
        for (const auto &q : peer.outQueue) {
            if (!q.empty()) {
                scheduleCreditPoll(peer_id);
                break;
            }
        }
        return;
    }

    ++peer.creditFailures;
    if (peer.degraded) {
        // A probe failed; keep probing while traffic waits.
        scheduleProbe(peer_id);
        return;
    }
    if (peer.creditFailures >= cfg_.creditRetryLimit) {
        degradePeer(peer_id);
        return;
    }
    if (hasPendingTraffic(peer))
        scheduleCreditPoll(peer_id);
}

void
InterNodeBridge::degradePeer(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    peer.degraded = true;
    ++degradeEvents_;
    if (stats_)
        stats_->counter(kPeerDegraded).increment();
    warn(strfmt("bridge.node%u: peer %u degraded after %u failed credit "
                "reads; quiescing and probing",
                node_, peer_id, peer.creditFailures));
    scheduleProbe(peer_id);
}

void
InterNodeBridge::scheduleProbe(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    if (peer.probeScheduled || !peer.degraded)
        return;
    if (!hasPendingTraffic(peer)) {
        // Nothing to send: stay quiet; the next sendPacket re-probes.
        return;
    }
    peer.probeScheduled = true;
    eq_.schedule(cfg_.reprobeInterval, [this, peer_id] {
        PeerState &p = peers_.at(peer_id);
        p.probeScheduled = false;
        if (!p.degraded || p.pollInFlight)
            return;
        p.pollInFlight = true;
        ++creditReadsSent_;
        if (stats_)
            stats_->counter(kCreditReads).increment();
        issueCreditRead(peer_id);
    });
}

void
InterNodeBridge::recoverPeer(NodeId peer_id)
{
    PeerState &peer = peers_.at(peer_id);
    peer.degraded = false;
    peer.creditFailures = 0;
    peer.backoffLevel = 0;
    ++recoverEvents_;
    if (stats_)
        stats_->counter(kPeerRecovered).increment();
    inform(strfmt("bridge.node%u: peer %u recovered; re-arming link",
                  node_, peer_id));
    if (!peer.replay.empty())
        scheduleRetransmit(peer_id);
    schedulePump();
}

axi::WriteResp
InterNodeBridge::write(const axi::WriteReq &req)
{
    Addr offset = req.addr - windowBase_;
    NodeId src;
    std::uint8_t valid_mask;
    decodeOffset(offset, src, valid_mask);

    if (reliable()) {
        panicIf(req.data.size() < kFrameBytes,
                "bridge frame smaller than flits plus trailer");
        std::uint32_t seq = 0;
        std::uint32_t got = 0;
        std::memcpy(&seq, req.data.data() + kFlitPayloadBytes, 4);
        std::memcpy(&got, req.data.data() + kFlitPayloadBytes + 4, 4);
        if (got != frameCrc(req.data.data(), valid_mask, src)) {
            ++crcErrors_;
            if (stats_)
                stats_->counter(kCrcErrors).increment();
            return axi::WriteResp{axi::Resp::kSlvErr, req.id};
        }
        SourceState &state = sources_[src];
        auto delta =
            static_cast<std::int32_t>(seq - state.expectedSeq);
        if (delta < 0) {
            // Retransmission of a frame already delivered: suppress the
            // flits, but ACK so the sender's window advances.
            ++duplicates_;
            if (stats_)
                stats_->counter(kDuplicates).increment();
            return axi::WriteResp{axi::Resp::kOkay, req.id};
        }
        if (delta > 0) {
            // A gap: an earlier frame was lost. Reject so the sender
            // goes back and replays in order.
            ++outOfOrder_;
            if (stats_)
                stats_->counter(kOutOfOrder).increment();
            return axi::WriteResp{axi::Resp::kSlvErr, req.id};
        }
        state.expectedSeq += 1;
    } else {
        panicIf(req.data.size() < kFlitPayloadBytes,
                "bridge write smaller than three flits");
    }

    acceptFlits(src, valid_mask, req.data.data());
    if (stats_)
        stats_->counter(kAxiWritesReceived).increment();
    return axi::WriteResp{axi::Resp::kOkay, req.id};
}

void
InterNodeBridge::acceptFlits(NodeId src, std::uint8_t valid_mask,
                             const std::uint8_t *flit_bytes)
{
    SourceState &state = sources_[src];
    for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
        if (!(valid_mask & (1u << n)))
            continue;
        state.unreturned[n] += 1;
        panicIf(state.unreturned[n] > cfg_.creditsPerNoc,
                "bridge receive buffer overflow: credit protocol violated");
        std::uint64_t flit = 0;
        std::memcpy(&flit, flit_bytes + n * kFlitBytes, kFlitBytes);
        // The receive FIFO drains into packet reassembly at line rate,
        // freeing the credit immediately.
        state.assembly[n].push_back(flit);
        state.owedCredits[n] += 1;
        ++flitsReceived_;
        tryAssemble(src, static_cast<noc::NocIndex>(n));
    }
}

axi::ReadResp
InterNodeBridge::read(const axi::ReadReq &req)
{
    // Credit-return read: the requester (encoded in the address) collects
    // the credits freed since its last poll.
    Addr offset = req.addr - windowBase_;
    NodeId src;
    std::uint8_t valid_mask;
    decodeOffset(offset, src, valid_mask);

    SourceState &state = sources_[src];
    axi::ReadResp resp;
    resp.id = req.id;
    resp.data.resize(kCreditBytes + (reliable() ? 4 : 0));
    for (std::size_t n = 0; n < noc::kNumNocs; ++n) {
        std::uint32_t owed = state.owedCredits[n];
        state.owedCredits[n] = 0;
        panicIf(owed > state.unreturned[n],
                "returning more credits than were consumed");
        state.unreturned[n] -= owed;
        std::memcpy(resp.data.data() + n * 4, &owed, 4);
    }
    if (reliable()) {
        std::uint32_t crc = creditCrc(resp.data.data(), src);
        std::memcpy(resp.data.data() + kCreditBytes, &crc, 4);
    }
    return resp;
}

void
InterNodeBridge::tryAssemble(NodeId src, noc::NocIndex noc_idx)
{
    SourceState &state = sources_[src];
    auto n = static_cast<std::size_t>(noc_idx);
    auto &buf = state.assembly[n];

    while (!buf.empty()) {
        // The first buffered word is always a packet header (flits of one
        // packet arrive contiguously per NoC by construction).
        std::uint64_t header = buf.front();
        auto payload_flits =
            static_cast<std::size_t>((header >> 10) & 0xff);
        std::size_t total = 2 + payload_flits;
        if (buf.size() < total)
            return;

        std::vector<std::uint64_t> words(
            buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(total));

        noc::Packet pkt = noc::deserializeWords(words);
        panicIf(pkt.dstNode != node_, "bridge received mis-routed packet");
        ++packetsDelivered_;
        if (stats_)
            stats_->counter(kPacketsDelivered).increment();
        if (tracer_) {
            obs::TraceEvent ev = obs::event(obs::EventKind::kBridgeRx);
            ev.cycle = eq_.now();
            ev.duration = static_cast<std::uint32_t>(cfg_.decapLatency);
            ev.arg = pkt.addr;
            ev.extra = static_cast<std::uint32_t>(total);
            ev.node = static_cast<std::uint16_t>(node_);
            ev.tile = static_cast<std::uint16_t>(src);
            ev.flags = 1;
            tracer_->record(ev);
        }
        if (deliver_) {
            eq_.schedule(cfg_.decapLatency,
                         [this, pkt = std::move(pkt)] { deliver_(pkt); });
        }
    }
}

std::uint32_t
InterNodeBridge::creditsAvailable(NodeId peer, noc::NocIndex noc_idx) const
{
    auto it = peers_.find(peer);
    panicIf(it == peers_.end(), "unknown peer");
    return it->second.credits[static_cast<std::size_t>(noc_idx)];
}

bool
InterNodeBridge::peerDegraded(NodeId peer) const
{
    auto it = peers_.find(peer);
    panicIf(it == peers_.end(), "unknown peer");
    return it->second.degraded;
}

bool
InterNodeBridge::sendIdle() const
{
    for (const auto &[dst, peer] : peers_) {
        if (!peer.replay.empty())
            return false;
        for (const auto &q : peer.outQueue) {
            if (!q.empty())
                return false;
        }
    }
    return true;
}

Cycles
InterNodeBridge::nextDeadline() const
{
    return sendIdle() ? sim::kNoDeadline : eq_.nextDeadline();
}

void
InterNodeBridge::saveState(snap::Writer &w) const
{
    w.u64(peers_.size());
    for (const auto &[dst, peer] : peers_) {
        w.u32(dst);
        w.u64(peer.windowBase);
        for (const auto &q : peer.outQueue) {
            w.u64(q.size());
            for (std::uint64_t flit : q)
                w.u64(flit);
        }
        for (std::uint32_t c : peer.credits)
            w.u32(c);
        w.boolean(peer.pollInFlight);
        w.u32(peer.nextSeq);
        w.u64(peer.replay.size());
        for (const PendingFrame &f : peer.replay) {
            w.u32(f.seq);
            w.u8(f.validMask);
            for (std::uint64_t flit : f.flits)
                w.u64(flit);
            w.u32(f.attempts);
        }
        w.u32(peer.backoffLevel);
        w.u32(peer.creditFailures);
        w.boolean(peer.degraded);
    }

    w.u64(sources_.size());
    for (const auto &[src, source] : sources_) {
        w.u32(src);
        for (const auto &q : source.assembly) {
            w.u64(q.size());
            for (std::uint64_t flit : q)
                w.u64(flit);
        }
        for (std::uint32_t c : source.owedCredits)
            w.u32(c);
        for (std::uint32_t c : source.unreturned)
            w.u32(c);
        w.u32(source.expectedSeq);
    }

    w.u64(flitsSent_);
    w.u64(flitsReceived_);
    w.u64(packetsDelivered_);
    w.u64(axiWritesSent_);
    w.u64(creditReadsSent_);
    w.u64(retransmits_);
    w.u64(crcErrors_);
    w.u64(duplicates_);
    w.u64(outOfOrder_);
    w.u64(creditTimeouts_);
    w.u64(degradeEvents_);
    w.u64(recoverEvents_);
}

void
InterNodeBridge::restoreState(snap::Reader &r)
{
    std::uint64_t peer_count = r.u64();
    fatalIf(peer_count != peers_.size(),
            strfmt("checkpoint bridge has %llu peers, live bridge has %llu",
                   static_cast<unsigned long long>(peer_count),
                   static_cast<unsigned long long>(peers_.size())));
    for (auto &[dst, peer] : peers_) {
        std::uint32_t saved_dst = r.u32();
        fatalIf(saved_dst != dst, "checkpoint bridge peer set mismatch");
        peer.windowBase = r.u64();
        for (auto &q : peer.outQueue) {
            q.clear();
            std::uint64_t depth = r.u64();
            for (std::uint64_t i = 0; i < depth; ++i)
                q.push_back(r.u64());
        }
        for (std::uint32_t &c : peer.credits)
            c = r.u32();
        peer.pollInFlight = r.boolean();
        peer.nextSeq = r.u32();
        peer.replay.clear();
        std::uint64_t frames = r.u64();
        for (std::uint64_t i = 0; i < frames; ++i) {
            PendingFrame f;
            f.seq = r.u32();
            f.validMask = r.u8();
            for (std::uint64_t &flit : f.flits)
                flit = r.u64();
            f.attempts = r.u32();
            peer.replay.push_back(f);
        }
        peer.backoffLevel = r.u32();
        peer.creditFailures = r.u32();
        peer.degraded = r.boolean();
        // Scheduling guards restart clean: the checkpoint was taken at a
        // quiescent point, so no pump/retransmit/poll closure existed.
        peer.retransmitScheduled = false;
        peer.probeScheduled = false;
    }

    std::uint64_t source_count = r.u64();
    fatalIf(
        source_count != sources_.size(),
        strfmt("checkpoint bridge has %llu sources, live bridge has %llu",
               static_cast<unsigned long long>(source_count),
               static_cast<unsigned long long>(sources_.size())));
    for (auto &[src, source] : sources_) {
        std::uint32_t saved_src = r.u32();
        fatalIf(saved_src != src, "checkpoint bridge source set mismatch");
        for (auto &q : source.assembly) {
            q.clear();
            std::uint64_t depth = r.u64();
            for (std::uint64_t i = 0; i < depth; ++i)
                q.push_back(r.u64());
        }
        for (std::uint32_t &c : source.owedCredits)
            c = r.u32();
        for (std::uint32_t &c : source.unreturned)
            c = r.u32();
        source.expectedSeq = r.u32();
    }

    flitsSent_ = r.u64();
    flitsReceived_ = r.u64();
    packetsDelivered_ = r.u64();
    axiWritesSent_ = r.u64();
    creditReadsSent_ = r.u64();
    retransmits_ = r.u64();
    crcErrors_ = r.u64();
    duplicates_ = r.u64();
    outOfOrder_ = r.u64();
    creditTimeouts_ = r.u64();
    degradeEvents_ = r.u64();
    recoverEvents_ = r.u64();

    pumpScheduled_ = false;
    // Re-arm the only events a quiescent bridge can owe: degraded-peer
    // probes. Queued traffic (if any) re-pumps on the next sendPacket or
    // credit return, as in a live run.
    for (auto &[dst, peer] : peers_) {
        if (peer.degraded)
            scheduleProbe(dst);
    }
}

} // namespace smappic::bridge
