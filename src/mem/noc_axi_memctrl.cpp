#include "mem/noc_axi_memctrl.hpp"

#include <algorithm>
#include <cstring>

#include "sim/log.hpp"
#include "snap/state_io.hpp"

namespace smappic::mem
{

namespace
{

const sim::StatId kRequests("memctrl.requests");
const sim::StatId kBufferOverflows("memctrl.bufferOverflows");
const sim::StatId kResponses("memctrl.responses");

} // namespace

NocAxiMemController::NocAxiMemController(NodeId node, sim::EventQueue &eq,
                                         AxiDram &dram,
                                         const MemCtrlConfig &cfg,
                                         sim::StatRegistry *stats)
    : node_(node), eq_(eq), dram_(dram), cfg_(cfg), stats_(stats)
{
    fatalIf(cfg.mshrs == 0, "memory controller needs at least one MSHR");
    fatalIf(cfg.axiIds == 0, "memory controller needs at least one AXI ID");
    mshrTable_.resize(cfg.mshrs);
    idToMshr_.resize(cfg.axiIds, 0);
    for (std::uint32_t i = 0; i < cfg.axiIds; ++i)
        freeIds_.push_back(static_cast<std::uint16_t>(i));
}

void
NocAxiMemController::handlePacket(const noc::Packet &pkt)
{
    bool is_read = pkt.type == noc::MsgType::kMemRd ||
                   pkt.type == noc::MsgType::kNcLoad;
    bool is_write = pkt.type == noc::MsgType::kMemWr ||
                    pkt.type == noc::MsgType::kNcStore;
    panicIf(!is_read && !is_write,
            "memory controller received a non-memory packet");
    if (stats_)
        stats_->counter(kRequests).increment();

    buffer_.push_back(pkt);
    if (stats_ && buffer_.size() > cfg_.bufferDepth)
        stats_->counter(kBufferOverflows).increment();
    eq_.schedule(cfg_.pipelineLatency, [this] { tryIssue(); });
}

void
NocAxiMemController::tryIssue()
{
    while (!buffer_.empty() && mshrsInUse_ < cfg_.mshrs &&
           !freeIds_.empty()) {
        noc::Packet pkt = buffer_.front();
        buffer_.pop_front();
        issue(pkt);
    }
}

void
NocAxiMemController::issue(const noc::Packet &pkt)
{
    bool is_read = pkt.type == noc::MsgType::kMemRd ||
                   pkt.type == noc::MsgType::kNcLoad;
    auto req_bytes = static_cast<std::uint32_t>(1u << pkt.sizeLog2);

    // Align to the 64-byte boundary the AXI4 interface requires.
    Addr aligned_base = pkt.addr & ~static_cast<Addr>(kCacheLineBytes - 1);
    Addr end = pkt.addr + req_bytes;
    Addr aligned_end =
        (end + kCacheLineBytes - 1) & ~static_cast<Addr>(kCacheLineBytes - 1);
    auto aligned_bytes = static_cast<std::uint32_t>(aligned_end -
                                                    aligned_base);

    // Allocate an MSHR and an AXI ID; record the ID->MSHR mapping.
    std::size_t mshr_idx = 0;
    while (mshr_idx < mshrTable_.size() && mshrTable_[mshr_idx].has_value())
        ++mshr_idx;
    panicIf(mshr_idx >= mshrTable_.size(), "issue() without a free MSHR");
    std::uint16_t axi_id = freeIds_.back();
    freeIds_.pop_back();
    idToMshr_[axi_id] = mshr_idx;

    mshrTable_[mshr_idx] =
        Mshr{pkt, aligned_base, aligned_bytes, is_read};
    ++mshrsInUse_;
    peakMshrs_ = std::max<std::uint64_t>(peakMshrs_, mshrsInUse_);

    if (is_read) {
        axi::ReadReq req;
        req.addr = aligned_base;
        req.bytes = aligned_bytes;
        req.id = axi_id;
        dram_.read(req, [this, axi_id](axi::ReadResp resp) {
            std::size_t idx = idToMshr_[axi_id];
            freeIds_.push_back(axi_id);
            complete(idx, std::move(resp.data), resp.resp);
        });
    } else {
        // Sub-line writes are aligned by read-modify-write; hardware uses
        // byte strobes to the same effect.
        axi::WriteReq req;
        req.addr = aligned_base;
        req.id = axi_id;
        req.data.resize(aligned_bytes);
        dram_.memory().readBytes(aligned_base, req.data.data(),
                                 aligned_bytes);
        std::size_t offset = pkt.addr - aligned_base;
        std::size_t copy = std::min<std::size_t>(
            req_bytes, pkt.payload.size() * 8);
        std::memcpy(req.data.data() + offset, pkt.payload.data(), copy);
        dram_.write(req, [this, axi_id](axi::WriteResp resp) {
            std::size_t idx = idToMshr_[axi_id];
            freeIds_.push_back(axi_id);
            complete(idx, {}, resp.resp);
        });
    }
}

void
NocAxiMemController::complete(std::size_t mshr_idx,
                              std::vector<std::uint8_t> data, axi::Resp resp)
{
    panicIf(!mshrTable_[mshr_idx].has_value(),
            "completion for an idle MSHR");
    Mshr mshr = *mshrTable_[mshr_idx];
    mshrTable_[mshr_idx].reset();
    --mshrsInUse_;
    ++served_;
    panicIf(resp != axi::Resp::kOkay,
            "DRAM returned an error to the memory controller");

    const noc::Packet &req = mshr.request;
    noc::Packet reply;
    reply.noc = noc::NocIndex::kNoc2;
    reply.srcNode = node_;
    reply.srcTile = noc::kOffChipTile;
    reply.dstNode = req.srcNode;
    reply.dstTile = req.srcTile;
    reply.mshr = req.mshr;
    reply.sizeLog2 = req.sizeLog2;
    reply.addr = req.addr;

    if (mshr.isRead) {
        reply.type = req.type == noc::MsgType::kNcLoad
                         ? noc::MsgType::kNcLoadResp
                         : noc::MsgType::kMemRdResp;
        // Select the requested bytes out of the aligned burst.
        auto req_bytes = static_cast<std::uint32_t>(1u << req.sizeLog2);
        std::size_t offset = req.addr - mshr.alignedBase;
        std::size_t flits = (req_bytes + 7) / 8;
        reply.payload.assign(flits, 0);
        std::memcpy(reply.payload.data(), data.data() + offset, req_bytes);
        if (fault_ && fault_->decide("memctrl.resp").corrupt) {
            fault_->corruptBytes(
                "memctrl.resp",
                reinterpret_cast<std::uint8_t *>(reply.payload.data()),
                reply.payload.size() * 8);
        }
    } else {
        reply.type = req.type == noc::MsgType::kNcStore
                         ? noc::MsgType::kNcStoreResp
                         : noc::MsgType::kMemWrResp;
    }

    if (stats_)
        stats_->counter(kResponses).increment();
    if (send_) {
        eq_.schedule(cfg_.pipelineLatency,
                     [this, reply = std::move(reply)] { send_(reply); });
    }
    // A freed MSHR may unblock buffered requests.
    tryIssue();
}

bool
NocAxiMemController::idle() const
{
    return buffer_.empty() && mshrsInUse_ == 0;
}

Cycles
NocAxiMemController::nextDeadline() const
{
    return idle() ? sim::kNoDeadline : eq_.nextDeadline();
}

void
NocAxiMemController::saveState(snap::Writer &w) const
{
    fatalIf(!idle(), "memory controller checkpointed with in-flight "
                     "requests; checkpoints must be quiescent");
    w.u64(freeIds_.size());
    for (std::uint16_t id : freeIds_)
        w.u16(id);
    w.u64(peakMshrs_);
    w.u64(served_);
}

void
NocAxiMemController::restoreState(snap::Reader &r)
{
    std::uint64_t free_count = r.u64();
    fatalIf(free_count != freeIds_.size(),
            strfmt("checkpoint AXI-ID pool has %llu ids, controller "
                   "expects %llu",
                   static_cast<unsigned long long>(free_count),
                   static_cast<unsigned long long>(freeIds_.size())));
    for (std::uint16_t &id : freeIds_)
        id = r.u16();
    peakMshrs_ = r.u64();
    served_ = r.u64();
    buffer_.clear();
    for (auto &mshr : mshrTable_)
        mshr.reset();
    mshrsInUse_ = 0;
}

} // namespace smappic::mem
