#include "sim/watchdog.hpp"

#include <algorithm>

#include "sim/event_queue.hpp"
#include "sim/log.hpp"

namespace smappic::sim
{

namespace
{

const StatId kStallsDetected("watchdog.stallsDetected");

} // namespace

Watchdog::Watchdog(const WatchdogConfig &cfg, std::uint32_t nodes,
                   StatRegistry *stats)
    : cfg_(cfg), stats_(stats), lastCommitted_(nodes, 0),
      lastProgress_(nodes, 0)
{
}

Watchdog::Verdict
Watchdog::observe(Cycles now, const std::vector<std::uint64_t> &committed,
                  const std::vector<bool> &live)
{
    Verdict verdict;
    if (!cfg_.enabled())
        return verdict;
    panicIf(committed.size() != lastCommitted_.size() ||
                live.size() != lastCommitted_.size(),
            "watchdog observed a different node count than it was built for");

    if (!primed_) {
        // First barrier: establish the baseline, never fire.
        primed_ = true;
        lastCommitted_ = committed;
        for (auto &mark : lastProgress_)
            mark = now;
        return verdict;
    }

    for (std::size_t n = 0; n < committed.size(); ++n) {
        if (!live[n] || committed[n] != lastCommitted_[n]) {
            // Done nodes can't stall; committing nodes re-arm their
            // window.
            lastCommitted_[n] = committed[n];
            lastProgress_[n] = now;
            continue;
        }
        if (now - lastProgress_[n] >= cfg_.stallCycles) {
            verdict.stallDetected = true;
            verdict.stalledNodes.push_back(static_cast<std::uint32_t>(n));
            // Rebase so a persistent wedge fires once per window, not
            // once per barrier.
            lastProgress_[n] = now;
        }
    }

    if (verdict.stallDetected) {
        stalls_ += verdict.stalledNodes.size();
        if (stats_) {
            stats_->counter(kStallsDetected)
                .increment(verdict.stalledNodes.size());
        }
    }
    return verdict;
}

void
Watchdog::rebase()
{
    primed_ = false;
}

Cycles
Watchdog::nextDeadline() const
{
    if (!cfg_.enabled() || !primed_)
        return kNoDeadline;
    Cycles next = kNoDeadline;
    for (Cycles mark : lastProgress_)
        next = std::min(next, mark + cfg_.stallCycles);
    return next;
}

} // namespace smappic::sim
