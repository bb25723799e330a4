/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The packet/cycle-level models (the PCIe fabric, UARTs and other
 * devices) are driven by a single EventQueue. Events scheduled for the
 * same cycle fire in FIFO order of scheduling, which keeps component
 * pipelines deterministic.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hpp"

namespace smappic::sim
{

/** Callable fired by the event queue at its scheduled cycle. */
using EventFn = std::function<void()>;

/** "No pending deadline" sentinel shared by every horizon query (the
 *  event queue, the CLINT timer, the watchdog, the NoC) so idle-skip
 *  code can min() horizons without special cases. */
inline constexpr Cycles kNoDeadline = ~Cycles{0};

/** Single-clock discrete-event queue. */
class EventQueue
{
  public:
    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** Schedules @p fn to run @p delay cycles from now. */
    void
    schedule(Cycles delay, EventFn fn)
    {
        heap_.push(Entry{now_ + delay, nextSeq_++, std::move(fn)});
    }

    /** Schedules @p fn at absolute cycle @p when (must be >= now). */
    void scheduleAt(Cycles when, EventFn fn);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Timestamp of the earliest pending event. @pre !empty(). */
    Cycles nextEventTime() const { return heap_.top().when; }

    /**
     * Horizon query for idle skipping: the earliest cycle at which the
     * queue can change state, or kNoDeadline when no event is pending.
     * Unlike nextEventTime() this is total — safe to min() blindly.
     */
    Cycles
    nextDeadline() const
    {
        return heap_.empty() ? kNoDeadline : heap_.top().when;
    }

    /** Restore-time clock jump: sets now without running anything.
     *  Requires an empty queue (pending closures cannot be preserved
     *  across a jump) and panics otherwise. */
    void jumpTo(Cycles now);

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Runs events until the queue drains or @p limit cycles elapse.
     * @return Number of events executed.
     */
    std::uint64_t run(Cycles limit = ~Cycles{0});

    /**
     * Runs events with timestamps <= @p until, then sets now to @p until
     * (if it advanced past the last event).
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Cycles until);

    /** Drops all pending events and rewinds time to zero. */
    void reset();

  private:
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;
        EventFn fn;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace smappic::sim
