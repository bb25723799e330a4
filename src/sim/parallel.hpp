/**
 * @file
 * Conservative parallel execution harness for multi-node prototypes.
 *
 * SMAPPIC's scalability story rests on nodes running concurrently and
 * interacting only through the ~1250 ns PCIe round trip (paper Fig. 8).
 * That latency is *lookahead* in the PDES sense: whatever one node does
 * cannot affect another sooner than the PCIe one-way delay, so each node
 * may simulate a quantum of up to that many cycles without looking at its
 * peers. The harness here exploits it:
 *
 *  - ParallelExecutor runs per-node work functions on a worker pool in
 *    epochs separated by a barrier; the barrier callback runs serially.
 *  - MailboxRouter collects cross-node interactions produced inside a
 *    node phase and replays them at the next barrier in a fixed
 *    (source node, post order) order, making delivery independent of how
 *    worker threads interleave.
 *  - currentNode()/ActingNodeScope tag the running thread with the node
 *    whose state it is allowed to touch, so shared components can tell a
 *    node phase from serial (setup/barrier) context.
 *
 *  - ConfinedScope marks a node phase as confined to its own node's
 *    state. A step inside it that would touch another node's state
 *    (a cross-node miss, a shared device) throws NodeYield before it
 *    changes anything; the engine finishes that node's epoch later, in
 *    the serial barrier context, in node order.
 *
 * Determinism contract: results are bit-identical for any worker count.
 * Confined phases touch disjoint state, so they run concurrently; every
 * serializing step (the yielded nodes' epoch remainders, mailbox drain,
 * event pump, stat-shard merge) runs in a fixed order.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace smappic::sim
{

/** Sentinel: the calling thread is not executing any node's phase. */
inline constexpr NodeId kNoNode = ~NodeId{0};

namespace detail
{
extern thread_local NodeId tlsActingNode;
extern thread_local bool tlsConfined;
} // namespace detail

/** Node whose phase the calling thread is executing, or kNoNode.
 *  Inline: trace points query this on their hot path. */
inline NodeId
currentNode()
{
    return detail::tlsActingNode;
}

/**
 * Thrown by a step that a confined node phase may not take: it would
 * touch state another node's concurrent phase may also touch. Thrown
 * before the step changes anything, so the instruction that made it
 * can simply be run again. Deliberately not a std::exception: only the
 * engine that opened the ConfinedScope catches it.
 */
struct NodeYield
{
};

/** True inside a ConfinedScope: cross-node steps must yield. */
inline bool
confinedPhase()
{
    return detail::tlsConfined;
}

/** Throws NodeYield when the calling thread runs a confined phase. */
inline void
yieldIfConfined()
{
    if (detail::tlsConfined)
        throw NodeYield{};
}

/** RAII tag confining the calling thread's node phase to its node. */
class ConfinedScope
{
  public:
    ConfinedScope();
    ~ConfinedScope();

    ConfinedScope(const ConfinedScope &) = delete;
    ConfinedScope &operator=(const ConfinedScope &) = delete;

  private:
    bool prev_;
};

/** RAII tag marking the calling thread as acting for one node. */
class ActingNodeScope
{
  public:
    explicit ActingNodeScope(NodeId node);
    ~ActingNodeScope();

    ActingNodeScope(const ActingNodeScope &) = delete;
    ActingNodeScope &operator=(const ActingNodeScope &) = delete;

  private:
    NodeId prev_;
};

/** Run-engine shape carried by PrototypeConfig. */
struct ParallelConfig
{
    /** Host workers running node phases; results do not depend on it. */
    std::uint32_t threads = 1;
    /** Epoch length in cycles; 0 picks the PCIe one-way lookahead. */
    Cycles quantum = 0;
};

/**
 * Deferred cross-node interactions, one lane per source node. A node
 * phase posts with post() (single writer: the worker acting for that
 * node); the barrier drains every lane in ascending source-node order,
 * then post order within a lane. The drain order is therefore a pure
 * function of what each node produced, never of thread interleaving.
 */
class MailboxRouter
{
  public:
    /** Sizes the lane table; call once before the first phase. */
    void configure(std::uint32_t nodes);

    /**
     * Defers @p fn to the next barrier. Must be called from a node phase
     * (currentNode() != kNoNode); the acting node picks the lane.
     */
    void post(std::function<void()> fn);

    /** Runs and discards all deferred work. @return Entries executed. */
    std::uint64_t drain();

    /** Entries currently deferred. */
    std::uint64_t pending() const;

    /** Lifetime count of entries drained. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    std::vector<std::vector<std::function<void()>>> lanes_;
    std::uint64_t delivered_ = 0;
};

/**
 * Epoch-stepped worker pool. run() repeatedly executes one epoch: every
 * group (node) is advanced by groupFn — groups are sharded round-robin
 * over the workers, each group always on the same worker — then the
 * barrier callback runs exactly once, serially, with every worker
 * quiescent. Epochs continue while the barrier returns true. Workers
 * meet at each epoch end in a barrier that spins briefly, then parks
 * (no spinning when workers outnumber the CPUs). With one worker no
 * threads are spawned and the loop is a plain function-call sequence,
 * so a single-threaded run has zero synchronization overhead.
 */
class ParallelExecutor
{
  public:
    using GroupFn = std::function<void(std::uint32_t group)>;
    using BarrierFn = std::function<bool(std::uint64_t epoch)>;

    explicit ParallelExecutor(std::uint32_t workers);

    std::uint32_t workers() const { return workers_; }

    /** Runs epochs over @p groups groups until @p barrier returns false.
     *  Exceptions from groupFn/barrier end the run and are rethrown. */
    void run(std::uint32_t groups, const GroupFn &group_fn,
             const BarrierFn &barrier);

  private:
    std::uint32_t workers_;
};

} // namespace smappic::sim
