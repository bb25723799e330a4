#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sim/log.hpp"

namespace smappic::sim
{

namespace
{

/**
 * Pause-loop iterations a barrier waiter spins before it parks. On a
 * 4-vCPU Xeon host a `pause` takes ~18 ns, so the budget is ~36 us:
 * long enough to cover the wait at a 63-cycle epoch end (sub-us once
 * nobody sleeps), short enough that a worker stalled by a slow peer
 * soon gives its CPU back. Parking in the kernel at every epoch end
 * costs 2-8 us per epoch (a futex sleep and wake).
 */
constexpr std::uint32_t kBarrierSpinIterations = 2000;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** CPUs this process may run on. */
std::uint32_t
usableCpus()
{
#if defined(__linux__) && defined(CPU_COUNT)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<std::uint32_t>(CPU_COUNT(&set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Reusable epoch barrier that spins, then parks. The last of `parties`
 * arrivals runs the completion, then opens the barrier by bumping the
 * generation word; every other arrival spins on that word for
 * `spin` pause iterations, then sleeps in std::atomic::wait.
 *
 * Visibility: each arrival's fetch_add is a release, and the last
 * arrival's fetch_add acquires every earlier one (they form one
 * release sequence of RMWs), so the completion sees all writes made
 * before arriving. The store of the generation then carries those
 * writes and the completion's own to every waiter's acquire load.
 *
 * The generation store and the parked waiter's load are seq_cst, not
 * release/acquire. libstdc++'s notify_all skips the futex wake when its
 * (seq_cst) count of parked waiters reads 0, and a waiter bumps that
 * count before loading the word. With a release store, the opener's
 * count load may pass its own store (x86 store buffering), both sides
 * read stale values, and the waiter sleeps forever. With all four
 * accesses seq_cst, one side must see the other's write.
 */
class EpochBarrier
{
  public:
    EpochBarrier(std::uint32_t parties, std::uint32_t spin)
        : parties_(parties), spin_(spin)
    {
    }

    EpochBarrier(const EpochBarrier &) = delete;
    EpochBarrier &operator=(const EpochBarrier &) = delete;

    template <typename Completion>
    void
    arriveAndWait(Completion &&completion)
    {
        // Read before arriving: the generation cannot move until this
        // caller has arrived, so `gen` is the epoch being closed.
        std::uint32_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            completion();
            // Reset before opening: the next epoch's arrivals come after
            // their acquire of the new generation.
            arrived_.store(0, std::memory_order_relaxed);
            generation_.store(gen + 1, std::memory_order_seq_cst);
            generation_.notify_all();
            return;
        }
        for (std::uint32_t i = 0; i < spin_; ++i) {
            if (generation_.load(std::memory_order_acquire) != gen)
                return;
            cpuRelax();
        }
        generation_.wait(gen, std::memory_order_seq_cst);
    }

  private:
    // The counter takes every arrival's RMW while waiters poll the
    // generation: separate lines keep the polls off the counter's line.
    alignas(64) std::atomic<std::uint32_t> arrived_{0};
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    const std::uint32_t parties_;
    const std::uint32_t spin_;
};

} // namespace

thread_local NodeId detail::tlsActingNode = kNoNode;
thread_local bool detail::tlsConfined = false;

ConfinedScope::ConfinedScope() : prev_(detail::tlsConfined)
{
    detail::tlsConfined = true;
}

ConfinedScope::~ConfinedScope()
{
    detail::tlsConfined = prev_;
}

ActingNodeScope::ActingNodeScope(NodeId node)
    : prev_(detail::tlsActingNode)
{
    detail::tlsActingNode = node;
}

ActingNodeScope::~ActingNodeScope()
{
    detail::tlsActingNode = prev_;
}

ParallelExecutor::ParallelExecutor(std::uint32_t workers)
    : workers_(workers == 0 ? 1 : workers)
{
}

void
ParallelExecutor::run(std::uint32_t groups, const GroupFn &group_fn,
                      const BarrierFn &barrier)
{
    if (groups == 0)
        return;
    std::uint32_t workers = std::min(workers_, groups);

    if (workers <= 1) {
        std::uint64_t epoch = 0;
        for (;;) {
            for (std::uint32_t g = 0; g < groups; ++g)
                group_fn(g);
            if (!barrier(epoch++))
                return;
        }
    }

    std::uint64_t epoch = 0;
    std::atomic<bool> keep_going{true};
    std::exception_ptr error;
    std::mutex error_mu;

    auto stash = [&](std::exception_ptr e) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error)
            error = e;
        keep_going.store(false, std::memory_order_relaxed);
    };

    // The completion runs on the last worker to arrive with every other
    // worker waiting in arriveAndWait: the serial section.
    auto serial = [&]() noexcept {
        if (!keep_going.load(std::memory_order_relaxed))
            return;
        try {
            if (!barrier(epoch++))
                keep_going.store(false, std::memory_order_relaxed);
        } catch (...) {
            stash(std::current_exception());
        }
    };
    // A waiter that spins while the worker it waits for has no CPU only
    // delays that worker, so spin only when every worker has a CPU.
    EpochBarrier sync(workers,
                      workers <= usableCpus() ? kBarrierSpinIterations : 0);

    auto worker = [&](std::uint32_t w) {
        for (;;) {
            if (keep_going.load(std::memory_order_relaxed)) {
                try {
                    for (std::uint32_t g = w; g < groups; g += workers)
                        group_fn(g);
                } catch (...) {
                    stash(std::current_exception());
                }
            }
            sync.arriveAndWait(serial);
            if (!keep_going.load(std::memory_order_relaxed))
                return;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
        pool.emplace_back(worker, w);
    for (auto &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace smappic::sim
