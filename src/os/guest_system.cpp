#include "os/guest_system.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "sim/log.hpp"

#if defined(__x86_64__)
// smappicFiberSwitch(saveSp, loadSp) pushes the SysV callee-saved
// registers (rbx, rbp, r12-r15) and the MXCSR and x87 control words onto
// the running stack, stores the stack pointer to *saveSp, then loads
// loadSp and pops the same frame from it. The caller-saved registers
// need no saving: the compiler already treats them as clobbered by the
// call. smappicFiberStart is where a new fiber's first switch returns
// to: it calls the entry function in r13 with the argument in r12. Both
// labels are local to this object file.
extern "C" void smappicFiberSwitch(void **saveSp, void *loadSp);
extern "C" void smappicFiberStart();
asm(R"(
    .pushsection .text
    .p2align 4
smappicFiberSwitch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret

    .p2align 4
smappicFiberStart:
    movq %r12, %rdi
    callq *%r13
    ud2
    .popsection
)");
#endif

namespace smappic::os
{

namespace
{

/** One end of a fiber switch: a task's fiber or the scheduler's stack. */
struct FiberContext
{
#if defined(__x86_64__)
    void *sp = nullptr; // The registers are saved on the stack itself.
#else
    ucontext_t uc{};
#endif
    // Stack bounds for ASan. The scheduler learns its own on the first
    // switch into a fiber.
    const void *stackBottom = nullptr;
    std::size_t stackSize = 0;
    void *tsanFiber = nullptr;
};

/**
 * The one switch point: saves the running context into @p from and
 * resumes @p to. @p fromFinished marks a fiber's last switch, after
 * which @p from is never resumed.
 */
void
switchTo(FiberContext &from, FiberContext &to,
         [[maybe_unused]] bool fromFinished = false)
{
#if defined(__SANITIZE_ADDRESS__)
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(fromFinished ? nullptr : &fakeStack,
                                   to.stackBottom, to.stackSize);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
#if defined(__x86_64__)
    smappicFiberSwitch(&from.sp, to.sp);
#else
    swapcontext(&from.uc, &to.uc);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
}

} // namespace

/**
 * Phase scheduler: runs each worker's phase body on its own fiber and
 * interleaves fibers in virtual-time order with a small quantum. This
 * keeps request arrival times at shared resources (LLC slices, DRAM
 * channels, PCIe links) approximately sorted, so the next-free-time
 * servers model *contention* rather than accidentally serializing one
 * worker behind another. A yielding or finishing fiber picks the next
 * task itself and switches straight to it; only the last fiber, or one
 * that threw, switches back to parallelPhase. All switching state lives
 * here or in the GuestSystem, none in statics, so schedulers on
 * different threads never share anything.
 */
struct GuestSystem::PhaseScheduler
{
    static constexpr std::size_t kStackBytes = 256 << 10;

    struct Task
    {
        FiberContext ctx;
        std::uint8_t *stack = nullptr; ///< kStackBytes, from the pool.
        Worker worker;
        std::size_t index; ///< Position in tiles; breaks clock ties.
        const std::function<void(Worker &)> *body = nullptr;
        PhaseScheduler *sched = nullptr;

        Task(GuestSystem &os, GlobalTileId tile, Cycles start,
             std::size_t index)
            : worker(os, tile, start), index(index)
        {
        }

#if defined(__SANITIZE_THREAD__)
        ~Task()
        {
            if (ctx.tsanFiber)
                __tsan_destroy_fiber(ctx.tsanFiber);
        }
#endif
    };

    FiberContext main;
    GuestSystem *os = nullptr;
    Task *current = nullptr;
    Cycles quantum = 0;
    std::exception_ptr error; ///< The exception a fiber threw, if any.
    std::vector<std::unique_ptr<Task>> tasks;
    /** Suspended tasks: a heap whose top has the lowest clock, then the
     *  lowest index. */
    std::vector<Task *> runnable;

    /** Heap order: true when @p a runs after @p b. */
    static bool
    after(const Task *a, const Task *b)
    {
        if (a->worker.clock_ != b->worker.clock_)
            return a->worker.clock_ > b->worker.clock_;
        return a->index > b->index;
    }

    /**
     * Makes the lagging suspended task current and the GuestSystem's
     * running worker, with a threshold one quantum past the
     * next-lagging one's clock (no limit when it is alone). Null when no
     * task is suspended.
     */
    Task *
    pickNext()
    {
        if (runnable.empty())
            return nullptr;
        std::pop_heap(runnable.begin(), runnable.end(), after);
        current = runnable.back();
        runnable.pop_back();
        os->running_ = &current->worker;
        os->yieldAt_ = runnable.empty()
                           ? ~Cycles{0}
                           : runnable.front()->worker.clock_ + quantum;
        return current;
    }

    /** Suspends the current task, whose clock has passed the threshold,
     *  and resumes the lagging one: another task, since the heap top's
     *  clock is below the threshold. */
    void
    yield()
    {
        Task *from = current;
        runnable.push_back(from);
        std::push_heap(runnable.begin(), runnable.end(), after);
        switchTo(from->ctx, pickNext()->ctx);
    }

    /** Readies @p task's fiber to enter fiberMain on its own stack, with
     *  the caller's floating-point control state. */
    static void
    prepare(Task &task)
    {
        FiberContext &ctx = task.ctx;
        ctx.stackBottom = task.stack;
        ctx.stackSize = kStackBytes;
#if defined(__SANITIZE_ADDRESS__)
        // A pooled stack may still carry the poison of an earlier
        // phase's frames that never returned.
        __asan_unpoison_memory_region(task.stack, kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
        ctx.tsanFiber = __tsan_create_fiber(0);
        task.sched->main.tsanFiber = __tsan_get_current_fiber();
#endif
#if defined(__x86_64__)
        // The frame smappicFiberSwitch pops, so that the first switch
        // "returns" into smappicFiberStart with r12/r13 set. rbp = 0
        // ends frame-pointer stack walks at the fiber's base.
        struct Frame
        {
            std::uint32_t mxcsr;
            std::uint16_t x87cw, pad;
            std::uintptr_t r15, r14, r13, r12, rbx, rbp, ret;
        };
        Frame f{};
        asm volatile("stmxcsr %0\n\tfnstcw %1"
                     : "=m"(f.mxcsr), "=m"(f.x87cw));
        f.r13 = reinterpret_cast<std::uintptr_t>(&fiberMain);
        f.r12 = reinterpret_cast<std::uintptr_t>(&task);
        f.ret = reinterpret_cast<std::uintptr_t>(&smappicFiberStart);
        // After the pop, rsp sits 16 below the 16-aligned top: the ABI
        // alignment smappicFiberStart's call needs.
        std::uint8_t *top = task.stack + kStackBytes;
        top -= reinterpret_cast<std::uintptr_t>(top) % 16;
        std::uint8_t *sp = top - 16 - sizeof(Frame);
        std::memcpy(sp, &f, sizeof(Frame));
        ctx.sp = sp;
#else
        getcontext(&ctx.uc);
        ctx.uc.uc_stack.ss_sp = task.stack;
        ctx.uc.uc_stack.ss_size = kStackBytes;
        ctx.uc.uc_link = nullptr;
        auto ptr = reinterpret_cast<std::uintptr_t>(&task);
        makecontext(&ctx.uc,
                    reinterpret_cast<void (*)()>(&ucontextEntry), 2,
                    static_cast<unsigned>(ptr >> 32),
                    static_cast<unsigned>(ptr & 0xffffffffu));
#endif
    }

#if !defined(__x86_64__)
    static void
    ucontextEntry(unsigned hi, unsigned lo)
    {
        fiberMain(reinterpret_cast<Task *>(
            (static_cast<std::uintptr_t>(hi) << 32) |
            static_cast<std::uintptr_t>(lo)));
    }
#endif

    /** Runs the body; no exception unwinds past this frame. Ends with
     *  the fiber's last switch: to the lagging task, or back to
     *  parallelPhase when none is left or the body threw. */
    [[noreturn]] static void
    fiberMain(Task *task)
    {
        PhaseScheduler &s = *task->sched;
#if defined(__SANITIZE_ADDRESS__)
        // Only a phase's first fiber is entered from parallelPhase; the
        // others start from a fiber, whose bounds are not main's.
        const void *fromBottom = nullptr;
        std::size_t fromSize = 0;
        __sanitizer_finish_switch_fiber(nullptr, &fromBottom, &fromSize);
        if (s.main.stackBottom == nullptr) {
            s.main.stackBottom = fromBottom;
            s.main.stackSize = fromSize;
        }
#endif
        try {
            (*task->body)(task->worker);
        } catch (...) {
            s.error = std::current_exception();
        }
        Task *next = s.error ? nullptr : s.pickNext();
        switchTo(task->ctx, next ? next->ctx : s.main, true);
        std::abort(); // A finished fiber is never resumed.
    }
};

void
Worker::yieldPastThreshold()
{
    // A worker a phase body made for itself runs on its own clock.
    if (os_.running_ == this)
        os_.scheduler_->yield();
}

NodeId
Worker::node() const
{
    return tile_ / os_.memorySystem().geometry().tilesPerNode;
}

Addr
Worker::resolve(Addr va, std::uint32_t bytes,
                mem::MainMemory::PageEntry *&page)
{
    constexpr std::uint64_t kPage = GuestSystem::kPageBytes;
    static_assert(kPage == mem::MainMemory::kPageBytes);
    mem::MainMemory &memory = os_.memorySystem().memory();
    std::uint64_t vpn = va / kPage;
    std::uint64_t off = va % kPage;
    CachedPage &c = pages_[(vpn ^ (vpn >> 6)) % kCachedPages];
    if (c.vpn == vpn && c.memGen == memory.generation() &&
        c.mapGen == os_.mapGeneration_ && bytes != 0 &&
        off + bytes <= kPage) {
        page = c.page;
        return c.frame + off;
    }
    page = nullptr;
    Addr pa = os_.translate(va, node());
    // With no device window on the page, pa came from the page table.
    if (!os_.overlapsDevice(vpn * kPage, kPage)) {
        if (auto *p = memory.directPage(pa)) {
            c = CachedPage{vpn, pa - off, p, memory.generation(),
                           os_.mapGeneration_};
        }
    }
    return pa;
}

std::uint64_t
Worker::load(Addr va, std::uint32_t bytes)
{
    std::uint32_t n = std::min(bytes, 8u);
    mem::MainMemory::PageEntry *page = nullptr;
    Addr pa = resolve(va, n, page);
    auto r = os_.memorySystem().access(tile_, pa, cache::AccessType::kLoad,
                                       bytes, clock_);
    clock_ += r.latency;
    std::uint64_t value =
        page ? mem::MainMemory::loadFrom(*page, pa % GuestSystem::kPageBytes,
                                         n)
             : os_.memorySystem().memory().load(pa, n);
    maybeYield();
    return value;
}

void
Worker::store(Addr va, std::uint64_t value, std::uint32_t bytes)
{
    std::uint32_t n = std::min(bytes, 8u);
    mem::MainMemory::PageEntry *page = nullptr;
    Addr pa = resolve(va, n, page);
    // Functional store first so device windows observe the new value.
    mem::MainMemory &memory = os_.memorySystem().memory();
    if (page)
        memory.storeTo(*page, pa % GuestSystem::kPageBytes, n, value);
    else
        memory.store(pa, n, value);
    auto r = os_.memorySystem().access(tile_, pa, cache::AccessType::kStore,
                                       bytes, clock_);
    clock_ += r.latency;
    maybeYield();
}

std::uint64_t
Worker::amoAdd(Addr va, std::uint64_t delta)
{
    mem::MainMemory::PageEntry *page = nullptr;
    Addr pa = resolve(va, 8, page);
    auto r = os_.memorySystem().access(tile_, pa, cache::AccessType::kAtomic,
                                       8, clock_);
    clock_ += r.latency;
    mem::MainMemory &memory = os_.memorySystem().memory();
    std::uint64_t old;
    if (page) {
        std::uint64_t off = pa % GuestSystem::kPageBytes;
        old = mem::MainMemory::loadFrom(*page, off, 8);
        memory.storeTo(*page, off, 8, old + delta);
    } else {
        old = memory.load(pa, 8);
        memory.store(pa, 8, old + delta);
    }
    maybeYield();
    return old;
}

std::uint64_t
Worker::ncLoad(Addr va, std::uint32_t bytes)
{
    std::uint32_t n = std::min(bytes, 8u);
    mem::MainMemory::PageEntry *page = nullptr;
    Addr pa = resolve(va, n, page);
    auto r = os_.memorySystem().access(tile_, pa, cache::AccessType::kNcLoad,
                                       bytes, clock_);
    clock_ += r.latency;
    std::uint64_t value =
        page ? mem::MainMemory::loadFrom(*page, pa % GuestSystem::kPageBytes,
                                         n)
             : os_.memorySystem().memory().load(pa, n);
    maybeYield();
    return value;
}

GuestSystem::GuestSystem(cache::CoherentSystem &cs, NumaMode mode,
                         std::uint64_t seed)
    : cs_(cs), mode_(mode), rng_(seed)
{
    const auto &geo = cs.geometry();
    nextFrame_.resize(geo.nodes);
    pagesOnNode_.assign(geo.nodes, 0);
    for (NodeId n = 0; n < geo.nodes; ++n) {
        // Reserve the first 16 MiB of each node for images/IO; the top
        // half of each node's DRAM belongs to the virtual SD card.
        nextFrame_[n] = geo.dramBase +
                        static_cast<Addr>(n) * geo.memPerNode + (16 << 20);
    }
}

Addr
GuestSystem::frameOn(NodeId node)
{
    const auto &geo = cs_.geometry();
    panicIf(node >= geo.nodes, "frame request for unknown node");
    Addr frame = nextFrame_[node];
    Addr limit = geo.dramBase + static_cast<Addr>(node) * geo.memPerNode +
                 geo.memPerNode / 2; // Top half is the virtual SD card.
    fatalIf(frame + kPageBytes > limit, "node out of physical memory");
    nextFrame_[node] += kPageBytes;
    pagesOnNode_[node] += 1;
    return frame;
}

Addr
GuestSystem::vmAlloc(std::uint64_t bytes, AllocPolicy policy, NodeId node)
{
    fatalIf(bytes == 0, "vmAlloc of zero bytes");
    std::uint64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    Addr base = nextVa_;
    nextVa_ += (pages + 1) * kPageBytes; // Guard page between ranges.

    if (policy == AllocPolicy::kDefault)
        policy = AllocPolicy::kFirstTouch; // NumaMode decides at touch.

    ranges_.push_back(VmRange{base, pages, policy, node});

    // Eager binding for explicit placement policies.
    if (policy == AllocPolicy::kInterleave) {
        for (std::uint64_t p = 0; p < pages; ++p) {
            NodeId n = interleaveNext_++ % cs_.geometry().nodes;
            pageTable_[(base / kPageBytes) + p] = frameOn(n);
        }
    } else if (policy == AllocPolicy::kOnNode) {
        for (std::uint64_t p = 0; p < pages; ++p)
            pageTable_[(base / kPageBytes) + p] = frameOn(node);
    }
    return base;
}

const GuestSystem::VmRange *
GuestSystem::rangeOf(Addr va) const
{
    for (const auto &r : ranges_) {
        if (va >= r.base && va < r.base + r.pages * kPageBytes)
            return &r;
    }
    return nullptr;
}

void
GuestSystem::mapDeviceIdentity(Addr base, std::uint64_t size)
{
    deviceRanges_.emplace_back(base, size);
    ++mapGeneration_;
}

bool
GuestSystem::overlapsDevice(Addr base, std::uint64_t size) const
{
    for (const auto &[dbase, dsize] : deviceRanges_) {
        if (base >= dbase ? base - dbase < dsize : dbase - base < size)
            return true;
    }
    return false;
}

Addr
GuestSystem::translate(Addr va, NodeId toucher)
{
    for (const auto &[base, size] : deviceRanges_) {
        if (va >= base && va - base < size)
            return va;
    }
    std::uint64_t vpn = va / kPageBytes;
    auto it = pageTable_.find(vpn);
    if (it == pageTable_.end()) {
        const VmRange *range = rangeOf(va);
        if (range == nullptr) {
            fatal(strfmt("access to unmapped address 0x%llx",
                         static_cast<unsigned long long>(va)));
        }
        NodeId target;
        if (range->policy == AllocPolicy::kOnNode) {
            target = range->node;
        } else if (mode_ == NumaMode::kOn) {
            // First touch: the kernel allocates from the toucher's node.
            target = toucher;
        } else {
            // NUMA-oblivious kernel: the frame comes from wherever the
            // global free list points, uncorrelated with the toucher.
            target = static_cast<NodeId>(
                rng_.below(cs_.geometry().nodes));
        }
        it = pageTable_.emplace(vpn, frameOn(target)).first;
    }
    return it->second + (va % kPageBytes);
}

std::int32_t
GuestSystem::pageNode(Addr va) const
{
    auto it = pageTable_.find(va / kPageBytes);
    if (it == pageTable_.end())
        return -1;
    return static_cast<std::int32_t>(cs_.addrNode(it->second));
}

void
GuestSystem::parallelPhase(const std::vector<GlobalTileId> &tiles,
                           const std::function<void(Worker &)> &body)
{
    fatalIf(tiles.empty(), "parallel phase with no workers");
    panicIf(scheduler_ != nullptr, "nested parallel phases");

    using Task = PhaseScheduler::Task;
    while (fiberStacks_.size() < tiles.size()) {
        auto stack = std::make_unique_for_overwrite<std::uint8_t[]>(
            PhaseScheduler::kStackBytes);
        fiberStacks_.push_back(std::move(stack));
    }
    PhaseScheduler sched;
    sched.os = this;
    sched.quantum = quantum_;
    sched.tasks.reserve(tiles.size());
    sched.runnable.reserve(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        auto task = std::make_unique<Task>(*this, tiles[i], clock_, i);
        task->body = &body;
        task->sched = &sched;
        task->stack = fiberStacks_[i].get();
        PhaseScheduler::prepare(*task);
        sched.runnable.push_back(task.get());
        sched.tasks.push_back(std::move(task));
    }
    std::make_heap(sched.runnable.begin(), sched.runnable.end(),
                   PhaseScheduler::after);

    // The fibers hand control to one another, each running for at most
    // one quantum past the next-lagging worker's clock.
    scheduler_ = &sched;
    switchTo(sched.main, sched.pickNext()->ctx);
    scheduler_ = nullptr;
    running_ = nullptr;
    yieldAt_ = ~Cycles{0};
    if (sched.error)
        std::rethrow_exception(sched.error);

    Cycles end = clock_;
    for (auto &t : sched.tasks)
        end = std::max(end, t->worker.clock_);
    clock_ = end + barrierCost_;
}

void
GuestSystem::serialSection(GlobalTileId tile,
                           const std::function<void(Worker &)> &body)
{
    Worker w(*this, tile, clock_);
    body(w);
    clock_ = w.clock_;
}

std::vector<std::uint64_t>
GuestSystem::pagesPerNode() const
{
    return pagesOnNode_;
}

} // namespace smappic::os
