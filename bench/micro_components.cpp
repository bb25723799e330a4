/**
 * @file
 * google-benchmark microbenchmarks of the substrate components: cache
 * arrays, the coherent-system access walk, the guest-OS fiber yield, stat
 * updates, the event queue and the RISC-V interpreter.
 * These guard the simulator's own performance (host-side), not target
 * metrics.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "cache/coherent_system.hpp"
#include "mem/main_memory.hpp"
#include "os/guest_system.hpp"
#include "riscv/assembler.hpp"
#include "riscv/core.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace smappic;

namespace
{

void
BM_CacheArrayLookup(benchmark::State &state)
{
    cache::CacheArray c(64 << 10, 4);
    for (Addr a = 0; a < 512; ++a)
        c.insert(a * 64);
    sim::Xoroshiro rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.lookup(rng.below(512) * 64));
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_CoherentAccessL1Hit(benchmark::State &state)
{
    cache::Geometry geo;
    geo.nodes = 1;
    geo.tilesPerNode = 2;
    cache::CoherentSystem cs(geo, cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    cs.access(0, 0x1000, cache::AccessType::kLoad, 8, 0);
    Cycles now = 1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cs.access(0, 0x1000, cache::AccessType::kLoad, 8, now));
        now += 10;
    }
}
BENCHMARK(BM_CoherentAccessL1Hit);

// Guest-OS scheduler yield: two compute-only workers in one phase. Each
// change of the running worker is one yield (fiber -> scheduler ->
// fiber); per_yield is the wall time per yield, phase setup included.
void
BM_GuestPhaseYield(benchmark::State &state)
{
    cache::Geometry geo;
    geo.nodes = 1;
    geo.tilesPerNode = 2;
    cache::CoherentSystem cs(geo, cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    os::GuestSystem guest(cs, os::NumaMode::kOn);
    constexpr int kSteps = 1 << 15;
    std::uint64_t yields = 0;
    for (auto _ : state) {
        const os::Worker *last = nullptr;
        guest.parallelPhase({0, 1}, [&](os::Worker &w) {
            for (int i = 0; i < kSteps; ++i) {
                w.compute(200);
                if (last != &w) {
                    yields += last != nullptr;
                    last = &w;
                }
            }
        });
        benchmark::DoNotOptimize(yields);
    }
    state.counters["per_yield"] = benchmark::Counter(
        static_cast<double>(yields),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GuestPhaseYield);

// Per-event stat update cost. redirect:1 binds a shard with a Redirect,
// as every node-phase write under the phased engine does.
void
BM_StatHandleIncrement(benchmark::State &state)
{
    sim::StatRegistry root;
    sim::StatRegistry shard;
    const sim::StatId id("bench.stat.handle");
    std::optional<sim::StatRegistry::Redirect> redirect;
    if (state.range(0) != 0)
        redirect.emplace(&root, &shard);
    for (auto _ : state)
        root.counter(id).increment();
    benchmark::DoNotOptimize(root.counterValue(id) + shard.counterValue(id));
}
BENCHMARK(BM_StatHandleIncrement)->ArgName("redirect")->Arg(0)->Arg(1);

void
BM_StatNameIncrement(benchmark::State &state)
{
    sim::StatRegistry root;
    sim::StatRegistry shard;
    std::optional<sim::StatRegistry::Redirect> redirect;
    if (state.range(0) != 0)
        redirect.emplace(&root, &shard);
    for (auto _ : state)
        root.counter("bench.stat.name").increment();
    benchmark::DoNotOptimize(root.counterValue("bench.stat.name") +
                             shard.counterValue("bench.stat.name"));
}
BENCHMARK(BM_StatNameIncrement)->ArgName("redirect")->Arg(0)->Arg(1);

void
BM_CoherentAccessMissStream(benchmark::State &state)
{
    cache::Geometry geo;
    geo.nodes = 4;
    geo.tilesPerNode = 4;
    geo.memPerNode = 1ULL << 30;
    cache::CoherentSystem cs(geo, cache::TimingParams{},
                             cache::HomingPolicy::kAddressNode);
    sim::Xoroshiro rng(3);
    Cycles now = 0;
    for (auto _ : state) {
        Addr addr = rng.below(1 << 22) * 64 +
                    (rng.below(4) << 30);
        now += 50;
        benchmark::DoNotOptimize(
            cs.access(static_cast<GlobalTileId>(rng.below(16)), addr,
                      cache::AccessType::kLoad, 8, now));
    }
}
BENCHMARK(BM_CoherentAccessMissStream);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i)
            eq.schedule(static_cast<Cycles>(i % 5), [&] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueNextDeadline(benchmark::State &state)
{
    // Horizon query cost: nextDeadline() is consulted by every WFI wait
    // iteration and every phased idle barrier, so it must stay a heap
    // peek, not a scan.
    sim::EventQueue eq;
    for (int i = 0; i < 64; ++i)
        eq.schedule(static_cast<Cycles>(1 + i * 7), [] {});
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.nextDeadline());
}
BENCHMARK(BM_EventQueueNextDeadline);

void
BM_RiscvInterpreterMips(benchmark::State &state)
{
    /** Flat port with fixed latency: measures raw interpreter speed. */
    class Port : public riscv::MemPort
    {
      public:
        std::uint64_t
        load(Addr a, std::uint32_t b, Cycles, Cycles &lat) override
        {
            lat = 1;
            return mem.load(a, b);
        }
        void
        store(Addr a, std::uint32_t b, std::uint64_t v, Cycles,
              Cycles &lat) override
        {
            lat = 1;
            mem.store(a, b, v);
        }
        std::uint32_t
        fetch(Addr a, Cycles, Cycles &lat) override
        {
            lat = 1;
            return static_cast<std::uint32_t>(mem.load(a, 4));
        }
        std::uint64_t
        atomic(Addr a, std::uint32_t b,
               const std::function<std::uint64_t(std::uint64_t)> &rmw,
               Cycles, Cycles &lat) override
        {
            lat = 1;
            std::uint64_t old = mem.load(a, b);
            mem.store(a, b, rmw(old));
            return old;
        }
        mem::MainMemory mem;
    };

    Port port;
    riscv::Assembler as;
    auto prog = as.assemble(R"(
_start:
    li t0, 0
loop:
    addi t0, t0, 1
    andi t1, t0, 255
    xor t2, t1, t0
    j loop
)");
    for (const auto &seg : prog.segments)
        port.mem.writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
    riscv::CoreConfig cfg;
    cfg.resetPc = prog.entry;
    riscv::RvCore core(cfg, port);
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(core.instret()));
}
BENCHMARK(BM_RiscvInterpreterMips);

} // namespace

BENCHMARK_MAIN();
