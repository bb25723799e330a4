/**
 * @file
 * google-benchmark microbenchmarks of the substrate components: packet
 * (de)serialization, mesh routing, cache arrays, the coherent-system
 * access walk, stat updates, the event queue and the RISC-V interpreter.
 * These guard the simulator's own performance (host-side), not target
 * metrics.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "cache/coherent_system.hpp"
#include "mem/main_memory.hpp"
#include "noc/network.hpp"
#include "riscv/assembler.hpp"
#include "riscv/core.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace smappic;

namespace
{

void
BM_PacketSerializeRoundTrip(benchmark::State &state)
{
    noc::Packet p;
    p.srcTile = 1;
    p.dstTile = 9;
    p.type = noc::MsgType::kDataResp;
    p.addr = 0x123456789a;
    p.payload.assign(8, 0xdead);
    for (auto _ : state) {
        auto flits = noc::serialize(p);
        benchmark::DoNotOptimize(noc::deserialize(flits));
    }
}
BENCHMARK(BM_PacketSerializeRoundTrip);

void
BM_MeshNetworkTick(benchmark::State &state)
{
    noc::MeshNetwork net(noc::MeshTopology(12));
    sim::Xoroshiro rng(1);
    int sink = 0;
    for (TileId t = 0; t < 12; ++t)
        net.setDeliverFn(t, [&](const noc::Packet &) { ++sink; });
    for (auto _ : state) {
        // Keep traffic flowing.
        noc::Packet p;
        p.srcTile = static_cast<TileId>(rng.below(12));
        p.dstTile = static_cast<TileId>(rng.below(12));
        if (p.dstTile == p.srcTile)
            p.dstTile = (p.dstTile + 1) % 12;
        p.payload.assign(8, 7);
        net.inject(p);
        net.tick();
        net.tick();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MeshNetworkTick);

void
BM_MeshNetworkIdleTick(benchmark::State &state)
{
    // The uncore idle-skip fast path: a drained mesh ticks in O(1)
    // (flits-in-flight early-out), so cycle-accurate spans between
    // sparse packets cost almost nothing even when not bulk-skipped.
    noc::MeshNetwork net(noc::MeshTopology(12));
    for (auto _ : state)
        net.tick();
    benchmark::DoNotOptimize(net.now());
}
BENCHMARK(BM_MeshNetworkIdleTick);

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
