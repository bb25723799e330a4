/**
 * @file
 * The three perfbench workloads and their host-side references.
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "workload/intsort.hpp"

namespace perfbench
{

namespace
{

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

/** Instruction budget large enough that every hart exits by ecall. */
constexpr std::uint64_t kUnbounded = 1ULL << 40;

/** splitmix64: independent constants per workload from one --seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** A 64-bit constant as an assembler literal (signed decimal). */
std::string
lit(std::uint64_t v)
{
    return std::to_string(static_cast<std::int64_t>(v));
}

std::uint64_t
scaled(std::uint64_t full, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(full * scale)));
}

/** Checks every hart's exit value against @p expected(hart) and fills
 *  the core-side outcome: max hart cycles and retired instructions. */
template <typename Expected>
Outcome
checkHarts(Prototype &p, std::uint64_t skew, Expected expected)
{
    Outcome o;
    for (GlobalTileId g = 0; g < p.coreCount(); ++g) {
        riscv::RvCore &c = p.core(g);
        ++o.attempted;
        if (!c.exited() ||
            static_cast<std::uint64_t>(c.exitCode()) != expected(g) + skew)
            ++o.failed;
        o.targetCycles = std::max(o.targetCycles, c.cycles());
        o.guestOps += c.instret();
    }
    return o;
}

constexpr std::uint64_t kXorshiftMix = 0x9E3779B97F4A7C15ULL;

/**
 * core_compute: each hart runs an xorshift64 loop whose data-dependent
 * branch picks add or xor into an accumulator, round-tripping the
 * accumulator through its own cache line. Both branch arms have the same
 * length, so the instruction count does not depend on the seed. The data
 * sits on its own page so the stores never invalidate decoded code.
 */
class CoreCompute final : public Workload
{
  public:
    static constexpr std::uint64_t kIterations = 1 << 15;

    CoreCompute(std::uint64_t seed, double scale)
        : state_(derive(seed, 1)), iterations_(scaled(kIterations, scale))
    {
    }

    void
    construct() override
    {
        proto_ = std::make_unique<Prototype>(PrototypeConfig::parse("1x1x2"));
    }

    void
    load() override
    {
        proto_->loadSourceReplicated(R"(
_start:
    csrr t0, 0xf14
    addi t0, t0, 1
    li t5, )" + lit(kXorshiftMix) + R"(
    mul t5, t5, t0
    li t2, )" + lit(state_) + R"(
    xor t2, t2, t5
    slli t5, t0, 6
    la t6, lines
    add t6, t6, t5
    li t3, )" + lit(iterations_) + R"(
    li t1, 0
loop:
    ld t4, 0(t6)
    add t1, t1, t4
    slli t5, t2, 13
    xor t2, t2, t5
    srli t5, t2, 7
    xor t2, t2, t5
    slli t5, t2, 17
    xor t2, t2, t5
    andi t5, t2, 1
    beqz t5, even
    add t1, t1, t2
    j join
even:
    xor t1, t1, t2
    nop
join:
    sd t1, 0(t6)
    addi t3, t3, -1
    bnez t3, loop
    mv a0, t1
    li a7, 93
    ecall

.data
.align 12
lines: .space 256
)");
    }

    void run() override { proto_->runCores({0, 1}, kUnbounded); }

    Outcome
    check() override
    {
        return checkHarts(*proto_, skew_, [&](GlobalTileId g) {
            return computeChecksum(state_, g, iterations_);
        });
    }

  private:
    std::uint64_t state_;
    std::uint64_t iterations_;
};

/**
 * numa_intsort: the Fig 9 NUMA-off point with every node active. The
 * guest OS model issues coherent accesses directly; no RV64 code runs.
 */
class NumaIntSort final : public Workload
{
  public:
    NumaIntSort(std::uint64_t seed, double scale) : seed_(seed)
    {
        cfg_.keys = scaled(1 << 16, scale);
        cfg_.buckets = 1 << 13;
        cfg_.seed = derive(seed, 3);
    }

    void
    construct() override
    {
        PrototypeConfig cfg = PrototypeConfig::parse("4x1x12");
        cfg.llcSliceBytes = 8 << 10;
        proto_ = std::make_unique<Prototype>(cfg);
    }

    void
    load() override
    {
        guest_ = proto_->makeGuest(os::NumaMode::kOff, derive(seed_, 2));
    }

    void
    run() override
    {
        // 12 workers round-robin over the 4 nodes (Fig 9, 4 active).
        std::vector<GlobalTileId> tiles;
        for (std::uint32_t i = 0; i < 12; ++i)
            tiles.push_back((i % 4) * 12 + i / 4);
        result_ = workload::runIntSort(*guest_, tiles, cfg_);
    }

    Outcome
    check() override
    {
        const sim::StatRegistry &s = proto_->stats();
        Outcome o;
        o.attempted = 1;
        o.failed = result_.sorted ? 0 : 1;
        o.targetCycles = result_.cycles;
        o.guestOps = s.counterValue("cs.l1.hits") +
                     s.counterValue("cs.l1.storeHits") +
                     s.counterValue("cs.bpc.hits") +
                     s.counterValue("cs.bpc.misses");
        return o;
    }

  private:
    std::uint64_t seed_;
    workload::IntSortConfig cfg_;
    std::unique_ptr<os::GuestSystem> guest_;
    workload::IntSortResult result_;
};

/**
 * phased_memory: every hart makes load-add-store passes over its own
 * 64 KiB region of its node's replica, one access per line, so each
 * access misses the L1D and BPC and goes to the node's LLC or DRAM.
 * Node-local, so the stats dump is the same at any worker count.
 */
class PhasedMemory final : public Workload
{
  public:
    static constexpr std::uint64_t kLines = 1024; ///< 64 KiB per hart.
    static constexpr std::uint64_t kPasses = 6;

    PhasedMemory(std::uint64_t seed, double scale, std::uint32_t workers)
        : key_(derive(seed, 4)), passes_(scaled(kPasses, scale)),
          workers_(workers ? workers : 2)
    {
    }

    std::uint32_t workers() const override { return workers_; }

    void
    construct() override
    {
        PrototypeConfig cfg = PrototypeConfig::parse("4x1x2");
        cfg.parallel.threads = workers_;
        cfg.parallel.quantum = 63;
        proto_ = std::make_unique<Prototype>(cfg);
    }

    void
    load() override
    {
        proto_->loadSourceReplicated(R"(
_start:
    csrr t0, 0xf14
    li a1, )" + lit(key_) + R"(
    add a1, a1, t0
    andi t1, t0, 1
    slli t1, t1, 16
    la t6, region
    add t6, t6, t1
    li t2, 0
    li a2, )" + lit(passes_) + R"(
    li a4, )" + lit(kLines) + R"(
pass:
    mv t3, t6
    li t4, 0
line:
    ld t5, 0(t3)
    add t2, t2, t5
    add t5, t5, a1
    add t5, t5, t4
    sd t5, 0(t3)
    addi t3, t3, 64
    addi t4, t4, 1
    bltu t4, a4, line
    addi a2, a2, -1
    bnez a2, pass
    mv a0, t2
    li a7, 93
    ecall

.data
.align 12
region: .space 131072
)");
    }

    void
    run() override
    {
        std::vector<GlobalTileId> gids(proto_->coreCount());
        for (GlobalTileId g = 0; g < gids.size(); ++g)
            gids[g] = g;
        proto_->runCores(gids, kUnbounded);
    }

    Outcome
    check() override
    {
        return checkHarts(*proto_, skew_, [&](GlobalTileId g) {
            return memoryChecksum(key_ + g, kLines, passes_);
        });
    }

  private:
    std::uint64_t key_;
    std::uint64_t passes_;
    std::uint32_t workers_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "core_compute", "numa_intsort", "phased_memory"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, double scale,
             std::uint32_t workers)
{
    if (name == "core_compute")
        return std::make_unique<CoreCompute>(seed, scale);
    if (name == "numa_intsort")
        return std::make_unique<NumaIntSort>(seed, scale);
    if (name == "phased_memory")
        return std::make_unique<PhasedMemory>(seed, scale, workers);
    throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t
computeChecksum(std::uint64_t seed, std::uint32_t hart,
                std::uint64_t iterations)
{
    std::uint64_t x = seed ^ (kXorshiftMix * (hart + 1));
    std::uint64_t acc = 0;
    std::uint64_t line = 0;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        acc += line;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 1)
            acc += x;
        else
            acc ^= x;
        line = acc;
    }
    return acc;
}

std::uint64_t
memoryChecksum(std::uint64_t key, std::uint64_t lines, std::uint64_t passes)
{
    // Pass p loads p * (key + j) from line j, then adds key + j back.
    std::uint64_t acc = 0;
    for (std::uint64_t p = 0; p < passes; ++p) {
        for (std::uint64_t j = 0; j < lines; ++j)
            acc += p * (key + j);
    }
    return acc;
}

} // namespace perfbench
