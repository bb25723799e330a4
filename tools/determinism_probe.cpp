/**
 * @file
 * Determinism probe for the phased parallel engine, built for CI diffing.
 *
 * Runs a fixed cross-node workload (MSIP ping-pong between node 0 and the
 * last node, plus a node-local compute loop on every other hart) on a
 * given config with a given worker count and quantum, then prints a
 * machine-diffable report: per-hart exit codes, an FNV-1a fingerprint of
 * every node's guest-visible data region, and the full stat registry.
 *
 * The CI determinism job runs this binary with threads = 1, 2 and 4 at
 * the same quantum and diffs the outputs byte for byte: any divergence —
 * a stat, an exit code, a single guest byte — fails the build.
 *
 * Usage: determinism_probe <AxBxC> <threads> <quantum> [budget]
 *                          [--trace <path>]
 *
 * With --trace, the run also records a full platform trace and writes it
 * to <path> in the binary format; the trace CI job diffs these files
 * across worker counts the same way (they are bit-identical by design).
 *
 * A malformed number, an unknown argument or a flag missing its value
 * is a usage error (exit 2).
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "platform/prototype.hpp"

using namespace smappic;
using platform::Prototype;
using platform::PrototypeConfig;

namespace
{

/** Workload template; @LAST@ is replaced with the highest hart id. */
constexpr const char *kWorkloadTemplate = R"(
_start:
    csrr t0, 0xf14       # mhartid
    li t1, @LAST@
    beq t0, zero, pinger
    beq t0, t1, ponger
compute:                 # Node-local work on every other hart.
    li t2, 0
    li t3, 0
    li t4, 3000
loop:
    add t3, t3, t2
    addi t2, t2, 1
    bne t2, t4, loop
    la t5, sum
    sd t3, 0(t5)
    andi a0, t3, 0x3f
    li a7, 93
    ecall
pinger:
    la t0, h0
    csrw 0x305, t0       # mtvec
    li t2, 0x8
    csrw 0x304, t2       # mie.MSIE
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3       # mstatus.MIE
    li t1, @LAST@
    slli t1, t1, 2
    li t2, 0x02000000    # CLINT MSIP of the last hart
    add t1, t1, t2
    li t2, 1
    sw t2, 0(t1)
w0: wfi
    j w0
h0:
    li a0, 5
    li a7, 93
    ecall
ponger:
    la t0, h1
    csrw 0x305, t0
    li t2, 0x8
    csrw 0x304, t2
    csrr t3, 0x300
    ori t3, t3, 8
    csrw 0x300, t3
w1: wfi
    j w1
h1:
    la t3, flag
    li t4, 1
    sd t4, 0(t3)
    li t1, 0x02000000    # CLINT MSIP of hart 0
    li t2, 1
    sw t2, 0(t1)
    li a0, 7
    li a7, 93
    ecall

.data
.align 3
flag: .dword 0
sum:  .dword 0
)";

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    PrototypeConfig cfg;
    std::uint64_t budget = 500'000;
    try {
        if (args.size() < 3)
            throw cli::UsageError("needs <AxBxC> <threads> <quantum>");
        cfg = PrototypeConfig::parse(args[0]);
        cfg.parallel.threads = static_cast<std::uint32_t>(
            cli::parseU64("threads", args[1], 1, 64));
        cfg.parallel.quantum = cli::parseU64("quantum", args[2]);
        bool have_budget = false;
        for (std::size_t i = 3; i < args.size(); ++i) {
            if (args[i] == "--trace") {
                cfg.trace.enabled = true;
                cfg.trace.path = cli::flagValue(args, i);
            } else if (!have_budget) {
                budget = cli::parseU64("budget", args[i]);
                have_budget = true;
            } else {
                throw cli::UsageError("unexpected argument " + args[i]);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "%s: %s\nusage: %s <AxBxC> <threads> <quantum> "
                     "[budget] [--trace <path>]\n",
                     argv[0], e.what(), argv[0]);
        return 2;
    }
    Prototype proto(cfg);

    std::string source = kWorkloadTemplate;
    const std::string token = "@LAST@";
    const std::string last = std::to_string(cfg.totalTiles() - 1);
    for (std::size_t at = source.find(token); at != std::string::npos;
         at = source.find(token, at + last.size()))
        source.replace(at, token.size(), last);

    riscv::Program prog = proto.loadSourceReplicated(source);
    std::vector<GlobalTileId> gids;
    for (GlobalTileId g = 0; g < cfg.totalTiles(); ++g)
        gids.push_back(g);
    proto.runCores(gids, budget);
    if (cfg.trace.enabled)
        proto.writeTrace();

    // The report deliberately omits the threads/quantum arguments so that
    // outputs from different worker counts diff clean.
    std::printf("config: %s harts: %u\n", args[0].c_str(),
                cfg.totalTiles());
    for (GlobalTileId g = 0; g < cfg.totalTiles(); ++g) {
        std::printf("hart %u: exited=%d code=%" PRId64 "\n", g,
                    proto.core(g).exited() ? 1 : 0,
                    proto.core(g).exitCode());
    }

    // Fingerprint each node's replica of the program data region.
    const Addr data_base = prog.symbol("flag") & ~Addr{0xfff};
    for (NodeId n = 0; n < cfg.totalNodes(); ++n) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        Addr base = data_base + n * cfg.memPerNode;
        for (Addr a = base; a < base + 0x1000; a += 8)
            h = fnv1a(h, proto.memory().load(a, 8));
        std::printf("node %u data fingerprint: %016" PRIx64 "\n", n, h);
    }

    std::printf("--- stats ---\n");
    std::ostringstream os;
    proto.stats().dump(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
