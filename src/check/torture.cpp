#include "check/torture.hpp"

#include <sstream>

#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic::check
{

constexpr std::uint32_t kSlotsPerLine = kCacheLineBytes / 8;

TortureConfig::TortureConfig()
    : platform(platform::PrototypeConfig::parse("2x1x2"))
{
    platform.check.enabled = true;
}

TortureProgram
generateTorture(const TortureConfig &cfg)
{
    fatalIf(cfg.sharedLines == 0 || cfg.sharedLines > 32,
            "torture: sharedLines must be in 1..32 (imm12 addressing)");
    fatalIf(cfg.opsPerCore == 0, "torture: opsPerCore must be positive");

    std::uint32_t ncores = cfg.platform.totalTiles();
    std::uint32_t nslots = cfg.sharedLines * kSlotsPerLine;

    TortureProgram out;
    out.finalSlots.assign(nslots, 0);
    out.checksums.assign(ncores, 0);

    std::ostringstream os;
    // mhartid dispatch: each conditional branch lands on a nearby `j`
    // trampoline, because the core bodies can put core_N past the
    // +-4 KiB B-type range (jal reaches +-1 MiB).
    os << "_start:\n    csrr a0, 0xf14\n";
    for (std::uint32_t c = 0; c < ncores; ++c) {
        os << "    li a1, " << c << "\n";
        os << "    beq a0, a1, tramp_" << c << "\n";
    }
    os << "    li a0, 0\n    li a7, 93\n    ecall\n";
    for (std::uint32_t c = 0; c < ncores; ++c)
        os << "tramp_" << c << ":\n    j core_" << c << "\n";

    for (std::uint32_t c = 0; c < ncores; ++c) {
        // Slot ownership: global slot G belongs to core G % ncores, so
        // every shared line is written by several cores (false sharing)
        // while no two cores ever write the same byte.
        std::vector<std::uint32_t> own;
        std::vector<std::uint32_t> foreign;
        for (std::uint32_t g = 0; g < nslots; ++g)
            (g % ncores == c ? own : foreign).push_back(g);
        panicIf(own.empty(), "torture: a core owns no slots");
        if (foreign.empty())
            foreign = own; // single-core degenerate case

        // Golden replay runs alongside emission: a core's own slots are
        // written only by itself, so the value an own-slot load returns
        // is its last own store regardless of global interleaving.
        std::vector<std::uint64_t> image(nslots, 0);

        sim::Xoroshiro rng(cfg.seed * 0x9e3779b97f4a7c15ULL + c + 1);
        os << "core_" << c << ":\n";
        os << "    la s0, shared\n";
        os << "    li s1, 0\n";
        for (std::uint32_t i = 0; i < cfg.opsPerCore; ++i) {
            std::uint64_t kind = rng.next() % 100;
            if (kind < 45) { // store to an own slot
                std::uint32_t g = own[rng.next() % own.size()];
                std::uint64_t val = rng.next() & 0xffffffffULL;
                os << "    li a3, " << val << "\n";
                os << "    sd a3, " << g * 8 << "(s0)\n";
                image[g] = val;
                out.finalSlots[g] = val;
            } else if (kind < 75) { // load an own slot into the checksum
                std::uint32_t g = own[rng.next() % own.size()];
                os << "    ld a3, " << g * 8 << "(s0)\n";
                os << "    xor s1, s1, a3\n";
                out.checksums[c] ^= image[g];
            } else { // load a foreign slot: coherence traffic only
                std::uint32_t g = foreign[rng.next() % foreign.size()];
                os << "    ld a2, " << g * 8 << "(s0)\n";
            }
        }
        os << "    la a4, chk\n";
        os << "    sd s1, " << c * 8 << "(a4)\n";
        os << "    li a0, 0\n    li a7, 93\n    ecall\n";
    }

    os << "\n.data\n.align 6\nshared:\n";
    os << "    .space " << nslots * 8 << "\n";
    os << ".align 6\nchk:\n";
    os << "    .space " << ncores * 8 << "\n";
    out.source = os.str();
    return out;
}

TortureReport
runTorture(const TortureConfig &cfg)
{
    std::uint32_t ncores = cfg.platform.totalTiles();
    TortureProgram gen = generateTorture(cfg);
    TortureReport rep;

    platform::Prototype proto(cfg.platform);
    riscv::Program prog = proto.loadSource(gen.source);
    if (cfg.preRun)
        cfg.preRun(proto, prog);

    std::vector<GlobalTileId> gids;
    for (std::uint32_t c = 0; c < ncores; ++c)
        gids.push_back(c);
    proto.runCores(gids, cfg.maxInstructions);

    auto mismatch = [&](const std::string &what) {
        if (rep.mismatches.size() < 32)
            rep.mismatches.push_back(what);
        else if (rep.mismatches.size() == 32)
            rep.mismatches.push_back("... (further mismatches elided)");
    };

    for (std::uint32_t c = 0; c < ncores; ++c) {
        if (!proto.core(c).exited())
            mismatch(strfmt("core %u did not exit", c));
        else if (proto.core(c).exitCode() != 0)
            mismatch(strfmt("core %u exited with %lld", c,
                            static_cast<long long>(
                                proto.core(c).exitCode())));
    }

    Addr shared = prog.symbol("shared");
    for (std::uint32_t g = 0; g < gen.finalSlots.size(); ++g) {
        std::uint64_t got = proto.memory().load(shared + g * 8, 8);
        if (got != gen.finalSlots[g])
            mismatch(strfmt("slot %u (line %u, owner %u): got 0x%llx, "
                            "golden 0x%llx",
                            g, g / kSlotsPerLine, g % ncores,
                            static_cast<unsigned long long>(got),
                            static_cast<unsigned long long>(
                                gen.finalSlots[g])));
    }
    Addr chk = prog.symbol("chk");
    for (std::uint32_t c = 0; c < ncores; ++c) {
        std::uint64_t got = proto.memory().load(chk + c * 8, 8);
        if (got != gen.checksums[c])
            mismatch(strfmt("core %u checksum: got 0x%llx, golden 0x%llx",
                            c, static_cast<unsigned long long>(got),
                            static_cast<unsigned long long>(
                                gen.checksums[c])));
    }

    if (const sim::FaultInjector *fi = proto.faultInjector())
        rep.faultsInjected = fi->dropsInjected() + fi->corruptionsInjected() +
                             fi->delaysInjected() + fi->slvErrsInjected();
    rep.retransmits = proto.stats().counterValue("bridge.retransmits");

    if (CoherenceChecker *chkr = proto.checker()) {
        chkr->sweep();
        rep.checkerViolations = chkr->violationCount();
    }

    rep.passed = rep.mismatches.empty() && rep.checkerViolations == 0;
    return rep;
}

} // namespace smappic::check
