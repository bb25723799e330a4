#include "check/isa_fuzz.hpp"

#include <algorithm>
#include <sstream>

#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic::check
{

namespace
{

// Data layout inside node 0's DRAM channel, clear of the code window
// (the assembler places .text at the DRAM base and .data 4 MiB in).
constexpr Addr kPrivateBase = 0x8030'0000; ///< 512 B per hart.
constexpr std::uint64_t kPrivateStride = 512;
constexpr Addr kSharedBase = 0x8038'0000;
constexpr std::uint64_t kSharedBytes = 256;

/** Scratch registers the generator may clobber. x8/x9 hold the data
 *  base pointers, x29/x30 are address temporaries, and a0/a7 belong to
 *  the exit stub — none of them are in the pool. */
constexpr unsigned kWork[] = {5, 6, 7, 20, 21, 22, 23,
                              24, 25, 26, 27, 28, 31};

/** Per-hart generation state: one deterministic stream per hart. */
struct HartGen
{
    std::ostringstream &os;
    sim::Xoroshiro rng;
    std::uint32_t hart;
    std::uint32_t label = 0;

    HartGen(std::ostringstream &out, std::uint64_t seed, std::uint32_t h)
        : os(out), rng(seed ^ (0x9e3779b97f4a7c15ULL * (h + 1))), hart(h)
    {
    }

    unsigned reg() { return kWork[rng.below(std::size(kWork))]; }

    void
    aluSlot()
    {
        static const char *two[] = {"add",  "sub",  "and",  "or",
                                    "xor",  "sll",  "srl",  "sra",
                                    "slt",  "sltu", "addw", "subw",
                                    "sllw", "srlw", "sraw"};
        static const char *immop[] = {"addi", "andi",  "ori", "xori",
                                      "slti", "sltiu", "addiw"};
        static const char *br[] = {"beq", "bne",  "blt",
                                   "bge", "bltu", "bgeu"};
        std::uint64_t roll = rng.below(10);
        if (roll < 5) {
            os << "  " << two[rng.below(std::size(two))] << " x" << reg()
               << ", x" << reg() << ", x" << reg() << "\n";
        } else if (roll < 8) {
            auto imm = static_cast<std::int64_t>(rng.below(4096)) - 2048;
            os << "  " << immop[rng.below(std::size(immop))] << " x"
               << reg() << ", x" << reg() << ", " << imm << "\n";
        } else if (roll < 9) {
            os << "  lui x" << reg() << ", " << rng.below(1ULL << 20)
               << "\n";
        } else {
            // Forward-only branch over a bounded filler window: taken or
            // not, control flow reconverges and termination is trivial.
            std::string lbl = "fz_h" + std::to_string(hart) + "_l" +
                              std::to_string(label++);
            os << "  " << br[rng.below(std::size(br))] << " x" << reg()
               << ", x" << reg() << ", " << lbl << "\n";
            std::uint64_t fill = 1 + rng.below(3);
            for (std::uint64_t i = 0; i < fill; ++i)
                os << "  addi x" << reg() << ", x" << reg() << ", "
                   << static_cast<std::int64_t>(rng.below(64)) - 32
                   << "\n";
            os << lbl << ":\n";
        }
    }

    void
    mulSlot()
    {
        static const char *m[] = {"mul",   "mulh", "mulhu", "mulhsu",
                                  "mulw",  "div",  "divu",  "rem",
                                  "remu",  "divw", "divuw", "remw",
                                  "remuw"};
        if (rng.chance(0.2)) {
            // Re-bias an operand toward the spec's corner values so the
            // div-by-zero / INT_MIN overflow semantics keep firing.
            static const std::int64_t corner[] = {0, -1, INT64_MIN,
                                                  INT32_MIN};
            os << "  li x" << reg() << ", "
               << corner[rng.below(std::size(corner))] << "\n";
        }
        os << "  " << m[rng.below(std::size(m))] << " x" << reg()
           << ", x" << reg() << ", x" << reg() << "\n";
    }

    void
    memSlot()
    {
        static const char *ld[] = {"lb", "lh",  "lw",  "ld",
                                   "lbu", "lhu", "lwu"};
        static const char *st[] = {"sb", "sh", "sw", "sd"};
        static const std::uint32_t ldsz[] = {1, 2, 4, 8, 1, 2, 4};
        static const std::uint32_t stsz[] = {1, 2, 4, 8};
        if (rng.chance(0.5)) {
            std::uint64_t i = rng.below(std::size(ld));
            std::uint64_t off =
                rng.below(kPrivateStride - 8) & ~(ldsz[i] - 1ULL);
            os << "  " << ld[i] << " x" << reg() << ", " << off
               << "(x8)\n";
        } else {
            std::uint64_t i = rng.below(std::size(st));
            std::uint64_t off =
                rng.below(kPrivateStride - 8) & ~(stsz[i] - 1ULL);
            os << "  " << st[i] << " x" << reg() << ", " << off
               << "(x8)\n";
        }
    }

    void
    amoSlot()
    {
        static const char *amo[] = {"amoswap", "amoadd",  "amoxor",
                                    "amoand",  "amoor",   "amomin",
                                    "amomax",  "amominu", "amomaxu"};
        std::uint64_t roll = rng.below(8);
        bool dbl = rng.chance(0.5);
        const char *sfx = dbl ? "d" : "w";
        std::uint64_t off =
            rng.below(kPrivateStride - 8) & ~(dbl ? 7ULL : 3ULL);
        if (roll < 3) {
            os << "  addi x29, x8, " << off << "\n";
            os << "  " << amo[rng.below(std::size(amo))] << "." << sfx
               << " x" << reg() << ", x" << reg() << ", (x29)\n";
        } else if (roll < 5) {
            // LR/SC pairs stay contiguous: a filler between them could
            // clobber the address register or the reservation.
            os << "  addi x29, x8, " << off << "\n";
            os << "  lr." << sfx << " x" << reg() << ", (x29)\n";
            os << "  sc." << sfx << " x" << reg() << ", x" << reg()
               << ", (x29)\n";
        } else {
            memSlot();
        }
    }

    void
    csrSlot()
    {
        static const std::uint16_t counters[] = {0xc00, 0xc01, 0xc02,
                                                 0xf14, 0x344};
        switch (rng.below(9)) {
          case 0:
            os << "  csrw 0x340, x" << reg() << "\n"; // mscratch
            break;
          case 1:
            os << "  csrr x" << reg() << ", 0x340\n";
            break;
          case 2:
            os << "  csrrw x" << reg() << ", 0x341, x" << reg()
               << "\n"; // mepc: exercises the IALIGN WARL mask.
            break;
          case 3:
            os << "  csrrs x" << reg() << ", 0x343, x" << reg()
               << "\n"; // mtval
            break;
          case 4:
            os << "  csrrc x" << reg() << ", 0x342, x" << reg()
               << "\n"; // mcause
            break;
          case 5:
            // mstatus: exercises the writable-field mask and the MPP
            // legalizer. mie stays 0, so flipping MIE is inert.
            os << "  csrw 0x300, x" << reg() << "\n";
            break;
          case 6:
            // Env-synced reads: counters, mhartid, mip.
            os << "  csrr x" << reg() << ", 0x"
               << std::hex << counters[rng.below(std::size(counters))]
               << std::dec << "\n";
            break;
          case 7: {
              // satp with a known-bare mode nibble (never 8: enabling
              // Sv39 would park the checker in sync-only mode for the
              // rest of the stream). Reserved modes exercise the WARL
              // ignore-write choice.
              std::uint64_t v = rng.next();
              if ((v >> 60) == 8)
                  v &= 0x0fff'ffff'ffff'ffffULL;
              os << "  li x7, " << static_cast<std::int64_t>(v) << "\n";
              os << "  csrw 0x180, x7\n";
              break;
          }
          default:
            // mtvec: arbitrary values are safe (fuzz bodies never trap)
            // and exercise the mode legalizer.
            os << "  csrw 0x305, x" << reg() << "\n";
            break;
        }
    }

    void
    sharedSlot()
    {
        std::uint64_t roll = rng.below(6);
        bool dbl = rng.chance(0.5);
        std::uint64_t off =
            rng.below(kSharedBytes - 8) & ~(dbl ? 7ULL : 3ULL);
        os << "  addi x30, x9, " << off << "\n";
        if (roll < 3) {
            os << "  " << (dbl ? "ld" : "lw") << " x" << reg()
               << ", 0(x30)\n";
        } else if (roll < 5) {
            os << "  " << (dbl ? "sd" : "sw") << " x" << reg()
               << ", 0(x30)\n";
        } else {
            os << "  " << (dbl ? "amoadd.d" : "amoadd.w") << " x"
               << reg() << ", x" << reg() << ", (x30)\n";
        }
    }

    void
    slot(FuzzMix mix, bool shared)
    {
        if (shared && rng.chance(0.15)) {
            sharedSlot();
            return;
        }
        switch (mix) {
          case FuzzMix::kAlu: aluSlot(); break;
          case FuzzMix::kMul: mulSlot(); break;
          case FuzzMix::kMem: memSlot(); break;
          case FuzzMix::kAmo: amoSlot(); break;
          case FuzzMix::kCsr: csrSlot(); break;
          default: {
              std::uint64_t roll = rng.below(100);
              if (roll < 35)
                  aluSlot();
              else if (roll < 55)
                  mulSlot();
              else if (roll < 75)
                  memSlot();
              else if (roll < 90)
                  amoSlot();
              else
                  csrSlot();
              break;
          }
        }
    }
};

/** Encoding of `addi x20, x20, k` (the SMC patch-table payload). */
std::uint32_t
addiX20(std::uint32_t k)
{
    return 0x13u | (20u << 7) | (20u << 15) | (k << 20);
}

/**
 * Per-hart self-modifying patch loop: each round loads the next word
 * from the hart's patch table, stores it over the patch point, then
 * executes it. The platform's write stamps must invalidate the decode
 * cache entry every round — exactly the defect class kStaleDecode
 * suppresses (a hart's own store never recalls its own L1I line; only
 * the stamps catch it).
 */
void
emitSmcBody(std::ostringstream &os, std::uint32_t hart,
            std::uint32_t rounds)
{
    std::string h = std::to_string(hart);
    os << "  la x8, fz_words_" << h << "\n";
    os << "  la x25, fz_patch_" << h << "\n";
    os << "  li x20, 0\n";
    os << "  li x21, 0\n";
    os << "  li x22, " << rounds << "\n";
    os << "fz_loop_" << h << ":\n";
    os << "  slli x23, x21, 2\n";
    os << "  add x23, x23, x8\n";
    os << "  lw x24, 0(x23)\n";
    os << "  sw x24, 0(x25)\n";
    os << "fz_patch_" << h << ":\n";
    os << "  addi x20, x20, 1\n"; // Overwritten before every round.
    os << "  addi x21, x21, 1\n";
    os << "  blt x21, x22, fz_loop_" << h << "\n";
    os << "  j fz_exit\n";
    os << "fz_words_" << h << ":\n";
    for (std::uint32_t r = 0; r < rounds; ++r)
        os << "  .word " << addiX20(1 + (r % 31)) << "\n";
}

} // namespace

FuzzConfig::FuzzConfig()
    : platform(platform::PrototypeConfig::parse("1x1x2"))
{
}

const char *
mixName(FuzzMix mix)
{
    switch (mix) {
      case FuzzMix::kAlu: return "alu";
      case FuzzMix::kMul: return "mul";
      case FuzzMix::kMem: return "mem";
      case FuzzMix::kAmo: return "amo";
      case FuzzMix::kCsr: return "csr";
      case FuzzMix::kAll: return "all";
      case FuzzMix::kSmc: return "smc";
    }
    return "?";
}

FuzzMix
parseMix(const std::string &name)
{
    for (FuzzMix m : {FuzzMix::kAlu, FuzzMix::kMul, FuzzMix::kMem,
                      FuzzMix::kAmo, FuzzMix::kCsr, FuzzMix::kAll,
                      FuzzMix::kSmc}) {
        if (name == mixName(m))
            return m;
    }
    fatal("unknown fuzz mix: " + name);
}

const char *
defectName(riscv::CoreTestMutation defect)
{
    static const char *const kNames[] = {"none", "mulh", "stale-decode"};
    return kNames[static_cast<std::size_t>(defect)];
}

riscv::CoreTestMutation
parseDefect(const std::string &name)
{
    for (auto d : {riscv::CoreTestMutation::kMulhCorrupt,
                   riscv::CoreTestMutation::kStaleDecode}) {
        if (name == defectName(d))
            return d;
    }
    fatal("unknown defect: " + name);
}

std::string
generateFuzzProgram(const FuzzConfig &cfg, std::uint32_t harts)
{
    std::ostringstream os;
    // mhartid dispatch header, torture style: each hart branches to its
    // own stream; unknown harts fall through to the exit stub. The
    // conditional branch lands on a nearby `j` trampoline because hart
    // bodies can grow past the +-4 KiB B-type range (jal reaches
    // +-1 MiB).
    os << "  csrr x5, 0xf14\n";
    for (std::uint32_t h = 0; h < harts; ++h) {
        os << "  li x6, " << h << "\n";
        os << "  beq x5, x6, fz_tramp_" << h << "\n";
    }
    os << "  j fz_exit\n";
    for (std::uint32_t h = 0; h < harts; ++h) {
        os << "fz_tramp_" << h << ":\n";
        os << "  j fz_core_" << h << "\n";
    }

    for (std::uint32_t h = 0; h < harts; ++h) {
        os << "fz_core_" << h << ":\n";
        if (cfg.mix == FuzzMix::kSmc) {
            std::uint32_t rounds = std::clamp<std::uint32_t>(
                cfg.count / 8, 2, 64);
            emitSmcBody(os, h, rounds);
            continue;
        }
        HartGen gen(os, cfg.seed, h);
        os << "  li x8, "
           << (kPrivateBase + static_cast<std::uint64_t>(h) *
                                  kPrivateStride)
           << "\n";
        os << "  li x9, " << kSharedBase << "\n";
        for (unsigned r : kWork)
            os << "  li x" << r << ", "
               << static_cast<std::int64_t>(gen.rng.next()) << "\n";
        for (std::uint32_t i = 0; i < cfg.count; ++i)
            gen.slot(cfg.mix, cfg.shared);
        os << "  j fz_exit\n";
    }

    os << "fz_exit:\n";
    os << "  li x10, 0\n";
    os << "  li x17, 93\n";
    os << "  ecall\n";
    os << "fz_spin:\n";
    os << "  j fz_spin\n";
    return os.str();
}

FuzzResult
runFuzz(const FuzzConfig &cfg)
{
    platform::PrototypeConfig pcfg = cfg.platform;
    pcfg.lockstep.enabled = true;
    if (cfg.shared)
        pcfg.lockstep.shared.emplace_back(kSharedBase, kSharedBytes);

    platform::Prototype proto(pcfg);
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g)
        proto.core(g).setTestMutation(cfg.defect);
    proto.loadSource(generateFuzzProgram(cfg, proto.coreCount()));

    std::vector<GlobalTileId> gids;
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g)
        gids.push_back(g);
    proto.runCores(gids, 2'000'000);

    FuzzResult r;
    r.commits = proto.lockstep()->commits();
    r.divergences = proto.lockstep()->divergences();
    r.diverged = !r.divergences.empty();
    r.exitedCleanly = true;
    for (GlobalTileId g = 0; g < proto.coreCount(); ++g)
        r.exitedCleanly = r.exitedCleanly && proto.core(g).exited();
    return r;
}

} // namespace smappic::check
