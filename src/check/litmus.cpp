#include "check/litmus.hpp"

#include <algorithm>
#include <sstream>

#include "sim/log.hpp"
#include "sim/random.hpp"

namespace smappic::check
{

LitmusConfig::LitmusConfig()
    : platform(platform::PrototypeConfig::parse("2x1x2"))
{
    platform.check.enabled = true;
}

namespace
{

/** Replaces every `%t` in @p body with the thread index @p t. */
std::string
mangle(const std::string &body, std::size_t t)
{
    std::string out;
    out.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '%' && i + 1 < body.size() && body[i + 1] == 't') {
            out += std::to_string(t);
            ++i;
        } else {
            out += body[i];
        }
    }
    return out;
}

} // namespace

std::string
emitLitmusAsm(const LitmusTest &test,
              const std::vector<GlobalTileId> &harts,
              const std::vector<std::uint32_t> &skews)
{
    fatalIf(test.locations.empty() || test.locations.size() > 4,
            "litmus test '" + test.name + "': need 1..4 locations");
    fatalIf(test.threads.empty() || test.threads.size() > harts.size(),
            "litmus test '" + test.name + "': bad thread/hart count");
    fatalIf(skews.size() != test.threads.size(),
            "litmus test '" + test.name + "': one skew per thread");

    static const char *kLocRegs[4] = {"s2", "s3", "s4", "s5"};

    std::ostringstream os;
    os << "_start:\n";
    os << "    csrr a0, 0xf14\n"; // mhartid
    for (std::size_t j = 0; j < test.threads.size(); ++j) {
        os << "    li a1, " << harts[j] << "\n";
        os << "    beq a0, a1, entry_" << j << "\n";
    }
    // A hart outside the placement just exits cleanly.
    os << "    li a0, 0\n    li a7, 93\n    ecall\n";

    for (std::size_t j = 0; j < test.threads.size(); ++j) {
        const LitmusThread &th = test.threads[j];
        os << "entry_" << j << ":\n";
        // Start skew: a short counted delay loop shifts this thread's
        // first racing access relative to the others.
        os << "    li a5, " << skews[j] << "\n";
        os << "skew_" << j << ":\n";
        os << "    beqz a5, go_" << j << "\n";
        os << "    addi a5, a5, -1\n";
        os << "    j skew_" << j << "\n";
        os << "go_" << j << ":\n";
        for (std::size_t l = 0; l < test.locations.size(); ++l)
            os << "    la " << kLocRegs[l] << ", " << test.locations[l]
               << "\n";
        os << mangle(th.body, j);
        if (!th.body.empty() && th.body.back() != '\n')
            os << "\n";
        if (!th.observed.empty()) {
            os << "    la a4, res_" << j << "\n";
            for (std::size_t k = 0; k < th.observed.size(); ++k)
                os << "    sd " << th.observed[k] << ", " << 8 * k
                   << "(a4)\n";
        }
        os << "    li a0, 0\n    li a7, 93\n    ecall\n";
    }

    os << "\n.data\n";
    for (const std::string &loc : test.locations)
        os << ".align 6\n" << loc << ": .dword 0\n"; // own cache line
    for (std::size_t j = 0; j < test.threads.size(); ++j) {
        if (test.threads[j].observed.empty())
            continue;
        os << ".align 6\nres_" << j << ":\n";
        for (std::size_t k = 0; k < test.threads[j].observed.size(); ++k)
            os << "    .dword 0\n";
    }
    return os.str();
}

std::vector<GlobalTileId>
litmusPlacement(const platform::PrototypeConfig &cfg, std::size_t threads)
{
    fatalIf(threads > cfg.totalTiles(),
            "litmus placement: more threads than harts");
    std::uint32_t nodes = cfg.totalNodes();
    std::vector<GlobalTileId> harts;
    for (std::size_t j = 0; j < threads; ++j) {
        std::uint32_t node = static_cast<std::uint32_t>(j) % nodes;
        std::uint32_t tile = static_cast<std::uint32_t>(j) / nodes;
        harts.push_back(node * cfg.tilesPerNode + tile);
    }
    return harts;
}

std::string
LitmusResult::histogram() const
{
    // Outcome tuple -> count, first-seen order.
    std::vector<std::pair<std::vector<std::uint64_t>, std::uint64_t>> h;
    for (const LitmusOutcome &o : outcomes) {
        auto it = std::find_if(h.begin(), h.end(), [&](const auto &e) {
            return e.first == o.values;
        });
        if (it == h.end())
            h.emplace_back(o.values, 1);
        else
            it->second += 1;
    }
    std::ostringstream os;
    for (std::size_t i = 0; i < h.size(); ++i) {
        if (i)
            os << "  ";
        for (std::size_t k = 0; k < h[i].first.size(); ++k)
            os << (k ? "," : "") << h[i].first[k];
        os << " x" << h[i].second;
    }
    return os.str();
}

LitmusResult
runLitmus(const LitmusTest &test, const LitmusConfig &cfg)
{
    std::vector<GlobalTileId> harts =
        litmusPlacement(cfg.platform, test.threads.size());
    sim::Xoroshiro rng(cfg.seed);

    LitmusResult res;
    res.test = test.name;
    for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
        std::vector<std::uint32_t> skews = cfg.fixedSkews;
        if (skews.empty()) {
            for (std::size_t j = 0; j < test.threads.size(); ++j)
                skews.push_back(
                    static_cast<std::uint32_t>(rng.next() % 48));
        }

        platform::Prototype proto(cfg.platform);
        // One single copy (not replicated): every thread races over the
        // same physical locations, crossing the bridge from remote nodes.
        riscv::Program prog =
            proto.loadSource(emitLitmusAsm(test, harts, skews));
        if (cfg.preRun)
            cfg.preRun(proto, prog);
        proto.runCores(harts, cfg.maxInstructions);

        LitmusOutcome out;
        for (std::size_t j = 0; j < test.threads.size(); ++j) {
            if (test.threads[j].observed.empty())
                continue;
            Addr base = prog.symbol("res_" + std::to_string(j));
            for (std::size_t k = 0; k < test.threads[j].observed.size();
                 ++k)
                out.values.push_back(proto.memory().load(base + 8 * k, 8));
        }
        out.allowed = std::find(test.allowed.begin(), test.allowed.end(),
                                out.values) != test.allowed.end();
        res.outcomes.push_back(std::move(out));

        if (CoherenceChecker *chk = proto.checker()) {
            chk->sweep(); // end-of-run whole-state validation
            res.checkerViolations += chk->violationCount();
        }
    }

    res.passed = res.checkerViolations == 0 &&
                 std::all_of(res.outcomes.begin(), res.outcomes.end(),
                             [](const LitmusOutcome &o) {
                                 return o.allowed;
                             });
    return res;
}

namespace
{

/** All 2^n binary tuples except the listed forbidden ones. */
std::vector<std::vector<std::uint64_t>>
allBinaryExcept(std::size_t n,
                const std::vector<std::vector<std::uint64_t>> &forbidden)
{
    std::vector<std::vector<std::uint64_t>> out;
    for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
        std::vector<std::uint64_t> tuple;
        for (std::size_t k = 0; k < n; ++k)
            tuple.push_back((bits >> k) & 1);
        if (std::find(forbidden.begin(), forbidden.end(), tuple) ==
            forbidden.end())
            out.push_back(tuple);
    }
    return out;
}

} // namespace

std::vector<LitmusTest>
standardLitmusSuite()
{
    std::vector<LitmusTest> suite;

    // SB: both store then read the other's location; SC forbids both
    // reads missing both stores.
    suite.push_back(LitmusTest{
        "SB",
        {"x", "y"},
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n"
          "    ld t0, 0(s3)\n",
          {"t0"}},
         {"    li t1, 1\n"
          "    sd t1, 0(s3)\n"
          "    ld t0, 0(s2)\n",
          {"t0"}}},
        allBinaryExcept(2, {{0, 0}}),
    });

    // MP: writer publishes data then flag; a reader that saw the flag
    // must see the data.
    suite.push_back(LitmusTest{
        "MP",
        {"x", "y"}, // x = data, y = flag
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n"
          "    sd t1, 0(s3)\n",
          {}},
         {"    ld t0, 0(s3)\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        allBinaryExcept(2, {{1, 0}}),
    });

    // MP+spin: the reader spins (bounded) on the flag, making the
    // forbidden stale-data window much more likely to be exercised.
    suite.push_back(LitmusTest{
        "MP+spin",
        {"x", "y"},
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n"
          "    sd t1, 0(s3)\n",
          {}},
         {"    li a2, 0\n"
          "spin%t:\n"
          "    ld t0, 0(s3)\n"
          "    bnez t0, seen%t\n"
          "    addi a2, a2, 1\n"
          "    li a3, 2000\n"
          "    blt a2, a3, spin%t\n"
          "seen%t:\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        allBinaryExcept(2, {{1, 0}}),
    });

    // LB: both read then store the other's location; SC forbids both
    // reads observing the (program-order later) stores.
    suite.push_back(LitmusTest{
        "LB",
        {"x", "y"},
        {{"    ld t0, 0(s3)\n"
          "    li t1, 1\n"
          "    sd t1, 0(s2)\n",
          {"t0"}},
         {"    ld t0, 0(s2)\n"
          "    li t1, 1\n"
          "    sd t1, 0(s3)\n",
          {"t0"}}},
        allBinaryExcept(2, {{1, 1}}),
    });

    // CoRR: two reads of one location may not observe a write then
    // un-observe it.
    suite.push_back(LitmusTest{
        "CoRR",
        {"x"},
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n",
          {}},
         {"    ld t0, 0(s2)\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        allBinaryExcept(2, {{1, 0}}),
    });

    // CoWW: same-location writes are totally ordered; reads observe a
    // non-decreasing prefix 0 -> 1 -> 2.
    suite.push_back(LitmusTest{
        "CoWW",
        {"x"},
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n"
          "    li t1, 2\n"
          "    sd t1, 0(s2)\n",
          {}},
         {"    ld t0, 0(s2)\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}},
    });

    // IRIW: two independent writers, two readers reading in opposite
    // order; SC forbids the readers disagreeing on the write order.
    suite.push_back(LitmusTest{
        "IRIW",
        {"x", "y"},
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n",
          {}},
         {"    li t1, 1\n"
          "    sd t1, 0(s3)\n",
          {}},
         {"    ld t0, 0(s2)\n"
          "    ld t1, 0(s3)\n",
          {"t0", "t1"}},
         {"    ld t0, 0(s3)\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        allBinaryExcept(4, {{1, 0, 1, 0}}),
    });

    return suite;
}

LitmusTest
mutationCatchTest()
{
    // MP where the reader first pulls the data line into its private
    // caches. With TestMutation::kLostInvalidation armed on the data
    // line, the writer's store fails to invalidate that copy, so the
    // reader sees the flag yet still reads stale data = 0: the forbidden
    // (1, 0) outcome. On unmutated code this is plain MP and must pass.
    return LitmusTest{
        "MP+preload",
        {"x", "y"}, // x = data, y = flag
        {{"    li t1, 1\n"
          "    sd t1, 0(s2)\n"
          "    sd t1, 0(s3)\n",
          {}},
         {"    ld t2, 0(s2)\n" // preload the data line (shared copy)
          "    li a2, 0\n"
          "spin%t:\n"
          "    ld t0, 0(s3)\n"
          "    bnez t0, seen%t\n"
          "    addi a2, a2, 1\n"
          "    li a3, 4000\n"
          "    blt a2, a3, spin%t\n"
          "seen%t:\n"
          "    ld t1, 0(s2)\n",
          {"t0", "t1"}}},
        allBinaryExcept(2, {{1, 0}}),
    };
}

} // namespace smappic::check
