#include "cli.hpp"

#include <charconv>
#include <type_traits>

#include "check/campaign.hpp"
#include "sim/log.hpp"

namespace smappic::cli
{
namespace
{

/** Rethrows a FatalError from a name or spec parser as a usage error. */
template <class F>
auto
usageOnFatal(F &&parse)
{
    try {
        return parse();
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
}

template <class Cfg>
void
parseFlags(const std::vector<std::string> &args, check::Campaign &c,
           Cfg &cfg)
{
    const check::CheckKind kind = check::kindOf(c.config);
    platform::PrototypeConfig &p = cfg.platform;
    bool faulty = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto num = [&](std::uint64_t min, std::uint64_t max) {
            return parseU64(a, flagValue(args, i), min, max);
        };
        const check::SizeField<Cfg> *size = nullptr;
        for (const auto &f : check::sizeFields(cfg)) {
            if (a == f.flag)
                size = &f;
        }
        if (a == "--spec") {
            auto g = usageOnFatal([&] {
                return platform::PrototypeConfig::parse(flagValue(args, i));
            });
            p.fpgas = g.fpgas;
            p.nodesPerFpga = g.nodesPerFpga;
            p.tilesPerNode = g.tilesPerNode;
        } else if (a == "--seed") {
            cfg.seed = num(0, UINT64_MAX);
        } else if (a == "--runs") {
            c.runs = num(1, UINT64_MAX);
        } else if (a == "--threads") {
            p.parallel.threads = static_cast<std::uint32_t>(num(1, 64));
        } else if (a == "--quantum") {
            p.parallel.quantum = num(1, UINT64_MAX);
        } else if (a == "--no-decode-cache") {
            p.core.decodeCache.enabled = false;
        } else if (a == "--no-data-fastpath") {
            p.core.dataFastPath = false;
        } else if (a == "--no-idle-skip") {
            p.uncore.idleSkip = false;
        } else if (a == "--faulty") {
            faulty = true;
        } else if (a == "--minimize" && kind != check::CheckKind::kLitmus) {
            c.minimize = true;
        } else if (size) {
            cfg.*size->value = static_cast<std::uint32_t>(num(1, size->max));
        } else if constexpr (std::is_same_v<Cfg, check::FuzzConfig>) {
            if (a == "--mix")
                cfg.mix = usageOnFatal(
                    [&] { return check::parseMix(flagValue(args, i)); });
            else if (a == "--defect")
                cfg.defect = usageOnFatal(
                    [&] { return check::parseDefect(flagValue(args, i)); });
            else if (a == "--shared")
                cfg.shared = true;
            else
                throw UsageError("unknown option " + a + " for fuzz");
        } else {
            throw UsageError("unknown option " + a + " for " +
                             check::kindName(kind));
        }
    }
    if (faulty)
        check::makeFaulty(p, cfg.seed);
    if constexpr (std::is_same_v<Cfg, check::FuzzConfig>) {
        // An armed defect needs a mix that actually exercises it.
        using riscv::CoreTestMutation;
        if (cfg.defect == CoreTestMutation::kStaleDecode)
            cfg.mix = check::FuzzMix::kSmc;
        else if (cfg.defect == CoreTestMutation::kMulhCorrupt &&
                 cfg.mix != check::FuzzMix::kAll)
            cfg.mix = check::FuzzMix::kMul;
    }
}

} // namespace

std::uint64_t
parseU64(std::string_view what, const std::string &text, std::uint64_t min,
         std::uint64_t max)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || ec != std::errc() || end != last)
        throw UsageError(strfmt("%.*s: bad numeric value '%s'",
                                static_cast<int>(what.size()), what.data(),
                                text.c_str()));
    if (v < min || v > max)
        throw UsageError(strfmt("%.*s: %s is out of range %llu..%llu",
                                static_cast<int>(what.size()), what.data(),
                                text.c_str(),
                                static_cast<unsigned long long>(min),
                                static_cast<unsigned long long>(max)));
    return v;
}

const std::string &
flagValue(const std::vector<std::string> &args, std::size_t &i)
{
    if (i + 1 >= args.size())
        throw UsageError(args[i] + " needs a value");
    return args[++i];
}

check::Campaign
parseCampaign(const std::vector<std::string> &args)
{
    for (const check::KindConfig &kind :
         {check::KindConfig(check::LitmusConfig{}), {check::TortureConfig{}},
          {check::FuzzConfig{}}}) {
        if (!args.empty() && args[0] == check::kindName(kindOf(kind))) {
            check::Campaign c{kind};
            std::visit([&](auto &cfg) { parseFlags(args, c, cfg); },
                       c.config);
            return c;
        }
    }
    throw UsageError("the first argument must be litmus, torture or fuzz");
}

} // namespace smappic::cli
