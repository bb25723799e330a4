/**
 * @file
 * Checkpoint control CLI for the SMCK format (src/snap/): offline
 * inspection of checkpoint files plus a self-contained run/resume
 * harness the crash-recovery CI job drives.
 *
 * Subcommands:
 *   inspect <file>       Print header, kMeta and the section table.
 *   validate <file>      Full structural + CRC validation; exit 1 on
 *                        any problem.
 *   diff <a> <b>         Section-level comparison; exit 1 when the
 *                        files differ.
 *   run [flags]          Run the deterministic torture workload with
 *                        periodic checkpoints, then dump stats/trace.
 *   resume [flags]       Restore the latest checkpoint (or --from) and
 *                        continue the interrupted run to completion;
 *                        with the same flags the outputs are
 *                        byte-identical to an uninterrupted `run`.
 *
 * Run/resume flags:
 *   --spec AxBxC  --seed N  --ops N  --lines N  --max-instructions N
 *   --threads N  --quantum N          phased engine shape
 *   --interval N  --dir D  --keep N   checkpoint cadence/retention
 *   --stats-json F  --trace F         deterministic output files
 *   --kill-at CYCLE                   SIGKILL this process at the first
 *                                     quantum barrier >= CYCLE
 *   --watchdog-stall N --watchdog-action report|panic|recover
 *   --wedge-node N --wedge-after K    deterministically hang node N at
 *                                     its K-th barrier (watchdog prey)
 *   --from FILE                       resume source (default: newest
 *                                     checkpoint in --dir)
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/torture.hpp"
#include "cli.hpp"
#include "platform/prototype.hpp"
#include "sim/log.hpp"
#include "snap/snapshot.hpp"

using namespace smappic;

namespace
{

struct Options
{
    std::string command;
    std::vector<std::string> files;

    std::string spec = "2x1x2";
    std::uint64_t seed = 1;
    std::uint32_t ops = 96;
    std::uint32_t lines = 4;
    std::uint64_t maxInstructions = 2'000'000;
    std::uint32_t threads = 1;
    Cycles quantum = 63;
    Cycles interval = 20'000;
    std::string dir = "checkpoints";
    std::uint32_t keep = 2;
    std::string statsJson;
    std::string tracePath;
    Cycles killAt = 0;
    Cycles watchdogStall = 0;
    sim::WatchdogAction watchdogAction = sim::WatchdogAction::kRecover;
    bool wedge = false;
    std::uint32_t wedgeNode = 0;
    std::uint64_t wedgeAfter = 0;
    std::string from;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: snap_ctl inspect <file> | validate <file> | "
        "diff <a> <b> |\n"
        "       snap_ctl run|resume [--spec AxBxC] [--seed N] [--ops N] "
        "[--lines N]\n"
        "           [--max-instructions N] [--threads N] [--quantum N]\n"
        "           [--interval N] [--dir D] [--keep N] "
        "[--stats-json F] [--trace F]\n"
        "           [--kill-at CYCLE] [--watchdog-stall N] "
        "[--watchdog-action report|panic|recover]\n"
        "           [--wedge-node N] [--wedge-after K] [--from FILE]\n");
    return 2;
}

bool
parseOptions(const std::vector<std::string> &args, Options &opt)
{
    if (args.empty())
        return false;
    opt.command = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> const std::string & {
            return cli::flagValue(args, i);
        };
        auto num = [&]() { return cli::parseU64(a, next()); };
        auto num32 = [&]() {
            return static_cast<std::uint32_t>(
                cli::parseU64(a, next(), 0, UINT32_MAX));
        };
        if (a == "--spec") opt.spec = next();
        else if (a == "--seed") opt.seed = num();
        else if (a == "--ops") opt.ops = num32();
        else if (a == "--lines") opt.lines = num32();
        else if (a == "--max-instructions") opt.maxInstructions = num();
        else if (a == "--threads") opt.threads = num32();
        else if (a == "--quantum") opt.quantum = num();
        else if (a == "--interval") opt.interval = num();
        else if (a == "--dir") opt.dir = next();
        else if (a == "--keep") opt.keep = num32();
        else if (a == "--stats-json") opt.statsJson = next();
        else if (a == "--trace") opt.tracePath = next();
        else if (a == "--kill-at") opt.killAt = num();
        else if (a == "--watchdog-stall") opt.watchdogStall = num();
        else if (a == "--watchdog-action") {
            std::string v = next();
            if (v == "report")
                opt.watchdogAction = sim::WatchdogAction::kReport;
            else if (v == "panic")
                opt.watchdogAction = sim::WatchdogAction::kPanic;
            else if (v == "recover")
                opt.watchdogAction = sim::WatchdogAction::kRecover;
            else
                throw cli::UsageError("unknown watchdog action " + v);
        } else if (a == "--wedge-node") {
            opt.wedge = true;
            opt.wedgeNode = num32();
        } else if (a == "--wedge-after")
            opt.wedgeAfter = num();
        else if (a == "--from") opt.from = next();
        else if (!a.empty() && a[0] != '-')
            opt.files.push_back(a);
        else
            throw cli::UsageError("unknown option " + a);
    }
    return true;
}

int
cmdInspect(const std::string &path)
{
    snap::SnapshotInfo info = snap::inspect(path);
    std::printf("checkpoint: %s\n", path.c_str());
    std::printf("  format v%u, config hash %016llx\n", info.version,
                static_cast<unsigned long long>(info.configHash));
    std::printf("  prototype %s, seed %llu, %u nodes x %u tiles\n",
                info.configName.c_str(),
                static_cast<unsigned long long>(info.seed), info.nodes,
                info.tilesPerNode);
    std::printf("  cycle %llu, %llu instructions committed\n",
                static_cast<unsigned long long>(info.cycle),
                static_cast<unsigned long long>(info.instret));
    std::printf("  %zu sections:\n", info.sections.size());
    for (const auto &s : info.sections) {
        std::printf("    tag %2u  %8llu bytes  crc %08x\n", s.tag,
                    static_cast<unsigned long long>(s.size), s.crc);
    }
    return 0;
}

int
cmdValidate(const std::string &path)
{
    std::string error;
    if (!snap::validate(path, &error)) {
        std::fprintf(stderr, "invalid: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("valid: %s\n", path.c_str());
    return 0;
}

int
cmdDiff(const std::string &a, const std::string &b)
{
    std::vector<std::string> lines = snap::diff(a, b);
    for (const std::string &l : lines)
        std::printf("%s\n", l.c_str());
    if (lines.empty()) {
        std::printf("checkpoints are equivalent\n");
        return 0;
    }
    return 1;
}

/** Deterministic stats dump: counters exactly, summaries via their raw
 *  accumulators with full round-trip precision. Byte-identical output
 *  is the whole point — the recovery CI job compares with cmp. */
void
dumpStatsJson(const sim::StatRegistry &stats, const std::string &path)
{
    std::ofstream os(path);
    fatalIf(!os, strfmt("cannot write '%s'", path.c_str()));
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : stats.counters()) {
        os << (first ? "" : ",") << "\n    \"" << name
           << "\": " << c.value();
        first = false;
    }
    os << "\n  },\n  \"summaries\": {";
    first = true;
    char buf[64];
    for (const auto &[name, s] : stats.summaries()) {
        std::snprintf(buf, sizeof buf, "%.17g", s.sum());
        os << (first ? "" : ",") << "\n    \"" << name
           << "\": {\"count\": " << s.count() << ", \"sum\": " << buf
           << "}";
        first = false;
    }
    os << "\n  }\n}\n";
    fatalIf(!os.good(), strfmt("write to '%s' failed", path.c_str()));
}

platform::PrototypeConfig
buildConfig(const Options &opt)
{
    platform::PrototypeConfig cfg =
        platform::PrototypeConfig::parse(opt.spec);
    cfg.seed = opt.seed;
    cfg.parallel.threads = opt.threads;
    cfg.parallel.quantum = opt.quantum;
    cfg.snapshot.interval = opt.interval;
    cfg.snapshot.dir = opt.dir;
    cfg.snapshot.keep = opt.keep;
    cfg.watchdog.stallCycles = opt.watchdogStall;
    cfg.watchdog.action = opt.watchdogAction;
    if (!opt.tracePath.empty()) {
        cfg.trace.enabled = true;
        cfg.trace.path = opt.tracePath;
    }
    if (opt.wedge) {
        sim::FaultRule rule;
        rule.site = strfmt("node.wedge.node%u", opt.wedgeNode);
        rule.kind = sim::FaultKind::kDrop;
        rule.probability = 1.0;
        rule.firstEvent = opt.wedgeAfter;
        cfg.faultPlan.seed = opt.seed;
        cfg.faultPlan.add(rule);
    }
    return cfg;
}

int
cmdRun(const Options &opt, bool resume)
{
    platform::PrototypeConfig cfg = buildConfig(opt);
    platform::Prototype proto(cfg);

    // The workload is a pure function of (seed, ops, lines, harts):
    // run and resume regenerate the identical program.
    check::TortureConfig tcfg;
    tcfg.platform = cfg;
    tcfg.seed = opt.seed;
    tcfg.opsPerCore = opt.ops;
    tcfg.sharedLines = opt.lines;
    check::TortureProgram gen = check::generateTorture(tcfg);
    proto.loadSource(gen.source);

    if (resume) {
        std::string from = opt.from.empty()
                               ? snap::latestCheckpoint(opt.dir)
                               : opt.from;
        if (from.empty()) {
            std::fprintf(stderr, "resume: no checkpoint in '%s'\n",
                         opt.dir.c_str());
            return 1;
        }
        std::printf("resuming from %s\n", from.c_str());
        proto.restore(from);
    }

    if (opt.killAt > 0) {
        proto.setBarrierProbe([&](Cycles boundary) {
            // SIGKILL, not exit(): the run must die without destructors,
            // flushes or any other graceful-shutdown help.
            if (boundary >= opt.killAt)
                std::raise(SIGKILL);
        });
    }

    std::vector<GlobalTileId> gids;
    for (std::uint32_t c = 0; c < proto.coreCount(); ++c)
        gids.push_back(c);
    proto.runCores(gids, opt.maxInstructions);

    std::printf(
        "run complete: cycle %llu, %llu checkpoints, %llu recoveries\n",
        static_cast<unsigned long long>(proto.eventQueue().now()),
        static_cast<unsigned long long>(
            proto.stats().counters().count("snap.checkpoints")
                ? proto.stats().counter("snap.checkpoints").value()
                : 0),
        static_cast<unsigned long long>(
            proto.stats().counters().count("watchdog.recoveries")
                ? proto.stats().counter("watchdog.recoveries").value()
                : 0));

    if (!opt.statsJson.empty())
        dumpStatsJson(proto.stats(), opt.statsJson);
    if (!opt.tracePath.empty())
        proto.writeTrace(opt.tracePath);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseOptions({argv + 1, argv + argc}, opt))
            return usage();
    } catch (const cli::UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    }
    try {
        if (opt.command == "inspect" && opt.files.size() == 1)
            return cmdInspect(opt.files[0]);
        if (opt.command == "validate" && opt.files.size() == 1)
            return cmdValidate(opt.files[0]);
        if (opt.command == "diff" && opt.files.size() == 2)
            return cmdDiff(opt.files[0], opt.files[1]);
        if (opt.command == "run" && opt.files.empty())
            return cmdRun(opt, false);
        if (opt.command == "resume" && opt.files.empty())
            return cmdRun(opt, true);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const PanicError &e) {
        std::fprintf(stderr, "panic: %s\n", e.what());
        return 1;
    }
    return usage();
}
