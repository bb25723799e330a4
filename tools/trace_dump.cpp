/**
 * @file
 * Trace inspection CLI for the binary traces written by
 * Prototype::writeTrace() (see obs/trace_io.hpp).
 *
 * Default action prints the file header and a per-kind latency breakdown
 * (count, mean, p50, p99 over event durations). Options:
 *
 *   --check            Validate structure (magic/version/record integrity,
 *                      kind/component consistency, node bounds) and print
 *                      a one-line summary; exit 1 on any violation.
 *   --json <out>       Export the (filtered) events as Chrome trace_event
 *                      JSON, loadable in chrome://tracing or Perfetto.
 *   --node <N>         Keep only events originating on node N.
 *   --component <LIST> Comma list of cache,noc,pcie,bridge,core.
 *   --window <A:B>     Keep only events in the half-open window
 *                      [A, B): start inclusive, end exclusive, so
 *                      adjacent windows <A:B> <B:C> tile a trace with
 *                      no overlap. An event at exactly cycle B is
 *                      dropped; A >= B selects nothing.
 *
 * Usage: trace_dump <trace.bin> [options]
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/trace_io.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"

using namespace smappic;

namespace
{

struct Options
{
    std::string input;
    std::string jsonOut;
    bool check = false;
    bool filterNode = false;
    std::uint16_t node = 0;
    bool filterComponents = false;
    std::uint32_t componentMask = 0;
    bool filterWindow = false;
    Cycles windowFrom = 0;
    Cycles windowTo = 0;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <trace.bin> [--check] [--json <out>] "
                 "[--node <N>] [--component <LIST>] [--window <A:B>]\n"
                 "  --window keeps events with A <= cycle < B "
                 "(half-open: A inclusive,\n"
                 "  B exclusive, so <A:B> <B:C> tile without overlap)\n",
                 argv0);
    return 2;
}

bool
parseComponentList(const std::string &list, std::uint32_t &mask)
{
    mask = 0;
    std::size_t at = 0;
    while (at <= list.size()) {
        std::size_t comma = list.find(',', at);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(at, comma - at);
        bool found = false;
        for (std::uint32_t c = 0; c < obs::kNumComponents; ++c) {
            auto comp = static_cast<obs::Component>(c);
            if (name == obs::componentName(comp)) {
                mask |= obs::componentBit(comp);
                found = true;
            }
        }
        if (!found) {
            std::fprintf(stderr, "unknown component '%s'\n", name.c_str());
            return false;
        }
        at = comma + 1;
    }
    return mask != 0;
}

bool
parseOptions(const std::vector<std::string> &args, Options &opt)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--json") {
            opt.jsonOut = cli::flagValue(args, i);
        } else if (arg == "--node") {
            opt.filterNode = true;
            opt.node = static_cast<std::uint16_t>(
                cli::parseU64(arg, cli::flagValue(args, i), 0, 0xffff));
        } else if (arg == "--component") {
            opt.filterComponents = true;
            if (!parseComponentList(cli::flagValue(args, i),
                                    opt.componentMask))
                return false;
        } else if (arg == "--window") {
            const std::string &w = cli::flagValue(args, i);
            std::size_t colon = w.find(':');
            if (colon == std::string::npos)
                throw cli::UsageError("--window wants <from>:<to>");
            opt.windowFrom = cli::parseU64(arg, w.substr(0, colon));
            opt.windowTo = cli::parseU64(arg, w.substr(colon + 1));
            opt.filterWindow = true;
        } else if (!arg.empty() && arg[0] != '-' && opt.input.empty()) {
            opt.input = arg;
        } else {
            throw cli::UsageError("bad argument " + arg);
        }
    }
    if (opt.input.empty()) {
        std::fprintf(stderr, "missing <trace.bin> operand\n");
        return false;
    }
    return true;
}

bool
keep(const Options &opt, const obs::TraceEvent &ev)
{
    if (opt.filterNode && ev.node != opt.node)
        return false;
    if (opt.filterComponents &&
        (opt.componentMask & (1u << ev.component)) == 0)
        return false;
    if (opt.filterWindow &&
        !obs::cycleInWindow(ev.cycle, opt.windowFrom, opt.windowTo))
        return false;
    return true;
}

/** Structural validation behind --check. Returns the number of errors. */
std::uint64_t
checkStructure(const obs::TraceData &data)
{
    std::uint64_t errors = 0;
    std::uint64_t held = 0;
    for (std::uint64_t h : data.perNodeHeld)
        held += h;
    if (held != data.events.size()) {
        std::fprintf(stderr,
                     "check: header holds %" PRIu64
                     " events but file carries %zu\n",
                     held, data.events.size());
        ++errors;
    }
    for (std::size_t i = 0; i < data.events.size(); ++i) {
        const obs::TraceEvent &ev = data.events[i];
        if (!obs::isEventKind(ev.kind)) {
            std::fprintf(stderr, "check: event %zu has bad kind %u\n", i,
                         ev.kind);
            ++errors;
            continue;
        }
        auto kind = static_cast<obs::EventKind>(ev.kind);
        auto comp = static_cast<std::uint8_t>(obs::kindComponent(kind));
        if (ev.component != comp) {
            std::fprintf(stderr,
                         "check: event %zu kind %s carries component %u, "
                         "expected %u\n",
                         i, obs::kindName(kind), ev.component, comp);
            ++errors;
        }
        // PCIe events are tagged with the source FPGA, which is always a
        // valid node index (fpgas <= nodes in every AxBxC config).
        if (ev.node >= data.nodes) {
            std::fprintf(stderr, "check: event %zu has node %u of %u\n",
                         i, ev.node, data.nodes);
            ++errors;
        }
        if (ev.pad != 0) {
            std::fprintf(stderr, "check: event %zu has nonzero pad\n", i);
            ++errors;
        }
    }
    return errors;
}

void
printBreakdown(const std::vector<obs::TraceEvent> &events)
{
    // One histogram per kind, width scaled to the kind's observed max so
    // p50/p99 stay meaningful for both 1-cycle hops and 10k-cycle misses.
    std::uint32_t maxDur[obs::kNumEventKinds] = {};
    std::uint64_t counts[obs::kNumEventKinds] = {};
    for (const obs::TraceEvent &ev : events) {
        counts[ev.kind] += 1;
        if (ev.duration > maxDur[ev.kind])
            maxDur[ev.kind] = ev.duration;
    }
    std::vector<sim::Histogram> hists;
    constexpr std::size_t kBuckets = 128;
    for (std::uint32_t k = 0; k < obs::kNumEventKinds; ++k) {
        double width = maxDur[k] / static_cast<double>(kBuckets) + 1.0;
        hists.emplace_back(kBuckets, width);
    }
    for (const obs::TraceEvent &ev : events)
        hists[ev.kind].sample(ev.duration);

    std::printf("%-12s %-12s %10s %10s %8s %8s\n", "component", "kind",
                "count", "mean", "p50", "p99");
    for (std::uint32_t k = 0; k < obs::kNumEventKinds; ++k) {
        if (counts[k] == 0 || !obs::isEventKind(k))
            continue;
        auto kind = static_cast<obs::EventKind>(k);
        std::printf("%-12s %-12s %10" PRIu64 " %10.1f %8.0f %8.0f\n",
                    obs::componentName(obs::kindComponent(kind)),
                    obs::kindName(kind), counts[k],
                    hists[k].summary().mean(), hists[k].percentile(0.50),
                    hists[k].percentile(0.99));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseOptions({argv + 1, argv + argc}, opt))
            return usage(argv[0]);
    } catch (const cli::UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage(argv[0]);
    }

    obs::TraceData data;
    try {
        std::ifstream is(opt.input, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "cannot open '%s'\n", opt.input.c_str());
            return 1;
        }
        data = obs::readBinary(is);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "malformed trace: %s\n", e.what());
        return 1;
    }

    if (opt.check) {
        std::uint64_t errors = checkStructure(data);
        std::printf("check: %s: %zu events, %u nodes, %" PRIu64
                    " dropped, %" PRIu64 " errors\n",
                    opt.input.c_str(), data.events.size(), data.nodes,
                    data.dropped(), errors);
        return errors == 0 ? 0 : 1;
    }

    std::vector<obs::TraceEvent> events;
    events.reserve(data.events.size());
    for (const obs::TraceEvent &ev : data.events) {
        if (keep(opt, ev))
            events.push_back(ev);
    }

    if (!opt.jsonOut.empty()) {
        std::ofstream os(opt.jsonOut);
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         opt.jsonOut.c_str());
            return 1;
        }
        obs::writeChromeJson(events, os);
        if (!os.good()) {
            std::fprintf(stderr, "write to '%s' failed\n",
                         opt.jsonOut.c_str());
            return 1;
        }
    }

    std::printf("trace: %s version %u, %u nodes, %zu/%zu events "
                "selected, %" PRIu64 " dropped at capture\n",
                opt.input.c_str(), data.version, data.nodes,
                events.size(), data.events.size(), data.dropped());
    for (std::uint32_t n = 0; n < data.nodes; ++n) {
        std::printf("  node %u: held %" PRIu64 " dropped %" PRIu64 "\n",
                    n, data.perNodeHeld[n], data.perNodeDropped[n]);
    }
    printBreakdown(events);
    return 0;
}
