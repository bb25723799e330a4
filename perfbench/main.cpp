/**
 * @file
 * perfbench command line:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints notes (one summary line, and with --trace 1 one line per span),
 * then the result object as the last line of standard output. Exit code
 * 0 when every output checked out, 1 when one did not, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "core_compute|numa_intsort|phased_memory --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = std::stoi(value) != 0;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    bool known = false;
    for (const std::string &n : perfbench::workloadNames())
        known = known || n == opt.workload;
    if (!known)
        return usage("unknown or missing --workload");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");

    try {
        perfbench::Report r = opt.trace ? perfbench::traceRun(opt)
                                        : perfbench::measure(opt);
        for (const std::string &line : r.notes)
            std::printf("%s\n", line.c_str());
        std::printf("%s\n", perfbench::toJson(r).c_str());
        return r.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
