/**
 * @file
 * CLI for the seeded harnesses (litmus, torture, lockstep fuzz), run as
 * one check::Campaign; see docs/INTERNALS.md "One seeded-check
 * campaign". Every failing run prints a `repro:` line that replays it.
 *
 * Exit codes: 0 = every run passed (with --defect: every run diverged),
 * 1 = a run failed, 2 = usage error, including a flag the kind cannot
 * honour.
 */

#include <cstdio>
#include <iostream>

#include "check/campaign.hpp"
#include "cli.hpp"

using namespace smappic;

namespace
{

constexpr const char *kUsage =
    "usage: check_run litmus|torture|fuzz [flags]\n"
    "  every kind: --spec AxBxC --seed N --runs N --threads N --quantum N\n"
    "              --no-decode-cache --no-data-fastpath --no-idle-skip "
    "--faulty\n"
    "  litmus:     --iters N\n"
    "  torture:    --ops N --lines N --minimize\n"
    "  fuzz:       --count N --mix alu|mul|mem|amo|csr|all|smc --shared\n"
    "              --defect mulh|stale-decode --minimize\n";

} // namespace

int
main(int argc, char **argv)
{
    check::Campaign campaign;
    try {
        campaign = cli::parseCampaign({argv + 1, argv + argc});
    } catch (const cli::UsageError &e) {
        std::fprintf(stderr, "check_run: %s\n%s", e.what(), kUsage);
        return 2;
    }
    try {
        return check::runCampaign(campaign, std::cout);
    } catch (const std::exception &e) {
        std::cout.flush();
        std::fprintf(stderr, "check_run: %s\n", e.what());
        return 1;
    }
}
