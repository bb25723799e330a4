/**
 * @file
 * Education use case (paper section 4.7): a tiny fleet manager launches
 * many cost-efficient 1x4x2 prototypes on demand — four independent
 * student instances per FPGA — runs each student's submission against a
 * grading harness, and reports per-student results plus the dollar cost
 * of the whole session from the cost model.
 *
 *   $ ./classroom [students]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "platform/prototype.hpp"

using namespace smappic;

namespace
{

/** A student's submission: compute sum(1..n) for the assigned n. */
std::string
submission(int quality, int n)
{
    // Three archetypes: correct loop, off-by-one bug, and clever formula.
    char buf[512];
    if (quality == 0) {
        std::snprintf(buf, sizeof buf, R"(
_start:
    li t0, 0
    li t1, 1
loop:
    add t0, t0, t1
    addi t1, t1, 1
    li t2, %d
    ble t1, t2, loop
    mv a0, t0
    li a7, 93
    ecall
)", n);
    } else if (quality == 1) {
        std::snprintf(buf, sizeof buf, R"(
_start:
    li t0, 0
    li t1, 1
loop:
    add t0, t0, t1
    addi t1, t1, 1
    li t2, %d
    blt t1, t2, loop      # off-by-one: stops at n-1
    mv a0, t0
    li a7, 93
    ecall
)", n);
    } else {
        std::snprintf(buf, sizeof buf, R"(
_start:
    li t0, %d
    addi t1, t0, 1
    mul a0, t0, t1
    srli a0, a0, 1        # n(n+1)/2
    li a7, 93
    ecall
)", n);
    }
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    int students = argc > 1 ? std::atoi(argv[1]) : 8;
    const int kAssignedN = 100;
    const std::int64_t kExpected = kAssignedN * (kAssignedN + 1) / 2;

    // Each 1x4x2 prototype carries 4 independent single-student nodes
    // (the paper's cost-efficient configuration).
    int fpgas = (students + 3) / 4;
    std::printf("grading %d submissions on %d FPGA(s) (1x4x2, 4 students "
                "per FPGA)\n\n", students, fpgas);

    int passed = 0;
    Cycles max_cycles = 0;
    for (int f = 0; f < fpgas; ++f) {
        platform::PrototypeConfig cfg =
            platform::PrototypeConfig::parse("1x4x2");
        platform::Prototype proto(cfg);
        for (int slot = 0; slot < 4; ++slot) {
            int s = f * 4 + slot;
            if (s >= students)
                break;
            // Students get rotating submission archetypes. Every node
            // gets its own copy, so a student's run stays on its node.
            proto.loadSourceReplicated(submission(s % 3, kAssignedN));
            GlobalTileId core = static_cast<GlobalTileId>(slot) * 2;
            proto.runCore(core, 100000);
            bool ok = proto.core(core).exited() &&
                      proto.core(core).exitCode() == kExpected;
            std::printf("student %2d on fpga %d node %d: %s "
                        "(result %lld, %llu cycles)\n",
                        s, f, slot, ok ? "PASS" : "FAIL",
                        static_cast<long long>(
                            proto.core(core).exitCode()),
                        static_cast<unsigned long long>(
                            proto.core(core).cycles()));
            passed += ok;
            max_cycles = std::max(max_cycles, proto.core(core).cycles());
        }
    }

    // Session economics: a one-hour lab slot on on-demand F1.
    double dollars =
        fpgas * cost::instanceNamed("f1.2xlarge").pricePerHour;
    std::printf("\n%d/%d submissions passed\n", passed, students);
    std::printf("lab session cost (1 hour, on demand): $%.2f total, "
                "$%.3f per student\n",
                dollars, dollars / students);
    std::printf("the same capacity on-premises: $%.0f upfront\n",
                fpgas * cost::instanceNamed("f1.2xlarge").hardwarePrice);
    return 0;
}
