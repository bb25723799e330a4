/**
 * @file
 * Accelerator integration example (paper section 4.2): attaches the
 * Gaussian Noise Generator to tile 1 of a 1x1x2 prototype, drives it from
 * a guest RISC-V program with non-cacheable loads, verifies the samples'
 * statistics, and compares fetch-packing modes from the guest-OS layer —
 * the paper's "one workday" accelerator-evaluation loop. Exits nonzero
 * unless the guest exits cleanly with all 512 samples fetched, their mean
 * and sigma are within 0.1 of 0 and 1, and each packing mode beats the
 * one before it.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "platform/prototype.hpp"
#include "workload/noise.hpp"

using namespace smappic;
using namespace smappic::workload;

int
main()
{
    platform::Prototype proto(platform::PrototypeConfig::parse("1x1x2"));
    auto &gng = proto.addGng(1);
    Addr window = proto.accelWindow(1);
    std::printf("GNG accelerator mapped at 0x%llx (tile 1)\n",
                static_cast<unsigned long long>(window));

    // Guest program: fetch 256 packed sample pairs with NC loads into a
    // buffer, then exit. The load of 4 bytes returns 2 samples.
    proto.loadSource(R"(
_start:
    li t0, 0xf0000000   # GNG window
    li t1, 0x80600000   # destination buffer
    li t2, 256
loop:
    lwu t3, 0(t0)       # two packed 16-bit samples
    sw t3, 0(t1)
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    li a0, 0
    li a7, 93
    ecall
)");
    proto.runCore(0);
    bool ok = true;
    auto check = [&ok](bool cond, const std::string &what) {
        if (!cond) {
            std::printf("FAIL: %s\n", what.c_str());
            ok = false;
        }
    };
    check(proto.core(0).exited() && proto.core(0).exitCode() == 0,
          "guest core exited with code 0");
    check(gng.samplesServed() == 512, "guest fetched 512 samples");
    std::printf("guest fetched %llu samples in %llu cycles\n",
                static_cast<unsigned long long>(gng.samplesServed()),
                static_cast<unsigned long long>(proto.core(0).cycles()));

    // Host-side verification of the samples the guest stored.
    double sum = 0;
    double sumsq = 0;
    const int n = 512;
    for (int i = 0; i < n; ++i) {
        auto raw = static_cast<std::int16_t>(
            proto.memory().load(0x80600000 + static_cast<Addr>(i) * 2, 2));
        double v = static_cast<double>(raw) /
                   (1 << accel::GngAccelerator::kFracBits);
        sum += v;
        sumsq += v * v;
    }
    double mean = sum / n;
    double sigma = std::sqrt(sumsq / n - mean * mean);
    std::printf("sample statistics: mean %.3f, sigma %.3f "
                "(expect ~0, ~1)\n", mean, sigma);
    check(std::fabs(mean) < 0.1, "|mean| < 0.1");
    check(std::fabs(sigma - 1.0) < 0.1, "|sigma - 1| < 0.1");

    // Packing-mode comparison at the guest-OS level (Fig 10's sweep).
    std::printf("\nfetch-packing sweep (%u samples):\n", 1u << 14);
    Cycles sw_cycles = 0;
    Cycles prev_cycles = 0;
    for (GngMode m : {GngMode::kSoftware, GngMode::kFetch1,
                      GngMode::kFetch2, GngMode::kFetch4}) {
        platform::Prototype p(platform::PrototypeConfig::parse("1x1x2"));
        p.addGng(1);
        auto guest = p.makeGuest(os::NumaMode::kOn);
        NoiseConfig cfg;
        cfg.samples = 1 << 14;
        cfg.deviceBase = p.accelWindow(1);
        Cycles c = runNoiseGenerator(*guest, 0, m, cfg).cycles;
        if (m == GngMode::kSoftware)
            sw_cycles = c;
        std::printf("  mode %-3s %10llu cycles  (%.1fx)\n", gngModeName(m),
                    static_cast<unsigned long long>(c),
                    static_cast<double>(sw_cycles) /
                        static_cast<double>(c));
        if (m != GngMode::kSoftware)
            check(c < prev_cycles, std::string("mode ") + gngModeName(m) +
                                       " faster than the mode before it");
        prev_cycles = c;
    }
    std::printf("%s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
