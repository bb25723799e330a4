/**
 * @file
 * RISC-V interrupt delivery for SMAPPIC (paper section 3.3, Fig. 6).
 *
 * The RISC-V spec notifies cores via dedicated wires from the interrupt
 * controller. On the FPGA, SMAPPIC's interrupt packetizer carries each
 * wire change as a NoC packet to the owning core's tile, across nodes
 * too. This model keeps the wire-change callback and lets
 * platform::Prototype drive the destination core's line directly (or at
 * the next quantum barrier, for a change raised inside another node's
 * phase).
 *
 * The controller itself is CLINT-compatible: per-hart MSIP and MTIMECMP
 * plus a global MTIME.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "riscv/core.hpp"
#include "sim/types.hpp"

namespace smappic::riscv
{

// CLINT register map offsets (standard layout).
inline constexpr Addr kClintMsipBase = 0x0;      ///< 4 bytes per hart.
inline constexpr Addr kClintMtimecmpBase = 0x4000; ///< 8 bytes per hart.
inline constexpr Addr kClintMtime = 0xbff8;

/** CLINT-style interrupt controller for one node. */
class ClintController
{
  public:
    /** Fires on any output-wire level change. */
    using WireFn =
        std::function<void(std::uint32_t hart, std::uint32_t irq,
                           bool level)>;

    explicit ClintController(std::uint32_t harts);

    void setWireFn(WireFn fn) { wireFn_ = std::move(fn); }

    /** Memory-mapped register read at @p offset. */
    std::uint64_t read(Addr offset) const;

    /** Memory-mapped register write. */
    void write(Addr offset, std::uint64_t value, std::uint32_t bytes);

    /** Advances MTIME (typically wired to the node clock). */
    void setTime(std::uint64_t mtime);

    /**
     * Horizon query for idle skipping: the smallest MTIME value at which
     * any hart's timer wire can rise, i.e. min over harts of MTIMECMP
     * values strictly above the current MTIME; sim::kNoDeadline when no
     * timer is armed. Covers *all* harts — any wire flip drives a core
     * line (and stats), so skipping past one would be observable even
     * for harts outside the current run.
     */
    std::uint64_t nextTimerCycle() const;

    bool msip(std::uint32_t hart) const { return msip_.at(hart); }
    bool mtip(std::uint32_t hart) const { return mtip_.at(hart); }
    std::uint64_t mtime() const { return mtime_; }
    std::uint32_t harts() const
    {
        return static_cast<std::uint32_t>(msip_.size());
    }

    /** Serializes wires, compare registers and MTIME. */
    void saveState(snap::Writer &w) const;
    /** Restores wire/register state WITHOUT firing the wire callback —
     *  the cores' own mip bits are restored separately. */
    void restoreState(snap::Reader &r);

  private:
    void setWire(std::vector<bool> &wires, std::uint32_t hart,
                 std::uint32_t irq, bool level);
    void evaluateTimers();

    std::vector<bool> msip_;
    std::vector<bool> mtip_;
    /** Always low (the PLIC drives machine-external lines); kept so
     *  the checkpoint layout does not change. */
    std::vector<bool> meip_;
    std::vector<std::uint64_t> mtimecmp_;
    std::uint64_t mtime_ = 0;
    WireFn wireFn_;
};

} // namespace smappic::riscv
