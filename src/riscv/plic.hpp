/**
 * @file
 * Platform-Level Interrupt Controller (PLIC) model.
 *
 * The CLINT covers software and timer interrupts; external device
 * interrupts (UARTs, SD controller, accelerators) go through a PLIC:
 * per-source priorities and pending bits, per-hart enable masks and
 * priority thresholds, and the claim/complete protocol. The PLIC's
 * hart-facing external lines take the same path to the cores as the
 * CLINT's, so its notifications also reach harts on every node (paper
 * section 3.3).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace smappic::snap
{
class Writer;
class Reader;
} // namespace smappic::snap

namespace smappic::riscv
{

// PLIC register map offsets (standard layout, word registers).
inline constexpr Addr kPlicPriorityBase = 0x000000; ///< 4 bytes/source.
inline constexpr Addr kPlicPendingBase = 0x001000;  ///< Bit per source.
inline constexpr Addr kPlicEnableBase = 0x002000;   ///< Per hart, 0x80.
inline constexpr Addr kPlicContextBase = 0x200000;  ///< Per hart, 0x1000.
inline constexpr Addr kPlicContextStride = 0x1000;
inline constexpr Addr kPlicEnableStride = 0x80;
// Within a context: +0 threshold, +4 claim/complete.

/** The controller. Source 0 is reserved (as in the spec). */
class PlicController
{
  public:
    /** Fires when a hart's external-interrupt level changes. */
    using WireFn = std::function<void(std::uint32_t hart, bool level)>;

    PlicController(std::uint32_t sources, std::uint32_t harts);

    void setWireFn(WireFn fn) { wireFn_ = std::move(fn); }

    /** Device side: raises/clears interrupt source @p src (level). */
    void setSourceLevel(std::uint32_t src, bool level);

    /** Memory-mapped register read. */
    std::uint32_t read(Addr offset, std::uint32_t hart_hint = 0);

    /** Memory-mapped register write. */
    void write(Addr offset, std::uint32_t value);

    /** Hart-facing: highest-priority pending+enabled source, or 0. */
    std::uint32_t bestPending(std::uint32_t hart) const;

    /** Claim: atomically take the best pending source (0 if none). */
    std::uint32_t claim(std::uint32_t hart);

    /** Complete: re-enables gating for @p src after handling. */
    void complete(std::uint32_t hart, std::uint32_t src);

    bool pending(std::uint32_t src) const { return pending_.at(src); }
    std::uint32_t sources() const
    {
        return static_cast<std::uint32_t>(priority_.size());
    }
    std::uint32_t harts() const
    {
        return static_cast<std::uint32_t>(threshold_.size());
    }

    /** Serializes the full controller state. */
    void saveState(snap::Writer &w) const;
    /** Restores WITHOUT firing the wire callback — the downstream
     *  core wires are restored from their own sections. */
    void restoreState(snap::Reader &r);

  private:
    void evaluate();

    std::vector<std::uint32_t> priority_; ///< Per source.
    std::vector<bool> level_;             ///< Device line levels.
    std::vector<bool> pending_;           ///< Latched pending bits.
    std::vector<bool> inService_;         ///< Claimed, not completed.
    std::vector<std::uint64_t> enable_;   ///< Per hart bitmask (<=64 src).
    std::vector<std::uint32_t> threshold_; ///< Per hart.
    std::vector<bool> wireLevel_;          ///< Per hart output.
    WireFn wireFn_;
};

} // namespace smappic::riscv
