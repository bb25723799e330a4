/**
 * @file
 * SMCK: the platform's versioned, checksummed binary checkpoint format.
 *
 * A checkpoint file is a flat container of tagged sections:
 *
 *   header:  magic "SMCK" | u32 version | u64 config hash |
 *            u32 section count | u32 reserved
 *   section: u32 tag | u32 reserved | u64 payload size |
 *            u32 payload CRC-32 | u32 reserved | payload bytes
 *
 * Everything is little-endian. The config hash fingerprints the
 * PrototypeConfig that produced the file, so a restore into a differently
 * shaped prototype fails up front instead of corrupting state. Each
 * section payload carries its own CRC-32 (sim::crc32, IEEE 802.3),
 * verified on open, so torn or bit-rotted files
 * are rejected deterministically.
 *
 * Determinism rules for writers of section payloads:
 *  - no wall-clock timestamps or host-dependent values anywhere — files
 *    written at the same quantum barrier must be byte-identical across
 *    1/2/4-worker runs;
 *  - unordered containers are serialized in sorted key order;
 *  - doubles are serialized as raw bit patterns (f64), never re-derived.
 *
 * Layering: this module sits directly above sim/ (for types, logging,
 * crc32 and the sim-type helpers below) and below every other module, so
 * components implement saveState(Writer&)/restoreState(Reader&) members
 * in their own .cpp files without layering violations.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::snap
{

inline constexpr std::uint32_t kSmckVersion = 2;

/** Section tags. Values are part of the on-disk format: never renumber. */
enum class Section : std::uint32_t
{
    kMeta = 1,    ///< Config name, seed, geometry, checkpoint cycle.
    kTime = 2,    ///< Event-queue clock, CLINT mtime, probe clock.
    kResume = 3,  ///< Phased-run bookkeeping (budgets, boundary, shards).
    kCores = 4,   ///< Architectural + microarchitectural core state.
    kMemory = 5,  ///< Sparse MainMemory pages.
    kCache = 6,   ///< Directory, cache arrays, servers/shapers.
    // 7 held the inter-node bridges' link state up to version 1.
    kFabric = 8,  ///< PCIe fabric links + counters.
    kDevices = 9, ///< CLINT, PLIC, UARTs, serials, SD cards.
    kStats = 10,  ///< Root StatRegistry + per-node shards.
    kTracer = 11, ///< Tracer ring contents and cursors.
    kFault = 12,  ///< Fault-injector site streams + counters.
};

/** Streams one SMCK file. Sections are buffered in memory until end()
 *  so the size/CRC header fields are exact; finish() patches the file
 *  header. All errors surface as FatalError via the stream state. */
class Writer
{
  public:
    explicit Writer(std::ostream &os);

    void setConfigHash(std::uint64_t hash) { configHash_ = hash; }

    /** Opens a section; all puts until end() land in its payload. */
    void begin(Section tag);
    /** Closes the open section and flushes it to the stream. */
    void end();
    /** Patches the header; call once after the last section. */
    void finish();

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void bytes(const void *data, std::size_t len);
    void str(const std::string &s);

  private:
    std::ostream &os_;
    std::uint64_t configHash_ = 0;
    std::uint32_t sections_ = 0;
    bool open_ = false;
    std::uint32_t tag_ = 0;
    std::vector<std::uint8_t> buf_;
};

/** Loads and validates one SMCK file. The constructor parses the header
 *  and indexes the sections; open() CRC-verifies a section and positions
 *  the read cursor. Malformed input throws FatalError. */
class Reader
{
  public:
    struct SectionDesc
    {
        std::uint32_t tag = 0;
        std::uint64_t size = 0;
        std::uint32_t crc = 0;
        std::uint64_t offset = 0; ///< Payload offset within the file.
    };

    explicit Reader(const std::string &path);

    std::uint32_t version() const { return version_; }
    std::uint64_t configHash() const { return configHash_; }
    const std::vector<SectionDesc> &sections() const { return sections_; }

    bool has(Section tag) const;

    /** Positions the cursor at @p tag's payload after CRC-verifying it.
     *  @throws FatalError when missing or corrupt. */
    void open(Section tag);

    /** Unread payload bytes of the open section. */
    std::uint64_t remaining() const { return end_ - cursor_; }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    bool boolean() { return u8() != 0; }
    void bytes(void *out, std::size_t len);
    std::string str();

  private:
    const SectionDesc *find(Section tag) const;
    void need(std::size_t len) const;

    std::vector<std::uint8_t> data_;
    std::uint32_t version_ = 0;
    std::uint64_t configHash_ = 0;
    std::vector<SectionDesc> sections_;
    std::uint64_t cursor_ = 0;
    std::uint64_t end_ = 0;
};

// Serialization helpers for sim-layer types (sim/ stays snap-free; these
// use the restore accessors the sim classes expose).

void saveServer(Writer &w, const sim::QueueServer &server);
void restoreServer(Reader &r, sim::QueueServer &server);

void saveShaper(Writer &w, const sim::TrafficShaper &shaper);
void restoreShaper(Reader &r, sim::TrafficShaper &shaper);

void saveRegistry(Writer &w, const sim::StatRegistry &reg);
/** Resets @p reg, then rebuilds every stat recorded in the payload. */
void restoreRegistry(Reader &r, sim::StatRegistry &reg);

void saveFaultInjector(Writer &w, const sim::FaultInjector &fi);
void restoreFaultInjector(Reader &r, sim::FaultInjector &fi);

} // namespace smappic::snap
