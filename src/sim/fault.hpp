/**
 * @file
 * Platform-wide fault injection.
 *
 * Cloud FPGA deployments see transient faults an on-prem rig never does:
 * PCIe TLPs dropped or delayed by the hypervisor, shell DMA bit errors,
 * peer instances rebooting mid-run. A FaultPlan describes such faults
 * declaratively — per injection *site*, a seeded probability and an
 * optional event-count window for each fault kind — and a FaultInjector
 * evaluates the plan at named hooks. A platform::Prototype evaluates
 * "bridge.tx" on every inter-node crossing of coherence traffic
 * (cache::CoherentSystem::nocPath), "pcie.write"/"pcie.read" in the PCIe
 * fabric and "node.wedge.node<N>" at quantum barriers, and refuses a rule
 * that matches none of them.
 *
 * Determinism: every site draws from its own xoroshiro stream seeded from
 * (plan seed, site name), so decisions at one site are independent of how
 * other sites interleave and a given (plan, traffic) pair is
 * bit-reproducible.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smappic::sim
{

/** CRC-32 (IEEE 802.3, reflected) over @p len bytes of @p data. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len,
                    std::uint32_t seed = 0);

/** Kinds of transient fault the injector can produce. */
enum class FaultKind : std::uint8_t
{
    kDrop = 0,    ///< Transaction silently lost in flight.
    kCorrupt = 1, ///< Single-bit flip in the payload.
    kDelay = 2,   ///< Extra in-flight latency.
    kSlvErr = 3,  ///< Target answers SLVERR without doing the work.
};

/** One injection rule: at sites matching @p site, fire @p kind. */
struct FaultRule
{
    std::string site;       ///< Prefix-matched against hook site names.
    FaultKind kind = FaultKind::kDrop;
    double probability = 0; ///< Per-event firing probability in [0, 1].
    Cycles delay = 0;       ///< Extra cycles (kDelay only).
    /** Inclusive [first, last] window over the site's event counter;
     *  events outside it never fire. probability 1 inside a window makes
     *  a deterministic "stuck" fault (e.g. stuck-SLVERR). */
    std::uint64_t firstEvent = 0;
    std::uint64_t lastEvent = ~std::uint64_t{0};
};

/** Declarative, seeded fault schedule. An empty plan injects nothing. */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultRule> rules;

    bool empty() const { return rules.empty(); }

    FaultPlan &add(FaultRule rule);
    /** Convenience builders; all return *this for chaining. */
    FaultPlan &drop(std::string site, double p);
    FaultPlan &corrupt(std::string site, double p);
    FaultPlan &delay(std::string site, double p, Cycles cycles);
    FaultPlan &slvErr(std::string site, double p,
                      std::uint64_t first_event = 0,
                      std::uint64_t last_event = ~std::uint64_t{0});
};

/** What the injector decided for one event at one site. */
struct FaultDecision
{
    bool drop = false;
    bool corrupt = false;
    bool slvErr = false;
    Cycles extraDelay = 0;

    /** True when any fault fires. */
    explicit operator bool() const
    {
        return drop || corrupt || slvErr || extraDelay != 0;
    }
};

/**
 * Evaluates a FaultPlan at named injection sites. Components hold a
 * nullable FaultInjector* and skip every hook when it is null, so a
 * fault-free build pays one pointer test per hook.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan, StatRegistry *stats = nullptr);

    /** True when at least one rule exists. */
    bool enabled() const { return !plan_.empty(); }

    /**
     * Rolls the dice for the next event at @p site. Advances the site's
     * event counter; rules whose site is a prefix of @p site and whose
     * window covers the event may fire. Fault counts are recorded under
     * "fault.drop" / "fault.corrupt" / "fault.delay" / "fault.slverr".
     * A drop or a corruption counts at most once per event, and a drop
     * makes a corruption drawn for the same event moot: the decision
     * then carries and counts only the drop.
     */
    FaultDecision decide(std::string_view site);

    /** Flips one uniformly chosen bit of @p bytes (site-seeded). */
    void corruptBytes(std::string_view site, std::uint8_t *bytes,
                      std::size_t len);

    std::uint64_t dropsInjected() const { return drops_; }
    std::uint64_t corruptionsInjected() const { return corruptions_; }
    std::uint64_t delaysInjected() const { return delays_; }
    std::uint64_t slvErrsInjected() const { return slvErrs_; }

    /** Events seen so far at @p site (0 if never queried). */
    std::uint64_t siteEvents(std::string_view site) const;

    /** The fault plan this injector evaluates. */
    const FaultPlan &plan() const { return plan_; }

    /** Invokes @p fn(site, rng_s0, rng_s1, events) for every site state,
     *  in site-name order (checkpointing). */
    void forEachSite(
        const std::function<void(const std::string &, std::uint64_t,
                                 std::uint64_t, std::uint64_t)> &fn) const;

    /** Restores (creating if needed) one site's RNG stream + counter. */
    void restoreSite(const std::string &site, std::uint64_t rng_s0,
                     std::uint64_t rng_s1, std::uint64_t events);

    /** Forgets every site state (prelude to a full restoreSite sweep, so
     *  sites first touched after the checkpoint don't survive it). */
    void resetSites() { sites_.clear(); }

    /** Restores the aggregate injection counters. */
    void
    restoreCounters(std::uint64_t drops, std::uint64_t corruptions,
                    std::uint64_t delays, std::uint64_t slv_errs)
    {
        drops_ = drops;
        corruptions_ = corruptions;
        delays_ = delays;
        slvErrs_ = slv_errs;
    }

  private:
    struct SiteState
    {
        Xoroshiro rng;
        std::uint64_t events = 0;

        explicit SiteState(std::uint64_t seed) : rng(seed) {}
    };

    SiteState &siteState(std::string_view site);
    void count(FaultKind kind);

    FaultPlan plan_;
    StatRegistry *stats_;
    std::map<std::string, SiteState, std::less<>> sites_;

    std::uint64_t drops_ = 0;
    std::uint64_t corruptions_ = 0;
    std::uint64_t delays_ = 0;
    std::uint64_t slvErrs_ = 0;
};

} // namespace smappic::sim
