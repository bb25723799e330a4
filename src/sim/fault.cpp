#include "sim/fault.hpp"

#include "sim/log.hpp"

namespace smappic::sim
{

namespace
{

const StatId kDrop("fault.drop");
const StatId kCorrupt("fault.corrupt");
const StatId kDelay("fault.delay");
const StatId kSlverr("fault.slverr");

/** FNV-1a over the site name; mixes the plan seed per site. */
std::uint64_t
hashSite(std::string_view site)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : site) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len, std::uint32_t seed)
{
    // Bitwise reflected CRC-32; table-free keeps it header-light and the
    // payloads here are tens of bytes.
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

FaultPlan &
FaultPlan::add(FaultRule rule)
{
    fatalIf(rule.probability < 0.0 || rule.probability > 1.0,
            "fault rule probability must be in [0, 1]");
    fatalIf(rule.site.empty(), "fault rule needs a site prefix");
    rules.push_back(std::move(rule));
    return *this;
}

FaultPlan &
FaultPlan::drop(std::string site, double p)
{
    return add(FaultRule{std::move(site), FaultKind::kDrop, p, 0, 0,
                         ~std::uint64_t{0}});
}

FaultPlan &
FaultPlan::corrupt(std::string site, double p)
{
    return add(FaultRule{std::move(site), FaultKind::kCorrupt, p, 0, 0,
                         ~std::uint64_t{0}});
}

FaultPlan &
FaultPlan::delay(std::string site, double p, Cycles cycles)
{
    return add(FaultRule{std::move(site), FaultKind::kDelay, p, cycles, 0,
                         ~std::uint64_t{0}});
}

FaultPlan &
FaultPlan::slvErr(std::string site, double p, std::uint64_t first_event,
                  std::uint64_t last_event)
{
    return add(FaultRule{std::move(site), FaultKind::kSlvErr, p, 0,
                         first_event, last_event});
}

FaultInjector::FaultInjector(FaultPlan plan, StatRegistry *stats)
    : plan_(std::move(plan)), stats_(stats)
{
    for (const FaultRule &r : plan_.rules) {
        fatalIf(r.lastEvent < r.firstEvent,
                "fault rule window for '" + r.site + "' is empty");
    }
}

FaultInjector::SiteState &
FaultInjector::siteState(std::string_view site)
{
    auto it = sites_.find(site);
    if (it == sites_.end()) {
        it = sites_
                 .emplace(std::string(site),
                          SiteState(plan_.seed ^ hashSite(site)))
                 .first;
    }
    return it->second;
}

std::uint64_t
FaultInjector::siteEvents(std::string_view site) const
{
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.events;
}

void
FaultInjector::count(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kDrop:
        ++drops_;
        if (stats_)
            stats_->counter(kDrop).increment();
        break;
      case FaultKind::kCorrupt:
        ++corruptions_;
        if (stats_)
            stats_->counter(kCorrupt).increment();
        break;
      case FaultKind::kDelay:
        ++delays_;
        if (stats_)
            stats_->counter(kDelay).increment();
        break;
      case FaultKind::kSlvErr:
        ++slvErrs_;
        if (stats_)
            stats_->counter(kSlverr).increment();
        break;
    }
}

FaultDecision
FaultInjector::decide(std::string_view site)
{
    FaultDecision d;
    if (plan_.empty())
        return d;

    SiteState &state = siteState(site);
    std::uint64_t event = state.events++;
    for (const FaultRule &r : plan_.rules) {
        if (site.substr(0, r.site.size()) != r.site)
            continue;
        if (event < r.firstEvent || event > r.lastEvent)
            continue;
        if (!state.rng.chance(r.probability))
            continue;
        count(r.kind);
        switch (r.kind) {
          case FaultKind::kDrop:
            d.drop = true;
            break;
          case FaultKind::kCorrupt:
            d.corrupt = true;
            break;
          case FaultKind::kDelay:
            d.extraDelay += r.delay;
            break;
          case FaultKind::kSlvErr:
            d.slvErr = true;
            break;
        }
    }
    return d;
}

void
FaultInjector::forEachSite(
    const std::function<void(const std::string &, std::uint64_t,
                             std::uint64_t, std::uint64_t)> &fn) const
{
    for (const auto &[name, state] : sites_) {
        auto [s0, s1] = state.rng.state();
        fn(name, s0, s1, state.events);
    }
}

void
FaultInjector::restoreSite(const std::string &site, std::uint64_t rng_s0,
                           std::uint64_t rng_s1, std::uint64_t events)
{
    SiteState &state = siteState(site);
    state.rng.setState(rng_s0, rng_s1);
    state.events = events;
}

void
FaultInjector::corruptBytes(std::string_view site, std::uint8_t *bytes,
                            std::size_t len)
{
    if (len == 0)
        return;
    SiteState &state = siteState(site);
    std::uint64_t bit = state.rng.below(len * 8);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

} // namespace smappic::sim
