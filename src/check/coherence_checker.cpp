#include "check/coherence_checker.hpp"

#include "sim/log.hpp"

namespace smappic::check
{

namespace
{

const sim::StatId kViolations("check.violations");

} // namespace

CoherenceChecker::CoherenceChecker(cache::CoherentSystem &cs,
                                   CheckConfig cfg,
                                   sim::StatRegistry *stats)
    : cs_(cs), cfg_(cfg), stats_(stats)
{
}

void
CoherenceChecker::report(Addr line, const std::string &what)
{
    ++violationCount_;
    if (stats_)
        stats_->counter(kViolations).increment();
    std::string msg =
        strfmt("coherence violation at line 0x%llx: ",
               static_cast<unsigned long long>(line)) +
        what;
    if (cfg_.panicOnViolation)
        panic(msg);
    if (violations_.size() < cfg_.maxViolations)
        violations_.push_back(Violation{msg, line, eventsChecked_});
}

std::uint64_t
CoherenceChecker::checkLine(Addr line)
{
    using cache::CoherentSystem;
    std::uint64_t before = violationCount_;
    cache::LineView v = cs_.inspectLine(line);

    // 1. SWMR over actual cache states.
    std::uint32_t copies = 0;
    std::uint32_t modified = 0;
    for (std::uint32_t g = 0; g < v.tiles.size(); ++g) {
        if (!v.tiles[g].inBpc)
            continue;
        ++copies;
        if (v.tiles[g].bpcState == CoherentSystem::kLineModified)
            ++modified;
    }
    if (modified > 1)
        report(line, strfmt("%u modified private copies (SWMR)", modified));
    else if (modified == 1 && copies > 1)
        report(line, strfmt("modified copy coexists with %u other "
                            "copies (SWMR)",
                            copies - 1));

    // 2. Directory precision.
    if (v.owner >= 0 &&
        (v.sharers & ~(1ULL << static_cast<std::uint32_t>(v.owner))) != 0)
        report(line, "directory lists sharers alongside an owner");
    for (std::uint32_t g = 0; g < v.tiles.size(); ++g) {
        bool dir_owner = v.owner == static_cast<std::int32_t>(g);
        bool dir_member = dir_owner || ((v.sharers >> g) & 1) != 0;
        const cache::TileLineView &t = v.tiles[g];
        if (dir_member && !t.inBpc) {
            report(line, strfmt("directory names tile %u but its BPC "
                                "lacks the line",
                                g));
        } else if (!dir_member && t.inBpc) {
            report(line, strfmt("tile %u holds a copy the directory "
                                "does not name (stale?)",
                                g));
        } else if (t.inBpc) {
            std::uint32_t want = dir_owner ? CoherentSystem::kLineModified
                                           : CoherentSystem::kLineShared;
            if (t.bpcState != want)
                report(line,
                       strfmt("tile %u BPC state %u disagrees with "
                              "directory (%s expected)",
                              g, t.bpcState,
                              dir_owner ? "modified" : "shared"));
        }
    }

    // 3. Inclusion: L1 within BPC; private copies within the home LLC;
    //    directory LLC bit vs the home slice tag array.
    bool any_private = false;
    for (std::uint32_t g = 0; g < v.tiles.size(); ++g) {
        const cache::TileLineView &t = v.tiles[g];
        any_private = any_private || t.inBpc;
        if ((t.inL1d || t.inL1i) && !t.inBpc)
            report(line,
                   strfmt("tile %u L1 holds the line outside its BPC "
                          "(inclusion)",
                          g));
    }
    if (any_private && !(v.hasDirEntry && v.inLlc && v.homeSliceHolds))
        report(line, "private copies without a resident home-LLC line "
                     "(inclusion)");
    if (v.hasDirEntry && v.inLlc != v.homeSliceHolds)
        report(line, "directory LLC-residency bit disagrees with the "
                     "home slice");
    if (!v.hasDirEntry && v.homeSliceHolds)
        report(line, "home slice holds a line without a directory entry");

    return violationCount_ - before;
}

void
CoherenceChecker::onEvent(const cache::CoherenceEvent &ev)
{
    ++eventsChecked_;
    checkLine(ev.line);
}

std::uint64_t
CoherenceChecker::sweep()
{
    std::uint64_t found = 0;
    cs_.forEachKnownLine([&](Addr line) { found += checkLine(line); });
    return found;
}

void
CoherenceChecker::reset()
{
    violations_.clear();
    violationCount_ = 0;
    eventsChecked_ = 0;
}

} // namespace smappic::check
