#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "sim/log.hpp"

namespace smappic::sim
{

Histogram::Histogram(std::size_t buckets, double width)
    : counts_(buckets, 0), width_(width)
{
    fatalIf(buckets == 0, "histogram needs at least one bucket");
    fatalIf(width <= 0.0, "histogram bucket width must be positive");
}

void
Histogram::sample(double v)
{
    summary_.sample(v);
    if (v < 0.0) {
        // Dedicated underflow bin: folding negatives into bucket 0 would
        // make percentile() report them as positive values in [0, width).
        underflow_ += 1;
        return;
    }
    auto idx = static_cast<std::size_t>(v / width_);
    if (idx >= counts_.size())
        overflow_ += 1;
    else
        counts_[idx] += 1;
}

double
Histogram::percentile(double p) const
{
    p = std::clamp(p, 0.0, 1.0);
    std::uint64_t total = summary_.count();
    if (total == 0)
        return 0.0;
    auto threshold =
        static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total)));
    threshold = std::max<std::uint64_t>(threshold, 1);
    std::uint64_t seen = underflow_;
    if (seen >= threshold)
        return summary_.min();
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= threshold)
            return (static_cast<double>(i) + 1.0) * width_;
    }
    return summary_.max();
}

void
Histogram::merge(const Histogram &o)
{
    panicIf(counts_.size() != o.counts_.size() || width_ != o.width_,
            "merging histograms of different shapes");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    overflow_ += o.overflow_;
    underflow_ += o.underflow_;
    summary_.merge(o.summary_);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    overflow_ = 0;
    underflow_ = 0;
    summary_.reset();
}

namespace
{

/** Process-wide name <-> StatId table. Names never leave it, so the
 *  deque's elements (and the views keyed on them) stay valid. */
struct InternTable
{
    std::mutex mu;
    std::deque<std::string> names;
    std::unordered_map<std::string_view, std::uint32_t> ids;
};

InternTable &
internTable()
{
    static InternTable table;
    return table;
}

} // namespace

StatId::StatId(std::string_view name)
{
    InternTable &t = internTable();
    std::lock_guard lock(t.mu);
    auto it = t.ids.find(name);
    if (it == t.ids.end()) {
        t.names.emplace_back(name);
        it = t.ids
                 .emplace(t.names.back(),
                          static_cast<std::uint32_t>(t.names.size() - 1))
                 .first;
    }
    index_ = it->second;
}

const std::string &
StatId::name() const
{
    InternTable &t = internTable();
    std::lock_guard lock(t.mu);
    return t.names[index_];
}

Counter &
StatRegistry::fillCounter(StatId id)
{
    return counterSlots_.fill(id, counters_[id.name()]);
}

Summary &
StatRegistry::fillSummary(StatId id)
{
    return summarySlots_.fill(id, summaries_[id.name()]);
}

thread_local StatRegistry *StatRegistry::tlsRoot_ = nullptr;
thread_local StatRegistry *StatRegistry::tlsShard_ = nullptr;

StatRegistry::Redirect::Redirect(StatRegistry *root, StatRegistry *shard)
    : prevRoot_(tlsRoot_), prevShard_(tlsShard_)
{
    tlsRoot_ = root;
    tlsShard_ = shard;
}

StatRegistry::Redirect::~Redirect()
{
    tlsRoot_ = prevRoot_;
    tlsShard_ = prevShard_;
}

void
StatRegistry::mergeFrom(const StatRegistry &o)
{
    for (const auto &[name, c] : o.counters_)
        counters_[name].increment(c.value());
    for (const auto &[name, s] : o.summaries_)
        summaries_[name].merge(s);
    for (const auto &[name, h] : o.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end())
            histograms_.emplace(name, h);
        else
            it->second.merge(h);
    }
}

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, s] : summaries_) {
        os << name << ".mean " << s.mean() << "\n";
        os << name << ".count " << s.count() << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        os << name << ".mean " << h.summary().mean() << "\n";
        os << name << ".p50 " << h.percentile(0.5) << "\n";
        os << name << ".p99 " << h.percentile(0.99) << "\n";
        os << name << ".underflow " << h.underflow() << "\n";
        os << name << ".overflow " << h.overflow() << "\n";
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    auto key = [&](const std::string &name) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << name << "\":";
    };
    // Counters are exact integers: routing them through a double with the
    // default ostream precision prints values above ~1e6 as "1.23457e+06",
    // which both loses digits and breaks strict JSON consumers.
    auto emitInt = [&](const std::string &name, std::uint64_t value) {
        key(name);
        os << value;
    };
    // Floats print with max_digits10 (%.17g) so values round-trip exactly.
    auto emitFloat = [&](const std::string &name, double value) {
        key(name);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        os << buf;
    };
    for (const auto &[name, c] : counters_)
        emitInt(name, c.value());
    for (const auto &[name, s] : summaries_) {
        emitFloat(name + ".mean", s.mean());
        emitInt(name + ".count", s.count());
        emitFloat(name + ".min", s.min());
        emitFloat(name + ".max", s.max());
    }
    for (const auto &[name, h] : histograms_) {
        emitFloat(name + ".mean", h.summary().mean());
        emitFloat(name + ".p50", h.percentile(0.5));
        emitFloat(name + ".p99", h.percentile(0.99));
        emitInt(name + ".underflow", h.underflow());
        emitInt(name + ".overflow", h.overflow());
    }
    os << "}";
}

void
StatRegistry::resetAll()
{
    for (auto &[name, c] : counters_)
        c.reset();
    for (auto &[name, s] : summaries_)
        s.reset();
    for (auto &[name, h] : histograms_)
        h.reset();
}

} // namespace smappic::sim
