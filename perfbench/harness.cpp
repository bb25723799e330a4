/**
 * @file
 * Measurement loops, spans, probes and the result JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "sim/parallel.hpp"

namespace perfbench
{

namespace
{

using namespace smappic;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile of @p v (p in [0, 1]); 0 when empty. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t i = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(i, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

/**
 * The level a run reports for repetition times and for the host
 * reference: the 10th percentile. The host's noise only ever slows a
 * repetition down and comes and goes in spells, so the fast tail is the
 * undisturbed level; the 10th percentile rather than the minimum keeps a
 * rare lucky repetition (two quiet cores at once, for the phased engine)
 * from setting it.
 */
double
fastTail(const std::vector<double> &v)
{
    return percentile(v, 0.1);
}

/** Probe loops store their results here so they are not optimized out. */
volatile std::uint64_t gSink = 0;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
statsDump(platform::Prototype &p)
{
    std::ostringstream os;
    p.stats().dump(os);
    return os.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Median over @p batches of (seconds per call of @p body(calls)),
 *  in nanoseconds. */
template <typename Body>
double
probeNs(int batches, std::uint64_t calls, Body body)
{
    std::vector<double> ns;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        body(calls);
        ns.push_back(since(t0) * 1e9 / static_cast<double>(calls));
    }
    return median(ns);
}

/**
 * Spans recorded around the driver's own calls into the simulator, each
 * with the StatRegistry counter deltas over its interval. Kept in memory
 * and printed when the benchmark ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Runs @p body inside span @p name; returns its duration (s). */
    template <typename Body>
    double
    span(const std::string &name, sim::StatRegistry *stats, Body body)
    {
        std::size_t idx = spans_.size();
        spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), {},
                              {}, {}});
        stack_.push_back(static_cast<int>(idx));
        std::map<std::string, std::uint64_t> before;
        if (stats)
            before = snapshot(*stats);
        spans_[idx].start = Clock::now();
        body();
        spans_[idx].end = Clock::now();
        stack_.pop_back();
        if (stats) {
            for (const auto &[k, v] : snapshot(*stats)) {
                std::uint64_t d = v - before[k];
                if (d)
                    spans_[idx].deltas.emplace_back(k, d);
            }
        }
        return seconds(spans_[idx]);
    }

    void clear() { spans_.clear(); }

    /** One "span ..." line per span: times in ms, self time excludes
     *  child spans, then the non-zero counter deltas. */
    void
    print(std::vector<std::string> &out) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double child = 0;
            for (const Span &c : spans_) {
                if (c.parent == static_cast<int>(i))
                    child += seconds(c);
            }
            std::ostringstream line;
            line << "span " << s.name << " parent="
                 << (s.parent < 0 ? "-" : spans_[s.parent].name)
                 << " start_ms="
                 << std::chrono::duration<double, std::milli>(s.start -
                                                              origin_)
                        .count()
                 << " dur_ms=" << seconds(s) * 1e3
                 << " self_ms=" << (seconds(s) - child) * 1e3;
            for (const auto &[k, d] : s.deltas)
                line << ' ' << k << "=+" << d;
            out.push_back(line.str());
        }
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
        std::vector<std::pair<std::string, std::uint64_t>> deltas;
    };

    static double
    seconds(const Span &s)
    {
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    static std::map<std::string, std::uint64_t>
    snapshot(const sim::StatRegistry &stats)
    {
        std::map<std::string, std::uint64_t> m;
        for (const auto &[k, c] : stats.counters())
            m[k] = c.value();
        return m;
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** sim.counter_lookup_ns: one string lookup on the run's registry. */
double
probeCounterLookup(sim::StatRegistry &stats)
{
    std::uint64_t sink = 0;
    double ns = probeNs(7, 200'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            sink += stats.counter("core.instret").value();
    });
    gSink = sink;
    return ns;
}

/** Lines of node @p node well clear of the workloads' program images. */
std::vector<Addr>
probeLines(platform::Prototype &p, NodeId node, std::size_t count)
{
    const auto &cfg = p.config();
    Addr base = platform::kDramBase +
                static_cast<Addr>(node) * cfg.memPerNode +
                cfg.memPerNode / 2;
    std::vector<Addr> lines;
    for (std::size_t i = 0; i < count; ++i)
        lines.push_back(base + i * kCacheLineBytes);
    return lines;
}

/**
 * cache.hit_ns / miss_local_ns / miss_remote_ns: CoherentSystem::access
 * from tile 0 on lines prepared to hit the L1, or to miss the private
 * caches and hit the home LLC on node 0 or node 1; the private caches are
 * flushed (untimed) between batches. Returns {hit, local, remote}; remote
 * is 0 on a one-node prototype.
 */
std::vector<double>
probeCache(platform::Prototype &p)
{
    cache::CoherentSystem &cs = p.memorySystem();
    // A private clock far past the run keeps shared servers idle.
    Cycles now = Cycles{1} << 50;
    auto touch = [&](Addr a) {
        now += 10'000;
        return cs.access(0, a, cache::AccessType::kLoad, 8, now).latency;
    };
    std::vector<double> out;
    Addr hot = probeLines(p, 0, 1)[0];
    touch(hot);
    out.push_back(probeNs(7, 100'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            touch(hot);
    }));
    for (NodeId node : {NodeId{0}, NodeId{1}}) {
        if (node >= p.config().totalNodes()) {
            out.push_back(0);
            continue;
        }
        std::vector<Addr> lines = probeLines(p, node, 64);
        for (Addr a : lines)
            touch(a); // Fills the home LLC slices.
        std::vector<double> ns;
        for (int b = 0; b < 300; ++b) {
            cs.flushPrivate(0);
            auto t0 = Clock::now();
            for (Addr a : lines)
                touch(a);
            ns.push_back(since(t0) * 1e9 / static_cast<double>(lines.size()));
        }
        cs.flushPrivate(0);
        out.push_back(median(ns));
    }
    return out;
}

/** os.translate_ns and os.yield_ns on a fresh guest over @p p. */
std::vector<double>
probeOs(platform::Prototype &p)
{
    auto guest = p.makeGuest(os::NumaMode::kOn, 1);
    constexpr std::uint64_t kPages = 64;
    Addr va = guest->vmAlloc(kPages * os::GuestSystem::kPageBytes);
    for (std::uint64_t i = 0; i < kPages; ++i)
        guest->translate(va + i * os::GuestSystem::kPageBytes, 0);
    Addr sink = 0;
    double translate = probeNs(7, 200'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            sink ^= guest->translate(
                va + (i % kPages) * os::GuestSystem::kPageBytes + 8, 0);
    });
    // Two compute-only workers; each compute(200) passes the other's
    // clock plus the 150-cycle scheduler quantum, so each call yields.
    double yield = probeNs(5, 20'000, [&](std::uint64_t n) {
        guest->parallelPhase({0, 1}, [&](os::Worker &w) {
            for (std::uint64_t i = 0; i < n / 2; ++i)
                w.compute(200);
        });
    });
    gSink = sink;
    return {translate, yield};
}

/** sim.barrier_ns: ParallelExecutor epochs with no-op node phases. */
double
probeBarrier(std::uint32_t workers, std::uint32_t groups)
{
    sim::ParallelExecutor ex(workers);
    std::uint64_t epochs = workers > 1 ? 5'000 : 200'000;
    return probeNs(5, epochs, [&](std::uint64_t n) {
        ex.run(
            groups, [](std::uint32_t) {},
            [n](std::uint64_t e) { return e + 1 < n; });
    });
}

/** One repetition: setup and run seconds, the checked outcome and the
 *  digest of the stats dump. */
struct Timed
{
    double setup = 0;
    double run = 0;
    Outcome outcome;
    std::uint64_t digest = 0;
};

Timed
timedRep(Workload &w)
{
    Timed t;
    auto t0 = Clock::now();
    w.construct();
    w.load();
    t.setup = since(t0);
    auto t1 = Clock::now();
    w.run();
    t.run = since(t1);
    t.outcome = w.check();
    t.digest = fnv1a(statsDump(w.proto()));
    return t;
}

/**
 * A fixed block of host work shaped like the simulator's own host
 * profile: random read-modify-writes over a 2 MiB table (directory and
 * cache arrays) and string-keyed std::map lookups built from a C string
 * (StatRegistry::counter). It is timed before every repetition, on as
 * many threads as the workload uses, until the slowest finishes — a
 * phased run waits for its slowest worker at every barrier. Its code is
 * part of the benchmark, so a change to the simulator cannot move it;
 * only the host's speed can.
 */
class HostReference
{
  public:
    /** The block's fast-tail time on a quiet 4-vCPU Xeon VM: timings are
     *  reported in seconds of that host. */
    static constexpr double kNominalSeconds = 0.007;

    explicit HostReference(std::uint32_t threads) : blocks_(threads)
    {
        time(); // Faults the tables in.
    }

    /** Runs the block once per thread; returns the wall time (s). */
    double
    time()
    {
        auto t0 = Clock::now();
        std::vector<std::jthread> helpers;
        for (std::size_t i = 1; i < blocks_.size(); ++i)
            helpers.emplace_back([this, i] { blocks_[i].run(); });
        blocks_[0].run();
        helpers.clear(); // Joins.
        double s = since(t0);
        for (const Block &b : blocks_)
            gSink = gSink + b.result;
        return s;
    }

  private:
    struct Block
    {
        static constexpr std::size_t kTableWords = 1 << 18;
        std::vector<std::uint64_t> table = std::vector<std::uint64_t>(
            kTableWords);
        std::map<std::string, std::uint64_t> names;
        std::uint64_t result = 0;

        Block()
        {
            for (int i = 0; i < 80; ++i)
                names["cs.node.counter" + std::to_string(i)] = i;
        }

        void
        run()
        {
            std::uint64_t x = 1234567;
            std::uint64_t acc = 0;
            for (int i = 0; i < 1'000'000; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                std::uint64_t &v = table[x & (kTableWords - 1)];
                v += acc;
                acc += v;
            }
            for (int i = 0; i < 100'000; ++i)
                acc += names["cs.node.counter37"];
            result = acc;
        }
    };

    std::vector<Block> blocks_;
};

/** The workload's target cycles and stats digest beside the raw
 *  repetition times and the host reference. */
std::string
summaryLine(const Options &opt, const Outcome &o, std::uint64_t digest,
            const std::vector<double> &runs, const std::vector<double> &refs)
{
    std::ostringstream os;
    os << opt.workload << ": seed=" << opt.seed << " reps=" << runs.size()
       << " target_cycles=" << o.targetCycles << " guest_ops=" << o.guestOps
       << " stats_digest=" << hex(digest)
       << " wall_run_s_min=" << percentile(runs, 0)
       << " wall_run_s_p10=" << percentile(runs, 0.1)
       << " wall_run_s_median=" << median(runs)
       << " wall_run_s_max=" << percentile(runs, 1.0)
       << " reference_s_p10=" << fastTail(refs)
       << " reference_s_median=" << median(refs);
    return os.str();
}

} // namespace

Report
measure(const Options &opt)
{
    Report r;
    HostReference host(
        makeWorkload(opt.workload, opt.seed, opt.scale)->workers());
    std::vector<double> refs;
    std::vector<double> setup;
    std::vector<double> run;
    Outcome first;
    std::uint64_t refDigest = 0;
    auto start = Clock::now();
    for (std::size_t rep = 0;; ++rep) {
        refs.push_back(host.time());
        auto w = makeWorkload(opt.workload, opt.seed, opt.scale);
        Timed t = timedRep(*w);
        w.reset();
        r.attempted += t.outcome.attempted;
        r.failed += t.outcome.failed;
        if (rep == 0) {
            // Warm-up: checked, not timed.
            first = t.outcome;
            refDigest = t.digest;
        } else {
            // Same seed, same stats: a difference is a determinism bug.
            r.attempted += 1;
            r.failed += t.digest != refDigest ? 1 : 0;
            setup.push_back(t.setup);
            run.push_back(t.run);
        }
        if (rep >= 2 && since(start) >= opt.seconds)
            break;
    }
    // The host's speed drifts by tens of percent over minutes. Scaling by
    // the reference block measured over the same seconds turns wall time
    // into seconds of the undisturbed host.
    double scale = HostReference::kNominalSeconds / fastTail(refs);
    double run_s = fastTail(run) * scale;
    r.notes.push_back(summaryLine(opt, first, refDigest, run, refs));
    r.metrics = {
        {"setup_s", median(setup) * scale, "s"},
        {"run_s", run_s, "s"},
        {"sim_mhz", ratio(static_cast<double>(first.targetCycles), run_s) /
                        1e6,
         "MHz"},
        {"guest_mops",
         ratio(static_cast<double>(first.guestOps), run_s) / 1e6, "Mop/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return r;
}

Report
traceRun(const Options &opt)
{
    Report r;
    auto start = Clock::now();
    SpanLog log(start);
    std::vector<double> plain;
    std::vector<double> traced;
    std::vector<double> barrierTimes;
    std::unique_ptr<Workload> kept;
    Outcome outcome;
    std::uint64_t digest = 0;
    double construct_s = 0;
    double load_s = 0;

    // A warm-up repetition, checked but not timed; then untraced and
    // traced repetitions alternate, so slow spells of the host land on
    // both sides of the overhead figure.
    {
        auto w = makeWorkload(opt.workload, opt.seed, opt.scale);
        Outcome o = timedRep(*w).outcome;
        r.attempted += o.attempted;
        r.failed += o.failed;
    }
    HostReference host(
        makeWorkload(opt.workload, opt.seed, opt.scale)->workers());
    std::vector<double> refs;
    while (traced.empty() || since(start) < opt.seconds) {
        refs.push_back(host.time());
        {
            auto w = makeWorkload(opt.workload, opt.seed, opt.scale);
            Timed t = timedRep(*w);
            plain.push_back(t.run);
            r.attempted += t.outcome.attempted;
            r.failed += t.outcome.failed;
        }
        kept.reset();
        log.clear();
        barrierTimes.clear();
        auto w = makeWorkload(opt.workload, opt.seed, opt.scale);
        log.span("setup", nullptr, [&] {
            construct_s =
                log.span("platform.construct", nullptr, [&] { w->construct(); });
            load_s = log.span("platform.load", &w->proto().stats(),
                              [&] { w->load(); });
        });
        w->proto().setBarrierProbe([&](Cycles) {
            barrierTimes.push_back(
                std::chrono::duration<double>(Clock::now() - start).count());
        });
        traced.push_back(
            log.span("run", &w->proto().stats(), [&] { w->run(); }));
        w->proto().setBarrierProbe(nullptr);
        log.span("check", nullptr, [&] {
            outcome = w->check();
            digest = fnv1a(statsDump(w->proto()));
        });
        r.attempted += outcome.attempted;
        r.failed += outcome.failed;
        kept = std::move(w);
    }

    platform::Prototype &p = kept->proto();
    const sim::StatRegistry &s = p.stats();
    auto c = [&](const char *name) {
        return static_cast<double>(s.counterValue(name));
    };

    // The phased run's stats must not depend on the worker count.
    if (kept->workers() > 1) {
        log.span("identity.one_worker", nullptr, [&] {
            auto one = makeWorkload(opt.workload, opt.seed, opt.scale, 1);
            one->construct();
            one->load();
            one->run();
            r.attempted += 1;
            r.failed += statsDump(one->proto()) != statsDump(p) ? 1 : 0;
        });
    }

    std::uint64_t decodeHits = 0;
    std::uint64_t decodeLooks = 0;
    for (GlobalTileId g = 0; g < p.coreCount(); ++g) {
        const auto &d = p.core(g).decodeCache().stats();
        decodeHits += d.hits;
        decodeLooks += d.hits + d.misses + d.bypasses;
    }
    std::uint64_t knownLines = 0;
    p.memorySystem().forEachKnownLine([&](Addr) { ++knownLines; });
    std::vector<double> epochUs;
    for (std::size_t i = 1; i < barrierTimes.size(); ++i)
        epochUs.push_back((barrierTimes[i] - barrierTimes[i - 1]) * 1e6);

    // Probes mutate the registry and caches, so they run after every
    // count above has been read.
    double instret = c("core.instret");
    double accesses = c("cs.l1.hits") + c("cs.l1.storeHits") +
                      c("cs.bpc.hits") + c("cs.bpc.misses");
    double remote = c("cs.serviced.llcRemote") + c("cs.serviced.dramRemote");
    double serviced = remote + c("cs.serviced.llcLocal") +
                      c("cs.serviced.dramLocal");
    auto missLat = s.summaries().find("cs.missLatency");
    r.metrics = {
        {"platform.construct_s", construct_s, "s"},
        {"platform.load_s", load_s, "s"},
        {"riscv.instret", instret, "count"},
        {"riscv.branches", c("core.branches"), "count"},
        {"riscv.mispredicts", c("core.mispredicts"), "count"},
        {"riscv.decode_hit_ratio",
         ratio(static_cast<double>(decodeHits),
               static_cast<double>(decodeLooks)),
         "ratio"},
        {"riscv.ns_per_inst", ratio(fastTail(plain) * 1e9, instret), "ns"},
        {"cache.accesses", accesses, "count"},
        {"cache.l1_hit_ratio",
         ratio(c("cs.l1.hits") + c("cs.l1.storeHits"), accesses), "ratio"},
        {"cache.bpc_misses", c("cs.bpc.misses"), "count"},
        {"cache.remote_fraction", ratio(remote, serviced), "ratio"},
        {"cache.llc_evictions", c("cs.llc.evictions"), "count"},
        {"cache.writebacks", c("cs.llc.writebacks") + c("cs.bpc.writebacks"),
         "count"},
        {"cache.dir_recalls",
         c("cs.dir.ownerRecalls") + c("cs.dir.invalidations"), "count"},
        {"cache.known_lines", static_cast<double>(knownLines), "count"},
        {"cache.miss_latency_cycles",
         missLat == s.summaries().end() ? 0.0 : missLat->second.mean(),
         "cycles"},
        {"noc.bridge_crossings", c("cs.bridge.crossings"), "count"},
        {"noc.bridge_bytes", c("cs.bridge.bytes"), "bytes"},
        {"pcie.transfers", c("pcie.transfers"), "count"},
        {"bridge.packets", c("bridge.packetsDelivered"), "count"},
        {"mem.dram_accesses", c("cs.dram.accesses"), "count"},
        {"platform.epochs", static_cast<double>(epochUs.size()), "count"},
        {"platform.epoch_us_p50", percentile(epochUs, 0.5), "us"},
        {"platform.epoch_us_p99", percentile(epochUs, 0.99), "us"},
        {"platform.target_cycles", static_cast<double>(outcome.targetCycles),
         "cycles"},
        {"trace.overhead_s", fastTail(traced) - fastTail(plain), "s"},
        {"host.reference_ms", fastTail(refs) * 1e3, "ms"},
    };

    double lookup = 0;
    std::vector<double> cacheNs;
    std::vector<double> osNs;
    double barrier = 0;
    log.span("probe.sim", nullptr,
             [&] { lookup = probeCounterLookup(p.stats()); });
    log.span("probe.cache", nullptr, [&] { cacheNs = probeCache(p); });
    log.span("probe.os", nullptr, [&] { osNs = probeOs(p); });
    log.span("probe.barrier", nullptr, [&] {
        barrier = probeBarrier(kept->workers(), p.config().totalNodes());
    });
    r.metrics.insert(r.metrics.end(),
                     {
                         {"sim.counter_lookup_ns", lookup, "ns"},
                         {"cache.hit_ns", cacheNs[0], "ns"},
                         {"cache.miss_local_ns", cacheNs[1], "ns"},
                         {"cache.miss_remote_ns", cacheNs[2], "ns"},
                         {"os.translate_ns", osNs[0], "ns"},
                         {"os.yield_ns", osNs[1], "ns"},
                         {"sim.barrier_ns", barrier, "ns"},
                     });

    r.notes.push_back(summaryLine(opt, outcome, digest, traced, refs));
    log.print(r.notes);
    return r;
}

std::string
toJson(const Report &report)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

bool
validMetricName(const std::string &name)
{
    return !name.empty() &&
           std::all_of(name.begin(), name.end(), [](char ch) {
               return std::isalnum(static_cast<unsigned char>(ch)) ||
                      ch == '_' || ch == '.' || ch == '-';
           });
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace perfbench
