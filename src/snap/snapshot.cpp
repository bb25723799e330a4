#include "snap/snapshot.hpp"

#include <algorithm>
#include <filesystem>

#include "sim/log.hpp"

namespace smappic::snap
{

namespace fs = std::filesystem;

namespace
{

const char *
sectionName(std::uint32_t tag)
{
    switch (static_cast<Section>(tag)) {
      case Section::kMeta: return "meta";
      case Section::kTime: return "time";
      case Section::kResume: return "resume";
      case Section::kCores: return "cores";
      case Section::kMemory: return "memory";
      case Section::kCache: return "cache";
      case Section::kFabric: return "fabric";
      case Section::kDevices: return "devices";
      case Section::kStats: return "stats";
      case Section::kTracer: return "tracer";
      case Section::kFault: return "fault";
    }
    return "?";
}

/** True when @p name looks like smck-<digits>.smck; extracts the cycle. */
bool
parseCheckpointName(const std::string &name, Cycles &cycle)
{
    const std::string prefix = "smck-";
    const std::string suffix = ".smck";
    if (name.size() <= prefix.size() + suffix.size())
        return false;
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0)
        return false;
    std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty())
        return false;
    cycle = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return false;
        cycle = cycle * 10 + static_cast<Cycles>(c - '0');
    }
    return true;
}

} // namespace

SnapshotInfo
inspect(const std::string &path)
{
    Reader r(path);
    SnapshotInfo info;
    info.version = r.version();
    info.configHash = r.configHash();
    info.sections = r.sections();
    r.open(Section::kMeta);
    info.configName = r.str();
    info.seed = r.u64();
    info.nodes = r.u32();
    info.tilesPerNode = r.u32();
    info.cycle = r.u64();
    info.instret = r.u64();
    return info;
}

bool
validate(const std::string &path, std::string *error)
{
    try {
        Reader r(path);
        for (const Reader::SectionDesc &d : r.sections())
            r.open(static_cast<Section>(d.tag)); // CRC check per section.
        SnapshotInfo info = inspect(path);
        fatalIf(info.nodes == 0 || info.tilesPerNode == 0,
                "SMCK: meta section carries an empty geometry");
        fatalIf(!r.has(Section::kCores) || !r.has(Section::kMemory),
                "SMCK: checkpoint lacks the core or memory section");
    } catch (const FatalError &e) {
        if (error)
            *error = e.what();
        return false;
    }
    return true;
}

std::vector<std::string>
diff(const std::string &path_a, const std::string &path_b)
{
    std::vector<std::string> out;
    SnapshotInfo a = inspect(path_a);
    SnapshotInfo b = inspect(path_b);
    if (a.configHash != b.configHash)
        out.push_back(strfmt("config hash: %016llx vs %016llx",
                             static_cast<unsigned long long>(a.configHash),
                             static_cast<unsigned long long>(b.configHash)));
    if (a.cycle != b.cycle)
        out.push_back(strfmt("checkpoint cycle: %llu vs %llu",
                             static_cast<unsigned long long>(a.cycle),
                             static_cast<unsigned long long>(b.cycle)));
    if (a.instret != b.instret)
        out.push_back(strfmt("committed instructions: %llu vs %llu",
                             static_cast<unsigned long long>(a.instret),
                             static_cast<unsigned long long>(b.instret)));

    auto find = [](const SnapshotInfo &info, std::uint32_t tag)
        -> const Reader::SectionDesc * {
        for (const auto &d : info.sections) {
            if (d.tag == tag)
                return &d;
        }
        return nullptr;
    };
    for (const auto &da : a.sections) {
        const Reader::SectionDesc *db = find(b, da.tag);
        if (!db) {
            out.push_back(strfmt("%s: only in %s", sectionName(da.tag),
                                 path_a.c_str()));
            continue;
        }
        if (da.size != db->size) {
            out.push_back(strfmt(
                "%s: %llu vs %llu bytes", sectionName(da.tag),
                static_cast<unsigned long long>(da.size),
                static_cast<unsigned long long>(db->size)));
        } else if (da.crc != db->crc) {
            out.push_back(strfmt("%s: %llu bytes, payloads differ",
                                 sectionName(da.tag),
                                 static_cast<unsigned long long>(da.size)));
        }
    }
    for (const auto &db : b.sections) {
        if (!find(a, db.tag))
            out.push_back(strfmt("%s: only in %s", sectionName(db.tag),
                                 path_b.c_str()));
    }
    return out;
}

std::string
checkpointFileName(Cycles cycle)
{
    return strfmt("smck-%012llu.smck",
                  static_cast<unsigned long long>(cycle));
}

std::vector<std::string>
listCheckpoints(const std::string &dir)
{
    std::vector<std::pair<Cycles, std::string>> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        Cycles cycle = 0;
        std::string name = entry.path().filename().string();
        if (entry.is_regular_file(ec) && parseCheckpointName(name, cycle))
            found.emplace_back(cycle, entry.path().string());
    }
    std::sort(found.begin(), found.end());
    std::vector<std::string> out;
    out.reserve(found.size());
    for (auto &[cycle, path] : found)
        out.push_back(std::move(path));
    return out;
}

std::string
latestCheckpoint(const std::string &dir)
{
    std::vector<std::string> all = listCheckpoints(dir);
    return all.empty() ? std::string() : all.back();
}

void
pruneCheckpoints(const std::string &dir, std::uint32_t keep)
{
    if (keep == 0)
        return;
    std::vector<std::string> all = listCheckpoints(dir);
    if (all.size() <= keep)
        return;
    std::error_code ec;
    for (std::size_t i = 0; i + keep < all.size(); ++i)
        fs::remove(all[i], ec);
}

} // namespace smappic::snap
