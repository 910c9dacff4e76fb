#include "farm/manifest.h"

#include "farm/wire.h"
#include "util/file_io.h"

namespace strober {
namespace farm {

using util::ErrorCode;
using util::errorf;
using util::Result;
using util::Status;

namespace {

constexpr uint64_t kManifestMagic = 0x5354524246524d31ull; // "STRBFRM1"
// v2 added ManifestEntry.leaseDeadlineUnixMs (time-based lease expiry
// for the service tier). v1 manifests are still read; their leases
// carry deadline 0, which reclaimLeases() treats as already expired.
constexpr uint32_t kManifestVersion = 3; // v3: + stimulusFingerprint mirror

} // namespace

const char *
entryStateName(EntryState state)
{
    switch (state) {
      case EntryState::Pending:
        return "pending";
      case EntryState::Leased:
        return "leased";
      case EntryState::Done:
        return "done";
      case EntryState::Quarantined:
        return "quarantined";
    }
    return "unknown";
}

void
ShardManifest::applyTo(core::EnergySimulator::Config &cfg) const
{
    cfg.replayLength = replayLength;
    cfg.clockHz = clockHz;
    cfg.loader = static_cast<gate::LoaderKind>(loader);
    cfg.replayTimeoutCycles = replayTimeoutCycles;
    cfg.retryFaultySnapshots = retryFaultySnapshots != 0;
    cfg.confidence = confidence;
    cfg.minSurvivingSamples = minSurvivingSamples;
    cfg.maxDroppedSnapshots = maxDroppedSnapshots;
    cfg.stimulusFingerprint = stimulusFingerprint;
}

void
ShardManifest::mirrorFrom(const core::EnergySimulator::Config &cfg)
{
    replayLength = cfg.replayLength;
    clockHz = cfg.clockHz;
    loader = static_cast<uint32_t>(cfg.loader);
    replayTimeoutCycles = cfg.replayTimeoutCycles;
    retryFaultySnapshots = cfg.retryFaultySnapshots ? 1 : 0;
    confidence = cfg.confidence;
    minSurvivingSamples = cfg.minSurvivingSamples;
    maxDroppedSnapshots = cfg.maxDroppedSnapshots;
    stimulusFingerprint = cfg.stimulusFingerprint;
}

size_t
ShardManifest::count(EntryState state) const
{
    size_t n = 0;
    for (const ManifestEntry &e : entries)
        n += e.state == state;
    return n;
}

std::string
shardManifestName(uint32_t shard)
{
    return "shard_" + std::to_string(shard) + ".strbfarm";
}

size_t
reclaimLeases(ShardManifest &manifest, uint64_t nowUnixMs)
{
    size_t reclaimed = 0;
    for (ManifestEntry &e : manifest.entries) {
        if (e.state != EntryState::Leased)
            continue;
        // deadline == now counts as expired: the lease promised work
        // *before* now, and a worker that has not delivered by its own
        // deadline forfeits the entry.
        if (e.leaseDeadlineUnixMs <= nowUnixMs) {
            e.state = EntryState::Pending;
            e.leaseDeadlineUnixMs = 0;
            ++reclaimed;
        }
    }
    return reclaimed;
}

Status
writeManifestFile(const std::string &path, const ShardManifest &m)
{
    wire::Writer w;
    w.u64(kManifestMagic);
    w.u64(kManifestVersion);
    w.u64(m.shard);
    w.u64(m.shards);
    w.u64(m.population);
    w.u64(m.sampleCount);
    w.u64(m.netlistFingerprint);
    w.u64(m.configFingerprint);
    w.u64(m.powerModelVersion);
    w.str(m.coreName);
    w.str(m.workloadName);
    w.u64(m.replayLength);
    w.f64(m.clockHz);
    w.u64(m.loader);
    w.u64(m.replayTimeoutCycles);
    w.u64(m.retryFaultySnapshots);
    w.f64(m.confidence);
    w.u64(m.minSurvivingSamples);
    w.u64(m.maxDroppedSnapshots);
    w.u64(m.stimulusFingerprint);
    w.u64(m.entries.size());
    for (const ManifestEntry &e : m.entries) {
        w.u64(e.index);
        w.u64(e.cycle);
        w.str(e.snapshotFile);
        w.u64(e.key.hi);
        w.u64(e.key.lo);
        w.u64(static_cast<uint64_t>(e.state));
        w.u64(e.injectedStallCycles);
        w.u64(e.leaseDeadlineUnixMs);
        w.u64(e.failStatus);
        w.u64(e.failAttempts);
        w.u64(e.failRetried);
        w.u64(e.failMismatches);
        w.f64(e.failLoadSeconds);
        w.str(e.failDetail);
    }

    // A killed run leaves either the previous manifest or the new one,
    // never a torn file.
    return util::writeFileAtomic(path, w.sealed());
}

Result<ShardManifest>
readManifestFile(const std::string &path, bool reclaimLeases)
{
    Result<std::string> bytes = util::readFile(path);
    if (!bytes.isOk())
        return bytes.status();
    wire::Reader r(std::move(*bytes));

    if (r.u64() != kManifestMagic || r.failed()) {
        return errorf(ErrorCode::Corrupt,
                      "'%s' is not a farm manifest (bad magic or CRC)",
                      path.c_str());
    }
    uint64_t version = r.u64();
    if (version < 1 || version > kManifestVersion) {
        return errorf(ErrorCode::Unsupported,
                      "'%s': unsupported manifest version %llu",
                      path.c_str(), (unsigned long long)version);
    }
    ShardManifest m;
    m.shard = static_cast<uint32_t>(r.u64());
    m.shards = static_cast<uint32_t>(r.u64());
    m.population = r.u64();
    m.sampleCount = r.u64();
    m.netlistFingerprint = r.u64();
    m.configFingerprint = r.u64();
    m.powerModelVersion = static_cast<uint32_t>(r.u64());
    m.coreName = r.str();
    m.workloadName = r.str();
    m.replayLength = static_cast<uint32_t>(r.u64());
    m.clockHz = r.f64();
    m.loader = static_cast<uint32_t>(r.u64());
    m.replayTimeoutCycles = r.u64();
    m.retryFaultySnapshots = static_cast<uint32_t>(r.u64());
    m.confidence = r.f64();
    m.minSurvivingSamples = r.u64();
    m.maxDroppedSnapshots = r.u64();
    m.stimulusFingerprint = version >= 3 ? r.u64() : 0;
    uint64_t count = r.u64();
    if (r.failed() || count > wire::kMaxDim) {
        return errorf(ErrorCode::Corrupt, "'%s': manifest corrupt",
                      path.c_str());
    }
    m.entries.resize(count);
    for (ManifestEntry &e : m.entries) {
        e.index = r.u64();
        e.cycle = r.u64();
        e.snapshotFile = r.str();
        e.key.hi = r.u64();
        e.key.lo = r.u64();
        uint64_t state = r.u64();
        if (state > static_cast<uint64_t>(EntryState::Quarantined)) {
            return errorf(ErrorCode::Corrupt,
                          "'%s': entry %llu has invalid state %llu",
                          path.c_str(), (unsigned long long)e.index,
                          (unsigned long long)state);
        }
        e.state = static_cast<EntryState>(state);
        e.injectedStallCycles = r.u64();
        e.leaseDeadlineUnixMs = version >= 2 ? r.u64() : 0;
        e.failStatus = static_cast<uint32_t>(r.u64());
        e.failAttempts = static_cast<uint32_t>(r.u64());
        e.failRetried = static_cast<uint32_t>(r.u64());
        e.failMismatches = r.u64();
        e.failLoadSeconds = r.f64();
        e.failDetail = r.str();
        if (reclaimLeases && e.state == EntryState::Leased) {
            e.state = EntryState::Pending;
            e.leaseDeadlineUnixMs = 0;
        }
    }
    if (!r.atEnd()) {
        return errorf(ErrorCode::Corrupt,
                      "'%s': manifest truncated or has trailing bytes",
                      path.c_str());
    }
    if (m.shard >= m.shards) {
        return errorf(ErrorCode::Corrupt,
                      "'%s': shard %u out of range (of %u)", path.c_str(),
                      m.shard, m.shards);
    }
    return m;
}

} // namespace farm
} // namespace strober
