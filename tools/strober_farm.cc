/**
 * @file
 * The `strober-farm` tool: a durable, multi-process replay farm over a
 * run directory (paper Section III-B: replays are embarrassingly
 * parallel, so throw a pool of gate-level simulator processes at them).
 *
 *   strober-farm run <core> <workload> --dir D [-j N] [--shards S]
 *       # fast sim + plan + N worker processes + collect + report.
 *       # Kill it at any instant and run it again: completed replays
 *       # are not redone and the final report is bit-identical.
 *   strober-farm worker --dir D --shard K       # one detached worker
 *   strober-farm status --dir D                 # work-queue progress
 *   strober-farm gc --cache-dir C --keep N      # trim the result cache
 *       [--max-age DUR] [--max-bytes B]
 *
 * Client subcommands talk to a running `strober-serve` daemon:
 *
 *   strober-farm submit <core> <workload> --socket S [--deadline DUR]
 *       [--workers N] [--wait [--timeout DUR]]
 *   strober-farm wait --socket S --job ID [--timeout DUR] [--report F]
 *   strober-farm jobstat --socket S --job ID
 *   strober-farm stats --socket S
 *   strober-farm cancel --socket S --job ID
 *   strober-farm shutdown --socket S
 *
 * Exit codes (same convention as `strober run`): 0 clean estimate,
 * 1 degraded-but-valid, 2 usage error, 3 invalid estimate / run
 * failure / unreachable daemon, 4 refused (overloaded or draining) or
 * canceled, 5 wait timeout.
 *
 * A worker receiving SIGTERM drains: it takes no new lease (one taken
 * as the signal lands is checkpointed back to Pending), replays and
 * records the batch of leases it already holds, and exits 0; a resumed
 * run produces the bit-identical report.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli_args.h"
#include "core/energy_sim.h"
#include "core/job_control.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "farm/stream.h"
#include "service/client.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "trace/stimulus.h"
#include "workloads/workloads.h"

using namespace strober;

namespace {

cores::SocConfig
coreByName(const std::string &name)
{
    if (name == "rocket")
        return cores::SocConfig::rocket();
    if (name == "boom1w")
        return cores::SocConfig::boom1w();
    if (name == "boom2w")
        return cores::SocConfig::boom2w();
    fatal("unknown core '%s' (rocket | boom1w | boom2w)", name.c_str());
}

void
printReportSummary(const core::EnergyReport &rep,
                   const farm::ResultCache::Stats &cache)
{
    std::printf("average power: %.3f mW +/- %.3f (%zu snapshots, %zu "
                "dropped, %llu replay mismatches)\n",
                rep.averagePower.mean * 1e3,
                rep.averagePower.halfWidth * 1e3, rep.snapshots,
                rep.droppedSnapshots,
                (unsigned long long)rep.replayMismatches);
    std::printf("collect: %zu result(s) served by the cache, %zu "
                "replayed inline, %llu corrupt cache entr(ies) degraded "
                "to misses\n",
                rep.cacheHits, rep.cacheMisses,
                (unsigned long long)cache.corruptEntries);
    if (rep.degraded || !rep.valid) {
        std::printf("%s: %s\n", rep.valid ? "degraded" : "INVALID",
                    rep.statusMessage.c_str());
    }
}

struct FarmCliOptions
{
    std::string dir;
    std::string cacheDir;
    std::string reportPath; //!< empty = "<dir>/report.txt"
    unsigned jobs = 1;
    unsigned shards = 0; //!< 0 = same as jobs
    unsigned shard = 0;  //!< `worker` only
    bool haveShard = false;
    unsigned slot = 0;  //!< `worker` only: this worker's slot index
    unsigned slots = 0; //!< `worker` only: pool size (0 = not slotted)
    uint64_t deadlineUnixMs = 0; //!< `worker` only: absolute job deadline
    size_t keep = 0;             //!< `gc` only
    bool haveKeep = false;
    uint64_t gcMaxAgeSec = 0;    //!< `gc` only: 0 = no age limit
    uint64_t gcMaxBytes = 0;     //!< `gc` only: 0 = no size budget
    std::string socketPath;      //!< client subcommands
    uint64_t jobId = 0;
    bool haveJob = false;
    uint64_t timeoutMs = 0;      //!< client wait budget; 0 = forever
    uint64_t deadlineMs = 0;     //!< submit: per-job deadline
    unsigned serveWorkers = 0;   //!< submit: worker count (0 = daemon's)
    bool waitAfterSubmit = false;
    std::string stimulus; //!< VCD trace instead of a built-in workload
    bool stream = false;  //!< workers replay while the fast sim runs
    double ciBound = 0;   //!< adaptive stop bound (implies --stream)
    core::EnergySimulator::Config sim;
};

void
onWorkerSigterm(int)
{
    // Drain: the worker loop checkpoints the in-flight lease back to
    // Pending and exits 0. One atomic store — async-signal-safe.
    core::globalJobControl().cancel.store(true, std::memory_order_relaxed);
}

/**
 * Worker body shared by `run` (forked children) and `worker` (detached
 * processes): drain every shard congruent to @p slot mod @p slots, then
 * the built-in work stealing covers stragglers.
 */
int
workerBody(const rtl::Design &soc, const FarmCliOptions &opts,
           unsigned slot, unsigned slots, unsigned totalShards)
{
    // SIGTERM = drain (checkpoint the lease, exit 0); the supervisor in
    // strober-serve relies on this for graceful stop. SIGKILL needs no
    // handling — the farm is crash-only by design.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onWorkerSigterm;
    ::sigaction(SIGTERM, &sa, nullptr);

    // Belt-and-braces memory cap (the supervisor also polls our RSS).
    bool haveRss = false;
    unsigned long rssMb =
        util::envULong("STROBER_WORKER_RSS_MB", 0, &haveRss);
    if (haveRss && rssMb != 0)
        util::applyMemoryRlimitMb(rssMb);

    core::JobControl &job = core::globalJobControl();
    if (opts.deadlineUnixMs != 0) {
        job.deadlineUnixMs.store(opts.deadlineUnixMs,
                                 std::memory_order_relaxed);
    }

    farm::FarmConfig fcfg;
    fcfg.dir = opts.dir;
    fcfg.cacheDir = opts.cacheDir;
    fcfg.shards = totalShards;
    fcfg.sim = opts.sim;
    fcfg.sim.job = &job;
    farm::FarmOrchestrator orch(soc, fcfg);
    if (opts.stream) {
        // Overlap phase: replay feed entries into the cache while the
        // producer's fast sim is still running. An early-stop marker
        // (--ci-bound met) ends the job here; otherwise fall through to
        // the ordinary manifest phase, which finds the cache warm.
        util::Result<farm::StreamDrainOutcome> dr =
            orch.drainStream(slot, slots);
        if (!dr.isOk()) {
            std::fprintf(stderr, "worker: stream drain: %s\n",
                         dr.status().toString().c_str());
            // Not fatal: the plan phase replays whatever was missed.
        } else if (dr->earlyStop || dr->canceled) {
            return 0;
        }
        // The producer plans the manifests only after the fast sim
        // ends; wait for its marker so we never race a stale prior
        // run's queue.
        const uint64_t waitCapMs = 10 * 60 * 1000;
        uint64_t waitedMs = 0;
        while (!farm::planMarkerExists(opts.dir)) {
            if (job.canceled() || job.deadlineExpired())
                return 0;
            if (waitedMs >= waitCapMs) {
                std::fprintf(stderr,
                             "worker: no plan marker after %llu ms; "
                             "exiting (collect replays inline)\n",
                             (unsigned long long)waitedMs);
                return 0;
            }
            ::usleep(50 * 1000);
            waitedMs += 50;
        }
    }
    int rc = 0;
    for (unsigned k = slot; k < totalShards; k += slots) {
        if (job.canceled())
            break;
        util::Status st = orch.workShard(k);
        if (!st.isOk()) {
            std::fprintf(stderr, "worker: shard %u failed: %s\n", k,
                         st.toString().c_str());
            rc = 3;
        }
    }
    return rc;
}

int
cmdRun(const std::string &coreName, const std::string &wlName,
       FarmCliOptions opts)
{
    rtl::Design soc = cores::buildSoc(coreByName(coreName));
    const bool fromTrace = !opts.stimulus.empty();
    workloads::Workload wl;
    trace::TraceWorkload twl;
    core::EnergySimulator::Config simCfg = opts.sim;
    if (fromTrace) {
        util::Result<trace::TraceWorkload> r =
            trace::loadTraceWorkload(opts.stimulus);
        if (!r.isOk())
            fatal("stimulus: %s", r.status().toString().c_str());
        twl = r.value();
        simCfg.stimulusFingerprint = twl.fingerprint;
    } else {
        wl = workloads::byName(wlName);
    }
    unsigned shards = opts.shards ? opts.shards : std::max(1u, opts.jobs);
    if (opts.ciBound > 0)
        opts.stream = true; // the bound is evaluated over streamed results
    simCfg.ciBound = opts.ciBound;

    farm::FarmConfig fcfg;
    fcfg.dir = opts.dir;
    fcfg.cacheDir = opts.cacheDir;
    fcfg.shards = shards;
    fcfg.sim = simCfg;
    fcfg.coreName = coreName;
    fcfg.workloadName = fromTrace ? twl.name : wl.name;
    farm::FarmOrchestrator orch(soc, fcfg);

    // Streamed runs open the feed (building the ASIC flow up front) so
    // the forked workers replay captures while the fast sim still runs.
    std::unique_ptr<farm::StreamFeed> feed;
    core::EnergySimulator *probeSim = nullptr;
    bool ciStopped = false;
    if (opts.stream) {
        util::Result<std::unique_ptr<farm::StreamFeed>> f =
            orch.openStreamFeed();
        if (!f.isOk())
            fatal("stream feed: %s", f.status().toString().c_str());
        feed = std::move(f.value());
        if (opts.ciBound > 0) {
            // Throttled CI check: every 8th interval boundary, fold the
            // results workers published so far and stop once tight.
            simCfg.earlyStopProbe = [&opts, &simCfg, &orch, &feed,
                                     &probeSim, &ciStopped,
                                     calls = uint64_t(0)]() mutable {
                if (++calls % 8 != 0)
                    return false;
                uint64_t population = std::max<uint64_t>(
                    probeSim->sampler().intervalsSeen(), 1);
                ciStopped = feed->ciBoundMet(orch.cache(), opts.ciBound,
                                             simCfg.confidence, population,
                                             simCfg.sampleSize);
                return ciStopped;
            };
        }
    }

    // Phase 1: fast simulation with snapshot sampling (always rerun —
    // it is cheap and deterministic; the expensive gate-level replays
    // are what the farm caches).
    core::EnergySimulator sim(soc, simCfg);
    probeSim = &sim;
    if (feed)
        sim.sampler().setObserver(feed.get());

    // Streamed: the worker pool forks before the fast sim and drains
    // the feed concurrently (children inherit soc read-only; each opens
    // its own orchestrator over the shared run directory).
    unsigned jobs = std::max(1u, opts.jobs);
    std::vector<pid_t> kids;
    auto forkWorkers = [&] {
        for (unsigned w = 0; w < jobs; ++w) {
            pid_t pid = fork();
            if (pid < 0)
                fatal("fork failed");
            if (pid == 0)
                _exit(workerBody(soc, opts, w, jobs, shards));
            kids.push_back(pid);
        }
    };
    auto reapWorkers = [&] {
        for (pid_t pid : kids) {
            int wstatus = 0;
            waitpid(pid, &wstatus, 0);
            if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
                std::fprintf(stderr,
                             "worker %d exited abnormally; collect() "
                             "will finish its shard inline\n",
                             (int)pid);
            }
        }
        kids.clear();
    };
    if (opts.stream)
        forkWorkers();

    std::unique_ptr<cores::SocDriver> socDriver;
    std::unique_ptr<trace::TraceDriver> traceDriver;
    core::HostDriver *driver = nullptr;
    uint64_t maxCycles = 0;
    if (fromTrace) {
        util::Result<std::unique_ptr<trace::TraceDriver>> r =
            twl.openDriver(soc);
        if (!r.isOk())
            fatal("stimulus: %s", r.status().toString().c_str());
        traceDriver = std::move(r.value());
        driver = traceDriver.get();
        maxCycles = UINT64_MAX; // the trace's last timestep ends the run
    } else {
        socDriver.reset(new cores::SocDriver(soc, wl.program));
        driver = socDriver.get();
        maxCycles = wl.maxCycles;
    }
    core::RunStats run = sim.run(*driver, maxCycles);
    if (feed) {
        // Publish a capture completed exactly at the final cycle, then
        // seal the feed — the done marker is what releases draining
        // workers, so write it before any failure exit below.
        sim.sampler().flushPending();
        sim.sampler().setObserver(nullptr);
        util::Status fst = feed->finish(ciStopped);
        if (!fst.isOk()) {
            std::fprintf(stderr, "stream done marker: %s\n",
                         fst.toString().c_str());
        }
    }
    if (traceDriver && !traceDriver->status().isOk())
        fatal("stimulus: %s", traceDriver->status().toString().c_str());
    if (!driver->done() && !ciStopped)
        fatal("workload did not finish");
    std::printf("%s on %s: %llu target cycles sampled into %zu "
                "snapshots%s\n",
                fromTrace ? twl.name.c_str() : wl.name.c_str(),
                coreName.c_str(), (unsigned long long)run.targetCycles,
                sim.sampler().snapshots().size(),
                ciStopped ? " (stopped early: --ci-bound met)" : "");
    if (feed) {
        std::printf("stream: %llu capture(s) published, %llu "
                    "superseded by reservoir replacement\n",
                    (unsigned long long)feed->published(),
                    (unsigned long long)feed->superseded());
    }

    uint64_t population = run.targetCycles / opts.sim.replayLength;
    util::Result<core::EnergyReport> rep =
        util::Status(util::ErrorCode::InvalidArgument, "unreachable");
    if (ciStopped) {
        // Early stop: workers abandon the feed on the "early" marker;
        // aggregate the completed subset — no plan/collect phase.
        reapWorkers();
        rep = orch.collectStreamEarly(*feed, population);
        if (!rep.isOk())
            fatal("collect failed: %s", rep.status().toString().c_str());
    } else {
        util::Status st =
            orch.plan(sim.sampler().snapshots(), population);
        if (!st.isOk())
            fatal("plan failed: %s", st.toString().c_str());

        // Phase 3: the worker pool. Plain fork(): each child is a real
        // process with its own gate simulator, publishing through the
        // filesystem exactly like a detached `strober-farm worker`
        // would. Streamed workers are already running — release them
        // into the manifest phase with the plan marker.
        if (opts.stream) {
            util::Status pm = farm::writePlanMarker(opts.dir);
            if (!pm.isOk()) {
                std::fprintf(stderr, "plan marker: %s\n",
                             pm.toString().c_str());
            }
        } else {
            forkWorkers();
        }
        reapWorkers();

        // Phase 4: collect. Stragglers (dead workers, lost cache
        // entries) are replayed inline, so a report always comes out.
        rep = orch.collect();
        if (!rep.isOk())
            fatal("collect failed: %s", rep.status().toString().c_str());
    }
    printReportSummary(*rep, orch.cache().stats());

    std::string reportPath =
        opts.reportPath.empty() ? opts.dir + "/report.txt"
                                : opts.reportPath;
    if (!util::writeFileAtomic(reportPath,
                               farm::renderReportDeterministic(*rep))
             .isOk())
        fatal("cannot write report '%s'", reportPath.c_str());
    std::printf("report written to %s\n", reportPath.c_str());
    return farm::reportExitCode(*rep);
}

int
cmdWorker(const FarmCliOptions &opts)
{
    // Reconstruct the design from the manifest's recorded core name so
    // a detached worker only needs --dir and --shard. Stream workers
    // start before any shard manifest exists — they read the feed's
    // compatibility meta file (same format, header only) instead.
    std::string headPath =
        opts.stream ? farm::streamMetaPath(opts.dir)
                    : opts.dir + "/" + farm::shardManifestName(0);
    util::Result<farm::ShardManifest> head =
        farm::readManifestFile(headPath, false);
    for (unsigned waited = 0; opts.stream && !head.isOk() && waited < 600;
         ++waited) {
        // The producer may still be opening the feed; give it a minute.
        ::usleep(100 * 1000);
        head = farm::readManifestFile(headPath, false);
    }
    if (!head.isOk())
        fatal("cannot read work queue in '%s': %s", opts.dir.c_str(),
              head.status().toString().c_str());
    if (head->coreName.empty())
        fatal("work queue records no core name; use the same binary's "
              "`run` to plan it");
    rtl::Design soc = cores::buildSoc(coreByName(head->coreName));

    FarmCliOptions worker = opts;
    // Replay knobs come from the manifest mirror inside workShard();
    // the local sim config only seeds the non-mirrored defaults.
    unsigned shards = head->shards;
    if (opts.haveShard) {
        if (opts.shard >= shards)
            fatal("--shard %u out of range (%u shards)", opts.shard,
                  shards);
        return workerBody(soc, worker, opts.shard, shards, shards);
    }
    if (opts.slots != 0) {
        // Slotted pool member (strober-serve's supervisor spawns these):
        // drain every shard congruent to slot mod slots, steal the rest.
        if (opts.slot >= opts.slots)
            fatal("--slot %u out of range (%u slots)", opts.slot,
                  opts.slots);
        return workerBody(soc, worker, opts.slot, opts.slots, shards);
    }
    return workerBody(soc, worker, 0, 1, shards);
}

/** Print the entry count of the run's result cache. */
void
printCacheStatus(const FarmCliOptions &opts)
{
    std::string cacheDir =
        opts.cacheDir.empty() ? opts.dir + "/cache" : opts.cacheDir;
    farm::ResultCache cache(cacheDir);
    std::printf("cache '%s': %zu entr(ies)\n", cacheDir.c_str(),
                cache.entryCount());
}

int
cmdStatus(const FarmCliOptions &opts)
{
    util::Result<farm::ShardManifest> head = farm::readManifestFile(
        opts.dir + "/" + farm::shardManifestName(0), false);
    if (!head.isOk()) {
        // A streamed run plans its shards only after the fast sim; until
        // then the feed's meta header names the run.
        util::Result<farm::ShardManifest> meta = farm::readManifestFile(
            farm::streamMetaPath(opts.dir), false);
        if (!meta.isOk())
            fatal("cannot read work queue in '%s': %s", opts.dir.c_str(),
                  head.status().toString().c_str());
        std::printf("%s / %s: fast sim running, results streaming\n",
                    meta->coreName.c_str(), meta->workloadName.c_str());
        printCacheStatus(opts);
        return 0;
    }
    farm::FarmOrchestrator::Progress p;
    for (uint32_t k = 0; k < head->shards; ++k) {
        util::Result<farm::ShardManifest> m = farm::readManifestFile(
            opts.dir + "/" + farm::shardManifestName(k), false);
        if (!m.isOk()) {
            std::printf("shard %u: unreadable (%s)\n", k,
                        m.status().toString().c_str());
            continue;
        }
        std::printf("shard %u: %zu pending, %zu leased, %zu done, %zu "
                    "quarantined\n",
                    k, m->count(farm::EntryState::Pending),
                    m->count(farm::EntryState::Leased),
                    m->count(farm::EntryState::Done),
                    m->count(farm::EntryState::Quarantined));
        p.pending += m->count(farm::EntryState::Pending);
        p.leased += m->count(farm::EntryState::Leased);
        p.done += m->count(farm::EntryState::Done);
        p.quarantined += m->count(farm::EntryState::Quarantined);
        p.total += m->entries.size();
    }
    std::printf("%s / %s on %u shard(s): %llu/%llu done, %llu "
                "quarantined\n",
                head->coreName.c_str(), head->workloadName.c_str(),
                head->shards, (unsigned long long)p.done,
                (unsigned long long)p.total,
                (unsigned long long)p.quarantined);
    printCacheStatus(opts);
    return 0;
}

int
cmdGc(const FarmCliOptions &opts)
{
    farm::ResultCache cache(opts.cacheDir);
    farm::ResultCache::TrimPolicy policy;
    if (opts.haveKeep)
        policy.keepCount = opts.keep;
    policy.maxAgeSeconds = opts.gcMaxAgeSec;
    policy.maxTotalBytes = opts.gcMaxBytes;
    farm::ResultCache::TrimResult res = cache.trim(policy);
    std::printf("cache '%s': %zu entr(ies) examined, evictions %zu "
                "(%llu bytes), kept %zu (%llu bytes)\n",
                opts.cacheDir.c_str(), res.examined, res.evicted,
                (unsigned long long)res.bytesEvicted,
                res.examined - res.evicted,
                (unsigned long long)res.bytesKept);
    return 0;
}

// --- client subcommands (talk to a running strober-serve daemon) ----

/** Map a final JobStatusReply onto this tool's exit-code convention. */
int
finishFromReply(const service::JobStatusReply &rep,
                const FarmCliOptions &opts)
{
    std::printf("job %llu: %s", (unsigned long long)rep.jobId,
                service::jobStateName(rep.state));
    if (!rep.detail.empty())
        std::printf(" (%s)", rep.detail.c_str());
    std::printf("\n");
    if (!rep.reportText.empty()) {
        if (!opts.reportPath.empty()) {
            if (!util::writeFileAtomic(opts.reportPath, rep.reportText)
                     .isOk())
                fatal("cannot write report '%s'",
                      opts.reportPath.c_str());
            std::printf("report written to %s\n",
                        opts.reportPath.c_str());
        } else {
            std::fputs(rep.reportText.c_str(), stdout);
        }
    }
    return rep.exitCode >= 0 ? static_cast<int>(rep.exitCode) : 3;
}

int
cmdWait(const FarmCliOptions &opts)
{
    service::ServiceClient client(opts.socketPath);
    util::Result<service::JobStatusReply> rep =
        client.wait(opts.jobId, opts.timeoutMs);
    if (!rep.isOk()) {
        std::fprintf(stderr, "wait: %s\n",
                     rep.status().toString().c_str());
        return rep.status().code() == util::ErrorCode::Timeout ? 5 : 3;
    }
    return finishFromReply(*rep, opts);
}

int
cmdSubmit(const std::string &coreName, const std::string &wlName,
          const FarmCliOptions &opts)
{
    service::SubmitRequest req;
    req.coreName = coreName;
    req.workloadName = wlName;
    req.stimulusPath = opts.stimulus;
    req.sampleSize = opts.sim.sampleSize;
    req.replayLength = opts.sim.replayLength;
    req.deadlineMs = opts.deadlineMs;
    req.workers = opts.serveWorkers;
    req.ciBound = opts.ciBound;
    req.stream = opts.stream;
    service::ServiceClient client(opts.socketPath);
    util::Result<service::SubmitResult> res = client.submit(req);
    if (!res.isOk()) {
        std::fprintf(stderr, "submit: %s\n",
                     res.status().toString().c_str());
        return 3;
    }
    if (!res->accepted) {
        std::fprintf(stderr, "submit refused: %s\n",
                     res->refusal.c_str());
        return 4;
    }
    std::printf("job %llu accepted\n", (unsigned long long)res->jobId);
    if (!opts.waitAfterSubmit)
        return 0;
    FarmCliOptions waitOpts = opts;
    waitOpts.jobId = res->jobId;
    return cmdWait(waitOpts);
}

int
cmdJobstat(const FarmCliOptions &opts)
{
    service::ServiceClient client(opts.socketPath);
    util::Result<service::JobStatusReply> rep = client.status(opts.jobId);
    if (!rep.isOk()) {
        std::fprintf(stderr, "jobstat: %s\n",
                     rep.status().toString().c_str());
        return 3;
    }
    std::printf("job %llu: %s exit %lld%s%s\n",
                (unsigned long long)rep->jobId,
                service::jobStateName(rep->state),
                (long long)rep->exitCode,
                rep->detail.empty() ? "" : " ",
                rep->detail.c_str());
    return 0;
}

int
cmdStats(const FarmCliOptions &opts)
{
    service::ServiceClient client(opts.socketPath);
    util::Result<service::StatsVector> stats = client.stats();
    if (!stats.isOk()) {
        std::fprintf(stderr, "stats: %s\n",
                     stats.status().toString().c_str());
        return 3;
    }
    for (const auto &kv : *stats) {
        std::printf("%s %llu\n", kv.first.c_str(),
                    (unsigned long long)kv.second);
    }
    return 0;
}

int
cmdCancel(const FarmCliOptions &opts)
{
    service::ServiceClient client(opts.socketPath);
    util::Status st = client.cancel(opts.jobId);
    if (!st.isOk()) {
        std::fprintf(stderr, "cancel: %s\n", st.toString().c_str());
        return 3;
    }
    std::printf("job %llu cancel requested\n",
                (unsigned long long)opts.jobId);
    return 0;
}

int
cmdShutdown(const FarmCliOptions &opts)
{
    service::ServiceClient client(opts.socketPath);
    util::Status st = client.shutdownDaemon();
    if (!st.isOk()) {
        std::fprintf(stderr, "shutdown: %s\n", st.toString().c_str());
        return 3;
    }
    std::printf("daemon drain requested\n");
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: strober-farm run <core> <workload> --dir D [-j N]\n"
        "       strober-farm run <core> --stimulus F.vcd --dir D ...\n"
        "                    [--shards S] [--cache-dir C] [--report F]\n"
        "                    [--sample-size N] [--replay-length L]\n"
        "                    [--max-dropped-snapshots N]\n"
        "                    [--replay-timeout CYCLES]\n"
        "                    [--backend full|activity|compiled\n"
        "                               |compiled-parallel]\n"
        "                    [--stream] [--ci-bound X]\n"
        "       strober-farm worker --dir D [--shard K] [--stream]\n"
        "                    [--slot I --slots N] [--deadline-unix-ms T]\n"
        "       strober-farm status --dir D [--cache-dir C]\n"
        "       strober-farm gc --cache-dir C [--keep N] [--max-age DUR]\n"
        "                    [--max-bytes B]\n"
        "       strober-farm submit <core> <workload> --socket S\n"
        "       strober-farm submit <core> --stimulus F.vcd --socket S\n"
        "                    [--deadline DUR] [--workers N]\n"
        "                    [--sample-size N] [--replay-length L]\n"
        "                    [--stream] [--ci-bound X]\n"
        "                    [--wait [--timeout DUR]] [--report F]\n"
        "       strober-farm wait --socket S --job ID [--timeout DUR]\n"
        "                    [--report F]\n"
        "       strober-farm jobstat --socket S --job ID\n"
        "       strober-farm stats --socket S\n"
        "       strober-farm cancel --socket S --job ID\n"
        "       strober-farm shutdown --socket S\n");
}

bool
parseCommon(const std::vector<std::string> &args, FarmCliOptions &opts,
            std::vector<std::string> &positional)
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const char *flag = arg.c_str();
        auto next = [&]() -> const std::string & {
            return cli::nextValue(args, i);
        };
        if (arg == "--dir") {
            opts.dir = next();
        } else if (arg == "--cache-dir") {
            opts.cacheDir = next();
        } else if (arg == "--report") {
            opts.reportPath = next();
        } else if (arg == "--stimulus") {
            opts.stimulus = next();
        } else if (arg == "-j" || arg == "--jobs") {
            opts.jobs = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--shards") {
            opts.shards = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--shard") {
            opts.shard = cli::unsignedArg<unsigned>(flag, next());
            opts.haveShard = true;
        } else if (arg == "--slot") {
            opts.slot = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--slots") {
            opts.slots = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--deadline-unix-ms") {
            opts.deadlineUnixMs = cli::unsignedArg<uint64_t>(flag, next());
        } else if (arg == "--keep") {
            opts.keep = cli::unsignedArg<size_t>(flag, next());
            opts.haveKeep = true;
        } else if (arg == "--max-age") {
            opts.gcMaxAgeSec = cli::durationArg(flag, next()) / 1000;
        } else if (arg == "--max-bytes") {
            opts.gcMaxBytes = cli::unsignedArg<uint64_t>(flag, next());
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--job") {
            opts.jobId = cli::unsignedArg<uint64_t>(flag, next());
            opts.haveJob = true;
        } else if (arg == "--timeout") {
            opts.timeoutMs = cli::durationArg(flag, next());
        } else if (arg == "--deadline") {
            opts.deadlineMs = cli::durationArg(flag, next());
        } else if (arg == "--workers") {
            opts.serveWorkers = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--wait") {
            opts.waitAfterSubmit = true;
        } else if (arg == "--stream") {
            opts.stream = true;
        } else if (arg == "--ci-bound") {
            opts.ciBound = cli::positiveArg(flag, next());
        } else if (arg == "--sample-size") {
            opts.sim.sampleSize = cli::unsignedArg<size_t>(flag, next());
        } else if (arg == "--replay-length") {
            opts.sim.replayLength = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--max-dropped-snapshots") {
            opts.sim.maxDroppedSnapshots =
                cli::unsignedArg<size_t>(flag, next());
        } else if (arg == "--replay-timeout") {
            opts.sim.replayTimeoutCycles =
                cli::unsignedArg<uint64_t>(flag, next());
        } else if (arg == "--backend") {
            const std::string &name = next();
            if (!sim::parseBackend(name, &opts.sim.backend)) {
                std::fprintf(stderr,
                             "unknown backend '%s' (full | activity | "
                             "compiled | compiled-parallel)\n",
                             name.c_str());
                return false;
            }
        } else if (arg.rfind("--", 0) == 0 || arg.rfind("-", 0) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return false;
        } else {
            positional.push_back(arg);
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    FarmCliOptions opts;
    std::vector<std::string> positional;
    if (!parseCommon(args, opts, positional)) {
        usage();
        return 2;
    }
    if (cmd == "run") {
        size_t expected = opts.stimulus.empty() ? 2 : 1;
        if (positional.size() != expected || opts.dir.empty()) {
            usage();
            return 2;
        }
        return cmdRun(positional[0],
                      expected == 2 ? positional[1] : std::string(),
                      opts);
    }
    if (cmd == "worker") {
        if (!positional.empty() || opts.dir.empty()) {
            usage();
            return 2;
        }
        return cmdWorker(opts);
    }
    if (cmd == "status") {
        if (!positional.empty() || opts.dir.empty()) {
            usage();
            return 2;
        }
        return cmdStatus(opts);
    }
    if (cmd == "gc") {
        bool haveLimit =
            opts.haveKeep || opts.gcMaxAgeSec != 0 || opts.gcMaxBytes != 0;
        if (!positional.empty() || opts.cacheDir.empty() || !haveLimit) {
            usage();
            return 2;
        }
        return cmdGc(opts);
    }
    if (cmd == "submit") {
        size_t expected = opts.stimulus.empty() ? 2 : 1;
        if (positional.size() != expected || opts.socketPath.empty()) {
            usage();
            return 2;
        }
        return cmdSubmit(positional[0],
                         expected == 2 ? positional[1] : std::string(),
                         opts);
    }
    if (cmd == "wait") {
        if (!positional.empty() || opts.socketPath.empty() ||
            !opts.haveJob) {
            usage();
            return 2;
        }
        return cmdWait(opts);
    }
    if (cmd == "jobstat") {
        if (!positional.empty() || opts.socketPath.empty() ||
            !opts.haveJob) {
            usage();
            return 2;
        }
        return cmdJobstat(opts);
    }
    if (cmd == "stats") {
        if (!positional.empty() || opts.socketPath.empty()) {
            usage();
            return 2;
        }
        return cmdStats(opts);
    }
    if (cmd == "cancel") {
        if (!positional.empty() || opts.socketPath.empty() ||
            !opts.haveJob) {
            usage();
            return 2;
        }
        return cmdCancel(opts);
    }
    if (cmd == "shutdown") {
        if (!positional.empty() || opts.socketPath.empty()) {
            usage();
            return 2;
        }
        return cmdShutdown(opts);
    }
    usage();
    return 2;
}
