/**
 * @file
 * The `strober-serve` daemon binary: Strober as a long-running service.
 *
 *   strober-serve --socket /run/strober.sock --root /var/lib/strober \
 *       [--cache-dir C] [--runners N] [--max-queue N] [--workers N] \
 *       [--default-deadline DUR] [--worker-wall-cap DUR] \
 *       [--worker-rss-mb MB] [--worker-retries N] [--trim-keep N] \
 *       [--trim-max-age DUR] [--trim-max-bytes B] [--farm-bin PATH]
 *
 * Clients talk to it with `strober-farm submit/wait/stats/...` (or the
 * service::ServiceClient library). Estimate jobs run under per-job
 * wall-clock deadlines; replay workers are separate supervised
 * processes (strober-farm worker) with wall and RSS caps, SIGKILL
 * recovery and bounded backoff retries. SIGTERM drains gracefully:
 * admission stops, running jobs checkpoint their farm leases, the
 * process exits 0 — a later daemon (or a plain `strober-farm run`)
 * resumes the work bit-identically.
 *
 * Durations accept ms/s/m/h suffixes (bare numbers are seconds).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "cli_args.h"
#include "core/energy_sim.h"
#include "core/job_control.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "farm/stream.h"
#include "lint/diagnostics.h"
#include "service/daemon.h"
#include "service/supervisor.h"
#include "trace/stimulus.h"
#include "util/env.h"
#include "util/logging.h"
#include "workloads/workloads.h"

using namespace strober;

namespace {

service::ServiceDaemon *g_daemon = nullptr;

void
onDrainSignal(int)
{
    // Async-signal-safe by construction: one atomic store, one write().
    if (g_daemon != nullptr)
        g_daemon->requestDrain();
}

bool
knownCore(const std::string &name)
{
    return name == "rocket" || name == "boom1w" || name == "boom2w";
}

cores::SocConfig
coreByName(const std::string &name)
{
    if (name == "rocket")
        return cores::SocConfig::rocket();
    if (name == "boom1w")
        return cores::SocConfig::boom1w();
    return cores::SocConfig::boom2w();
}

bool
knownWorkload(const std::string &name)
{
    for (const workloads::Workload &w : workloads::microbenchmarks()) {
        if (w.name == name)
            return true;
    }
    for (const workloads::Workload &w : workloads::caseStudies()) {
        if (w.name == name)
            return true;
    }
    return false;
}

/** Knobs of the production executor (fixed at daemon startup). */
struct ServeOptions
{
    std::string farmBin;       //!< strober-farm binary for workers
    unsigned defaultWorkers = 2;
    uint64_t workerWallCapMs = 10 * 60 * 1000;
    unsigned long workerRssMb = 0; //!< 0 = uncapped
    unsigned workerRetries = 2;
    uint64_t leaseDurationMs = 60 * 1000;
    /** Shared with the daemon's Stats endpoint: streamed replays in
     *  flight across every running job. */
    std::shared_ptr<std::atomic<int64_t>> streamGauge;
};

/** Directory of our own binary ("/proc/self/exe" parent). */
std::string
selfDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    std::string path(buf);
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

service::JobOutcome
failedOutcome(std::string detail)
{
    service::JobOutcome out;
    out.state = service::JobState::Failed;
    out.exitCode = 3;
    out.detail = std::move(detail);
    return out;
}

service::JobOutcome
canceledOutcome(std::string detail)
{
    service::JobOutcome out;
    out.state = service::JobState::Canceled;
    out.exitCode = 4;
    out.detail = std::move(detail);
    return out;
}

/**
 * The production executor: fast sim + farm plan + supervised worker
 * pool + collect, all scoped to the job's own run directory but
 * sharing the daemon-wide result cache.
 */
service::JobOutcome
runEstimateJob(const service::JobRequest &req, core::JobControl &control,
               const ServeOptions &opts, const std::string &cacheDir)
{
    const service::SubmitRequest &sub = req.submit;
    const bool fromTrace = !sub.stimulusPath.empty();
    if (!knownCore(sub.coreName))
        return failedOutcome("unknown core '" + sub.coreName +
                             "' (rocket | boom1w | boom2w)");
    if (!fromTrace && !knownWorkload(sub.workloadName))
        return failedOutcome("unknown workload '" + sub.workloadName + "'");

    rtl::Design soc = cores::buildSoc(coreByName(sub.coreName));
    workloads::Workload wl;
    trace::TraceWorkload twl;
    if (fromTrace) {
        // Fingerprint + header check only; the body is streamed from
        // disk by the driver below, never buffered.
        util::Result<trace::TraceWorkload> r =
            trace::loadTraceWorkload(sub.stimulusPath);
        if (!r.isOk())
            return failedOutcome("stimulus: " + r.status().toString());
        twl = r.value();
    } else {
        wl = workloads::byName(sub.workloadName);
    }

    core::EnergySimulator::Config simCfg;
    simCfg.sampleSize = sub.sampleSize;
    simCfg.replayLength = static_cast<unsigned>(sub.replayLength);
    simCfg.job = &control;
    simCfg.stimulusFingerprint = fromTrace ? twl.fingerprint : 0;
    simCfg.ciBound = sub.ciBound;

    unsigned workers = sub.workers != 0
                           ? static_cast<unsigned>(sub.workers)
                           : opts.defaultWorkers;
    const bool streamedJob = sub.stream || sub.ciBound > 0;

    farm::FarmConfig fcfg;
    fcfg.dir = req.jobDir;
    fcfg.cacheDir = cacheDir;
    fcfg.shards = std::max(1u, workers);
    fcfg.sim = simCfg;
    fcfg.coreName = sub.coreName;
    fcfg.workloadName = fromTrace ? twl.name : wl.name;
    fcfg.leaseDurationMs = opts.leaseDurationMs;
    farm::FarmOrchestrator orch(soc, fcfg);

    // Streamed jobs open the feed (building the ASIC flow up front) so
    // worker processes replay captures while the fast sim still runs.
    std::unique_ptr<farm::StreamFeed> feed;
    core::EnergySimulator *probeSim = nullptr;
    bool ciStopped = false;
    if (streamedJob) {
        util::Result<std::unique_ptr<farm::StreamFeed>> f =
            orch.openStreamFeed();
        if (!f.isOk())
            return failedOutcome("stream feed: " + f.status().toString());
        feed = std::move(f.value());
        if (opts.streamGauge) {
            std::atomic<int64_t> *g = opts.streamGauge.get();
            feed->inFlightHook = [g](int64_t d) {
                g->fetch_add(d, std::memory_order_relaxed);
            };
        }
        if (sub.ciBound > 0) {
            // Adaptive termination: every 8th interval boundary, fold
            // the completions workers have published so far and stop
            // the fast sim once the CI is tight enough (each real
            // check costs one cache lookup per outstanding capture,
            // hence the throttle).
            simCfg.earlyStopProbe = [&sub, &simCfg, &orch, &feed,
                                     &probeSim, &ciStopped,
                                     calls = uint64_t(0)]() mutable {
                if (++calls % 8 != 0)
                    return false;
                uint64_t population = std::max<uint64_t>(
                    probeSim->sampler().intervalsSeen(), 1);
                ciStopped = feed->ciBoundMet(orch.cache(), sub.ciBound,
                                             simCfg.confidence, population,
                                             simCfg.sampleSize);
                return ciStopped;
            };
        }
    }
    // Zero the in-flight gauge residue however the job exits.
    struct GaugeReset
    {
        farm::StreamFeed *feed = nullptr;
        std::atomic<int64_t> *g = nullptr;
        ~GaugeReset()
        {
            if (feed != nullptr && g != nullptr) {
                g->fetch_sub(static_cast<int64_t>(feed->outstanding()),
                             std::memory_order_relaxed);
            }
        }
    } gaugeReset;
    gaugeReset.feed = feed.get();
    gaugeReset.g = opts.streamGauge ? opts.streamGauge.get() : nullptr;

    // Phase 1: fast simulation + sampling (cheap, deterministic).
    core::EnergySimulator sim(soc, simCfg);
    probeSim = &sim;
    if (feed)
        sim.sampler().setObserver(feed.get());
    std::unique_ptr<cores::SocDriver> socDriver;
    std::unique_ptr<trace::TraceDriver> traceDriver;
    core::HostDriver *driver = nullptr;
    uint64_t maxCycles = 0;
    if (fromTrace) {
        lint::Diagnostics diags;
        util::Result<std::unique_ptr<trace::TraceDriver>> r =
            twl.openDriver(soc, &diags);
        if (!r.isOk())
            return failedOutcome("stimulus: " + r.status().toString() +
                                 (diags.empty() ? "" : "\n" + diags.str()));
        traceDriver = std::move(r.value());
        driver = traceDriver.get();
        maxCycles = UINT64_MAX; // the trace's last timestep ends the run
    } else {
        socDriver.reset(new cores::SocDriver(soc, wl.program));
        driver = socDriver.get();
        maxCycles = wl.maxCycles;
    }
    auto makeSpecs = [&](bool stream) {
        uint64_t deadline =
            control.deadlineUnixMs.load(std::memory_order_relaxed);
        std::vector<service::WorkerSpec> specs(workers);
        for (unsigned i = 0; i < workers; ++i) {
            service::WorkerSpec &spec = specs[i];
            spec.argv = {opts.farmBin,
                         "worker",
                         "--dir",
                         req.jobDir,
                         "--cache-dir",
                         cacheDir,
                         "--slot",
                         std::to_string(i),
                         "--slots",
                         std::to_string(workers)};
            if (stream)
                spec.argv.push_back("--stream");
            if (deadline != 0) {
                spec.argv.push_back("--deadline-unix-ms");
                spec.argv.push_back(std::to_string(deadline));
            }
            if (opts.workerRssMb != 0) {
                spec.env.push_back("STROBER_WORKER_RSS_MB=" +
                                   std::to_string(opts.workerRssMb));
            }
        }
        return specs;
    };
    service::SupervisorConfig scfg;
    scfg.slots = workers;
    scfg.wallCapMs = opts.workerWallCapMs;
    scfg.rssCapBytes = static_cast<uint64_t>(opts.workerRssMb) * 1024 * 1024;
    scfg.maxRetries = opts.workerRetries;
    scfg.stopRequested = [&control] { return control.stopRequested(); };

    // Streamed jobs spawn (supervised) workers before the fast sim so
    // they drain the feed concurrently; superviseUntilDone blocks, so
    // it runs on its own thread. Joined on every exit path.
    service::SupervisionStats sup;
    std::thread supThread;
    struct JoinGuard
    {
        std::thread *t;
        ~JoinGuard()
        {
            if (t->joinable())
                t->join();
        }
    } joinGuard{&supThread};
    auto joinSupervisor = [&] {
        if (supThread.joinable())
            supThread.join();
    };
    if (streamedJob && workers > 0) {
        std::vector<service::WorkerSpec> specs = makeSpecs(true);
        supThread = std::thread([specs, scfg, &sup] {
            sup = service::superviseUntilDone(specs, scfg);
        });
    }

    core::RunStats run = sim.run(*driver, maxCycles);
    if (feed) {
        // Publish a capture that completed exactly at the final cycle,
        // then seal the feed: the done marker is what lets stream
        // workers leave their drain loop, so write it before any
        // failure return below.
        sim.sampler().flushPending();
        sim.sampler().setObserver(nullptr);
        util::Status fst = feed->finish(ciStopped);
        if (!fst.isOk()) {
            warn("stream done marker: %s (workers fall back to their "
                 "wall cap)",
                 fst.toString().c_str());
        }
    }
    if (traceDriver && !traceDriver->status().isOk())
        return failedOutcome("stimulus: " +
                             traceDriver->status().toString());
    if (!driver->done() && !ciStopped)
        return failedOutcome("workload did not finish in its cycle budget");
    if (control.canceled()) {
        joinSupervisor();
        return canceledOutcome("drained during fast simulation");
    }

    uint64_t population = run.targetCycles / simCfg.replayLength;

    auto assemble = [&](util::Result<core::EnergyReport> rep)
        -> service::JobOutcome {
        service::JobOutcome out;
        out.workerRetries = sup.retries;
        out.workerKills = sup.wallKills + sup.rssKills;
        out.streamed = streamedJob;
        out.supersededReplays = feed ? feed->superseded() : 0;
        if (!rep.isOk()) {
            if (rep.status().code() == util::ErrorCode::Canceled) {
                service::JobOutcome c =
                    canceledOutcome(rep.status().toString());
                c.workerRetries = out.workerRetries;
                c.workerKills = out.workerKills;
                c.streamed = out.streamed;
                c.supersededReplays = out.supersededReplays;
                return c;
            }
            out.state = service::JobState::Failed;
            out.exitCode = 3;
            out.detail = "collect failed: " + rep.status().toString();
            return out;
        }
        out.earlyStopped = rep->earlyStopped;
        out.reportText = farm::renderReportDeterministic(*rep);
        out.exitCode = farm::reportExitCode(*rep);
        out.detail = rep->statusMessage;
        out.cacheHits = rep->cacheHits;
        out.cacheMisses = rep->cacheMisses;
        if (control.deadlineExpired() && (rep->degraded || !rep->valid))
            out.state = service::JobState::TimedOut;
        else if (!rep->valid)
            out.state = service::JobState::Failed;
        else if (rep->degraded)
            out.state = service::JobState::Degraded;
        else
            out.state = service::JobState::Done;
        return out;
    };

    if (ciStopped) {
        // Early stop: workers abandon the feed on the "early" marker;
        // aggregate the completed subset — no plan/collect phase.
        joinSupervisor();
        return assemble(orch.collectStreamEarly(*feed, population));
    }

    util::Status st = orch.plan(sim.sampler().snapshots(), population);
    if (!st.isOk())
        return failedOutcome("plan failed: " + st.toString());
    if (control.canceled()) {
        joinSupervisor();
        return canceledOutcome("drained after planning; work is queued");
    }

    if (streamedJob) {
        // Tell the stream workers the manifests on disk are this run's
        // (not a stale prior run's), then wait for them to finish.
        util::Status pm = farm::writePlanMarker(req.jobDir);
        if (!pm.isOk()) {
            warn("plan marker: %s (stream workers give up on their own; "
                 "collect replays inline)",
                 pm.toString().c_str());
        }
        joinSupervisor();
    } else if (workers > 0) {
        std::vector<service::WorkerSpec> specs = makeSpecs(false);
        sup = service::superviseUntilDone(specs, scfg);
    }

    if (control.canceled()) {
        service::JobOutcome out =
            canceledOutcome("drained; leases are checkpointed");
        out.workerRetries = sup.retries;
        out.workerKills = sup.wallKills + sup.rssKills;
        out.streamed = streamedJob;
        return out;
    }

    return assemble(orch.collect());
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: strober-serve --socket S --root D [--cache-dir C]\n"
        "                     [--runners N] [--max-queue N] [--workers N]\n"
        "                     [--default-deadline DUR]\n"
        "                     [--worker-wall-cap DUR] [--worker-rss-mb MB]\n"
        "                     [--worker-retries N] [--lease-duration DUR]\n"
        "                     [--trim-keep N] [--trim-max-age DUR]\n"
        "                     [--trim-max-bytes B] [--farm-bin PATH]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    service::DaemonConfig dcfg;
    ServeOptions opts;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const char *flag = arg.c_str();
        auto next = [&]() -> const std::string & {
            return cli::nextValue(args, i);
        };
        if (arg == "--socket") {
            dcfg.socketPath = next();
        } else if (arg == "--root") {
            dcfg.rootDir = next();
        } else if (arg == "--cache-dir") {
            dcfg.cacheDir = next();
        } else if (arg == "--runners") {
            dcfg.runners = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--max-queue") {
            dcfg.maxQueue = cli::unsignedArg<size_t>(flag, next());
        } else if (arg == "--default-deadline") {
            dcfg.defaultDeadlineMs = cli::durationArg(flag, next());
        } else if (arg == "--workers") {
            opts.defaultWorkers = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--worker-wall-cap") {
            opts.workerWallCapMs = cli::durationArg(flag, next());
        } else if (arg == "--worker-rss-mb") {
            opts.workerRssMb = cli::unsignedArg<unsigned long>(flag, next());
        } else if (arg == "--worker-retries") {
            opts.workerRetries = cli::unsignedArg<unsigned>(flag, next());
        } else if (arg == "--lease-duration") {
            opts.leaseDurationMs = cli::durationArg(flag, next());
        } else if (arg == "--trim-keep") {
            dcfg.trim.keepCount = cli::unsignedArg<size_t>(flag, next());
        } else if (arg == "--trim-max-age") {
            dcfg.trim.maxAgeSeconds = cli::durationArg(flag, next()) / 1000;
        } else if (arg == "--trim-max-bytes") {
            dcfg.trim.maxTotalBytes = cli::unsignedArg<uint64_t>(flag, next());
        } else if (arg == "--farm-bin") {
            opts.farmBin = next();
        } else {
            usage();
            return 2;
        }
    }
    if (dcfg.socketPath.empty() || dcfg.rootDir.empty()) {
        usage();
        return 2;
    }
    if (opts.farmBin.empty())
        opts.farmBin = selfDir() + "/strober-farm";
    if (::access(opts.farmBin.c_str(), X_OK) != 0) {
        fatal("worker binary '%s' is not executable (use --farm-bin)",
              opts.farmBin.c_str());
    }

    std::string cacheDir = dcfg.effectiveCacheDir();
    opts.streamGauge = std::make_shared<std::atomic<int64_t>>(0);
    dcfg.streamInFlight = opts.streamGauge;
    dcfg.executor = [&opts, cacheDir](const service::JobRequest &req,
                                      core::JobControl &control) {
        return runEstimateJob(req, control, opts, cacheDir);
    };

    service::ServiceDaemon daemon(dcfg);
    util::Status st = daemon.start();
    if (!st.isOk())
        fatal("cannot start daemon: %s", st.toString().c_str());

    g_daemon = &daemon;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onDrainSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    std::printf("strober-serve: listening on %s (root %s, cache %s, "
                "%u runner(s), queue bound %zu)\n",
                dcfg.socketPath.c_str(), dcfg.rootDir.c_str(),
                cacheDir.c_str(), std::max(1u, dcfg.runners),
                dcfg.maxQueue);
    std::fflush(stdout);

    // Serve until a drain is requested (SIGTERM/SIGINT or a Shutdown
    // frame), then finish/checkpoint admitted jobs and exit 0.
    daemon.waitDrained();
    daemon.stop();
    std::printf("strober-serve: drained; exiting\n");
    return 0;
}
