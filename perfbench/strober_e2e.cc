/**
 * @file
 * End-to-end Strober benchmark binary: ONE iteration of one named boom2w
 * workload through the public flow that `strober run` executes —
 * cores::buildSoc -> core::EnergySimulator (+ synthesis()) ->
 * run() + estimate(), or estimateStreaming() — then a timed re-estimate()
 * of the same run, and a correctness check of every report.
 *
 *   strober_e2e --workload NAME --seed N --tmp DIR [--iteration K]
 *               [--warmup] [--trace-out FILE [--isolated]]
 *
 * --warmup runs the workload on the activity interpreter instead of its
 * own backend (no JIT); the report must still match.
 *
 * With --trace-out the iteration records a span around every public
 * call it makes and writes them as Chrome trace-event JSON. --isolated
 * then also times the layers the flow only reaches inside a coarser
 * call (FAME1, EvalPlan, codegen and JIT inside the constructor;
 * per-snapshot replay, power, cache keys and cache I/O, aggregation
 * inside estimate()) as isolated calls of their public functions on the
 * flow's own inputs, after the flow's clock has stopped.
 *
 * One iteration per process keeps every iteration as cold as a real
 * `strober run`; perfbench/run.py repeats it and aggregates. The last
 * stdout line is a JSON object with the iteration's timings, report
 * digest, check result, provenance and (traced) layer metrics. Every
 * file written (replay caches; JIT scratch through $TMPDIR, which the
 * caller points there) lives under --tmp DIR.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/jit.h"
#include "core/energy_sim.h"
#include "core/replay_executor.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "fame/fame1.h"
#include "fame/snapshot_io.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "farm/result_cache.h"
#include "gate/netlist.h"
#include "gate/replay.h"
#include "power/power_analysis.h"
#include "rtl/opt.h"
#include "workloads/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace strober;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t kDefaultSeed = 0x5eed5eedULL; // as in `strober run`

/** Variables that silently change what a workload measures. */
const char *const kSteeringEnv[] = {
    "STROBER_CXX", "STROBER_DISABLE_JIT", "STROBER_SIM_THREADS",
    "STROBER_SIM_PARALLEL_GRAIN", "STROBER_SIM_NO_DATAFLOW"};

// --- Workloads ---------------------------------------------------------

struct WorkloadSpec
{
    const char *name;
    workloads::Workload (*make)();
    uint64_t targetCycles;     //!< simulated length; must repeat exactly
    sim::Backend backend;
    bool streamed;             //!< estimateStreaming() instead of phased
    bool cached;               //!< farm::CachingReplayExecutor
    size_t sampleSize;
    unsigned replayWorkers;
    uint64_t goldenDigest;     //!< report digest at kDefaultSeed
};

const WorkloadSpec kWorkloads[] = {
    {"cold-compiled-coremark", [] { return workloads::coremarkLite(40); },
     101163, sim::Backend::Compiled, false, false, 30, 4,
     0x02722bdccfb4cadbULL},
    {"stream-gcc", [] { return workloads::gccLike(40); }, 747891,
     sim::Backend::InterpretedActivity, true, false, 30, 3,
     0x446bb76a6c33d4d9ULL},
    {"replay-linuxboot-cached", [] { return workloads::linuxbootLike(24); },
     604788, sim::Backend::InterpretedActivity, false, true, 200, 4,
     0x7a533628eecbea20ULL},
};

// --- Small utilities ---------------------------------------------------

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
childCpuSeconds()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
reportDigest(const core::EnergyReport &rep)
{
    return fnv1a64(farm::renderReportDeterministic(rep));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

// --- Tracing -----------------------------------------------------------

/** One timed interval. Times are seconds on the steady clock. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;   //!< index into the span list; -1 = root
    int iteration = -1;
    unsigned tid = 0;  //!< 0 = the flow's thread
    bool isolated = false;
};

/**
 * In-memory span recorder. Spans on the flow's thread nest through
 * open()/close(); worker threads add finished spans with add().
 */
class Tracer
{
  public:
    int
    open(const char *name, int iteration, bool isolated)
    {
        std::lock_guard<std::mutex> lk(mtx);
        Span s;
        s.name = name;
        s.parent = stack.empty() ? -1 : stack.back();
        s.iteration = iteration;
        s.isolated = isolated;
        s.start = nowSeconds();
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size() - 1));
        return stack.back();
    }

    double
    close(int id)
    {
        double t = nowSeconds();
        std::lock_guard<std::mutex> lk(mtx);
        spans[id].end = t;
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        return t - spans[id].start;
    }

    void
    add(Span s)
    {
        std::lock_guard<std::mutex> lk(mtx);
        spans.push_back(std::move(s));
    }

    /** Index of the innermost open span (the parent of add()ed spans). */
    int
    current() const
    {
        std::lock_guard<std::mutex> lk(mtx);
        return stack.empty() ? -1 : stack.back();
    }

    std::vector<Span>
    snapshot() const
    {
        std::lock_guard<std::mutex> lk(mtx);
        return spans;
    }

    /**
     * Chrome trace-event JSON ("X" complete events). Timestamps are
     * steady-clock microseconds, a timeline shared by every process on
     * the host, so traces of several iterations merge by concatenation;
     * each iteration is its own pid.
     */
    bool
    writeChrome(const std::string &path, int iteration) const
    {
        std::vector<Span> all = snapshot();
        std::ofstream out(path, std::ios::trunc);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          ",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f,",
                          iteration, s.tid, s.start * 1e6,
                          (s.end - s.start) * 1e6);
            out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
                << ",\"cat\":\"" << (s.isolated ? "isolated" : "flow")
                << "\"" << buf << "\"args\":{\"span\":" << i
                << ",\"parent\":" << s.parent
                << ",\"iteration\":" << s.iteration << "}}";
        }
        out << "\n]}\n";
        out.close();
        return static_cast<bool>(out);
    }

  private:
    mutable std::mutex mtx;
    std::vector<Span> spans; // guarded by mtx
    std::vector<int> stack;  // guarded by mtx
};

/** Times @p fn; records a span when @p tracer is set. @return seconds. */
template <class Fn>
double
timed(Tracer *tracer, const char *name, int iteration, bool isolated,
      Fn &&fn)
{
    if (tracer == nullptr) {
        double t0 = nowSeconds();
        fn();
        return nowSeconds() - t0;
    }
    int id = tracer->open(name, iteration, isolated);
    fn();
    return tracer->close(id);
}

// --- One pass of the flow ----------------------------------------------

/** Objects and results of one iteration of the flow, kept alive so the
 *  traced run can time isolated layer calls on the same inputs. */
struct Flow
{
    std::unique_ptr<rtl::Design> soc;
    std::unique_ptr<farm::CachingReplayExecutor> cache;
    std::unique_ptr<core::EnergySimulator> sim;
    std::unique_ptr<cores::SocDriver> driver;
    std::string cacheDir;
    core::RunStats run;
    core::EnergyReport report;  //!< the flow's report
    core::EnergyReport warm;    //!< the last re-estimate() of the run
    uint64_t coldReplays = 0;   //!< cached: replays during the cold pass
    uint64_t cacheBytes = 0;
    double setupS = 0;
    double reportS = 0;
    double warmS = 0;
    double coveredS = 0;        //!< traced: flow spans inside setup+report
};

Flow
runFlow(const WorkloadSpec &spec, const workloads::Workload &wl,
        uint64_t seed, const std::string &cacheDir, Tracer *tracer,
        int iteration)
{
    Flow f;
    f.cacheDir = cacheDir;
    int root = tracer ? tracer->open("iteration", iteration, false) : -1;
    double t0 = nowSeconds();
    double covered = 0;
    covered += timed(tracer, "cores.build", iteration, false, [&] {
        f.soc = std::make_unique<rtl::Design>(
            cores::buildSoc(cores::SocConfig::boom2w()));
    });
    core::EnergySimulator::Config cfg;
    cfg.sampleSize = spec.sampleSize;
    cfg.replayLength = 128;
    cfg.seed = seed;
    cfg.backend = spec.backend;
    cfg.parallelReplays = spec.replayWorkers;
    if (spec.cached) {
        covered += timed(tracer, "farm.cache_open", iteration, false, [&] {
            fs::remove_all(cacheDir);
            f.cache = std::make_unique<farm::CachingReplayExecutor>(cacheDir);
        });
        cfg.replayExecutor = f.cache.get();
    }
    covered += timed(tracer, "core.construct", iteration, false, [&] {
        f.sim = std::make_unique<core::EnergySimulator>(*f.soc, cfg);
    });
    covered += timed(tracer, "gate.asic_flow", iteration, false,
                     [&] { f.sim->synthesis(); });
    double t1 = nowSeconds();
    covered += timed(tracer, "cores.driver", iteration, false, [&] {
        f.driver = std::make_unique<cores::SocDriver>(*f.soc, wl.program);
    });
    if (spec.streamed) {
        covered += timed(tracer, "core.estimate_streaming", iteration, false,
                         [&] {
                             f.report = f.sim->estimateStreaming(
                                 *f.driver, wl.maxCycles, &f.run);
                         });
    } else {
        covered += timed(tracer, "sim.run", iteration, false, [&] {
            f.run = f.sim->run(*f.driver, wl.maxCycles);
        });
        covered += timed(tracer, "core.estimate", iteration, false,
                         [&] { f.report = f.sim->estimate(); });
    }
    double t2 = nowSeconds();
    if (f.cache)
        f.coldReplays = f.cache->replaysExecuted();
    // On a warm cache the re-estimate takes ~0.1 s, where one slow file
    // read shows; repeat it until 0.5 s are spent (at most 5 times) and
    // keep the median. A repeat that differs stops the loop, and
    // checkFlow() rejects it.
    std::vector<double> warmTimes;
    double warmSpent = 0;
    do {
        warmTimes.push_back(timed(tracer, "core.reestimate", iteration, false,
                                  [&] { f.warm = f.sim->estimate(); }));
        warmSpent += warmTimes.back();
    } while (warmSpent < 0.5 && warmTimes.size() < 5 &&
             reportDigest(f.warm) == reportDigest(f.report));
    f.warmS = median(warmTimes);
    if (tracer)
        tracer->close(root);
    if (f.cache)
        f.cacheBytes = directoryBytes(cacheDir);
    f.setupS = t1 - t0;
    f.reportS = t2 - t1;
    f.coveredS = covered;
    return f;
}

/** Empty string when @p f passes every correctness check. */
std::string
checkFlow(const WorkloadSpec &spec, const workloads::Workload &wl,
          const Flow &f)
{
    char buf[256];
    if (!f.driver->done() || f.driver->exitCode() != wl.expectedExit) {
        std::snprintf(buf, sizeof(buf),
                      "workload checksum: exit 0x%x, expected 0x%x%s",
                      f.driver->exitCode(), wl.expectedExit,
                      f.driver->done() ? "" : " (did not finish)");
        return buf;
    }
    if (f.run.targetCycles != spec.targetCycles) {
        std::snprintf(buf, sizeof(buf),
                      "target cycles %" PRIu64 ", expected %" PRIu64,
                      f.run.targetCycles, spec.targetCycles);
        return buf;
    }
    for (const core::EnergyReport *r : {&f.report, &f.warm}) {
        // The reservoir keeps sampleSize captures; a trailing one cut
        // off by the end of the run is dropped, never replayed.
        if (!r->valid || r->degraded || r->replayMismatches != 0 ||
            r->snapshots > spec.sampleSize ||
            r->snapshots + 1 < spec.sampleSize || r->earlyStopped) {
            std::snprintf(buf, sizeof(buf),
                          "%s report: valid %d degraded %d mismatches "
                          "%" PRIu64 " snapshots %zu: %s",
                          r == &f.report ? "first" : "second", r->valid,
                          r->degraded, r->replayMismatches, r->snapshots,
                          r->statusMessage.c_str());
            return buf;
        }
    }
    if (reportDigest(f.warm) != reportDigest(f.report))
        return "re-estimate is not byte-identical to the flow's report";
    sim::Backend effective =
        f.sim->harness().tokenSim().simulator().backend();
    if (effective != spec.backend) {
        std::snprintf(buf, sizeof(buf),
                      "effective fast-sim backend %s, requested %s",
                      sim::backendName(effective),
                      sim::backendName(spec.backend));
        return buf;
    }
    if (spec.cached) {
        uint64_t warmReplays = f.cache->replaysExecuted() - f.coldReplays;
        size_t n = f.report.snapshots;
        if (f.report.cacheMisses != n || f.coldReplays != n ||
            f.warm.cacheHits != n || warmReplays != 0) {
            std::snprintf(buf, sizeof(buf),
                          "cache: cold %zu misses / %" PRIu64
                          " replays, warm %zu hits / %" PRIu64 " replays",
                          f.report.cacheMisses, f.coldReplays,
                          f.warm.cacheHits, warmReplays);
            return buf;
        }
    }
    return "";
}

// --- Isolated layer timings (traced run only) --------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Times each layer that the flow only reaches inside a coarser call, as
 * an isolated call of its public function on the flow's own inputs.
 * Appends metrics to @p out; @return "" or the first failure.
 */
std::string
measureIsolated(Flow &f, Tracer &tracer, int it, const std::string &tmpDir,
                std::vector<Metric> &out)
{
    int root = tracer.open("isolated", it, true);
    std::string failure;
    auto fail = [&failure](const std::string &why) {
        if (failure.empty())
            failure = why;
    };
    const rtl::Design &soc = *f.soc;
    const core::EnergySimulator::Config &cfg = f.sim->config();

    // FAME1, EvalPlan, codegen and JIT (all inside the ctor in the flow).
    fame::Fame1Design fame;
    out.push_back({"fame.transform_s",
                   timed(&tracer, "fame.transform", it, true,
                         [&] { fame = fame::fame1Transform(soc); }),
                   "s"});
    rtl::EvalPlan plan;
    out.push_back({"rtl.evalplan_s",
                   timed(&tracer, "rtl.evalplan", it, true,
                         [&] { plan = rtl::buildEvalPlan(fame.design); }),
                   "s"});
    // The plain compiled module: what `compiled` builds; the activity
    // workloads run no JIT, so this is the cost they avoid.
    std::string source;
    out.push_back(
        {"codegen.emit_s",
         timed(&tracer, "codegen.emit", it, true,
               [&] { source = codegen::emitSimulatorSource(fame.design, plan); }),
         "s"});
    out.push_back({"codegen.source_kb",
                   static_cast<double>(source.size()) / 1024.0, "KiB"});
    double cpu0 = childCpuSeconds();
    bool jitOk = false;
    out.push_back({"codegen.jit_s",
                   timed(&tracer, "codegen.jit", it, true,
                         [&] {
                             jitOk = codegen::compileSimulator(
                                         source, "perfbench_isolated")
                                         .isOk();
                         }),
                   "s"});
    out.push_back({"codegen.jit_child_cpu_s", childCpuSeconds() - cpu0, "s"});
    if (!jitOk)
        fail("isolated codegen::compileSimulator failed");

    // ASIC flow, step by step.
    gate::SynthesisResult synth;
    out.push_back({"gate.synth_s",
                   timed(&tracer, "gate.synth", it, true,
                         [&] { synth = gate::synthesize(soc); }),
                   "s"});
    out.push_back({"gate.place_s",
                   timed(&tracer, "gate.place", it, true,
                         [&] { (void)gate::place(synth.netlist); }),
                   "s"});
    out.push_back({"gate.match_s",
                   timed(&tracer, "gate.match", it, true,
                         [&] {
                             (void)gate::matchDesigns(soc, synth.netlist,
                                                      synth.guide);
                         }),
                   "s"});

    // Per-snapshot replay on the flow's own snapshots and ASIC products,
    // in the in-process executor's strided schedule.
    const gate::SynthesisResult &fsynth = f.sim->synthesis();
    std::vector<const fame::ReplayableSnapshot *> snaps =
        f.sim->sampler().snapshots();
    core::ReplayContext ctx{soc,
                            fsynth,
                            f.sim->placement(),
                            f.sim->matchTable(),
                            f.sim->sampler().chains(),
                            cfg,
                            core::resolveReplayBudget(cfg, fsynth)};
    std::vector<core::ReplayRecord> records(snaps.size());
    std::vector<double> replayMs(snaps.size(), 0);
    unsigned workers = std::max(1u, cfg.parallelReplays);
    workers = std::min<unsigned>(workers, std::max<size_t>(snaps.size(), 1));
    std::vector<double> busy(workers, 0);
    double passWall = timed(&tracer, "core.replay_pass", it, true, [&] {
        int parent = tracer.current();
        auto worker = [&](unsigned w) {
            gate::GateSimulator gsim(fsynth.netlist);
            for (size_t i = w; i < snaps.size(); i += workers) {
                Span s;
                s.name = "core.replay_snapshot";
                s.parent = parent;
                s.iteration = it;
                s.tid = w + 1;
                s.isolated = true;
                s.start = nowSeconds();
                records[i] =
                    core::replaySnapshot(gsim, ctx, core::ReplayUnit{i, snaps[i]});
                s.end = nowSeconds();
                replayMs[i] = (s.end - s.start) * 1e3;
                busy[w] += s.end - s.start;
                tracer.add(std::move(s));
            }
        };
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(worker, w);
        for (std::thread &t : threads)
            t.join();
    });
    double busyTotal = 0;
    for (double b : busy)
        busyTotal += b;
    for (const core::ReplayRecord &r : records) {
        if (!r.outcome.replayed())
            fail("isolated core::replaySnapshot did not verify");
    }
    out.push_back({"core.replay_ms.p50", quantile(replayMs, 0.5), "ms"});
    out.push_back({"core.replay_ms.p90", quantile(replayMs, 0.9), "ms"});
    out.push_back({"core.replay_util",
                   passWall > 0 ? busyTotal / (passWall * workers) : 0,
                   "fraction"});

    // Replay split: gate-level simulation vs power analysis, serially on
    // up to 30 snapshots.
    std::vector<double> simMs, powerMs;
    double simS = 0;
    uint64_t replayedCycles = 0;
    timed(&tracer, "gate.replay_split", it, true, [&] {
        gate::GateSimulator gsim(fsynth.netlist);
        gate::ReplayOptions opts;
        opts.loader = cfg.loader;
        opts.cycleBudget = ctx.cycleBudget;
        for (size_t i = 0; i < std::min<size_t>(snaps.size(), 30); ++i) {
            std::optional<util::Result<gate::GateReplayResult>> r;
            double s = timed(&tracer, "gate.replay_on_gate", it, true, [&] {
                r.emplace(gate::replayOnGate(gsim, soc, f.sim->matchTable(),
                                             *snaps[i], opts));
            });
            if (!r->isOk() || (*r)->outputMismatches != 0) {
                fail("isolated gate::replayOnGate did not verify");
                continue;
            }
            simS += s;
            simMs.push_back(s * 1e3);
            replayedCycles += (*r)->cyclesReplayed;
            powerMs.push_back(
                timed(&tracer, "power.analyze", it, true,
                      [&] {
                          (void)power::analyzePower(fsynth.netlist,
                                                    f.sim->placement(),
                                                    (*r)->activity,
                                                    cfg.clockHz);
                      }) *
                1e3);
        }
    });
    out.push_back({"gate.replay_sim_ms.p50", median(simMs), "ms"});
    out.push_back({"gate.replay_kcycles_per_s",
                   simS > 0 ? static_cast<double>(replayedCycles) / simS / 1e3
                            : 0,
                   "kcycles/s"});
    out.push_back({"power.analyze_ms.p50", median(powerMs), "ms"});

    // Cache keys, then one store and one lookup per verified record.
    std::vector<farm::CacheKey> keys(snaps.size());
    out.push_back(
        {"farm.key_ms",
         timed(&tracer, "farm.key", it, true,
               [&] {
                   uint64_t netFp = gate::netlistFingerprint(fsynth.netlist);
                   uint64_t cfgFp = farm::replayConfigFingerprint(cfg);
                   for (size_t i = 0; i < snaps.size(); ++i) {
                       auto d = fame::snapshotDigest(f.sim->sampler().chains(),
                                                     *snaps[i]);
                       if (!d.isOk()) {
                           fail("isolated fame::snapshotDigest failed");
                           continue;
                       }
                       keys[i] = farm::makeCacheKey(d.value(), netFp, cfgFp,
                                                    power::kPowerModelVersion);
                   }
               }) *
             1e3,
         "ms"});
    std::string isoCache = tmpDir + "/isolated-cache";
    fs::remove_all(isoCache);
    std::vector<double> storeMs, lookupMs;
    {
        farm::ResultCache store(isoCache);
        for (size_t i = 0; i < records.size(); ++i) {
            bool ok = true;
            storeMs.push_back(timed(&tracer, "farm.store", it, true, [&] {
                                  ok = store.store(keys[i], records[i]).isOk();
                              }) *
                              1e3);
            if (!ok)
                fail("isolated farm::ResultCache::store failed");
        }
        for (size_t i = 0; i < records.size(); ++i) {
            bool hit = false;
            lookupMs.push_back(timed(&tracer, "farm.lookup", it, true, [&] {
                                   hit = store.lookup(keys[i]).has_value();
                               }) *
                               1e3);
            if (!hit)
                fail("isolated farm::ResultCache::lookup missed");
        }
    }
    fs::remove_all(isoCache);
    out.push_back({"farm.store_ms", median(storeMs), "ms"});
    out.push_back({"farm.lookup_ms", median(lookupMs), "ms"});

    // Aggregation of the same records.
    std::vector<core::ReplayRecord> copy = records;
    uint64_t population = f.report.population;
    core::EnergyReport agg;
    out.push_back({"stats.aggregate_ms",
                   timed(&tracer, "stats.aggregate", it, true,
                         [&] {
                             agg = core::aggregateReplayRecords(
                                 std::move(copy), population, cfg);
                         }) *
                       1e3,
                   "ms"});
    if (reportDigest(agg) != reportDigest(f.report))
        fail("isolated core::aggregateReplayRecords differs from the flow");
    tracer.close(root);
    return failure;
}

/** Per-layer metrics read from the traced flow itself. */
void
flowLayerMetrics(const WorkloadSpec &spec, Flow &f,
                 const std::vector<Span> &spans, std::vector<Metric> &out)
{
    auto spanS = [&](const char *name) {
        for (const Span &s : spans) {
            if (s.name == name)
                return s.end - s.start;
        }
        return 0.0;
    };
    const sim::Simulator &fast = f.sim->harness().tokenSim().simulator();
    double fastS = spec.streamed ? f.report.fastSimWallSeconds
                                 : f.run.wallSeconds;
    double cycles = static_cast<double>(f.run.targetCycles);
    out.push_back({"cores.build_s", spanS("cores.build"), "s"});
    out.push_back({"core.construct_s", spanS("core.construct"), "s"});
    out.push_back({"gate.asic_flow_s", spanS("gate.asic_flow"), "s"});
    out.push_back({"fame.records", static_cast<double>(f.run.recordCount),
                   "count"});
    out.push_back({"fame.snapshots", static_cast<double>(f.report.snapshots),
                   "count"});
    out.push_back({"rtl.hot_steps",
                   static_cast<double>(fast.plan().hotProgram.size()),
                   "count"});
    out.push_back({"sim.fast_sim_s", fastS, "s"});
    out.push_back({"sim.kcycles_per_s", fastS > 0 ? cycles / fastS / 1e3 : 0,
                   "kcycles/s"});
    out.push_back({"sim.node_evals_per_cycle",
                   cycles > 0 ? static_cast<double>(fast.nodeEvals()) / cycles
                              : 0,
                   "evals/cycle"});
    out.push_back({"sim.activity_factor", fast.activityFactor(), "fraction"});
    out.push_back({"sim.effective_backend",
                   static_cast<double>(fast.backend()), "enum"});
    out.push_back({"core.replay_s", f.report.replayWallSeconds, "s"});
    out.push_back({"core.replays",
                   static_cast<double>(f.cache ? f.coldReplays
                                               : f.report.cacheMisses),
                   "count"});
    out.push_back({"farm.cache_hits",
                   static_cast<double>(f.report.cacheHits + f.warm.cacheHits),
                   "count"});
    out.push_back(
        {"farm.cache_misses",
         static_cast<double>(f.report.cacheMisses + f.warm.cacheMisses),
         "count"});
    out.push_back({"farm.cache_bytes", static_cast<double>(f.cacheBytes),
                   "B"});
    double overlap = f.report.overlapWallSeconds;
    double shorter = std::min(f.report.fastSimWallSeconds,
                              f.report.replayWallSeconds);
    out.push_back({"core.stream.overlap_s", overlap, "s"});
    out.push_back({"core.stream.overlap_eff",
                   spec.streamed && shorter > 0 ? overlap / shorter : 0,
                   "fraction"});
    out.push_back({"core.stream.superseded",
                   static_cast<double>(f.report.supersededReplays), "count"});
}

// --- Output ------------------------------------------------------------

std::string
compilerVersion(const std::string &cxx)
{
    if (cxx.empty())
        return "";
    std::string cmd = "'" + cxx + "' --version 2>/dev/null";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (p == nullptr)
        return "";
    char line[256] = {0};
    if (std::fgets(line, sizeof(line), p) == nullptr)
        line[0] = '\0';
    while (std::fgetc(p) != EOF) {
    }
    ::pclose(p);
    std::string v = line;
    while (!v.empty() && (v.back() == '\n' || v.back() == '\r'))
        v.pop_back();
    return v;
}

std::string
provenanceJson()
{
    std::string cxx = codegen::hostCompiler();
    std::string s = "{\"host_cores\":" +
                    std::to_string(std::thread::hardware_concurrency());
    s += ",\"jit_compiler\":" + jsonString(cxx);
    s += ",\"jit_compiler_version\":" + jsonString(compilerVersion(cxx));
    s += ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) + "}";
    return s;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: strober_e2e --workload NAME --seed N --tmp DIR "
                 "[--iteration K] [--warmup] [--trace-out FILE "
                 "[--isolated]]\n"
                 "workloads:");
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

/**
 * One iteration of the flow per process, so every iteration starts as
 * cold as a `strober run` does. The last stdout line is one JSON object
 * with the iteration's timings, checks and (traced) layer metrics.
 */
int
main(int argc, char **argv)
{
    std::string workload, tmpDir, traceOut;
    uint64_t seed = kDefaultSeed;
    int iteration = 0;
    bool isolated = false, warmup = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--isolated" || a == "--warmup") {
            (a == "--isolated" ? isolated : warmup) = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 0);
        else if (a == "--tmp")
            tmpDir = v;
        else if (a == "--iteration")
            iteration = std::atoi(v.c_str());
        else if (a == "--trace-out")
            traceOut = v;
        else
            return usage();
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads) {
        if (workload == w.name)
            spec = &w;
    }
    if (spec == nullptr || tmpDir.empty() || (isolated && traceOut.empty()))
        return usage();
    for (const char *var : kSteeringEnv) {
        const char *v = std::getenv(var);
        if (v != nullptr && v[0] != '\0') {
            std::fprintf(stderr,
                         "refusing to run: $%s is set (it changes what the "
                         "workload measures); unset it\n",
                         var);
            return 2;
        }
    }

    const bool traced = !traceOut.empty();
    // A warm-up iteration runs the workload on the activity interpreter:
    // no JIT, same report (every backend is bit-identical).
    WorkloadSpec run = *spec;
    if (warmup)
        run.backend = sim::Backend::InterpretedActivity;
    spec = &run;
    workloads::Workload wl = spec->make();
    Tracer tracer;
    std::string cacheDir =
        tmpDir + "/cache-iter" + std::to_string(iteration);
    Flow f = runFlow(*spec, wl, seed, cacheDir, traced ? &tracer : nullptr,
                     iteration);
    std::string why = checkFlow(*spec, wl, f);
    uint64_t digest = reportDigest(f.report);
    if (why.empty() && seed == kDefaultSeed && digest != spec->goldenDigest) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "report digest %016" PRIx64 ", recorded %016" PRIx64,
                      digest, spec->goldenDigest);
        why = buf;
    }
    std::vector<Metric> layers;
    if (traced) {
        flowLayerMetrics(*spec, f, tracer.snapshot(), layers);
        if (isolated) {
            std::string bad = measureIsolated(f, tracer, iteration, tmpDir,
                                              layers);
            if (why.empty())
                why = bad;
        }
        if (!tracer.writeChrome(traceOut, iteration) && why.empty())
            why = "cannot write " + traceOut;
    }
    fs::remove_all(cacheDir);

    std::string out = "{\"ok\":" + std::string(why.empty() ? "true" : "false");
    out += ",\"why\":" + jsonString(why);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    out += ",\"digest\":\"" + std::string(hex) + "\"";
    out += ",\"target_cycles\":" + std::to_string(f.run.targetCycles);
    out += ",\"setup_s\":" + jsonNumber(f.setupS);
    out += ",\"report_s\":" + jsonNumber(f.reportS);
    out += ",\"warm_report_s\":" + jsonNumber(f.warmS);
    out += ",\"fast_sim_s\":" + jsonNumber(f.report.fastSimWallSeconds);
    out += ",\"replay_s\":" + jsonNumber(f.report.replayWallSeconds);
    out += ",\"covered_s\":" + jsonNumber(f.coveredS);
    out += ",\"peak_rss_mb\":" + jsonNumber(peakRssMb());
    out += ",\"provenance\":" + provenanceJson();
    out += ",\"layers\":[";
    for (size_t i = 0; i < layers.size(); ++i) {
        out += (i ? ",[" : "[") + jsonString(layers[i].name) + "," +
               jsonNumber(layers[i].value) + "," +
               jsonString(layers[i].unit) + "]";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}
