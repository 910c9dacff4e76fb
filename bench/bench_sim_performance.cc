/**
 * @file
 * Table III (paper Section V-B): simulation-performance evaluation on
 * the two-way BOOM-like core — target cycles, reservoir record counts,
 * and fast-simulation time with and without snapshot sampling, for the
 * three case-study workloads. The paper's point: reservoir sampling's
 * record count grows only logarithmically, so the sampling overhead
 * fades for long runs. (Paper runs 0.5-73 B cycles on an FPGA; these
 * runs are scaled down, but the record-count law and the
 * with/without-sampling contrast are cycle-count independent.)
 *
 * A second section contrasts the fast simulator's four backends (the
 * full interpreted reference sweep, activity-driven change propagation,
 * the compiled backend that lowers the design to specialized C++, and
 * the compiled-parallel backend that adds chunk-granular activity
 * gating) on the same workloads: node evaluations per cycle, activity
 * factor and wall-clock speedup. The backends are observationally
 * equivalent (tests/test_differential.cc), so the only difference is
 * the rate. Every backend runs on one thread; like the pipeline rows,
 * each row records host_cores.
 * JIT compilation happens at harness construction, outside the timed
 * region — the records measure steady-state simulation rate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_common.h"
#include "rtl/opt.h"
#include "sim/vcd.h"
#include "stats/sampling.h"
#include "trace/stimulus.h"
#include "trace/vcd_reader.h"

using namespace strober;

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * Median-of-3 wall clock. A single timed run on a shared host is noisy
 * enough to swamp the few-percent sampling-overhead contrast, so every
 * timed leg in the sampling and backend sections runs three times; the
 * median is reported together with its relative spread
 * ((max - min) / median) so a trend dashboard can down-weight noisy
 * points instead of chasing phantom regressions.
 */
struct Timed3
{
    double median = 0;
    double spread = 0; //!< (max - min) / median
};

template <typename F>
Timed3
timed3(F &&leg)
{
    double t[3];
    for (double &v : t)
        v = leg();
    std::sort(std::begin(t), std::end(t));
    Timed3 r;
    r.median = t[1];
    r.spread = t[1] > 0 ? (t[2] - t[0]) / t[1] : 0;
    return r;
}

/** One fast-phase run on a bare RtlHarness under one backend. */
struct BackendRun
{
    uint64_t cycles = 0;
    double evalsPerCycle = 0;
    double commitsPerCycle = 0;
    double activity = 0;
    double wallSeconds = 0;
    sim::Backend effective = sim::Backend::InterpretedFull;

    double cyclesPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(cycles) / wallSeconds
                   : 0;
    }
};

BackendRun
runBackend(const rtl::Design &soc, const workloads::Workload &wl,
           sim::Backend backend)
{
    cores::SocDriver driver(soc, wl.program);
    // Harness construction includes JIT compilation for the compiled
    // backend; the clock starts after it, measuring simulation only.
    core::RtlHarness harness(soc, backend);
    double start = nowSeconds();
    core::runLoop(harness, driver, wl.maxCycles);
    BackendRun r;
    r.wallSeconds = nowSeconds() - start;
    r.cycles = harness.cycles();
    sim::Simulator &s = harness.simulator();
    r.evalsPerCycle = r.cycles ? static_cast<double>(s.nodeEvals()) /
                                     static_cast<double>(r.cycles)
                               : 0;
    r.commitsPerCycle = r.cycles ? static_cast<double>(s.commitEvals()) /
                                       static_cast<double>(r.cycles)
                                 : 0;
    r.activity = s.activityFactor();
    r.effective = s.backend();
    return r;
}

void
backendContrast(const rtl::Design &soc, bench::JsonSink &json)
{
    bench::banner(
        "backends: full vs activity vs compiled vs compiled-parallel");
    std::printf("%-12s %-9s %12s %13s %14s %9s %10s %8s\n", "benchmark",
                "backend", "cycles", "evals/cycle", "commits/cycle",
                "activity", "wall(s)", "speedup");
    workloads::Workload wls[] = {
        workloads::linuxbootLike(24),
        workloads::coremarkLite(40),
        workloads::gccLike(40),
    };
    const sim::Backend backends[] = {sim::Backend::InterpretedFull,
                                     sim::Backend::InterpretedActivity,
                                     sim::Backend::Compiled,
                                     sim::Backend::CompiledParallel};
    for (const workloads::Workload &wl : wls) {
        BackendRun full;
        for (sim::Backend backend : backends) {
            BackendRun r;
            Timed3 t3 = timed3([&] {
                r = runBackend(soc, wl, backend);
                return r.wallSeconds;
            });
            r.wallSeconds = t3.median;
            if (backend == sim::Backend::InterpretedFull)
                full = r;
            double speedup = r.wallSeconds > 0
                                 ? full.wallSeconds / r.wallSeconds
                                 : 0;
            std::printf(
                "%-12s %-9s %12llu %13.1f %14.1f %8.1f%% %10.3f %7.2fx\n",
                wl.name.c_str(), sim::backendName(backend),
                (unsigned long long)r.cycles, r.evalsPerCycle,
                r.commitsPerCycle, 100.0 * r.activity, r.wallSeconds,
                speedup);
            json.row(std::string("backend_") + wl.name + "_" +
                     sim::backendName(backend))
                .str("design", "boom2w")
                .str("workload", wl.name)
                .str("backend", sim::backendName(backend))
                .str("effective_backend", sim::backendName(r.effective))
                .num("cycles", static_cast<double>(r.cycles))
                .num("wall_seconds", r.wallSeconds)
                .num("wall_spread", t3.spread)
                .num("cycles_per_sec", r.cyclesPerSec())
                .num("speedup", speedup)
                .num("evals_per_cycle", r.evalsPerCycle)
                .num("commits_per_cycle", r.commitsPerCycle)
                .num("activity", r.activity)
                .num("host_cores", static_cast<double>(
                                       std::thread::hardware_concurrency()));
        }
    }
}

/**
 * EvalPlan optimization accounting: how much of each core's netlist
 * the shared plan optimizer removes from the per-cycle hot path, and
 * how much of that the known-bits dataflow pass (rtl/dataflow) adds on
 * top of structural folding/CSE. The contrast rebuilds each plan with
 * the dataflow strengthening disabled, so the "hot_base" →
 * "hot_strengthened" delta is attributable to the facts alone.
 */
void
planStatsContrast(bench::JsonSink &json)
{
    bench::banner("EvalPlan optimization statistics (per design)");
    std::printf("%-8s %8s %8s %8s %8s %8s %8s %8s %8s\n", "design",
                "hot0", "hot", "folded", "cse", "cold", "df_fold",
                "df_mux", "df_alias");
    const struct
    {
        const char *name;
        cores::SocConfig config;
    } socs[] = {
        {"rocket", cores::SocConfig::rocket()},
        {"boom1w", cores::SocConfig::boom1w()},
        {"boom2w", cores::SocConfig::boom2w()},
    };
    for (const auto &s : socs) {
        rtl::Design d = cores::buildSoc(s.config);
        rtl::EvalPlanOptions off;
        off.dataflow = false;
        rtl::EvalPlan base = rtl::buildEvalPlan(d, off);
        rtl::EvalPlan plan = rtl::buildEvalPlan(d);
        const rtl::EvalPlanStats &st = plan.stats;
        std::printf("%-8s %8zu %8zu %8u %8u %8u %8u %8u %8u\n", s.name,
                    base.hotProgram.size(), plan.hotProgram.size(),
                    st.folded, st.aliased, st.cold, st.dfFolded,
                    st.dfMuxPruned, st.dfAliased);
        json.row(std::string("evalplan_") + s.name)
            .str("design", s.name)
            .num("hot_base", static_cast<double>(base.hotProgram.size()))
            .num("hot_strengthened",
                 static_cast<double>(plan.hotProgram.size()))
            .num("folded", st.folded)
            .num("cse_aliased", st.aliased)
            .num("dead_cone_cold", st.cold)
            .num("const_slots", st.constSlots)
            .num("df_folded", st.dfFolded)
            .num("df_mux_pruned", st.dfMuxPruned)
            .num("df_aliased", st.dfAliased);
    }
}

/**
 * Trace-interchange ingest rates (src/trace): dump each workload's
 * fast-phase run as a ports-only VCD, then measure (a) the raw parser
 * streaming rate over the file and (b) the end-to-end simulation rate
 * when the same harness is driven from the trace instead of the
 * instruction-level generator. The gap between (b) and the generated
 * run is the stimulus-delivery overhead a `--stimulus` user pays.
 */
void
traceIngestContrast(const rtl::Design &soc, bench::JsonSink &json)
{
    bench::banner("trace interchange: VCD ingest vs generated stimulus");
    std::printf("%-12s %9s %10s %12s %14s %14s\n", "benchmark", "MiB",
                "parse(s)", "parse MiB/s", "gen cyc/s", "trace cyc/s");
    workloads::Workload wls[] = {
        workloads::linuxbootLike(24),
        workloads::coremarkLite(40),
    };
    for (const workloads::Workload &wl : wls) {
        std::string path = "BENCH_trace_" + wl.name + ".vcd";
        {
            std::ofstream out(path, std::ios::binary);
            core::RtlHarness harness(soc);
            sim::VcdWriter::Options vopts;
            vopts.portsOnly = true;
            sim::VcdWriter vcd(out, harness.simulator(), vopts);
            cores::SocDriver driver(soc, wl.program);
            while (!driver.done() && harness.cycles() < wl.maxCycles) {
                driver.drive(harness);
                vcd.sample();
                harness.clock();
            }
        }
        double mib = 0;
        {
            std::ifstream in(path, std::ios::binary | std::ios::ate);
            mib = static_cast<double>(in.tellg()) / (1024.0 * 1024.0);
        }

        // (a) Raw streaming-parser rate, no simulation attached.
        double parseStart = nowSeconds();
        uint64_t parsedSteps = 0;
        {
            std::ifstream in(path, std::ios::binary);
            util::Result<trace::VcdHeader> hdr = trace::parseVcdHeader(in);
            if (!hdr.isOk())
                fatal("trace parse failed: %s",
                           hdr.status().toString().c_str());
            trace::VcdCursor cur(in, hdr.value());
            for (;;) {
                util::Result<bool> r = cur.advance();
                if (!r.isOk())
                    fatal("trace walk failed: %s",
                               r.status().toString().c_str());
                if (!r.value())
                    break;
            }
            parsedSteps = cur.stepsDelivered();
        }
        double parseSec = nowSeconds() - parseStart;

        // (b) Generated vs trace-driven fast-phase rate on a bare
        // harness (default backend, no sampling — stimulus rate only).
        cores::SocDriver genDriver(soc, wl.program);
        core::RtlHarness genHarness(soc);
        double genStart = nowSeconds();
        core::runLoop(genHarness, genDriver, wl.maxCycles);
        double genSec = nowSeconds() - genStart;

        util::Result<std::unique_ptr<trace::TraceDriver>> trc =
            trace::TraceDriver::open(path, soc);
        if (!trc.isOk())
            fatal("trace bind failed: %s",
                       trc.status().toString().c_str());
        core::RtlHarness trcHarness(soc);
        double trcStart = nowSeconds();
        core::runLoop(trcHarness, *trc.value(), UINT64_MAX);
        double trcSec = nowSeconds() - trcStart;
        if (!trc.value()->status().isOk())
            fatal("trace stream failed: %s",
                       trc.value()->status().toString().c_str());

        double genRate =
            genSec > 0 ? static_cast<double>(genHarness.cycles()) / genSec
                       : 0;
        double trcRate =
            trcSec > 0 ? static_cast<double>(trcHarness.cycles()) / trcSec
                       : 0;
        std::printf("%-12s %9.1f %10.3f %12.1f %14.0f %14.0f\n",
                    wl.name.c_str(), mib, parseSec,
                    parseSec > 0 ? mib / parseSec : 0, genRate, trcRate);
        json.row("trace_ingest_" + wl.name)
            .str("design", "boom2w")
            .str("workload", wl.name)
            .num("cycles", static_cast<double>(trcHarness.cycles()))
            .num("timesteps", static_cast<double>(parsedSteps))
            .num("file_mib", mib)
            .num("parse_seconds", parseSec)
            .num("parse_mib_per_sec", parseSec > 0 ? mib / parseSec : 0)
            .num("gen_wall_seconds", genSec)
            .num("gen_cycles_per_sec", genRate)
            .num("trace_wall_seconds", trcSec)
            .num("trace_cycles_per_sec", trcRate)
            .num("trace_vs_gen", genRate > 0 ? trcRate / genRate : 0);
        std::remove(path.c_str());
    }
}

/**
 * Streaming pipeline (estimateStreaming in src/core/energy_sim.h, fed
 * through the replay engine of src/core/replay_executor.h): the phased
 * run() + estimate() flow against estimateStreaming() on a replay-bound
 * workload (fast sim and replay walls roughly balanced, so overlap has
 * something to hide), plus an adaptive --ci-bound run. The streamed
 * end-to-end span should land well under the phased fast+replay sum,
 * and the ci-bound run should terminate with measurably fewer replays
 * than the configured reservoir.
 *
 * The overlap win is physical parallelism: replay workers need spare
 * cores to hide behind the fast sim. On a single-core host the
 * streamed span degenerates to the total CPU work (and exceeds the
 * phased sum by the replays that reservoir eviction later supersedes),
 * so every row records host_cores and trend consumers must condition
 * the vs_phased ratio on it.
 */
void
pipelineContrast(const rtl::Design &soc, bench::JsonSink &json)
{
    bench::banner("streaming pipeline: phased vs streamed vs ci-bound");
    workloads::Workload wl = workloads::vvadd();
    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 30;
    cfg.replayLength = 128;
    cfg.parallelReplays = 4;

    // Phased: fast sim, then replay (same worker count — the contrast
    // isolates overlap, not parallelism).
    core::EnergySimulator ph(soc, cfg);
    bench::runFastPhase(ph, soc, wl);
    core::EnergyReport phRep = ph.estimate();
    double phasedSum = phRep.fastSimWallSeconds + phRep.replayWallSeconds;

    // Streamed: identical config; replay overlaps the fast sim. The
    // end-to-end span comes from the report's own phase clocks
    // (fast + replay - overlap), which excludes the one-time ASIC-flow
    // build both paths share.
    core::EnergySimulator st(soc, cfg);
    cores::SocDriver stDriver(soc, wl.program);
    core::EnergyReport stRep = st.estimateStreaming(stDriver, wl.maxCycles);
    double stSpan = stRep.fastSimWallSeconds + stRep.replayWallSeconds -
                    stRep.overlapWallSeconds;
    double minPhase =
        std::min(stRep.fastSimWallSeconds, stRep.replayWallSeconds);
    double overlapEff =
        minPhase > 0 ? stRep.overlapWallSeconds / minPhase : 0;
    double vsPhased = phasedSum > 0 ? stSpan / phasedSum : 0;

    // Adaptive termination: a reservoir larger than the Eq. 8 floor and
    // a 5% bound; the run should stop with a fraction of the reservoir
    // replayed.
    core::EnergySimulator::Config ci = cfg;
    ci.sampleSize = 60;
    ci.ciBound = 0.05;
    core::EnergySimulator cs(soc, ci);
    cores::SocDriver ciDriver(soc, wl.program);
    core::EnergyReport ciRep = cs.estimateStreaming(ciDriver, wl.maxCycles);

    std::printf("%-22s %10s %10s %10s %10s %9s\n", "mode", "fast(s)",
                "replay(s)", "overlap(s)", "total(s)", "snapshots");
    std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %9zu\n", "phased",
                phRep.fastSimWallSeconds, phRep.replayWallSeconds, 0.0,
                phasedSum, phRep.snapshots);
    std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %9zu  (%.2fx phased, "
                "overlap eff %.0f%%)\n",
                "streamed", stRep.fastSimWallSeconds,
                stRep.replayWallSeconds, stRep.overlapWallSeconds, stSpan,
                stRep.snapshots, vsPhased, 100.0 * overlapEff);
    std::printf("%-22s %10.3f %10.3f %10.3f %10s %9zu  (reservoir %zu, "
                "early-stopped %d)\n",
                "streamed --ci-bound", ciRep.fastSimWallSeconds,
                ciRep.replayWallSeconds, ciRep.overlapWallSeconds, "-",
                ciRep.snapshots, ci.sampleSize, ciRep.earlyStopped ? 1 : 0);

    double cores =
        static_cast<double>(std::thread::hardware_concurrency());
    json.row("pipeline_boom2w_phased")
        .str("design", "boom2w")
        .str("workload", wl.name)
        .num("fast_sim_seconds", phRep.fastSimWallSeconds)
        .num("replay_seconds", phRep.replayWallSeconds)
        .num("total_seconds", phasedSum)
        .num("snapshots", static_cast<double>(phRep.snapshots))
        .num("workers", cfg.parallelReplays)
        .num("host_cores", cores);
    json.row("pipeline_boom2w_streamed")
        .str("design", "boom2w")
        .str("workload", wl.name)
        .num("fast_sim_seconds", stRep.fastSimWallSeconds)
        .num("replay_seconds", stRep.replayWallSeconds)
        .num("overlap_seconds", stRep.overlapWallSeconds)
        .num("total_seconds", stSpan)
        .num("vs_phased", vsPhased)
        .num("overlap_efficiency", overlapEff)
        .num("superseded_replays",
             static_cast<double>(stRep.supersededReplays))
        .num("snapshots", static_cast<double>(stRep.snapshots))
        .num("early_stopped", stRep.earlyStopped ? 1 : 0)
        .num("workers", cfg.parallelReplays)
        .num("host_cores", cores);
    json.row("pipeline_boom2w_cibound")
        .str("design", "boom2w")
        .str("workload", wl.name)
        .num("ci_bound", ci.ciBound)
        .num("reservoir", static_cast<double>(ci.sampleSize))
        .num("snapshots", static_cast<double>(ciRep.snapshots))
        .num("replays_saved",
             static_cast<double>(ci.sampleSize > ciRep.snapshots
                                     ? ci.sampleSize - ciRep.snapshots
                                     : 0))
        .num("early_stopped", ciRep.earlyStopped ? 1 : 0)
        .num("relative_error", ciRep.averagePower.relativeError())
        .num("workers", ci.parallelReplays)
        .num("host_cores", cores);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonSink json = bench::JsonSink::fromArgs(
        &argc, argv, "BENCH_sim_performance.json");
    bench::banner("Table III: simulation performance (BOOM-2w)");
    rtl::Design soc = cores::buildSoc(cores::SocConfig::boom2w());

    workloads::Workload wls[] = {
        workloads::linuxbootLike(24),
        workloads::coremarkLite(40),
        workloads::gccLike(40),
    };

    std::printf("%-12s %14s %9s %9s %12s %13s %10s %8s\n", "benchmark",
                "cycles", "records", "expected", "t_sample(s)",
                "t_nosample(s)", "overhead", "spread");

    for (const workloads::Workload &wl : wls) {
        core::EnergySimulator::Config cfg;
        cfg.sampleSize = 30;
        cfg.replayLength = 128;

        // With sampling (median-of-3; cycle/record counts are
        // deterministic across repeats, only the wall clock moves).
        bench::StroberRun a;
        Timed3 ts = timed3([&] {
            core::EnergySimulator withS(soc, cfg);
            a = bench::runFastPhase(withS, soc, wl);
            return a.run.wallSeconds;
        });

        // Without sampling.
        cfg.samplingEnabled = false;
        Timed3 tn = timed3([&] {
            core::EnergySimulator withoutS(soc, cfg);
            return bench::runFastPhase(withoutS, soc, wl).run.wallSeconds;
        });

        double expected = stats::ReservoirSampler<int>::expectedRecords(
            30, a.run.targetCycles / 128);
        std::printf("%-12s %14llu %9llu %9.0f %12.2f %13.2f %9.1f%% %7.1f%%\n",
                    wl.name.c_str(),
                    (unsigned long long)a.run.targetCycles,
                    (unsigned long long)a.run.recordCount, expected,
                    ts.median, tn.median,
                    100.0 * (ts.median - tn.median) / tn.median,
                    100.0 * std::max(ts.spread, tn.spread));
        json.row("sampling_" + wl.name)
            .str("design", "boom2w")
            .num("cycles", static_cast<double>(a.run.targetCycles))
            .num("wall_seconds", ts.median)
            .num("wall_spread", ts.spread)
            .num("nosampling_wall_seconds", tn.median)
            .num("nosampling_wall_spread", tn.spread)
            .num("records", static_cast<double>(a.run.recordCount));
    }

    std::printf("\nhost-cycle accounting with sampling (scan read-out + "
                "I/O service stalls):\n");
    {
        workloads::Workload wl = workloads::linuxbootLike(24);
        core::EnergySimulator::Config cfg;
        core::EnergySimulator es(soc, cfg);
        bench::StroberRun r = bench::runFastPhase(es, soc, wl);
        std::printf("  linuxboot: %llu target cycles -> %llu host cycles "
                    "(%.2fx)\n",
                    (unsigned long long)r.run.targetCycles,
                    (unsigned long long)r.run.hostCycles,
                    static_cast<double>(r.run.hostCycles) /
                        static_cast<double>(r.run.targetCycles));
    }
    std::printf("\npaper Table III (for reference): 0.5-73 B cycles, "
                "980-1497 records, sampling overhead shrinking with run "
                "length (gcc: 344 vs 312 min).\n\n");

    planStatsContrast(json);
    backendContrast(soc, json);
    traceIngestContrast(soc, json);
    pipelineContrast(soc, json);
    json.write();
    return 0;
}
