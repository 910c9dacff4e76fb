/**
 * @file
 * The `strober` command-line tool: the packaged entry point for the
 * common flows so the framework is usable without writing C++.
 *
 *   strober info                           # list cores and workloads
 *   strober run    <core> <workload>       # fast sim + energy estimate
 *   strober run    <core> --stimulus F.vcd # ... driven by an external
 *                                          #   VCD trace instead of a
 *                                          #   built-in workload
 *       [--backend B]                      #   fast-sim backend: full |
 *                                          #   activity (default) |
 *                                          #   compiled | compiled-parallel
 *       [--sim-threads N]                  #   threads for the
 *                                          #   compiled-parallel backend
 *       [--jobs N | -j N]                  #   parallel replay workers
 *       [--cache-dir DIR]                  #   persistent replay-result
 *                                          #   cache (src/farm); a warm
 *                                          #   cache re-estimates with
 *                                          #   zero gate-level replays
 *                                          #   (phased or --stream)
 *       [--max-dropped-snapshots N]        #   invalidate report past N
 *       [--replay-timeout CYCLES]          #   per-replay watchdog budget
 *       [--dump-stimulus F.vcd]            #   dump a ports-only VCD of
 *                                          #   the workload run and exit
 *                                          #   (re-ingestable through
 *                                          #   --stimulus)
 *       [--report FILE]                    #   write the deterministic
 *                                          #   report rendering (cmp-able
 *                                          #   across backends/machines)
 *       [--stream]                         #   streamed pipeline: replay
 *                                          #   overlaps the fast sim
 *                                          #   (same report, byte for byte)
 *       [--ci-bound R]                     #   adaptive termination: stop
 *                                          #   once the CI half-width over
 *                                          #   the mean drops under R
 *                                          #   (implies --stream)
 *   strober truth  <core> <workload>       # exhaustive gate-level power
 *   strober truth  <core> --stimulus F.vcd # ... driven by a VCD trace
 *       [--saif FILE]                      #   export the measured
 *                                          #   activity as duty-tracked
 *                                          #   SAIF (VCD in, SAIF out)
 *   strober synth  <core> [out.v]          # synthesis stats / Verilog
 *   strober chase  <core> <KiB> [latency]  # pointer-chase latency
 *   strober asm    <file.s>                # assemble + run on the ISS
 *
 * Exit codes of `run`: 0 clean estimate, 1 degraded but valid (some
 * snapshots quarantined / replay mismatches), 2 usage error, 3 invalid
 * estimate (no trustworthy number; see the report's status line), 4
 * stimulus error (unreadable/malformed/unbindable trace file).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/energy_sim.h"
#include "cores/soc.h"
#include "cores/soc_driver.h"
#include "farm/farm.h"
#include "farm/report.h"
#include "lint/diagnostics.h"
#include "sim/vcd.h"
#include "trace/stimulus.h"
#include "gate/saif.h"
#include "gate/verilog.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "util/file_io.h"
#include "util/logging.h"
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

int
cmdInfo()
{
    std::printf("cores:\n");
    for (const char *c : {"rocket", "boom1w", "boom2w"}) {
        cores::SocConfig cfg = coreByName(c);
        rtl::Design d = cores::buildSoc(cfg);
        std::printf("  %-8s fetch/issue %u/%u, %zu RTL nodes, %zu regs\n",
                    c, cfg.fetchWidth, cfg.issueWidth, d.numNodes(),
                    d.regs().size());
    }
    std::printf("workloads:\n  ");
    for (const workloads::Workload &w : workloads::microbenchmarks())
        std::printf("%s ", w.name.c_str());
    for (const workloads::Workload &w : workloads::caseStudies())
        std::printf("%s ", w.name.c_str());
    std::printf("\n");
    return 0;
}

/** Fault-tolerance knobs of `strober run` (see EnergySimulator::Config). */
struct RunOptions
{
    size_t maxDroppedSnapshots = std::numeric_limits<size_t>::max();
    uint64_t replayTimeoutCycles = 0; //!< 0 = auto budget
    unsigned jobs = 1;                //!< parallel replay workers
    std::string cacheDir;             //!< empty = no persistent cache
    sim::Backend backend = sim::Backend::InterpretedActivity;
    std::string stimulus;             //!< VCD trace instead of a workload
    std::string dumpStimulus;         //!< write a ports-only VCD and exit
    std::string reportFile;           //!< deterministic report rendering
    bool stream = false;              //!< overlap replay with the fast sim
    double ciBound = 0;               //!< adaptive stop (implies --stream)
};

/** Ports-only VCD dump of a generator-driven run (no estimate). */
int
cmdDumpStimulus(const rtl::Design &soc, const workloads::Workload &wl,
                const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot create '%s'", path.c_str());
    core::RtlHarness harness(soc);
    sim::VcdWriter::Options vopts;
    vopts.portsOnly = true;
    sim::VcdWriter vcd(out, harness.simulator(), vopts);
    cores::SocDriver driver(soc, wl.program);
    // Same per-cycle contract as the energy-sim loop, with the sample
    // taken after the cycle's inputs are poked and before the edge --
    // VCD timestamp t carries the inputs of target cycle t.
    while (!driver.done() && harness.cycles() < wl.maxCycles) {
        driver.drive(harness);
        vcd.sample();
        harness.clock();
    }
    if (!driver.done())
        fatal("workload did not finish");
    out.close();
    if (!out)
        fatal("writing '%s' failed", path.c_str());
    std::printf("dumped %llu cycles, %zu port signal(s), %zu wide "
                "signal(s) skipped, to %s\n",
                (unsigned long long)harness.cycles(), vcd.signalCount(),
                vcd.wideSignalsSkipped(), path.c_str());
    return 0;
}

int
cmdRun(const std::string &coreName, const std::string &wlName,
       const RunOptions &opts)
{
    rtl::Design soc = cores::buildSoc(coreByName(coreName));
    const bool fromTrace = !opts.stimulus.empty();
    workloads::Workload wl;
    trace::TraceWorkload twl;
    if (fromTrace) {
        util::Result<trace::TraceWorkload> r =
            trace::loadTraceWorkload(opts.stimulus);
        if (!r.isOk()) {
            std::fprintf(stderr, "stimulus: %s\n",
                         r.status().toString().c_str());
            return 4;
        }
        twl = r.value();
    } else {
        wl = workloads::byName(wlName);
    }
    if (!opts.dumpStimulus.empty()) {
        if (fromTrace) {
            std::fprintf(stderr, "--dump-stimulus requires a generated "
                                 "workload, not --stimulus\n");
            return 2;
        }
        return cmdDumpStimulus(soc, wl, opts.dumpStimulus);
    }

    core::EnergySimulator::Config cfg;
    cfg.sampleSize = 30;
    cfg.replayLength = 128;
    cfg.maxDroppedSnapshots = opts.maxDroppedSnapshots;
    cfg.replayTimeoutCycles = opts.replayTimeoutCycles;
    cfg.parallelReplays = std::max(1u, opts.jobs);
    cfg.backend = opts.backend;
    cfg.stimulusFingerprint = fromTrace ? twl.fingerprint : 0;
    cfg.ciBound = opts.ciBound;
    const bool streamed = opts.stream || opts.ciBound > 0;
    std::unique_ptr<farm::CachingReplayExecutor> cachingExec;
    if (!opts.cacheDir.empty()) {
        cachingExec =
            std::make_unique<farm::CachingReplayExecutor>(opts.cacheDir);
        cfg.replayExecutor = cachingExec.get();
    }
    core::EnergySimulator strober(soc, cfg);

    std::unique_ptr<cores::SocDriver> socDriver;
    std::unique_ptr<trace::TraceDriver> traceDriver;
    core::HostDriver *driver = nullptr;
    uint64_t maxCycles = 0;
    if (fromTrace) {
        lint::Diagnostics diags;
        util::Result<std::unique_ptr<trace::TraceDriver>> r =
            twl.openDriver(soc, &diags);
        for (const lint::Diagnostic &d : diags.all())
            std::fprintf(stderr, "%s\n", d.str().c_str());
        if (!r.isOk()) {
            std::fprintf(stderr, "stimulus: %s\n",
                         r.status().toString().c_str());
            return 4;
        }
        traceDriver = std::move(r.value());
        driver = traceDriver.get();
        maxCycles = std::numeric_limits<uint64_t>::max();
    } else {
        socDriver = std::make_unique<cores::SocDriver>(soc, wl.program);
        driver = socDriver.get();
        maxCycles = wl.maxCycles;
    }
    core::RunStats run;
    core::EnergyReport rep;
    if (streamed) {
        // One call: fast sim and gate-level replay overlap on the
        // streaming pipeline (and --ci-bound may stop the run early).
        rep = strober.estimateStreaming(*driver, maxCycles, &run);
    } else {
        run = strober.run(*driver, maxCycles);
    }
    if (traceDriver && !traceDriver->status().isOk()) {
        std::fprintf(stderr, "stimulus: %s\n",
                     traceDriver->status().toString().c_str());
        return 4;
    }
    if (!driver->done() && !(streamed && rep.earlyStopped))
        fatal("workload did not finish");
    if (socDriver && driver->done()) {
        std::printf("%s on %s: %llu cycles, %llu instructions "
                    "(CPI %.2f), exit 0x%x%s\n",
                    wl.name.c_str(), coreName.c_str(),
                    (unsigned long long)run.targetCycles,
                    (unsigned long long)socDriver->commitsSeen(),
                    static_cast<double>(run.targetCycles) /
                        static_cast<double>(socDriver->commitsSeen()),
                    socDriver->exitCode(),
                    wl.expectedExit &&
                            socDriver->exitCode() == wl.expectedExit
                        ? " (checksum OK)"
                        : "");
    } else if (socDriver) {
        std::printf("%s on %s: stopped early at %llu cycles "
                    "(--ci-bound met)\n",
                    wl.name.c_str(), coreName.c_str(),
                    (unsigned long long)run.targetCycles);
    } else {
        std::printf("%s on %s: %llu cycles driven from trace\n",
                    twl.name.c_str(), coreName.c_str(),
                    (unsigned long long)run.targetCycles);
    }
    if (!streamed)
        rep = strober.estimate();
    if (!opts.reportFile.empty()) {
        util::Status ws = util::writeFileAtomic(
            opts.reportFile, farm::renderReportDeterministic(rep));
        if (!ws.isOk())
            fatal("%s", ws.toString().c_str());
    }
    std::printf("average power: %.3f mW +/- %.3f (99%% CI, %zu "
                "snapshots, %zu dropped, %llu replay mismatches)\n",
                rep.averagePower.mean * 1e3,
                rep.averagePower.halfWidth * 1e3, rep.snapshots,
                rep.droppedSnapshots,
                (unsigned long long)rep.replayMismatches);
    if (streamed) {
        std::printf("pipeline: fast sim %.3f s, replay %.3f s, overlap "
                    "%.3f s%s; %zu superseded replay(s)\n",
                    rep.fastSimWallSeconds, rep.replayWallSeconds,
                    rep.overlapWallSeconds,
                    rep.earlyStopped ? "; early-stopped on --ci-bound"
                                     : "",
                    rep.supersededReplays);
    }
    // The JIT's host cost goes to stderr: stdout stays identical across
    // backends, and timings are never part of a report.
    if (const codegen::JitStats *jit =
            strober.harness().tokenSim().simulator().jitStats()) {
        double slowest = 0;
        for (const codegen::JitStats::Unit &u : jit->units)
            slowest = std::max(slowest, u.wallSeconds);
        std::fprintf(stderr,
                     "jit: %zu unit(s), %.2f s wall (slowest unit %.2f s, "
                     "link %.2f s), %.2f s compiler CPU\n",
                     jit->units.size(), jit->totalWallSeconds, slowest,
                     jit->linkWallSeconds, jit->compilerCpuSeconds());
    }
    if (cachingExec) {
        std::printf("replay cache: %zu hit(s), %zu miss(es), %llu "
                    "replay(s) executed\n",
                    rep.cacheHits, rep.cacheMisses,
                    (unsigned long long)cachingExec->replaysExecuted());
    }
    if (rep.degraded || !rep.valid) {
        std::printf("%s: %s\n", rep.valid ? "degraded" : "INVALID",
                    rep.statusMessage.c_str());
        for (const core::SnapshotOutcome &oc : rep.outcomes) {
            if (!oc.replayed()) {
                std::printf("  snapshot %zu (cycle %llu): %s after %u "
                            "attempt(s): %s\n",
                            oc.index, (unsigned long long)oc.cycle,
                            core::snapshotStatusName(oc.status),
                            oc.attempts, oc.detail.c_str());
            }
        }
    }
    for (const core::GroupEstimate &g : rep.groups) {
        if (g.power.mean > rep.averagePower.mean * 0.01) {
            std::printf("  %-28s %8.3f mW\n", g.group.c_str(),
                        g.power.mean * 1e3);
        }
    }
    // 0 clean, 1 degraded-but-valid, 3 invalid (2 is reserved for
    // usage errors) — scripts can distinguish "usable but check the
    // status line" from "no trustworthy number".
    if (!rep.valid)
        return 3;
    return rep.degraded || rep.replayMismatches ? 1 : 0;
}

/**
 * Gate-level ground truth, optionally driven from a VCD trace instead
 * of a generated workload, and optionally exporting the measured
 * switching activity as a duty-tracked SAIF file — the export half of
 * the VCD-in / SAIF-out interchange loop.
 */
int
cmdTruth(const std::string &coreName, const std::string &wlName,
         const std::string &stimulus, const std::string &saifFile)
{
    rtl::Design soc = cores::buildSoc(coreByName(coreName));
    const bool fromTrace = !stimulus.empty();
    workloads::Workload wl;
    if (!fromTrace)
        wl = workloads::byName(wlName);
    core::EnergySimulator::Config cfg;
    core::EnergySimulator strober(soc, cfg);

    std::unique_ptr<cores::SocDriver> socDriver;
    std::unique_ptr<trace::TraceDriver> traceDriver;
    core::HostDriver *driver = nullptr;
    uint64_t maxCycles = 0;
    std::string runName;
    if (fromTrace) {
        lint::Diagnostics diags;
        util::Result<std::unique_ptr<trace::TraceDriver>> r =
            trace::TraceDriver::open(stimulus, soc, {}, &diags);
        for (const lint::Diagnostic &d : diags.all())
            std::fprintf(stderr, "%s\n", d.str().c_str());
        if (!r.isOk()) {
            std::fprintf(stderr, "stimulus: %s\n",
                         r.status().toString().c_str());
            return 4;
        }
        traceDriver = std::move(r.value());
        driver = traceDriver.get();
        maxCycles = std::numeric_limits<uint64_t>::max();
        runName = stimulus;
    } else {
        socDriver = std::make_unique<cores::SocDriver>(soc, wl.program);
        driver = socDriver.get();
        maxCycles = wl.maxCycles;
        runName = wl.name;
    }
    std::printf("running %s to completion at gate level (slow; this is "
                "the point)...\n", runName.c_str());
    // Duty tracking gives the SAIF output its T0/T1 fields.
    util::Result<core::GroundTruth> truth = core::measureGroundTruth(
        strober, *driver, maxCycles, /*trackDuty=*/!saifFile.empty());
    if (traceDriver && !traceDriver->status().isOk()) {
        std::fprintf(stderr, "stimulus: %s\n",
                     traceDriver->status().toString().c_str());
        return 4;
    }
    if (!truth.isOk()) {
        std::fprintf(stderr, "truth: %s\n",
                     truth.status().toString().c_str());
        return 3;
    }
    std::printf("exact average power over %llu cycles: %.3f mW\n",
                (unsigned long long)truth->power.cycles,
                truth->power.totalWatts() * 1e3);
    std::printf("%s", truth->power.table().c_str());

    if (!saifFile.empty()) {
        gate::SaifOptions opt;
        opt.designName = coreName;
        opt.clockHz = cfg.clockHz;
        opt.highCycles = &truth->highCycles;
        util::Status ws = util::writeFileAtomic(
            saifFile, gate::writeSaif(strober.synthesis().netlist,
                                      truth->activity, opt));
        if (!ws.isOk())
            fatal("%s", ws.toString().c_str());
        std::printf("wrote duty-tracked SAIF activity (%llu cycles) "
                    "to %s\n",
                    (unsigned long long)truth->cycles, saifFile.c_str());
    }
    return 0;
}

int
cmdSynth(const std::string &coreName, const char *outFile)
{
    rtl::Design soc = cores::buildSoc(coreByName(coreName));
    gate::SynthesisResult synth = gate::synthesize(soc);
    std::printf("%s: %llu gates, %zu DFFs (%llu retimed), %llu folded, "
                "%llu swept, %.0f um^2\n",
                coreName.c_str(),
                (unsigned long long)synth.stats.liveGates,
                synth.netlist.dffs().size(),
                (unsigned long long)synth.stats.retimedDffCount,
                (unsigned long long)synth.stats.foldedGates,
                (unsigned long long)synth.stats.sweptGates,
                synth.netlist.totalAreaUm2());
    if (outFile) {
        std::ofstream out(outFile);
        out << gate::writeVerilog(synth.netlist, coreName + "_gates");
        std::printf("wrote %s\n", outFile);
    }
    return 0;
}

int
cmdChase(const std::string &coreName, uint32_t kib, unsigned latency)
{
    cores::SocConfig ccfg = coreByName(coreName);
    rtl::Design soc = cores::buildSoc(ccfg);
    workloads::Workload wl = workloads::pointerChase(kib * 1024, 400);
    cores::SocDriver::Config dcfg;
    dcfg.dram.baseLatencyCycles = latency;
    cores::SocDriver driver(soc, wl.program, dcfg);
    core::RtlHarness harness(soc);
    core::runLoop(harness, driver, wl.maxCycles);
    if (!driver.done())
        fatal("chase did not finish");
    std::printf("%u KiB array, DRAM latency %u: %.1f cycles per load\n",
                kib, latency, driver.exitCode() / 16.0);
    return 0;
}

int
cmdAsm(const char *path)
{
    util::Result<std::string> source = util::readFile(path);
    if (!source.isOk())
        fatal("%s", source.status().toString().c_str());
    isa::Program prog = isa::assemble(*source);
    std::printf("assembled %u bytes at 0x%08x\n", prog.sizeBytes(),
                prog.base);
    isa::Iss iss;
    iss.loadProgram(prog);
    iss.run();
    std::printf("ISS: %llu instructions, exit 0x%x\n",
                (unsigned long long)iss.instret(), iss.exitCode());
    if (!iss.consoleOutput().empty())
        std::printf("console: %s\n", iss.consoleOutput().c_str());
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: strober info\n"
                 "       strober run    <core> <workload>\n"
                 "       strober run    <core> --stimulus <file.vcd>\n"
                 "                      [--backend full|activity|compiled\n"
                 "                                 |compiled-parallel]\n"
                 "                      [--sim-threads N]\n"
                 "                      [--jobs N | -j N]\n"
                 "                      [--cache-dir DIR]\n"
                 "                      [--max-dropped-snapshots N]\n"
                 "                      [--replay-timeout CYCLES]\n"
                 "                      [--dump-stimulus <file.vcd>]\n"
                 "                      [--report FILE]\n"
                 "                      [--stream]       # overlap replay\n"
                 "                                       #   with the fast sim\n"
                 "                      [--ci-bound R]   # stop early once\n"
                 "                                       #   CI/mean < R\n"
                 "       strober truth  <core> <workload>\n"
                 "       strober truth  <core> --stimulus <file.vcd>\n"
                 "                      [--saif FILE]            # export\n"
                 "                                               #   duty-tracked\n"
                 "                                               #   SAIF activity\n"
                 "       strober synth  <core> [out.v]\n"
                 "       strober chase  <core> <KiB> [dram-latency]\n"
                 "       strober asm    <file.s>\n");
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
    if (cmd == "info")
        return cmdInfo();
    if (cmd == "run") {
        RunOptions opts;
        std::vector<std::string> positional;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--max-dropped-snapshots" && i + 1 < argc) {
                opts.maxDroppedSnapshots =
                    static_cast<size_t>(std::stoull(argv[++i]));
            } else if (arg == "--replay-timeout" && i + 1 < argc) {
                opts.replayTimeoutCycles = std::stoull(argv[++i]);
            } else if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
                opts.jobs = static_cast<unsigned>(std::stoul(argv[++i]));
            } else if (arg == "--cache-dir" && i + 1 < argc) {
                opts.cacheDir = argv[++i];
            } else if (arg == "--stimulus" && i + 1 < argc) {
                opts.stimulus = argv[++i];
            } else if (arg == "--dump-stimulus" && i + 1 < argc) {
                opts.dumpStimulus = argv[++i];
            } else if (arg == "--report" && i + 1 < argc) {
                opts.reportFile = argv[++i];
            } else if (arg == "--stream") {
                opts.stream = true;
            } else if (arg == "--ci-bound" && i + 1 < argc) {
                opts.ciBound = std::stod(argv[++i]);
                if (!(opts.ciBound > 0)) {
                    std::fprintf(stderr,
                                 "--ci-bound needs a positive relative "
                                 "half-width (e.g. 0.05)\n");
                    return 2;
                }
            } else if (arg == "--backend" && i + 1 < argc) {
                if (!sim::parseBackend(argv[++i], &opts.backend)) {
                    std::fprintf(stderr,
                                 "unknown backend '%s' (full | activity "
                                 "| compiled | compiled-parallel)\n",
                                 argv[i]);
                    return 2;
                }
            } else if (arg == "--sim-threads" && i + 1 < argc) {
                sim::setSimThreads(
                    static_cast<unsigned>(std::stoul(argv[++i])));
            } else if (arg.rfind("--", 0) == 0) {
                std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
                usage();
                return 2;
            } else {
                positional.push_back(arg);
            }
        }
        // <core> <workload>, or <core> alone with --stimulus.
        size_t expected = opts.stimulus.empty() ? 2 : 1;
        if (positional.size() != expected) {
            usage();
            return 2;
        }
        return cmdRun(positional[0],
                      expected == 2 ? positional[1] : std::string(), opts);
    }
    if (cmd == "truth") {
        std::string stimulus, saifFile;
        std::vector<std::string> positional;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--stimulus" && i + 1 < argc) {
                stimulus = argv[++i];
            } else if (arg == "--saif" && i + 1 < argc) {
                saifFile = argv[++i];
            } else if (arg.rfind("--", 0) == 0) {
                std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
                usage();
                return 2;
            } else {
                positional.push_back(arg);
            }
        }
        size_t expected = stimulus.empty() ? 2 : 1;
        if (positional.size() != expected) {
            usage();
            return 2;
        }
        return cmdTruth(positional[0],
                        expected == 2 ? positional[1] : std::string(),
                        stimulus, saifFile);
    }
    if (cmd == "synth" && (argc == 3 || argc == 4))
        return cmdSynth(argv[2], argc == 4 ? argv[3] : nullptr);
    if (cmd == "chase" && (argc == 4 || argc == 5)) {
        return cmdChase(argv[2],
                        static_cast<uint32_t>(std::stoul(argv[3])),
                        argc == 5 ? static_cast<unsigned>(
                                        std::stoul(argv[4]))
                                  : 100);
    }
    if (cmd == "asm" && argc == 3)
        return cmdAsm(argv[2]);
    usage();
    return 2;
}
