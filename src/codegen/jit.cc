#include "codegen/jit.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "codegen/codegen.h"
#include "util/env.h"
#include "util/logging.h"

#ifndef STROBER_HOST_CXX
#define STROBER_HOST_CXX ""
#endif

extern char **environ;

namespace strober {
namespace codegen {

using util::ErrorCode;
using util::Result;
using util::Status;
using util::errorf;

namespace {

/**
 * The optimization flags every translation unit of generated code is
 * compiled with: -O1 with dead-store elimination off, plus the two -O2
 * passes that bring the kernel back within a few percent of -O2. The
 * emitted code stores each slot once, so DSE (about a seventh of -O2's
 * time) never finds anything. DESIGN.md ("Compiled simulation
 * backend") has the measured table this list was picked from. These
 * are GCC spellings; a compiler that rejects one fails the compile,
 * and the Simulator then falls back to its interpreter with a warning.
 */
constexpr const char *kCompileProfile[] = {
    "-O1", "-fno-tree-dse", "-fno-dse", "-freorder-blocks-algorithm=stc",
    "-fexpensive-optimizations"};

bool
isExecutableFile(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
           ::access(path.c_str(), X_OK) == 0;
}

/** Can @p compiler be invoked? A name with a slash is a path; a bare
 *  name is looked up on $PATH, as posix_spawnp will. */
bool
compilerUsable(const std::string &compiler)
{
    if (compiler.empty())
        return false;
    if (compiler.find('/') != std::string::npos)
        return isExecutableFile(compiler);
    const char *path = std::getenv("PATH");
    if (path == nullptr)
        return false;
    std::string dirs = path;
    size_t start = 0;
    while (start <= dirs.size()) {
        size_t end = dirs.find(':', start);
        if (end == std::string::npos)
            end = dirs.size();
        std::string dir = dirs.substr(start, end - start);
        if (isExecutableFile((dir.empty() ? "." : dir) + "/" + compiler))
            return true;
        start = end + 1;
    }
    return false;
}

/**
 * A private mkdtemp() directory, removed with everything in it when the
 * object goes away — on every return path of compileSimulator.
 */
class ScratchDir
{
  public:
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    ScratchDir() = default;

    ~ScratchDir()
    {
        if (dir.empty())
            return;
        if (DIR *d = ::opendir(dir.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                if (std::strcmp(e->d_name, ".") != 0 &&
                    std::strcmp(e->d_name, "..") != 0)
                    ::unlink((dir + "/" + e->d_name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir.c_str());
    }

    /** Create the directory under $TMPDIR (or /tmp). */
    Status
    create()
    {
        const char *tmp = std::getenv("TMPDIR");
        std::string tmpl = std::string(tmp != nullptr && tmp[0] != '\0'
                                           ? tmp
                                           : "/tmp") +
                           "/strober-jit-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            return errorf(ErrorCode::IoError,
                          "cannot create JIT scratch directory under '%s'",
                          tmpl.c_str());
        dir = buf.data();
        return Status();
    }

    std::string path(const std::string &name) const
    {
        return dir + "/" + name;
    }

  private:
    std::string dir;
};

/** Split an emitted source string at its kTuDelimiter lines. */
std::vector<std::string>
splitUnits(const std::string &source)
{
    const std::string delim = std::string("\n") + kTuDelimiter + "\n";
    std::vector<std::string> units;
    size_t start = 0;
    for (size_t at = source.find(delim); at != std::string::npos;
         at = source.find(delim, at + 1)) {
        units.push_back(source.substr(start, at + 1 - start));
        start = at + 1;
    }
    units.push_back(source.substr(start));
    return units;
}

std::string
readWholeFile(const std::string &path, size_t limit = 4096)
{
    std::ifstream in(path);
    std::string out;
    char c;
    while (out.size() < limit && in.get(c))
        out.push_back(c);
    return out;
}

/**
 * Start @p argv (argv[0] looked up on $PATH unless it has a slash)
 * with stdout and stderr written to @p log. Returns the child's pid, or
 * -1 with @p err set.
 */
pid_t
spawnLogged(const std::vector<std::string> &argv, const std::string &log,
            int &err)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0600);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    pid_t pid = -1;
    err = ::posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    return err == 0 ? pid : -1;
}

/** @p tv in seconds. */
double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** One compiler or linker run of the JIT. */
struct Job
{
    std::vector<std::string> argv;
    std::string log;
    pid_t pid = -1;
    int spawnErr = 0;
    int exitCode = 0;
    double startedAt = 0;   //!< util::monotonicSeconds() at launch
    double wallSeconds = 0; //!< launch to reap
    double cpuSeconds = 0;  //!< the child's user + system time

    bool failed() const { return pid < 0 || exitCode != 0; }
};

/** Reap @p j if it has exited, without blocking; true once reaped. */
bool
tryReap(Job &j)
{
    int wstatus = 0;
    struct rusage ru = {};
    pid_t r = ::wait4(j.pid, &wstatus, WNOHANG, &ru);
    if (r == 0 || (r < 0 && errno == EINTR))
        return false;
    j.exitCode = r == j.pid && WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                                  : -1;
    j.wallSeconds = util::monotonicSeconds() - j.startedAt;
    j.cpuSeconds = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    return true;
}

/**
 * Run @p jobs in the given order, at most @p width at a time. A slot
 * is refilled as soon as any running job exits, so one slow unit never
 * holds back the jobs queued behind it. Only the jobs' own pids are
 * waited for: children the caller has elsewhere stay untouched.
 */
void
runJobs(const std::vector<Job *> &jobs, unsigned width)
{
    std::vector<Job *> running;
    size_t next = 0;
    while (next < jobs.size() || !running.empty()) {
        while (next < jobs.size() && running.size() < width) {
            Job &j = *jobs[next++];
            j.startedAt = util::monotonicSeconds();
            j.pid = spawnLogged(j.argv, j.log, j.spawnErr);
            if (j.pid >= 0)
                running.push_back(&j);
        }
        size_t before = running.size();
        running.erase(std::remove_if(running.begin(), running.end(),
                                     [](Job *j) { return tryReap(*j); }),
                      running.end());
        if (!running.empty() && running.size() == before)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** The IoError for a failed job, carrying its log. */
Status
jobError(const Job &j, const std::string &what)
{
    if (j.pid < 0)
        return errorf(ErrorCode::IoError, "cannot launch '%s' for %s: %s",
                      j.argv[0].c_str(), what.c_str(),
                      std::strerror(j.spawnErr));
    return errorf(ErrorCode::IoError, "JIT %s failed (%s, exit %d):\n%s",
                  what.c_str(), j.argv[0].c_str(), j.exitCode,
                  readWholeFile(j.log).c_str());
}

} // namespace

double
JitStats::compilerCpuSeconds() const
{
    double sum = 0;
    for (const Unit &u : units)
        sum += u.cpuSeconds;
    return sum;
}

CompiledSim::~CompiledSim()
{
    if (handle != nullptr)
        ::dlclose(handle);
}

std::string
hostCompiler()
{
    if (util::envFlag("STROBER_DISABLE_JIT"))
        return "";
    const char *env = std::getenv("STROBER_CXX");
    if (env != nullptr && env[0] != '\0')
        return compilerUsable(env) ? env : "";
    const char *candidates[] = {STROBER_HOST_CXX, "c++", "g++", "clang++"};
    for (const char *c : candidates) {
        if (compilerUsable(c))
            return c;
    }
    return "";
}

Result<std::unique_ptr<CompiledSim>>
compileSimulator(const std::string &source, const std::string &tag)
{
    const double start = util::monotonicSeconds();
    std::string cxx = hostCompiler();
    if (cxx.empty())
        return Status(ErrorCode::Unsupported,
                      "no host C++ compiler available (set $STROBER_CXX, "
                      "or unset $STROBER_DISABLE_JIT)");

    ScratchDir scratch;
    if (Status st = scratch.create(); !st.isOk())
        return st;

    // One object per translation unit, compiled concurrently, then one
    // link into the shared object.
    std::vector<std::string> units = splitUnits(source);
    std::vector<Job> compiles(units.size());
    std::vector<std::string> objects;
    for (size_t u = 0; u < units.size(); ++u) {
        std::string base = scratch.path(tag + "_" + std::to_string(u));
        std::ofstream out(base + ".cc", std::ios::trunc);
        out << units[u];
        if (!out.flush())
            return errorf(ErrorCode::IoError, "cannot write '%s.cc'",
                          base.c_str());
        Job &j = compiles[u];
        j.argv = {cxx, "-std=c++17"};
        j.argv.insert(j.argv.end(), std::begin(kCompileProfile),
                      std::end(kCompileProfile));
        j.argv.insert(j.argv.end(),
                      {"-fPIC", "-c", "-o", base + ".o", base + ".cc"});
        j.log = base + ".log";
        objects.push_back(base + ".o");
    }
    // Longest unit first, so the unit that waits for a free core is a
    // short one rather than a long serial tail.
    std::vector<Job *> order;
    for (Job &j : compiles)
        order.push_back(&j);
    std::stable_sort(order.begin(), order.end(),
                     [&](const Job *a, const Job *b) {
                         return units[a - compiles.data()].size() >
                                units[b - compiles.data()].size();
                     });
    runJobs(order, std::max(1u, std::thread::hardware_concurrency()));
    for (size_t u = 0; u < compiles.size(); ++u) {
        if (compiles[u].failed())
            return jobError(compiles[u],
                            "compile of translation unit " +
                                std::to_string(u) + " of " +
                                std::to_string(units.size()));
    }

    std::string so = scratch.path(tag + ".so");
    Job link;
    link.argv = {cxx, "-shared", "-o", so};
    link.argv.insert(link.argv.end(), objects.begin(), objects.end());
    link.log = scratch.path(tag + "_link.log");
    runJobs({&link}, 1);
    if (link.failed())
        return jobError(link, "link");

    // The object stays mapped after dlopen; the scratch files go when
    // `scratch` does.
    void *handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr)
        return errorf(ErrorCode::IoError, "dlopen failed: %s", ::dlerror());

    std::unique_ptr<CompiledSim> sim(new CompiledSim());
    sim->handle = handle;
    sim->evalFn = reinterpret_cast<CompiledSim::Fn>(
        ::dlsym(handle, kEvalSymbol));
    sim->commitFn = reinterpret_cast<CompiledSim::Fn>(
        ::dlsym(handle, kCommitSymbol));
    const auto *numSlots = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumSlotsSymbol));
    const auto *numMems = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumMemsSymbol));
    if (sim->evalFn == nullptr || sim->commitFn == nullptr ||
        numSlots == nullptr || numMems == nullptr)
        return Status(ErrorCode::Corrupt,
                      "compiled module is missing entry points");
    sim->slots = *numSlots;
    sim->mems = *numMems;
    for (const Job &j : compiles)
        sim->jit.units.push_back({j.wallSeconds, j.cpuSeconds});
    sim->jit.linkWallSeconds = link.wallSeconds;

    // Partitioned modules additionally stamp a chunk count and export
    // one eval function per chunk; a plain module has neither.
    const auto *numChunks = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumChunksSymbol));
    if (numChunks != nullptr) {
        sim->chunkFns.reserve(*numChunks);
        for (uint64_t c = 0; c < *numChunks; ++c) {
            std::string sym = kChunkSymbolPrefix + std::to_string(c);
            auto fn = reinterpret_cast<CompiledSim::ChunkFn>(
                ::dlsym(handle, sym.c_str()));
            if (fn == nullptr)
                return errorf(ErrorCode::Corrupt,
                              "partitioned module is missing '%s'",
                              sym.c_str());
            sim->chunkFns.push_back(fn);
        }
    }
    sim->jit.totalWallSeconds = util::monotonicSeconds() - start;
    return sim;
}

} // namespace codegen
} // namespace strober
