/**
 * @file
 * Service-tier tests (src/service): the wire protocol framing, the
 * crash-only worker supervisor, and the strober-serve daemon itself —
 * admission control, deadlines, cancel, graceful drain, stats.
 *
 * Daemon tests use a *synthetic* JobExecutor and zero forked worker
 * processes, so the whole suite is a plain multithreaded process that
 * TSan can check end to end. Supervisor tests fork real children (the
 * gtest process is effectively single-threaded at that point, and the
 * children exec nothing but their body lambda). Integration with the
 * real farm executor is exercised by the CI service-smoke job against
 * the actual binaries.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cstring>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/job_control.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/proto.h"
#include "service/supervisor.h"
#include "util/env.h"
#include "util/status.h"

namespace strober {
namespace service {
namespace {

namespace fs = std::filesystem;
using farm::wire::Reader;
using farm::wire::Writer;

// ---------------------------------------------------------------------------
// Protocol codec
// ---------------------------------------------------------------------------

Reader
sealedReader(const Writer &w, std::string &storage)
{
    storage = w.sealed();
    return Reader(storage);
}

TEST(ServiceProto, SubmitRequestRoundTrips)
{
    SubmitRequest req;
    req.coreName = "rocket";
    req.workloadName = "dhrystone";
    req.sampleSize = 30;
    req.replayLength = 128;
    req.deadlineMs = 90'000;
    req.workers = 4;

    Writer w;
    req.encode(w);
    std::string buf;
    Reader r = sealedReader(w, buf);
    EXPECT_EQ(r.u64(), static_cast<uint64_t>(MsgType::Submit));
    auto back = SubmitRequest::decode(r);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->coreName, req.coreName);
    EXPECT_EQ(back->workloadName, req.workloadName);
    EXPECT_EQ(back->sampleSize, req.sampleSize);
    EXPECT_EQ(back->replayLength, req.replayLength);
    EXPECT_EQ(back->deadlineMs, req.deadlineMs);
    EXPECT_EQ(back->workers, req.workers);
}

TEST(ServiceProto, SubmitRequestRejectsEmptyAndZero)
{
    SubmitRequest bad;
    bad.coreName = ""; // empty core
    bad.workloadName = "dhrystone";
    Writer w;
    bad.encode(w);
    std::string buf;
    Reader r = sealedReader(w, buf);
    r.u64(); // discard type
    EXPECT_FALSE(SubmitRequest::decode(r).isOk());

    SubmitRequest zero;
    zero.coreName = "rocket";
    zero.workloadName = "dhrystone";
    zero.sampleSize = 0;
    Writer w2;
    zero.encode(w2);
    Reader r2 = sealedReader(w2, buf);
    r2.u64();
    EXPECT_FALSE(SubmitRequest::decode(r2).isOk());
}

TEST(ServiceProto, JobStatusReplyRoundTrips)
{
    JobStatusReply rep;
    rep.jobId = 42;
    rep.state = JobState::Degraded;
    rep.exitCode = 1;
    rep.detail = "2 snapshot(s) dropped";
    rep.reportText = "population 99\nvalid 1 degraded 1\n";

    Writer w;
    rep.encode(w);
    std::string buf;
    Reader r = sealedReader(w, buf);
    EXPECT_EQ(r.u64(), static_cast<uint64_t>(MsgType::JobStatus));
    auto back = JobStatusReply::decode(r);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->jobId, rep.jobId);
    EXPECT_EQ(back->state, rep.state);
    EXPECT_EQ(back->exitCode, rep.exitCode);
    EXPECT_EQ(back->detail, rep.detail);
    EXPECT_EQ(back->reportText, rep.reportText);
}

TEST(ServiceProto, StatsVectorRoundTrips)
{
    StatsVector stats = {{"queue-depth", 3}, {"submitted", 17}};
    Writer w;
    encodeStats(w, stats);
    std::string buf;
    Reader r = sealedReader(w, buf);
    EXPECT_EQ(r.u64(), static_cast<uint64_t>(MsgType::StatsReply));
    auto back = decodeStats(r);
    ASSERT_TRUE(back.isOk());
    ASSERT_EQ(back->size(), 2u);
    EXPECT_EQ((*back)[0].first, "queue-depth");
    EXPECT_EQ((*back)[0].second, 3u);
    EXPECT_EQ((*back)[1].first, "submitted");
    EXPECT_EQ((*back)[1].second, 17u);
}

TEST(ServiceProto, JobStateNamesAndFinality)
{
    EXPECT_FALSE(jobStateFinal(JobState::Queued));
    EXPECT_FALSE(jobStateFinal(JobState::Running));
    EXPECT_TRUE(jobStateFinal(JobState::Done));
    EXPECT_TRUE(jobStateFinal(JobState::Degraded));
    EXPECT_TRUE(jobStateFinal(JobState::TimedOut));
    EXPECT_TRUE(jobStateFinal(JobState::Failed));
    EXPECT_TRUE(jobStateFinal(JobState::Canceled));
    EXPECT_STREQ(jobStateName(JobState::Queued), "queued");
    EXPECT_STREQ(jobStateName(JobState::TimedOut), "timed-out");
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

class FramePipe : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }

    void
    TearDown() override
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }

    int fds[2] = {-1, -1};
};

TEST_F(FramePipe, FrameRoundTrips)
{
    Writer w;
    w.u64(static_cast<uint64_t>(MsgType::Stats));
    w.str("payload");
    ASSERT_TRUE(writeFrame(fds[0], w).isOk());
    auto r = readFrame(fds[1]);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->u64(), static_cast<uint64_t>(MsgType::Stats));
    EXPECT_EQ(r->str(), "payload");
    EXPECT_TRUE(r->atEnd());
}

TEST_F(FramePipe, CorruptPayloadFailsTheCrc)
{
    Writer w;
    w.u64(static_cast<uint64_t>(MsgType::Stats));
    std::string payload = w.sealed();
    payload[payload.size() / 2] ^= 0x40; // flip one bit mid-payload
    uint32_t len = static_cast<uint32_t>(payload.size());
    unsigned char hdr[4] = {
        static_cast<unsigned char>(len),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 24),
    };
    ASSERT_EQ(::write(fds[0], hdr, 4), 4);
    ASSERT_EQ(::write(fds[0], payload.data(), payload.size()),
              (ssize_t)payload.size());
    auto r = readFrame(fds[1]);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::Corrupt);
}

TEST_F(FramePipe, OversizedFrameIsRefusedNotBuffered)
{
    // A length prefix past the cap must be rejected from the header
    // alone — the daemon never allocates or reads the claimed payload.
    uint32_t len = kMaxFrameBytes + 1;
    unsigned char hdr[4] = {
        static_cast<unsigned char>(len),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 24),
    };
    ASSERT_EQ(::write(fds[0], hdr, 4), 4);
    auto r = readFrame(fds[1]);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::Corrupt);
}

TEST_F(FramePipe, ReadTimesOutOnASilentPeer)
{
    uint64_t t0 = util::monotonicMs();
    auto r = readFrame(fds[1], 50);
    uint64_t elapsed = util::monotonicMs() - t0;
    ASSERT_FALSE(r.isOk());
    EXPECT_GE(elapsed, 40u);
}

TEST_F(FramePipe, EofIsAnIoError)
{
    ::close(fds[0]);
    fds[0] = -1;
    auto r = readFrame(fds[1]);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::IoError);
}

// ---------------------------------------------------------------------------
// Supervisor (forks real children; keep this process single-threaded)
// ---------------------------------------------------------------------------

class SupervisorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("strober_sup_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    std::string
    sub(const char *name) const
    {
        return (dir / name).string();
    }

    fs::path dir;
};

TEST_F(SupervisorTest, CleanWorkersRunToCompletion)
{
    std::vector<WorkerSpec> specs(3);
    for (int i = 0; i < 3; ++i) {
        std::string path = sub(("w" + std::to_string(i)).c_str());
        specs[i].body = [path] {
            std::ofstream(path) << "done";
            return 0;
        };
    }
    SupervisorConfig cfg;
    cfg.slots = 2; // fewer slots than workers: the pool must rotate
    cfg.pollIntervalMs = 5;
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.spawned, 3u);
    EXPECT_EQ(stats.cleanExits, 3u);
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_EQ(stats.givenUp, 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(fs::exists(sub(("w" + std::to_string(i)).c_str())));
}

TEST_F(SupervisorTest, CrashingWorkerRetriesThenIsAbandoned)
{
    std::vector<WorkerSpec> specs(1);
    specs[0].body = [] { return 7; }; // always fails
    SupervisorConfig cfg;
    cfg.maxRetries = 2;
    cfg.backoffBaseMs = 1;
    cfg.pollIntervalMs = 2;
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.spawned, 3u); // first start + 2 retries
    EXPECT_EQ(stats.crashes, 3u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.givenUp, 1u);
    EXPECT_EQ(stats.cleanExits, 0u);
}

TEST_F(SupervisorTest, FlakyWorkerSucceedsOnRetry)
{
    // Crash-once-then-succeed, communicated through the filesystem
    // (each attempt is a fresh child process).
    std::string sentinel = sub("crashed_once");
    std::vector<WorkerSpec> specs(1);
    specs[0].body = [sentinel] {
        if (!fs::exists(sentinel)) {
            std::ofstream(sentinel) << "x";
            ::raise(SIGKILL); // die exactly like a kill -9
        }
        return 0;
    };
    SupervisorConfig cfg;
    cfg.maxRetries = 2;
    cfg.backoffBaseMs = 1;
    cfg.pollIntervalMs = 2;
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.spawned, 2u);
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.cleanExits, 1u);
    EXPECT_EQ(stats.givenUp, 0u);
}

TEST_F(SupervisorTest, WallCapKillsAWedgedWorker)
{
    std::vector<WorkerSpec> specs(1);
    specs[0].body = [] {
        ::sleep(60); // wedged
        return 0;
    };
    SupervisorConfig cfg;
    cfg.wallCapMs = 50;
    cfg.maxRetries = 0; // one attempt: kill, don't respawn
    cfg.backoffBaseMs = 1;
    cfg.pollIntervalMs = 5;
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.wallKills, 1u);
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.givenUp, 1u);
}

TEST_F(SupervisorTest, RssCapKillsAMemoryHog)
{
    std::vector<WorkerSpec> specs(1);
    specs[0].body = [] {
        // Touch ~64 MB so VmRSS genuinely grows, then wedge.
        size_t bytes = 64u << 20;
        char *p = static_cast<char *>(::malloc(bytes));
        if (p != nullptr) {
            for (size_t i = 0; i < bytes; i += 4096)
                p[i] = static_cast<char>(i);
        }
        ::sleep(60);
        ::free(p);
        return 0;
    };
    SupervisorConfig cfg;
    cfg.rssCapBytes = 16u << 20;
    cfg.wallCapMs = 30'000; // backstop so the test can't hang
    cfg.maxRetries = 0;
    cfg.pollIntervalMs = 5;
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.rssKills, 1u);
    EXPECT_EQ(stats.wallKills, 0u);
    EXPECT_EQ(stats.givenUp, 1u);
}

TEST_F(SupervisorTest, StopRequestDrainsThePool)
{
    std::vector<WorkerSpec> specs(2);
    for (int i = 0; i < 2; ++i) {
        specs[i].body = [] {
            ::sleep(60); // until SIGTERM (default action: terminate)
            return 0;
        };
    }
    std::atomic<int> polls{0};
    SupervisorConfig cfg;
    cfg.slots = 2;
    cfg.pollIntervalMs = 5;
    cfg.stopGraceMs = 500;
    cfg.stopRequested = [&polls] { return ++polls > 3; };
    uint64_t t0 = util::monotonicMs();
    SupervisionStats stats = superviseUntilDone(specs, cfg);
    EXPECT_EQ(stats.drained, 2u);
    EXPECT_EQ(stats.givenUp, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_LT(util::monotonicMs() - t0, 30'000u);
}

// ---------------------------------------------------------------------------
// Daemon (synthetic executors, zero forks — TSan-clean)
// ---------------------------------------------------------------------------

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::temp_directory_path() /
              ("strober_svc_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
        fs::remove_all(dir);
        fs::create_directories(dir);
        cfg.socketPath = (dir / "serve.sock").string();
        cfg.rootDir = (dir / "root").string();
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    /** Executor finishing instantly with a clean report. */
    static JobOutcome
    instantDone(const JobRequest &req, core::JobControl &)
    {
        JobOutcome out;
        out.state = JobState::Done;
        out.exitCode = 0;
        out.reportText =
            "report for " + req.submit.workloadName + "\n";
        return out;
    }

    fs::path dir;
    DaemonConfig cfg;
};

SubmitRequest
submitReq(const char *wl = "dhrystone")
{
    SubmitRequest req;
    req.coreName = "rocket";
    req.workloadName = wl;
    return req;
}

TEST_F(DaemonTest, SubmitWaitReturnsTheReport)
{
    cfg.executor = instantDone;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    auto sub = client.submit(submitReq());
    ASSERT_TRUE(sub.isOk()) << sub.status().toString();
    ASSERT_TRUE(sub->accepted) << sub->refusal;
    auto rep = client.wait(sub->jobId, 30'000);
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_EQ(rep->state, JobState::Done);
    EXPECT_EQ(rep->exitCode, 0);
    EXPECT_EQ(rep->reportText, "report for dhrystone\n");

    // A plain status query also sees the final state.
    auto st = client.status(sub->jobId);
    ASSERT_TRUE(st.isOk());
    EXPECT_EQ(st->state, JobState::Done);

    daemon.stop();
}

TEST_F(DaemonTest, UnknownJobAndBadFramesAreContained)
{
    cfg.executor = instantDone;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    auto st = client.status(999);
    EXPECT_FALSE(st.isOk()); // unknown job is an explicit error

    // A garbage frame (valid length prefix, CRC-failing payload)
    // poisons only its own connection.
    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(
                      fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)),
                  0);
        unsigned char junk[12] = {8, 0, 0, 0, // 8-byte payload claimed
                                  0xde, 0xad, 0xbe, 0xef,
                                  0xde, 0xad, 0xbe, 0xef};
        ASSERT_EQ(::write(fd, junk, sizeof(junk)), (ssize_t)sizeof(junk));
        char buf[16];
        // The daemon drops the connection without a reply frame.
        (void)!::read(fd, buf, sizeof(buf));
        ::close(fd);
    }
    for (int spin = 0; spin < 200; ++spin) {
        if (daemon.statsSnapshot().badFrames >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(daemon.statsSnapshot().badFrames, 1u);

    // The daemon still serves good clients afterwards.
    auto sub = client.submit(submitReq());
    ASSERT_TRUE(sub.isOk());
    EXPECT_TRUE(sub->accepted);
    auto rep = client.wait(sub->jobId, 30'000);
    ASSERT_TRUE(rep.isOk());
    EXPECT_EQ(rep->state, JobState::Done);

    daemon.stop();
}

/** Executor that blocks until released (or canceled/deadline-hit). */
struct GatedExecutor
{
    std::mutex mtx;
    std::condition_variable cv;
    bool released = false;
    std::atomic<int> running{0};

    JobOutcome
    operator()(const JobRequest &, core::JobControl &control)
    {
        ++running;
        std::unique_lock<std::mutex> lock(mtx);
        while (!released && !control.stopRequested())
            cv.wait_for(lock, std::chrono::milliseconds(10));
        --running;
        JobOutcome out;
        if (control.canceled()) {
            out.state = JobState::Canceled;
            out.exitCode = 4;
            out.detail = "drained; checkpointed";
            return out;
        }
        if (control.deadlineExpired()) {
            // Report what a degraded farm run would: the daemon
            // relabels deadline-expired Degraded as TimedOut.
            out.state = JobState::Degraded;
            out.exitCode = 1;
            out.detail = "all snapshots timed out";
            out.reportText = "valid 1 degraded 1\n";
            return out;
        }
        out.state = JobState::Done;
        out.exitCode = 0;
        out.reportText = "gated done\n";
        return out;
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mtx);
        released = true;
        cv.notify_all();
    }
};

TEST_F(DaemonTest, AdmissionControlRejectsBeyondTheBound)
{
    auto gate = std::make_shared<GatedExecutor>();
    cfg.executor = [gate](const JobRequest &req, core::JobControl &c) {
        return (*gate)(req, c);
    };
    cfg.runners = 1;
    cfg.maxQueue = 2;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    // One running + two queued = at the bound. The runner must pull the
    // first job off the queue before the queue fills, or a submit the
    // test expects to be accepted meets a full queue. The deadline is
    // generous: under a loaded host the runner thread can take a while
    // to wake.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        auto sub = client.submit(submitReq());
        ASSERT_TRUE(sub.isOk());
        ASSERT_TRUE(sub->accepted) << sub->refusal;
        ids.push_back(sub->jobId);
        if (i != 0)
            continue;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (gate->running.load() == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(gate->running.load(), 1);
    }
    while (true) {
        auto sub = client.submit(submitReq());
        ASSERT_TRUE(sub.isOk());
        if (!sub->accepted) {
            // The refusal is explicit and names the bound.
            EXPECT_NE(sub->refusal.find("overloaded"), std::string::npos)
                << sub->refusal;
            break;
        }
        ids.push_back(sub->jobId);
        ASSERT_LE(ids.size(), 4u) << "admission bound never enforced";
    }

    auto stats = daemon.statsSnapshot();
    EXPECT_GE(stats.overloaded, 1u);

    gate->release();
    for (uint64_t id : ids) {
        auto rep = client.wait(id, 30'000);
        ASSERT_TRUE(rep.isOk()) << rep.status().toString();
        EXPECT_EQ(rep->state, JobState::Done);
    }
    daemon.stop();
}

TEST_F(DaemonTest, DeadlineExpiredJobIsRelabeledTimedOut)
{
    auto gate = std::make_shared<GatedExecutor>();
    cfg.executor = [gate](const JobRequest &req, core::JobControl &c) {
        return (*gate)(req, c);
    };
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    SubmitRequest req = submitReq();
    req.deadlineMs = 30; // expires while the executor is gated
    auto sub = client.submit(req);
    ASSERT_TRUE(sub.isOk());
    ASSERT_TRUE(sub->accepted);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    gate->release();
    auto rep = client.wait(sub->jobId, 30'000);
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_EQ(rep->state, JobState::TimedOut);
    EXPECT_EQ(rep->exitCode, 1); // degraded report convention
    EXPECT_FALSE(rep->reportText.empty());

    auto stats = daemon.statsSnapshot();
    EXPECT_EQ(stats.timedOut, 1u);
    EXPECT_EQ(stats.degradedReports, 1u);
    daemon.stop();
}

TEST_F(DaemonTest, CancelStopsARunningJob)
{
    auto gate = std::make_shared<GatedExecutor>();
    cfg.executor = [gate](const JobRequest &req, core::JobControl &c) {
        return (*gate)(req, c);
    };
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    auto sub = client.submit(submitReq());
    ASSERT_TRUE(sub.isOk());
    ASSERT_TRUE(sub->accepted);
    for (int spin = 0; spin < 200 && gate->running.load() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(client.cancel(sub->jobId).isOk());
    auto rep = client.wait(sub->jobId, 30'000);
    ASSERT_TRUE(rep.isOk()) << rep.status().toString();
    EXPECT_EQ(rep->state, JobState::Canceled);
    EXPECT_EQ(rep->exitCode, 4);
    daemon.stop();
}

TEST_F(DaemonTest, DrainCancelsQueuedRefusesNewAndCompletes)
{
    auto gate = std::make_shared<GatedExecutor>();
    cfg.executor = [gate](const JobRequest &req, core::JobControl &c) {
        return (*gate)(req, c);
    };
    cfg.runners = 1;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    auto running = client.submit(submitReq());
    ASSERT_TRUE(running.isOk() && running->accepted);
    for (int spin = 0; spin < 200 && gate->running.load() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto queued = client.submit(submitReq());
    ASSERT_TRUE(queued.isOk() && queued->accepted);

    daemon.requestDrain(); // what the SIGTERM handler calls

    // New admissions are refused with an explicit "draining" reason.
    util::Result<SubmitResult> refused(SubmitResult{});
    for (int spin = 0; spin < 200; ++spin) {
        refused = client.submit(submitReq());
        ASSERT_TRUE(refused.isOk());
        if (!refused->accepted)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_FALSE(refused->accepted);
    EXPECT_NE(refused->refusal.find("draining"), std::string::npos);

    // The queued job is canceled without ever running; the running one
    // observes its JobControl cancel and checkpoints.
    auto qrep = client.wait(queued->jobId, 30'000);
    ASSERT_TRUE(qrep.isOk()) << qrep.status().toString();
    EXPECT_EQ(qrep->state, JobState::Canceled);
    auto rrep = client.wait(running->jobId, 30'000);
    ASSERT_TRUE(rrep.isOk()) << rrep.status().toString();
    EXPECT_EQ(rrep->state, JobState::Canceled);
    EXPECT_EQ(rrep->detail, "drained; checkpointed");

    daemon.waitDrained(); // must return: all jobs are final

    auto stats = daemon.statsSnapshot();
    EXPECT_EQ(stats.canceled, 2u);
    EXPECT_GE(stats.drainRejected, 1u);
    daemon.stop();
}

TEST_F(DaemonTest, ShutdownRequestDrainsLikeSigterm)
{
    cfg.executor = instantDone;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());
    ServiceClient client(cfg.socketPath);
    ASSERT_TRUE(client.shutdownDaemon().isOk());
    daemon.waitDrained();
    auto refused = client.submit(submitReq());
    ASSERT_TRUE(refused.isOk());
    EXPECT_FALSE(refused->accepted);
    daemon.stop();
}

TEST_F(DaemonTest, FourConcurrentClientsAllComplete)
{
    cfg.executor = instantDone;
    cfg.runners = 2;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
        clients.emplace_back([this, i, &ok] {
            ServiceClient client(cfg.socketPath);
            std::string wl = "wl" + std::to_string(i);
            auto sub = client.submit(submitReq(wl.c_str()));
            if (!sub.isOk() || !sub->accepted)
                return;
            auto rep = client.wait(sub->jobId, 30'000);
            if (rep.isOk() && rep->state == JobState::Done &&
                rep->reportText == "report for " + wl + "\n")
                ++ok;
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), 4);

    auto stats = daemon.statsSnapshot();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    daemon.stop();
}

TEST_F(DaemonTest, ThrowingExecutorFailsTheJobNotTheDaemon)
{
    std::atomic<int> calls{0};
    cfg.executor = [&calls](const JobRequest &,
                            core::JobControl &) -> JobOutcome {
        if (calls++ == 0)
            throw std::runtime_error("executor bug");
        JobOutcome out;
        out.state = JobState::Done;
        out.exitCode = 0;
        out.reportText = "ok\n";
        return out;
    };
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());

    ServiceClient client(cfg.socketPath);
    auto first = client.submit(submitReq());
    ASSERT_TRUE(first.isOk() && first->accepted);
    auto rep1 = client.wait(first->jobId, 30'000);
    ASSERT_TRUE(rep1.isOk());
    EXPECT_EQ(rep1->state, JobState::Failed);
    EXPECT_NE(rep1->detail.find("executor threw"), std::string::npos);

    // The daemon survives and runs the next job normally.
    auto second = client.submit(submitReq());
    ASSERT_TRUE(second.isOk() && second->accepted);
    auto rep2 = client.wait(second->jobId, 30'000);
    ASSERT_TRUE(rep2.isOk());
    EXPECT_EQ(rep2->state, JobState::Done);
    daemon.stop();
}

TEST_F(DaemonTest, StatsEndpointExposesTheRequiredGauges)
{
    cfg.executor = instantDone;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());
    ServiceClient client(cfg.socketPath);
    auto sub = client.submit(submitReq());
    ASSERT_TRUE(sub.isOk() && sub->accepted);
    auto rep = client.wait(sub->jobId, 30'000);
    ASSERT_TRUE(rep.isOk());

    auto stats = client.stats();
    ASSERT_TRUE(stats.isOk()) << stats.status().toString();
    auto find = [&](const char *name) -> const uint64_t * {
        for (const auto &kv : *stats)
            if (kv.first == name)
                return &kv.second;
        return nullptr;
    };
    for (const char *name :
         {"queue-depth", "queue-bound", "draining", "submitted",
          "overloaded-rejections", "completed", "degraded-reports",
          "cache-hits", "cache-misses", "cache-evictions",
          "worker-retries", "worker-kills", "bad-frames"}) {
        EXPECT_NE(find(name), nullptr) << "missing stat " << name;
    }
    EXPECT_EQ(*find("submitted"), 1u);
    EXPECT_EQ(*find("completed"), 1u);
    EXPECT_EQ(*find("queue-depth"), 0u);
    EXPECT_EQ(*find("draining"), 0u);
    daemon.stop();
}

TEST_F(DaemonTest, StopIsIdempotentAndSocketIsRemoved)
{
    cfg.executor = instantDone;
    ServiceDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start().isOk());
    EXPECT_TRUE(fs::exists(cfg.socketPath));
    daemon.stop();
    daemon.stop(); // second stop must be a no-op
    EXPECT_FALSE(fs::exists(cfg.socketPath));
}

} // namespace
} // namespace service
} // namespace strober
