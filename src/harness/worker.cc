#include "harness/worker.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/dispatch.hh"
#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "sim/log.hh"

namespace a4
{

namespace
{

/** The forwarded A4_FAULT value of the current JOB ("" = none). */
std::string
jobFault(const JobMsg &job)
{
    for (const auto &[k, v] : job.env) {
        if (k == "A4_FAULT")
            return v;
    }
    return std::string();
}

/** Run @p job's point in this (already forked) child: install the
 *  forwarded env, compute the Record, frame it onto @p write_fd.
 *  Failures become an Error frame so the dispatcher hears why. */
[[noreturn]] void
jobChildMain(int write_fd, const JobMsg &job)
{
    Frame out{FrameType::Result, 0, std::string()};
    try {
        // The job's env view replaces ours: forwarded knobs are
        // cleared first so an unset knob on the dispatcher is unset
        // here too, not inherited from the daemon's shell.
        for (const std::string &knob : forwardedEnvKnobs())
            ::unsetenv(knob.c_str());
        for (const auto &[k, v] : job.env)
            ::setenv(k.c_str(), v.c_str(), 1);

        const FaultKind fault =
            faultFor(jobFault(job), job.point, job.attempt);
        if (fault == FaultKind::Crash)
            ::raise(SIGKILL);
        if (fault == FaultKind::Hang) {
            for (;;)
                ::pause(); // until the worker's timeout SIGKILLs us
        }

        setQuiet(true);
        const SweepSpec spec =
            parseSweepSpec(job.spec_text, job.sweep);
        out.payload =
            runSweepPointRecord(spec, job.point, job.sweep)
                .serialize();

        if (fault == FaultKind::Corrupt) {
            std::string bytes = encodeFrame(out);
            bytes[kFrameHeaderSize] ^= 1;
            writeAllFd(write_fd, bytes.data(), bytes.size(), false);
            ::close(write_fd);
            ::_exit(0);
        }
    } catch (const std::exception &e) {
        out.type = FrameType::Error;
        out.payload = sformat("point '%s' failed: %s",
                              job.point.c_str(), e.what());
    } catch (...) {
        out.type = FrameType::Error;
        out.payload = sformat("point '%s' failed: unknown exception",
                              job.point.c_str());
    }
    const std::string bytes = encodeFrame(out);
    writeAllFd(write_fd, bytes.data(), bytes.size(), false);
    ::close(write_fd);
    // _exit, not exit: see the Dispatcher's local child path.
    ::_exit(0);
}

/** One in-flight forked job on the worker side. */
struct RunningJob
{
    bool active = false;
    pid_t pid = -1;
    int fd = -1; ///< read end of the result pipe (O_NONBLOCK)
    std::uint64_t tag = 0;
    std::string point;
    double deadline = 0; ///< 0 = no timeout
    bool drop_result = false; ///< injected drop: truncate the RESULT
    std::string buf;
};

int
reapChild(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno == EINTR)
            continue;
        status = 0;
        break;
    }
    return status;
}

void
killJob(RunningJob &job)
{
    if (!job.active)
        return;
    ::kill(job.pid, SIGKILL);
    reapChild(job.pid);
    char buf[4096];
    for (;;) {
        ssize_t r = ::read(job.fd, buf, sizeof(buf));
        if (r > 0)
            continue;
        if (r < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(job.fd);
    job = RunningJob();
}

bool
sendFrame(int fd, const Frame &f)
{
    const std::string bytes = encodeFrame(f);
    return writeAllFd(fd, bytes.data(), bytes.size(), true);
}

std::string
exitDescription(int status)
{
    if (WIFEXITED(status))
        return sformat("exit status %d", WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return sformat("signal %d (%s)", WTERMSIG(status),
                       strsignal(WTERMSIG(status)));
    return sformat("wait status 0x%x", status);
}

} // namespace

WorkerServer::WorkerServer(const WorkerOptions &opt) : opt_(opt)
{
    std::string err;
    listen_fd_ = listenTcp(opt_.host, opt_.port, err);
    if (listen_fd_ < 0)
        fatal(sformat("a4worker: %s", err.c_str()));
    port_ = boundPort(listen_fd_);
    // A dispatcher that vanished mid-write must surface as EPIPE on
    // this end, not a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
}

WorkerServer::~WorkerServer()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

void
WorkerServer::serveOnce()
{
    int fd = acceptConn(listen_fd_);
    if (fd < 0)
        fatal(sformat("a4worker: accept() failed: %s",
                      std::strerror(errno)));
    serveConnection(fd);
}

void
WorkerServer::serveForever()
{
    for (;;)
        serveOnce();
}

void
WorkerServer::serveConnection(int fd)
{
    if (!sendFrame(fd, makeHello("worker"))) {
        ::close(fd);
        return;
    }

    FrameReader reader;
    RunningJob job;
    bool hello_ok = false;
    char buf[65536];
    double next_beat = monotonicSeconds() + opt_.heartbeat_s;
    const double hello_deadline =
        monotonicSeconds() + opt_.hello_timeout_s;

    // One finished/failed job report; false = connection dead.
    auto finishJob = [&]() {
        RunningJob done = std::move(job);
        job = RunningJob();
        ::close(done.fd);
        const int status = reapChild(done.pid);
        Frame result;
        std::string err;
        if (status != 0) {
            return sendFrame(fd, makeError(
                done.tag,
                sformat("point '%s' child died: %s",
                        done.point.c_str(),
                        exitDescription(status).c_str())));
        }
        if (!decodeFrameBlob(done.buf, result, err)) {
            return sendFrame(fd, makeError(
                done.tag,
                sformat("point '%s' returned a corrupt or truncated "
                        "result (%s)", done.point.c_str(),
                        err.c_str())));
        }
        if (result.type == FrameType::Error)
            return sendFrame(fd, makeError(done.tag, result.payload));
        if (done.drop_result) {
            // Injected mid-RESULT connection drop: send a prefix of
            // the frame, then vanish. The dispatcher must detect the
            // truncation and re-dispatch.
            const std::string bytes =
                encodeFrame(makeResult(done.tag, result.payload));
            writeAllFd(fd, bytes.data(), bytes.size() / 2, true);
            return false;
        }
        return sendFrame(fd, makeResult(done.tag, result.payload));
    };

    auto startJob = [&](const Frame &f) {
        JobMsg msg;
        std::string err;
        if (!parseJob(f, msg, err))
            return sendFrame(fd, makeError(f.tag, err));
        if (job.active) {
            return sendFrame(fd, makeError(
                f.tag, "worker busy (one job at a time)"));
        }
        int fds[2];
        if (::pipe(fds) < 0) {
            return sendFrame(fd, makeError(
                f.tag, sformat("pipe() failed: %s",
                               std::strerror(errno))));
        }
        std::fflush(nullptr);
        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return sendFrame(fd, makeError(
                f.tag, sformat("fork() failed: %s",
                               std::strerror(errno))));
        }
        if (pid == 0) {
            ::close(fds[0]);
            ::close(fd);
            ::close(listen_fd_);
            jobChildMain(fds[1], msg); // never returns
        }
        ::close(fds[1]);
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        job.active = true;
        job.pid = pid;
        job.fd = fds[0];
        job.tag = f.tag;
        job.point = msg.point;
        job.deadline = msg.timeout_s > 0
                           ? monotonicSeconds() + msg.timeout_s
                           : 0;
        job.drop_result =
            faultFor(jobFault(msg), msg.point, msg.attempt) ==
            FaultKind::Drop;
        return true;
    };

    for (;;) {
        const double now = monotonicSeconds();
        if (!hello_ok && now > hello_deadline)
            break;
        if (now >= next_beat) {
            if (!sendFrame(fd, makeHeartbeat()))
                break;
            next_beat = now + opt_.heartbeat_s;
        }

        double wake = next_beat;
        if (!hello_ok && hello_deadline < wake)
            wake = hello_deadline;
        if (job.active && job.deadline > 0 && job.deadline < wake)
            wake = job.deadline;

        pollfd pfds[2];
        nfds_t nfds = 0;
        pfds[nfds++] = {fd, POLLIN, 0};
        if (job.active)
            pfds[nfds++] = {job.fd, POLLIN, 0};
        const double left = wake - monotonicSeconds();
        int rc = ::poll(pfds, nfds,
                        left > 0 ? int(left * 1000) + 1 : 0);
        if (rc < 0 && errno != EINTR)
            break;

        // Dispatcher socket.
        if (rc > 0 && (pfds[0].revents & (POLLIN | POLLHUP | POLLERR))) {
            ssize_t r;
            do {
                r = ::recv(fd, buf, sizeof(buf), 0);
            } while (r < 0 && errno == EINTR);
            if (r <= 0)
                break; // dispatcher gone
            reader.feed(buf, std::size_t(r));
            bool dead = false;
            for (;;) {
                Frame f;
                std::string err;
                const FrameReader::Status st = reader.next(f, err);
                if (st == FrameReader::Status::Need)
                    break;
                if (st == FrameReader::Status::Bad) {
                    std::fprintf(stderr,
                                 "a4worker: dropping connection: "
                                 "%s\n", err.c_str());
                    dead = true;
                    break;
                }
                if (!hello_ok) {
                    HelloMsg h;
                    if (!parseHello(f, h, err) ||
                        !checkHello(h, "dispatcher", err)) {
                        std::fprintf(stderr,
                                     "a4worker: rejecting "
                                     "dispatcher: %s\n", err.c_str());
                        sendFrame(fd, makeError(0, err));
                        dead = true;
                        break;
                    }
                    hello_ok = true;
                    continue;
                }
                if (f.type == FrameType::Heartbeat)
                    continue;
                if (f.type == FrameType::Job) {
                    if (!startJob(f)) {
                        dead = true;
                        break;
                    }
                    continue;
                }
                std::fprintf(stderr,
                             "a4worker: dropping connection: "
                             "unexpected frame type %u\n",
                             unsigned(f.type));
                dead = true;
                break;
            }
            if (dead)
                break;
        }

        // Job pipe.
        if (job.active && rc > 0 && nfds > 1 &&
            (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
            bool eof = false;
            for (;;) {
                ssize_t r = ::read(job.fd, buf, sizeof(buf));
                if (r > 0) {
                    job.buf.append(buf, std::size_t(r));
                    continue;
                }
                if (r == 0) {
                    eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                break; // EAGAIN
            }
            if (eof && !finishJob())
                break;
        }

        // Job timeout: kill the child, report, stay connected.
        if (job.active && job.deadline > 0 &&
            monotonicSeconds() > job.deadline) {
            const std::uint64_t tag = job.tag;
            const std::string point = job.point;
            killJob(job);
            if (!sendFrame(fd, makeError(
                    tag, sformat("point '%s' timed out on the worker",
                                 point.c_str()))))
                break;
        }
    }

    killJob(job);
    ::close(fd);
}

} // namespace a4
