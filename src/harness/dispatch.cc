#include "harness/dispatch.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "sim/log.hh"

namespace a4
{

namespace
{

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

std::string &
warnedFaults()
{
    static std::string warned;
    return warned;
}

/** One clause of $A4_FAULT. */
struct FaultClause
{
    FaultKind kind = FaultKind::None;
    std::string point;
};

bool
parseFaultClauses(const std::string &spec,
                  std::vector<FaultClause> &out)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string clause = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty())
            continue;
        const std::size_t colon = clause.find(':');
        if (colon == std::string::npos || colon + 1 == clause.size())
            return false;
        const std::string kind = clause.substr(0, colon);
        FaultClause fc;
        fc.point = clause.substr(colon + 1);
        if (kind == "crash")
            fc.kind = FaultKind::Crash;
        else if (kind == "hang")
            fc.kind = FaultKind::Hang;
        else if (kind == "corrupt")
            fc.kind = FaultKind::Corrupt;
        else if (kind == "drop")
            fc.kind = FaultKind::Drop;
        else
            return false;
        out.push_back(std::move(fc));
    }
    return true;
}

/** Reap @p pid, retrying on EINTR; ECHILD (SIGCHLD = SIG_IGN parent)
 *  reads as success — a child that really died mid-write left a
 *  short frame, which the length/checksum validation rejects. */
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

/** Drain @p fd (an O_NONBLOCK pipe read end whose writer is dead) to
 *  EOF, then close it. Draining before close keeps a killed child's
 *  buffered bytes from pinning the pipe — the deadlock the old
 *  close-then-kill cleanup could hit on a full pipe buffer. */
void
drainAndClose(int fd)
{
    char buf[4096];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r > 0)
            continue;
        if (r < 0 && errno == EINTR)
            continue;
        break; // EOF, or EAGAIN after the writer is already reaped
    }
    ::close(fd);
}

/** Run @p fn in the forked child: frame the payload, apply any
 *  injected fault, write the frame to the pipe, _exit. */
[[noreturn]] void
localChildMain(int write_fd, std::size_t index, unsigned attempt,
               const std::function<std::string(std::size_t)> &fn,
               const std::function<std::string(std::size_t)> &label)
{
    int status = 0;
    try {
        const FaultKind fault =
            faultFor(faultEnv(), label(index), attempt);
        if (fault == FaultKind::Crash)
            ::raise(SIGKILL);
        if (fault == FaultKind::Hang) {
            for (;;)
                ::pause(); // until the parent's timeout SIGKILLs us
        }
        std::string bytes =
            encodeFrame(Frame{FrameType::Result, index, fn(index)});
        if (fault == FaultKind::Corrupt)
            bytes[bytes.size() > kFrameOverhead ? kFrameHeaderSize
                                                : bytes.size() - 1] ^= 1;
        if (fault == FaultKind::Drop)
            bytes.resize(bytes.size() / 2); // truncated RESULT
        if (!writeAllFd(write_fd, bytes.data(), bytes.size(), false))
            status = 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep worker: %s\n", e.what());
        status = 1;
    } catch (...) {
        std::fprintf(stderr, "sweep worker: unknown exception\n");
        status = 1;
    }
    ::close(write_fd);
    // _exit, not exit: the child shares the parent's stdio buffers
    // and atexit handlers, and must not flush or run either.
    ::_exit(status);
}

/** One in-flight local fork()ed job. */
struct LocalChild
{
    pid_t pid = -1;
    int fd = -1; ///< read end of the result pipe (O_NONBLOCK)
    std::size_t index = 0;
    double deadline = 0; ///< 0 = no timeout
    std::string buf;
};

/** One remote a4worker lane. */
struct WorkerLane
{
    enum class State
    {
        Pending, ///< not connected; next_connect gates the attempt
        Idle,    ///< connected, no job in flight
        Busy,    ///< one JOB outstanding
        Lost,    ///< retired for the rest of the run
    };

    std::string addr; ///< as given: "host:port"
    std::string host;
    std::uint16_t port = 0;
    State state = State::Pending;
    int fd = -1;
    FrameReader reader;
    std::uint64_t tag = 0;      ///< tag of the in-flight JOB
    std::uint64_t next_tag = 1;
    std::size_t index = 0;      ///< in-flight point index
    double last_rx = 0;         ///< last frame seen (silence clock)
    double deadline = 0;        ///< busy backstop; 0 = none
    double next_connect = 0;
    unsigned fails = 0; ///< consecutive connect/connection failures
};

} // namespace

// --------------------------------------------------------------------
// Env knobs + fault injection

double
pointTimeoutFromEnv(double fallback)
{
    const char *env = std::getenv("A4_POINT_TIMEOUT");
    if (!env)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (*env == '\0' || *end != '\0' || !(v >= 0)) {
        static std::string warned;
        warnOncePerValue(warned, env,
                         "warning: A4_POINT_TIMEOUT: ignoring malformed "
                         "value '%s'\n");
        return fallback;
    }
    return v;
}

unsigned
retryBudgetFromEnv(unsigned fallback)
{
    const char *env = std::getenv("A4_POINT_RETRIES");
    if (!env)
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (*env == '\0' || *end != '\0' || v < 0 || v > UINT_MAX) {
        static std::string warned;
        warnOncePerValue(warned, env,
                         "warning: A4_POINT_RETRIES: ignoring malformed "
                         "value '%s'\n");
        return fallback;
    }
    return unsigned(v);
}

std::vector<std::string>
parseWorkerList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string addr = list.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim stray whitespace so "a:1, b:2" works.
        while (!addr.empty() && std::isspace((unsigned char)addr.front()))
            addr.erase(addr.begin());
        while (!addr.empty() && std::isspace((unsigned char)addr.back()))
            addr.pop_back();
        if (!addr.empty())
            out.push_back(std::move(addr));
    }
    return out;
}

std::vector<std::string>
workersFromEnv()
{
    const char *env = std::getenv("A4_WORKERS");
    return env ? parseWorkerList(env) : std::vector<std::string>();
}

std::string
faultEnv()
{
    const char *env = std::getenv("A4_FAULT");
    if (!env || !*env)
        return std::string();
    std::vector<FaultClause> clauses;
    if (!parseFaultClauses(env, clauses)) {
        warnOncePerValue(warnedFaults(), env,
                         "warning: A4_FAULT: ignoring malformed value "
                         "'%s' (want kind:point[,kind:point...] with "
                         "kind crash|hang|corrupt|drop)\n");
        return std::string();
    }
    return env;
}

FaultKind
faultFor(const std::string &spec, const std::string &point,
         unsigned attempt)
{
    // Attempt 0 only: each injected fault fires exactly once, so the
    // bounded retry recovers it deterministically.
    if (spec.empty() || attempt != 0)
        return FaultKind::None;
    std::vector<FaultClause> clauses;
    if (!parseFaultClauses(spec, clauses))
        return FaultKind::None;
    for (const FaultClause &fc : clauses) {
        if (fc.point == point)
            return fc.kind;
    }
    return FaultKind::None;
}

// --------------------------------------------------------------------
// Dispatcher

Dispatcher::Dispatcher(DispatchConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.local_slots == 0)
        cfg_.local_slots = 1;
}

std::vector<std::string>
Dispatcher::run(std::size_t n,
                const std::function<std::string(std::size_t)> &fn,
                const std::function<std::string(std::size_t)> &label)
{
    stats_ = DispatchStats();
    std::vector<std::string> results(n);
    if (n == 0)
        return results;

    if (cfg_.workers.empty() && cfg_.local_slots <= 1) {
        // In-process fallback: same payloads, no fork/pipe round-trip
        // — the reference every parallel/remote path must match.
        for (std::size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    // Validate $A4_FAULT once, in the parent: the rejection warning
    // prints here and children inherit the dedup state.
    faultEnv();

    const char *bench = cfg_.bench.c_str();

    std::vector<WorkerLane> lanes;
    for (const std::string &addr : cfg_.workers) {
        WorkerLane w;
        w.addr = addr;
        std::string err;
        if (!parseHostPort(addr, w.host, w.port, err))
            fatal(sformat("sweep %s: --workers: %s", bench,
                          err.c_str()));
        lanes.push_back(std::move(w));
    }
    if (!lanes.empty() && cfg_.sweep_text.empty()) {
        std::fprintf(stderr,
                     "warning: sweep %s: ignoring remote workers (no "
                     "declarative sweep text to ship)\n", bench);
        lanes.clear();
    }

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        pending.push_back(i);
    std::vector<unsigned> attempts(n, 0);     // dispatched tries
    std::vector<unsigned> budget_used(n, 0);  // budget-consuming fails
    std::vector<LocalChild> kids;
    std::size_t completed = 0;
    bool degraded = false;

    auto cleanup = [&]() {
        // Kill first (a SIGKILLed writer unblocks even when wedged on
        // a full pipe), reap, then drain each pipe to EOF before
        // close — never close an undrained pipe a child might still
        // be flushing into.
        for (LocalChild &k : kids)
            ::kill(k.pid, SIGKILL);
        for (LocalChild &k : kids) {
            reapChild(k.pid);
            drainAndClose(k.fd);
        }
        kids.clear();
        for (WorkerLane &w : lanes) {
            if (w.fd >= 0) {
                ::close(w.fd);
                w.fd = -1;
            }
        }
    };

    // A failed attempt: requeue within the bounded budget, or die
    // loudly naming the point and the lane that failed it.
    auto attemptFailed = [&](std::size_t index, const std::string &lane,
                             const std::string &why) {
        ++stats_.retries;
        ++budget_used[index];
        if (budget_used[index] > cfg_.retry_budget) {
            cleanup();
            fatal(sformat(
                "sweep %s: point '%s' failed on %s (%s) after %u "
                "attempt(s); retry budget exhausted — rerun with "
                "--jobs 1 to debug in-process",
                bench, label(index).c_str(), lane.c_str(), why.c_str(),
                attempts[index]));
        }
        // Straight to stderr: benches run quiet, and CI counts these.
        std::fprintf(stderr,
                     "warning: sweep %s: point '%s' failed on %s (%s); "
                     "retrying (%u of %u retries used)\n",
                     bench, label(index).c_str(), lane.c_str(),
                     why.c_str(), budget_used[index],
                     cfg_.retry_budget);
        pending.push_front(index);
    };

    // Worker-loss requeue: not the point's fault, no budget charge.
    auto requeueFree = [&](std::size_t index, const std::string &lane,
                           const std::string &why) {
        ++stats_.redispatches;
        std::fprintf(stderr,
                     "warning: sweep %s: re-dispatching point '%s' "
                     "(%s: %s)\n",
                     bench, label(index).c_str(), lane.c_str(),
                     why.c_str());
        pending.push_front(index);
    };

    auto retireWorker = [&](WorkerLane &w, const std::string &why) {
        std::fprintf(stderr,
                     "warning: sweep %s: giving up on worker %s (%s)\n",
                     bench, w.addr.c_str(), why.c_str());
        w.state = WorkerLane::State::Lost;
        ++stats_.workers_lost;
    };

    auto loseWorker = [&](WorkerLane &w, const std::string &why) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.state == WorkerLane::State::Busy)
            requeueFree(w.index, "worker " + w.addr, why);
        ++w.fails;
        if (w.fails > cfg_.reconnect_attempts) {
            retireWorker(w, why);
            return;
        }
        w.state = WorkerLane::State::Pending;
        w.next_connect =
            monotonicSeconds() +
            cfg_.reconnect_backoff_s * double(1u << (w.fails - 1));
    };

    // HELLO exchange on a fresh connection; @p permanent reports a
    // skew (version/build/role) that reconnecting cannot fix.
    auto helloExchange = [&](int fd, std::string &err,
                             bool &permanent) {
        permanent = false;
        const std::string hello =
            encodeFrame(makeHello("dispatcher"));
        if (!writeAllFd(fd, hello.data(), hello.size(), true)) {
            err = "send HELLO failed";
            return false;
        }
        FrameReader rd;
        const double deadline =
            monotonicSeconds() + cfg_.connect_timeout_s;
        char buf[4096];
        for (;;) {
            Frame f;
            std::string ferr;
            const FrameReader::Status st = rd.next(f, ferr);
            if (st == FrameReader::Status::Bad) {
                err = "garbled HELLO (" + ferr + ")";
                return false;
            }
            if (st == FrameReader::Status::Ready) {
                if (f.type == FrameType::Heartbeat)
                    continue;
                HelloMsg h;
                if (!parseHello(f, h, err))
                    return false;
                if (!checkHello(h, "worker", err)) {
                    permanent = true;
                    return false;
                }
                return true;
            }
            const double left = deadline - monotonicSeconds();
            if (left <= 0) {
                err = "HELLO timed out";
                return false;
            }
            pollfd p{fd, POLLIN, 0};
            int rc = ::poll(&p, 1, int(left * 1000) + 1);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0) {
                err = "HELLO timed out";
                return false;
            }
            ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
            if (r <= 0) {
                err = "connection closed during HELLO";
                return false;
            }
            rd.feed(buf, std::size_t(r));
        }
    };

    auto tryConnect = [&](WorkerLane &w) {
        std::string err;
        int fd = connectTcp(w.host, w.port, cfg_.connect_timeout_s,
                            err);
        bool permanent = false;
        if (fd >= 0 && !helloExchange(fd, err, permanent)) {
            ::close(fd);
            fd = -1;
        }
        if (fd < 0) {
            ++w.fails;
            if (permanent || w.fails > cfg_.reconnect_attempts) {
                retireWorker(w, err);
                return;
            }
            std::fprintf(stderr,
                         "warning: sweep %s: worker %s: %s; retrying "
                         "(%u of %u)\n",
                         bench, w.addr.c_str(), err.c_str(), w.fails,
                         cfg_.reconnect_attempts);
            w.next_connect =
                monotonicSeconds() +
                cfg_.reconnect_backoff_s * double(1u << (w.fails - 1));
            return;
        }
        w.fd = fd;
        w.state = WorkerLane::State::Idle;
        w.reader = FrameReader();
        w.last_rx = monotonicSeconds();
    };

    auto sendJob = [&](WorkerLane &w, std::size_t index) {
        JobMsg job;
        job.sweep = cfg_.bench;
        job.spec_text = cfg_.sweep_text;
        job.point = label(index);
        job.attempt = attempts[index];
        job.timeout_s = cfg_.point_timeout_s;
        for (const std::string &knob : forwardedEnvKnobs()) {
            if (const char *v = std::getenv(knob.c_str()))
                job.env.emplace_back(knob, v);
        }
        const std::uint64_t tag = w.next_tag++;
        const std::string bytes = encodeFrame(makeJob(tag, job));
        if (!writeAllFd(w.fd, bytes.data(), bytes.size(), true)) {
            loseWorker(w, "send JOB failed");
            return false;
        }
        w.state = WorkerLane::State::Busy;
        w.tag = tag;
        w.index = index;
        ++attempts[index];
        // Backstop only: the worker enforces the timeout itself and
        // reports ERROR; the grace covers a wedged worker parent.
        w.deadline = cfg_.point_timeout_s > 0
                         ? monotonicSeconds() + cfg_.point_timeout_s +
                               2.0
                         : 0;
        return true;
    };

    auto forkChild = [&](std::size_t index) {
        int fds[2];
        if (::pipe(fds) < 0) {
            cleanup();
            fatal(sformat("sweep %s: pipe() failed: %s", bench,
                          std::strerror(errno)));
        }
        // The child must not flush bytes the parent buffered.
        std::fflush(nullptr);
        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            cleanup();
            fatal(sformat("sweep %s: fork() failed: %s", bench,
                          std::strerror(errno)));
        }
        if (pid == 0) {
            ::close(fds[0]);
            localChildMain(fds[1], index, attempts[index], fn, label);
        }
        ::close(fds[1]);
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        LocalChild k;
        k.pid = pid;
        k.fd = fds[0];
        k.index = index;
        k.deadline = cfg_.point_timeout_s > 0
                         ? monotonicSeconds() + cfg_.point_timeout_s
                         : 0;
        ++attempts[index];
        kids.push_back(std::move(k));
    };

    // A local child closed its pipe: reap, validate the frame, and
    // either record the payload or charge the point's budget.
    auto finishLocal = [&](std::size_t ki) {
        LocalChild k = std::move(kids[ki]);
        kids.erase(kids.begin() + std::ptrdiff_t(ki));
        ::close(k.fd);
        const int status = reapChild(k.pid);
        if (status != 0) {
            attemptFailed(k.index, "the local pool",
                          exitDescription(status));
            return;
        }
        Frame f;
        std::string err;
        if (!decodeFrameBlob(k.buf, f, err) ||
            f.type != FrameType::Result) {
            attemptFailed(k.index, "the local pool",
                          err.empty() ? "unexpected frame type"
                                      : "corrupt result: " + err);
            return;
        }
        results[k.index] = std::move(f.payload);
        ++completed;
    };

    auto handleWorkerFrame = [&](WorkerLane &w, const Frame &f) {
        w.last_rx = monotonicSeconds();
        switch (f.type) {
          case FrameType::Heartbeat:
            return true;
          case FrameType::Result:
            if (w.state != WorkerLane::State::Busy || f.tag != w.tag) {
                loseWorker(w, "unexpected RESULT tag");
                return false;
            }
            results[w.index] = f.payload;
            ++completed;
            ++stats_.remote_points;
            w.state = WorkerLane::State::Idle;
            w.deadline = 0;
            w.fails = 0; // a completed job proves the lane healthy
            return true;
          case FrameType::Error: {
            if (w.state != WorkerLane::State::Busy || f.tag != w.tag) {
                loseWorker(w, "unexpected ERROR tag");
                return false;
            }
            const std::size_t index = w.index;
            w.state = WorkerLane::State::Idle;
            w.deadline = 0;
            attemptFailed(index, "worker " + w.addr, f.payload);
            return true;
          }
          default:
            loseWorker(w, "unexpected frame type");
            return false;
        }
    };

    auto readWorker = [&](WorkerLane &w) {
        char buf[65536];
        ssize_t r;
        do {
            r = ::recv(w.fd, buf, sizeof(buf), 0);
        } while (r < 0 && errno == EINTR);
        if (r == 0) {
            loseWorker(w, w.reader.midFrame()
                              ? "connection closed mid-RESULT "
                                "(truncated frame)"
                              : "connection closed");
            return;
        }
        if (r < 0) {
            loseWorker(w, sformat("recv failed: %s",
                                  std::strerror(errno)));
            return;
        }
        w.reader.feed(buf, std::size_t(r));
        for (;;) {
            Frame f;
            std::string err;
            const FrameReader::Status st = w.reader.next(f, err);
            if (st == FrameReader::Status::Need)
                break;
            if (st == FrameReader::Status::Bad) {
                loseWorker(w, "corrupt stream (" + err + ")");
                break;
            }
            if (!handleWorkerFrame(w, f))
                break;
        }
    };

    while (completed < n) {
        const double now = monotonicSeconds();

        // Reconnect lanes whose backoff expired.
        for (WorkerLane &w : lanes) {
            if (w.state == WorkerLane::State::Pending &&
                now >= w.next_connect)
                tryConnect(w);
        }

        if (!degraded && !lanes.empty()) {
            bool all_lost = true;
            for (const WorkerLane &w : lanes)
                all_lost = all_lost &&
                           w.state == WorkerLane::State::Lost;
            if (all_lost) {
                degraded = true;
                std::fprintf(stderr,
                             "warning: sweep %s: all %zu remote "
                             "worker(s) lost; degrading to the local "
                             "pool\n", bench, lanes.size());
            }
        }

        // Hand out work: remote lanes first (they were asked for),
        // then fill the local slots.
        for (WorkerLane &w : lanes) {
            if (pending.empty())
                break;
            if (w.state != WorkerLane::State::Idle)
                continue;
            const std::size_t index = pending.front();
            pending.pop_front();
            if (!sendJob(w, index))
                pending.push_front(index);
        }
        while (kids.size() < cfg_.local_slots && !pending.empty()) {
            forkChild(pending.front());
            pending.pop_front();
        }

        if (completed >= n)
            break;

        // Poll local pipes + worker sockets, bounded by the earliest
        // deadline (point timeouts, silence windows, backoffs).
        std::vector<pollfd> pfds;
        pfds.reserve(kids.size() + lanes.size());
        for (const LocalChild &k : kids)
            pfds.push_back({k.fd, POLLIN, 0});
        for (const WorkerLane &w : lanes) {
            if (w.state == WorkerLane::State::Idle ||
                w.state == WorkerLane::State::Busy)
                pfds.push_back({w.fd, POLLIN, 0});
        }

        double wake = -1; // earliest absolute deadline; -1 = none
        auto consider = [&wake](double t) {
            if (t > 0 && (wake < 0 || t < wake))
                wake = t;
        };
        for (const LocalChild &k : kids)
            consider(k.deadline);
        for (const WorkerLane &w : lanes) {
            switch (w.state) {
              case WorkerLane::State::Busy:
                consider(w.deadline);
                [[fallthrough]];
              case WorkerLane::State::Idle:
                consider(w.last_rx + cfg_.worker_silence_s);
                break;
              case WorkerLane::State::Pending:
                consider(w.next_connect);
                break;
              case WorkerLane::State::Lost:
                break;
            }
        }
        int timeout_ms = -1;
        if (wake >= 0) {
            const double left = wake - monotonicSeconds();
            timeout_ms = left > 0 ? int(left * 1000) + 1 : 0;
        }
        if (pfds.empty() && timeout_ms < 0) {
            cleanup();
            panic(sformat("sweep %s: dispatcher stalled with %zu of "
                          "%zu point(s) unfinished", bench, n - completed,
                          n));
        }

        if (!pfds.empty() || timeout_ms >= 0) {
            int rc = ::poll(pfds.data(), nfds_t(pfds.size()),
                            timeout_ms);
            if (rc < 0 && errno != EINTR) {
                cleanup();
                fatal(sformat("sweep %s: poll() failed: %s", bench,
                              std::strerror(errno)));
            }
        }

        // Service readable local pipes (by fd: finishLocal mutates
        // kids, so re-find each time).
        for (const pollfd &p : pfds) {
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const auto ki = std::find_if(
                kids.begin(), kids.end(),
                [&](const LocalChild &k) { return k.fd == p.fd; });
            if (ki == kids.end())
                continue; // a worker fd, or already finished
            LocalChild &k = *ki;
            bool eof = false;
            char buf[4096];
            for (;;) {
                ssize_t r = ::read(k.fd, buf, sizeof(buf));
                if (r > 0) {
                    k.buf.append(buf, std::size_t(r));
                    continue;
                }
                if (r == 0) {
                    eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                cleanup();
                fatal(sformat("sweep %s: pipe read failed: %s", bench,
                              std::strerror(errno)));
            }
            if (eof)
                finishLocal(std::size_t(ki - kids.begin()));
        }

        // Service readable worker sockets.
        for (const pollfd &p : pfds) {
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            for (WorkerLane &w : lanes) {
                if (w.fd == p.fd &&
                    (w.state == WorkerLane::State::Idle ||
                     w.state == WorkerLane::State::Busy)) {
                    readWorker(w);
                    break;
                }
            }
        }

        // Enforce deadlines.
        const double after = monotonicSeconds();
        for (std::size_t ki = 0; ki < kids.size();) {
            LocalChild &k = kids[ki];
            if (k.deadline > 0 && after > k.deadline) {
                ::kill(k.pid, SIGKILL);
                reapChild(k.pid);
                drainAndClose(k.fd);
                const std::size_t index = k.index;
                kids.erase(kids.begin() + std::ptrdiff_t(ki));
                attemptFailed(index, "the local pool",
                              sformat("timeout after %.3gs",
                                      cfg_.point_timeout_s));
                continue;
            }
            ++ki;
        }
        for (WorkerLane &w : lanes) {
            if (w.state == WorkerLane::State::Busy &&
                w.deadline > 0 && after > w.deadline) {
                loseWorker(w, "no RESULT within the point timeout");
                continue;
            }
            if ((w.state == WorkerLane::State::Idle ||
                 w.state == WorkerLane::State::Busy) &&
                after - w.last_rx > cfg_.worker_silence_s) {
                loseWorker(w, sformat("silent for %.3gs (heartbeat "
                                      "lost)", after - w.last_rx));
            }
        }
    }

    cleanup(); // children all reaped; closes the worker sockets
    return results;
}

} // namespace a4
