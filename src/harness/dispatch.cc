#include "harness/dispatch.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <exception>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/frame.hh"
#include "sim/log.hh"

namespace a4
{

namespace
{

/** CLOCK_MONOTONIC now, in seconds: deadlines must not jump with
 *  wall-clock adjustments. */
double
monotonicSeconds()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Write all of @p len bytes, retrying on EINTR and short writes. */
bool
writeAllFd(int fd, const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t w = ::write(fd, data + off, len - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += std::size_t(w);
    }
    return true;
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
        if (!writeAllFd(write_fd, bytes.data(), bytes.size()))
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
    if (*env == '\0' || *end != '\0' || !(std::isfinite(v) && v >= 0)) {
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

    if (cfg_.local_slots <= 1) {
        // In-process fallback: same payloads, no fork/pipe round-trip
        // — the reference every parallel path must match.
        for (std::size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    // Validate $A4_FAULT once, in the parent: the rejection warning
    // prints here and children inherit the dedup state.
    faultEnv();

    const char *bench = cfg_.bench.c_str();

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        pending.push_back(i);
    std::vector<unsigned> attempts(n, 0);     // dispatched tries
    std::vector<unsigned> budget_used(n, 0);  // budget-consuming fails
    std::vector<LocalChild> kids;
    std::size_t completed = 0;

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
    };

    // A failed attempt: requeue within the bounded budget, or die
    // loudly naming the point and the lane that failed it.
    auto attemptFailed = [&](std::size_t index, const std::string &why) {
        ++stats_.retries;
        ++budget_used[index];
        if (budget_used[index] > cfg_.retry_budget) {
            cleanup();
            fatal(sformat(
                "sweep %s: point '%s' failed on the local pool (%s) "
                "after %u attempt(s); retry budget exhausted — rerun "
                "with --jobs 1 to debug in-process",
                bench, label(index).c_str(), why.c_str(),
                attempts[index]));
        }
        // Straight to stderr: benches run quiet, and CI counts these.
        std::fprintf(stderr,
                     "warning: sweep %s: point '%s' failed on the local "
                     "pool (%s); retrying (%u of %u retries used)\n",
                     bench, label(index).c_str(), why.c_str(),
                     budget_used[index], cfg_.retry_budget);
        pending.push_front(index);
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
            attemptFailed(k.index, exitDescription(status));
            return;
        }
        Frame f;
        std::string err;
        if (!decodeFrameBlob(k.buf, f, err)) {
            attemptFailed(k.index, "corrupt result: " + err);
            return;
        }
        results[k.index] = std::move(f.payload);
        ++completed;
    };

    while (completed < n) {
        while (kids.size() < cfg_.local_slots && !pending.empty()) {
            forkChild(pending.front());
            pending.pop_front();
        }

        // Poll the pipes, bounded by the earliest point deadline.
        std::vector<pollfd> pfds;
        pfds.reserve(kids.size());
        double wake = -1; // earliest absolute deadline; -1 = none
        for (const LocalChild &k : kids) {
            pfds.push_back({k.fd, POLLIN, 0});
            if (k.deadline > 0 && (wake < 0 || k.deadline < wake))
                wake = k.deadline;
        }
        int timeout_ms = -1;
        if (wake >= 0) {
            // Clamped: a huge (but finite) point timeout must not
            // overflow the int conversion.
            const double left_ms = (wake - monotonicSeconds()) * 1000;
            timeout_ms =
                left_ms > 0
                    ? int(std::min(left_ms, double(INT_MAX - 1))) + 1
                    : 0;
        }
        int rc = ::poll(pfds.data(), nfds_t(pfds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR) {
            cleanup();
            fatal(sformat("sweep %s: poll() failed: %s", bench,
                          std::strerror(errno)));
        }

        // Service readable pipes (by fd: finishLocal mutates kids, so
        // re-find each time).
        for (const pollfd &p : pfds) {
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const auto ki = std::find_if(
                kids.begin(), kids.end(),
                [&](const LocalChild &k) { return k.fd == p.fd; });
            if (ki == kids.end())
                continue; // already finished
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

        // Enforce point timeouts.
        const double after = monotonicSeconds();
        for (std::size_t ki = 0; ki < kids.size();) {
            LocalChild &k = kids[ki];
            if (k.deadline > 0 && after > k.deadline) {
                ::kill(k.pid, SIGKILL);
                reapChild(k.pid);
                drainAndClose(k.fd);
                const std::size_t index = k.index;
                kids.erase(kids.begin() + std::ptrdiff_t(ki));
                attemptFailed(index, sformat("timeout after %.3gs",
                                             cfg_.point_timeout_s));
                continue;
            }
            ++ki;
        }
    }

    cleanup(); // children all reaped
    return results;
}

} // namespace a4
