/**
 * @file
 * The a4worker daemon's engine: accept one dispatcher connection at a
 * time, run each JOB's sweep point in a fork()ed child (the same
 * pristine-address-space guarantee as the Dispatcher's local lanes,
 * and the same checkpoint store via $A4_CKPT_DIR), and stream
 * RESULT/ERROR frames back while heartbeating.
 *
 * A JOB is self-contained — sweep name, canonical SweepSpec text,
 * point name, forwarded env knobs — so the worker holds no sweep
 * registry and no state between jobs; any build of the repo can serve
 * any sweep its build tag matches.
 */

#ifndef A4_HARNESS_WORKER_HH
#define A4_HARNESS_WORKER_HH

#include <cstdint>
#include <string>

namespace a4
{

struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;     ///< 0 = ephemeral
    double heartbeat_s = 0.5;   ///< beacon period while connected
    double hello_timeout_s = 5; ///< dispatcher must introduce itself
};

/** A bound-and-listening sweep worker. */
class WorkerServer
{
  public:
    /** Binds and listens immediately (fatal on failure), so the
     *  chosen ephemeral port is known before any fork/serve. */
    explicit WorkerServer(const WorkerOptions &opt);
    ~WorkerServer();

    WorkerServer(const WorkerServer &) = delete;
    WorkerServer &operator=(const WorkerServer &) = delete;

    std::uint16_t port() const { return port_; }

    /** Accept and serve exactly one dispatcher connection. */
    void serveOnce();

    /** Accept dispatcher connections forever. */
    [[noreturn]] void serveForever();

  private:
    void serveConnection(int fd);

    WorkerOptions opt_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace a4

#endif // A4_HARNESS_WORKER_HH
