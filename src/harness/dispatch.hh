/**
 * @file
 * Fault-tolerant job dispatcher: the one engine behind every sweep
 * run.
 *
 * A run shards its points over local lanes that drain one shared
 * queue: fork()-per-point children, each returning its payload as one
 * checksummed frame (net/frame.hh) over a pipe.
 *
 * Failure model: a failed attempt — child crash, per-point timeout,
 * corrupt or truncated result frame — re-queues the point and
 * consumes one unit of its bounded retry budget (default 2 retries;
 * $A4_POINT_RETRIES). Exhaustion is a loud fatal() naming the point
 * and the lane that failed it.
 *
 * Results are reassembled in submission order, so every recovery path
 * produces output byte-identical to a clean in-process `--jobs 1` run.
 *
 * Deterministic fault injection ($A4_FAULT, test/CI only):
 * comma-separated `kind:point` clauses with kind one of crash (child
 * SIGKILLs itself), hang (child blocks until the timeout kills it),
 * corrupt (one payload byte flipped — the frame checksum catches it),
 * drop (the child truncates its frame). A fault fires on attempt 0
 * only, so every injected failure recovers on the retry.
 */

#ifndef A4_HARNESS_DISPATCH_HH
#define A4_HARNESS_DISPATCH_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace a4
{

/** How a run executes: lanes, budgets, deadlines. */
struct DispatchConfig
{
    std::string bench;          ///< for diagnostics
    unsigned local_slots = 1;   ///< concurrent local children
    double point_timeout_s = 0; ///< 0 = no per-point timeout
    unsigned retry_budget = 2;  ///< retries per point, not tries
};

/** What the failure model had to do (zero on a clean run). */
struct DispatchStats
{
    unsigned retries = 0; ///< failed attempts re-queued
};

/** One shared job queue drained by local fork lanes. */
class Dispatcher
{
  public:
    explicit Dispatcher(DispatchConfig cfg);

    /**
     * Run @p n jobs and return their payloads in index order.
     * @p fn computes job @p i's payload (in a child process); @p label
     * names job @p i for diagnostics and $A4_FAULT matching.
     *
     * With local_slots <= 1 the jobs run in-process — the
     * debugging/reference path (fault injection does not apply).
     */
    std::vector<std::string>
    run(std::size_t n, const std::function<std::string(std::size_t)> &fn,
        const std::function<std::string(std::size_t)> &label);

    const DispatchStats &stats() const { return stats_; }
    const DispatchConfig &config() const { return cfg_; }

  private:
    DispatchConfig cfg_;
    DispatchStats stats_;
};

// --------------------------------------------------------------------
// Failure-model env knobs + fault injection

/** $A4_POINT_TIMEOUT (finite seconds, fractional ok) or
 *  @p fallback. */
double pointTimeoutFromEnv(double fallback = 0);

/** $A4_POINT_RETRIES or @p fallback. */
unsigned retryBudgetFromEnv(unsigned fallback = 2);

/** Injected failure kinds (see the file comment). */
enum class FaultKind
{
    None,
    Crash,
    Hang,
    Corrupt,
    Drop,
};

/** $A4_FAULT's raw value ("" when unset); malformed clauses warn
 *  once and disable the whole value. */
std::string faultEnv();

/** The fault to inject for @p point on attempt @p attempt, given the
 *  $A4_FAULT text @p spec (faults fire on attempt 0 only). */
FaultKind faultFor(const std::string &spec, const std::string &point,
                   unsigned attempt);

} // namespace a4

#endif // A4_HARNESS_DISPATCH_HH
