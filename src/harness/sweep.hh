/**
 * @file
 * Sweep runner: declare a figure's grid of named points, execute them
 * across all cores, and read the results back in declaration order.
 *
 * Every figure bench is a grid of independent, deterministic Testbed
 * runs (scheme x packet size x block size x ...). A bench declares
 * each grid point once with add(), calls run(), and then renders its
 * tables from the collected Records; the runner shards the points
 * over the fork()-per-point Dispatcher and reassembles the rows in
 * declaration order, so the printed tables are byte-identical to a
 * sequential run no matter how many workers raced.
 *
 * All benches share one CLI (parsed by the Sweep constructor):
 *
 *   --jobs N / -j N   worker processes (default: $A4_JOBS, else all
 *                     hardware threads); 1 runs points in-process
 *   --filter SUBSTR   run only points whose name contains SUBSTR
 *   --json PATH       also write the results as JSON (see writeJson)
 *   --list            print the point names (after --filter) and exit
 *   --burst MODE      NIC arrival batching: sets $A4_NIC_BURST for
 *                     every point (0/off = per-packet events, 1/on =
 *                     default interval, or an interval in ns) — the
 *                     equivalence baseline knob; output must be
 *                     byte-identical across modes
 *   --seed N          RNG stream selector: sets $A4_SEED for every
 *                     point (exported to forked workers), so any
 *                     sweep or spec re-runs under a different — but
 *                     still deterministic — random stream; 0 (the
 *                     default) keeps the built-in streams
 *
 * Record values round-trip through the worker pipe as C99 hex floats,
 * so a parallel run reproduces the in-process doubles bit for bit.
 */

#ifndef A4_HARNESS_SWEEP_HH
#define A4_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/dispatch.hh"

namespace a4
{

struct SweepSpec;

/** Ordered name -> value results of one sweep point. */
class Record
{
  public:
    struct Entry
    {
        std::string key;
        bool is_num = true;
        double num = 0.0;
        std::string str;
    };

    /** Set @p key to a numeric (or string) value; last set wins. */
    void set(const std::string &key, double v);
    void set(const std::string &key, const std::string &v);

    /** Value of @p key (fatal when absent or of the other kind). */
    double num(const std::string &key) const;
    const std::string &str(const std::string &key) const;

    bool has(const std::string &key) const;
    const std::vector<Entry> &entries() const { return entries_; }

    /** Lossless text codec used on the worker pipe. */
    std::string serialize() const;
    static Record deserialize(const std::string &blob);

  private:
    Entry *find(const std::string &key);
    const Entry *find(const std::string &key) const;

    std::vector<Entry> entries_;
};

/** Parsed shared bench CLI. */
struct SweepOptions
{
    unsigned jobs = 0; ///< 0 = auto ($A4_JOBS, else hw threads)
    std::string filter;
    std::string json_path;
    std::string burst; ///< non-empty: exported as $A4_NIC_BURST
    std::string seed;  ///< non-empty: exported as $A4_SEED
    bool list = false;

    /** Parse argv; prints usage and exits on --help / bad args. */
    static SweepOptions parse(const std::string &bench, int argc,
                              char **argv);

    /** True when @p flag is a shared option that consumes the next
     *  argv element ("--jobs N" style) — the one list wrappers that
     *  pre-scan argv (a4sim) must agree with parse() about. */
    static bool takesValue(const std::string &flag);

    /** Resolved worker count (auto -> env/hardware). */
    unsigned effectiveJobs() const;
};

/** A figure bench's declared grid of named points. */
class Sweep
{
  public:
    /** Bench entry point: parses the shared CLI from @p argv. */
    Sweep(std::string bench, int argc, char **argv);

    /** Embedding entry point (tests): explicit options. */
    Sweep(std::string bench, SweepOptions opt);

    /** Declare a grid point (fatal on duplicate names). */
    void add(std::string point, std::function<Record()> fn);

    /**
     * Execute all points matching --filter, --jobs at a time, and
     * collect their Records in declaration order. Call once.
     */
    void run();

    /** Result of @p point; null when filtered out. */
    const Record *find(const std::string &point) const;

    /** Result of @p point (fatal when filtered out). */
    const Record &at(const std::string &point) const;

    /** Declared point names, in order. */
    std::vector<std::string> names() const;

    const std::string &bench() const { return bench_; }
    const SweepOptions &options() const { return opt_; }

    /**
     * Write collected results to @p path as JSON:
     * { "bench": ..., "schema_version": 1, "jobs": N,
     *   "points": [ {"name": ..., "metrics": {k: v, ...}}, ... ] }
     */
    void writeJson(const std::string &path) const;

    /** Bench epilogue: honours --json; returns main()'s exit code. */
    int finish() const;

  private:
    struct Point
    {
        std::string name;
        std::function<Record()> fn;
        bool selected = false;
        bool done = false;
        Record result;
    };

    std::string bench_;
    SweepOptions opt_;
    std::vector<Point> points_;
    DispatchStats stats_;
    bool ran_ = false;
    unsigned jobs_used_ = 0; ///< workers run() actually used
};

// --------------------------------------------------------------------
// Declarative sweeps (SweepSpec -> the point/Record contract above)

/**
 * Declare every expanded point of @p spec on @p sw: the point
 * function resolves the grid coordinates into a ScenarioSpec, runs
 * it, and converts the SpecResult through the sweep's record view
 * (spec / micro / scenario / the record=select metric projection).
 * Dispatcher sharding, hex-float reassembly, and the shared CLI all
 * apply unchanged.
 */
void expandSweep(const SweepSpec &spec, Sweep &sw);

/** Render the sweep's declarative output elements from the collected
 *  Records (sections, tables, the per-workload table, notes). */
void renderSweep(const SweepSpec &spec, const Sweep &sw);

/**
 * The whole bench main: parse the shared CLI (the Sweep/JSON name is
 * @p bench), expand, run, render, honour --json. Every figure bench
 * is `return runSweepBench(<its registered sweep>, argc, argv);`.
 */
int runSweepBench(const SweepSpec &spec, const std::string &bench,
                  int argc, char **argv);

/** One row of a registry listing (a4sim / a4bench --list). */
struct RegistryLine
{
    std::string name;
    std::size_t points = 0;
    std::string summary;
};

/** The shared --list formatter: "<name>  <points> pt  <summary>". */
std::string formatRegistryListing(const std::vector<RegistryLine> &rows);

} // namespace a4

#endif // A4_HARNESS_SWEEP_HH
