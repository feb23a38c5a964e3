/**
 * @file
 * Declarative scenario specifications: compose any workload mix from
 * data instead of hand-wired C++.
 *
 * A ScenarioSpec is a value type describing one co-run: an ordered
 * list of workload entries (kind, name, HPW/LPW class, per-kind
 * knobs), the management scheme, warm-up/measure windows, and an
 * optional A4Params override. Specs round-trip through a simple
 * line-based `key=value` text form (see docs/SCENARIOS.md for the
 * grammar) bit-exactly — doubles serialize as C99 hex floats, the
 * same discipline as the sweep Record codec — so a spec printed by
 * one binary reproduces the identical simulation anywhere.
 *
 * A factory registry keyed by workload kind (dpdk, fastclick, fio,
 * xmem, spec, redis-server, redis-client) turns entries into Testbed
 * workloads; the single generic runSpec() builds the testbed, applies
 * the scheme, runs the warm-up/measure protocol, and returns a
 * SpecResult with per-workload metrics. The paper's evaluation
 * scenarios (§7) are canonical specs in the named ScenarioRegistry —
 * microSpec()/realWorldSpec() reproduce the historical hand-wired
 * testbeds bit for bit, and microResultFromSpec()/
 * scenarioResultFromSpec() restate their SpecResults as the figure
 * structs — and the registry also carries mixes the paper never ran;
 * `a4sim` drives any of them from the command line.
 *
 * Ordering semantics an entry list pins down (they decide core/port/
 * address-map assignment, so they are part of the spec's identity):
 * entries are *tracked* (measured, registered with managers, started)
 * in list order, and *constructed* in `build` order (default: list
 * order). The canonical real-world specs use explicit build ranks to
 * reproduce the historical construction interleaving bit-for-bit.
 */

#ifndef A4_HARNESS_SPEC_HH
#define A4_HARNESS_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/scenarios.hh"

namespace a4
{

/** One workload knob: a raw key=value pair (values keep their exact
 *  text so serialization is bit-stable) plus the source line for
 *  diagnostics (0 = set programmatically). */
struct SpecKnob
{
    std::string key;
    std::string value;
    unsigned line = 0;
};

/** One workload entry of a scenario. */
struct WorkloadSpec
{
    std::string name; ///< unique; also the constructed workload name
    std::string kind; ///< factory-registry key
    bool hpw = false; ///< QoS class (High vs Low priority)

    /** Per-port DCA: false disables DDIO for this workload's device
     *  port (the Fig. 8 SSD-DCA-off knob; I/O kinds only). */
    bool dca = true;

    /** Construction rank (core/port/address allocation order);
     *  negative = the entry's list position. */
    int build = -1;

    /** Explicit way range under the Isolate scheme; entries without
     *  a pin fall back to proportional auto-partitioning. */
    std::optional<std::pair<unsigned, unsigned>> pin;

    /**
     * Tenant multiplier: expandReplicas() turns this entry into
     * `replicate` instances named `<name>0..<name>N-1`, each with its
     * own decorrelated seed stream (tenantSeed()). 1 = unreplicated
     * (and bit-identical to a spec that predates the knob).
     */
    unsigned replicate = 1;

    /**
     * Per-replica knob offsets (`<wl>.step.<knob> = delta`): replica
     * i of the expansion gets knob = base + i*delta. Numeric knobs
     * only; replica 0 always sees the unmodified base value.
     */
    std::vector<SpecKnob> steps;

    std::vector<SpecKnob> knobs;
    unsigned line = 0; ///< declaring line (0 = programmatic)

    /** @name Typed knob setters (canonical text forms; last wins). @{ */
    void set(const std::string &key, std::uint64_t v);
    void set(const std::string &key, double v);
    void set(const std::string &key, const std::string &v);
    /** @} */

    /** @name Typed knob getters (default when absent; fatal on a
     *  value that does not parse as the requested type). @{ */
    const SpecKnob *find(const std::string &key) const;
    std::uint64_t u64(const std::string &key, std::uint64_t dflt) const;
    /** u64 bounded to 32 bits — for knobs consumed as unsigned;
     *  rejects (never wraps) larger values. */
    unsigned u32(const std::string &key, unsigned dflt) const;
    double num(const std::string &key, double dflt) const;
    bool flag(const std::string &key, bool dflt) const;
    std::string str(const std::string &key,
                    const std::string &dflt) const;
    /** @} */
};

/** A complete declarative scenario. */
struct ScenarioSpec
{
    std::string name; ///< registry name ("" = ad hoc)
    Scheme scheme = Scheme::Default;

    /** Global (BIOS) DCA enable — the Fig. 4/5/6 knob. */
    bool bios_dca = true;

    /** LLC replacement policy: "" (hardware default = lru), "lru",
     *  or "srrip" (the replacement-policy ablation). */
    std::string replacement;

    /** Core budget override (`cores = N`); 0 = the server default.
     *  Fleet-scale mixes raise it past the 18-core geometry. */
    unsigned cores = 0;

    /** Nominal windows; runSpec() adjusts them by the environment
     *  knobs (A4_TEST_DURATION_SCALE / A4_BENCH_WINDOWS_MS) exactly
     *  once. Defaults match the paper-scenario protocol. */
    Windows windows{250 * kMsec, 100 * kMsec};

    /** Overrides thresholds/timing of the A4 schemes (Fig. 15);
     *  absent = the scenario defaults (compressed 5 ms intervals). */
    std::optional<A4Params> a4;

    std::vector<WorkloadSpec> workloads;

    /** Append an entry (name must be unique; fatal otherwise). */
    WorkloadSpec &add(const std::string &name, const std::string &kind,
                      bool hpw);

    WorkloadSpec *findWorkload(const std::string &name);
    const WorkloadSpec *findWorkload(const std::string &name) const;
};

/**
 * Parse the text form. @p origin names the source in diagnostics
 * ("file.spec:12: unknown knob ..."). Structural errors, unknown
 * keys/kinds/knobs, and malformed values all throw FatalError naming
 * the offending line. Later assignments win, so appending
 * "name.key = value" lines overrides earlier ones.
 */
ScenarioSpec parseSpec(const std::string &text,
                       const std::string &origin = "<spec>");

/** parseSpec() over a file's contents (fatal when unreadable). */
ScenarioSpec loadSpecFile(const std::string &path);

/**
 * Canonical text form; parseSpec(serializeSpec(s)) reproduces @p s
 * exactly (and, transitively, the identical simulation).
 */
std::string serializeSpec(const ScenarioSpec &spec);

/**
 * Expand every `replicate = N` entry into N tenant instances named
 * `<name>0..<name>N-1` in list order (replica i of entry j precedes
 * replica 0 of entry j+1). Replicas carry the base entry's knobs
 * with `step.` offsets applied (base + i*delta) and, for kinds with
 * a `seed` knob, a derived tenantSeed() stream per replica, so the
 * expansion is deterministic and seed streams are disjoint. A spec
 * with no multiplier is returned unchanged. runSpec() expands
 * internally; the helper is exposed so tests and tools can inspect
 * the expansion (the checkpoint key and results use the expanded
 * names).
 */
ScenarioSpec expandReplicas(const ScenarioSpec &spec);

/**
 * Apply command-line overrides: each assignment is "scheme=A4-d",
 * "dpdk0.packet_bytes=256", "a4.t5=0.8", "measure_ns=...", ... —
 * exactly the grammar of one spec line. The whole batch is applied
 * before the spec revalidates, so "workload=extra" followed by
 * "extra.kind=fio" adds a workload. Fatal (naming @p origin) on
 * unknown targets or malformed values.
 */
void applySpecOverrides(ScenarioSpec &spec,
                        const std::vector<std::string> &assignments,
                        const std::string &origin = "--set");

/** applySpecOverrides() for a single assignment. */
void applySpecOverride(ScenarioSpec &spec, const std::string &assignment,
                       const std::string &origin = "--set");

/** Registered workload kinds, factory order. */
std::vector<std::string> workloadKinds();

/** True when @p kind reports throughput (inverse request latency)
 *  instead of IPC — the §7.2 multi-threaded I/O workload rule. */
bool kindMultithreadIo(const std::string &kind);

// --------------------------------------------------------------------
// Results

/** Per-workload outcome of a spec run (everything the legacy result
 *  structs derive from, in raw unconverted units). */
struct SpecWorkloadResult
{
    std::string name;
    std::string kind;
    bool hpw = false;
    bool multithread_io = false;
    bool antagonist = false;   ///< flagged by A4 during the run

    double perf = 0.0;         ///< inverse latency (mt-I/O) or IPC
    double ipc = 0.0;
    double llc_hit_rate = 0.0;
    double llc_miss_rate = 0.0;
    double mpa = 0.0;          ///< LLC misses per MLC access (Fig. 3)
    double dca_leak = 0.0;     ///< DMA-written lines evicted unconsumed
    double tail_latency_us = 0.0; ///< p99, I/O workloads only
    double lat_mean_ns = 0.0;  ///< mean per-op latency (raw ns)

    /** Raw PCIe port byte counts over the measure window (exact
     *  integers; convert with the window/scale in SpecResult). */
    double ingress_bytes = 0.0;
    double egress_bytes = 0.0;

    /** Fig. 14a components (fastclick kinds), mean ns. */
    bool has_net_breakdown = false;
    double nic_to_host_ns = 0.0;
    double pointer_ns = 0.0;
    double process_ns = 0.0;

    /** Fig. 14b components (fio kinds), mean ns. */
    bool has_storage_breakdown = false;
    double read_ns = 0.0;
    double regex_ns = 0.0;
    double write_ns = 0.0;
};

/** Outcome of one runSpec() call. */
struct SpecResult
{
    std::vector<SpecWorkloadResult> workloads;

    double mem_rd_bw_bps = 0.0; ///< machine-scale (unscale to paper)
    double mem_wr_bw_bps = 0.0;
    double past_events = 0.0;   ///< Engine::pastEvents() after the run

    /**
     * Host wall clock (seconds) split at the warm-up boundary:
     * construct + warm-up (or restore) vs. the measurement window.
     * Diagnostics only — deliberately kept out of the deterministic
     * "metrics" section of the --json output.
     */
    double warmup_wall_s = 0.0;
    double measure_wall_s = 0.0;

    Tick measure_window = 0;    ///< resolved measure window (ns)
    unsigned scale = 1;         ///< ServerConfig::scale of the run

    const SpecWorkloadResult *find(const std::string &name) const;

    /** Paper-equivalent GB/s for a raw port byte count. */
    double toGbps(double bytes) const;
};

/** Run @p spec with windows adjusted from the environment. */
SpecResult runSpec(const ScenarioSpec &spec);

/** Run @p spec with explicitly resolved windows (no env adjust). */
SpecResult runSpecWithWindows(const ScenarioSpec &spec,
                              const Windows &windows);

/** @name Sweep-pipe codec for SpecResult. @{ */
Record toRecord(const SpecResult &r);
SpecResult specResultFrom(const Record &rec);
/** @} */

// --------------------------------------------------------------------
// Registry

/** A named, ready-to-run scenario. */
struct RegisteredScenario
{
    std::string name;
    std::string description;
    ScenarioSpec spec;
};

/** All registered scenarios: the paper's canonical mixes plus the
 *  non-paper mixes this repository adds. */
const std::vector<RegisteredScenario> &scenarioRegistry();

/** Lookup by name; nullptr when absent. */
const RegisteredScenario *findScenario(const std::string &name);

/** @name Canonical parameterised specs (the paper's runs). @{ */
/** §7.1 microbenchmark co-run: DPDK-T + FIO + X-Mem 1/2/3. */
ScenarioSpec microSpec(unsigned packet_bytes,
                       std::uint64_t storage_block);
/** Table-2 real-world mix (HPW-heavy or LPW-heavy). */
ScenarioSpec realWorldSpec(bool hpw_heavy);
/** @} */

// --------------------------------------------------------------------
// SweepSpec: a declarative grid sweep over a base ScenarioSpec
//
// A SweepSpec is what a figure bench *is*: a base scenario, named
// axes (each axis = one `--set`-style override key with a value list
// or numeric range), one or more grids (a point-name template over a
// subset of the axes plus fixed overrides), a record view selecting
// how each point's SpecResult becomes a sweep Record, and a list of
// declarative output elements (section text, tables with
// normalise-to-reference / perf-degradation aggregate cells, the
// per-workload Fig. 13 table, conditional notes) that render the
// collected Records. Like ScenarioSpec it round-trips a line-based
// text form bit-exactly and rejects bad input naming origin:line; see
// docs/SCENARIOS.md for the grammar.

/** One sweep axis: an override key swept over values. */
struct SweepAxis
{
    std::string name;
    std::string key; ///< spec-override key ("scheme", "fio.block_bytes",
                     ///< "dca", ... or "scenario" to swap the base)
    std::vector<std::string> values; ///< exact override value texts
    std::string range; ///< "lo:hi:step" origin text ("" = explicit list)

    /** Point-name labels, parallel to values (empty = the values). */
    std::vector<std::string> labels;

    /** Named display-label sets for table cells ({axis:set}). */
    std::vector<std::pair<std::string, std::vector<std::string>>>
        label_sets;

    unsigned line = 0;

    /** Label of @p index in @p set ("" = point-name labels). */
    const std::string &label(std::size_t index,
                             const std::string &set = "") const;

    /** Index of @p value; npos when absent. */
    std::size_t indexOf(const std::string &value) const;
};

/** One grid of a sweep: a point-name template over some axes. */
struct SweepGrid
{
    std::string name;
    std::string point; ///< name template, {axis} = point-name label
    std::vector<std::string> axes; ///< outermost first
    /** Fixed overrides applied (in order, after the base resolves)
     *  to every point of this grid; each one spec-override line. */
    std::vector<SpecKnob> sets;
    /** record=select projection for this grid (empty = sweep-level). */
    std::vector<SpecKnob> metrics; ///< key = output key, value = expr
    unsigned line = 0;
};

/** A cell of a declarative table row. */
struct SweepCellSpec
{
    std::string op;  ///< text | num | pct | rel | agg
    std::string arg; ///< template (text), metric key, or hp|lp|all
    int digits = -1; ///< -1 = the op's default (num/rel 2, pct 1)
    /** Extra axis=value bindings locating the cell's point. */
    std::vector<std::pair<std::string, std::string>> bind;
    unsigned line = 0;
};

/** A run of table rows: one row per tuple of @p axes. */
struct SweepRowBlock
{
    std::string grid;
    std::vector<std::string> axes; ///< varying (empty = single row)
    std::vector<std::pair<std::string, std::string>> fix;
    std::vector<SweepCellSpec> cells;
    unsigned line = 0;
};

/** A declarative table: headers + row blocks (+ reference point). */
struct SweepTableSpec
{
    std::vector<std::string> headers;
    std::vector<SweepRowBlock> blocks;
    /** Reference point for rel/agg cells ("" = none). */
    std::string ref_grid;
    std::vector<std::pair<std::string, std::string>> ref;
};

/** The Fig. 13-shaped per-workload table (scenario records). */
struct SweepWorkloadTable
{
    std::string grid;
    std::vector<std::pair<std::string, std::string>> fix;
    std::string scheme_axis;     ///< axis providing the columns
    std::string baseline;        ///< axis value of the baseline
    std::vector<std::string> columns; ///< axis values, display order
    std::string star; ///< axis value whose antagonist flags mark '*'
    std::string hit;  ///< axis value of the hit column ("" = none)
    std::string title;     ///< printed above the table (raw bytes)
    std::string skip_text; ///< printed when the baseline was filtered
    std::vector<std::string> headers;
    std::vector<std::string> agg_headers; ///< empty = no aggregate
};

/** One output element, rendered in declaration order. */
struct SweepOutput
{
    enum class Kind { Text, Table, WorkloadTable, Note };
    Kind kind = Kind::Text;
    std::string text;  ///< Text: raw bytes; Note: {key:digits} template
    std::string point; ///< Note: required point name
    SweepTableSpec table;
    SweepWorkloadTable wtable;
    unsigned line = 0;
};

/** How a point's SpecResult becomes its sweep Record. */
enum class SweepRecordView { Spec, Micro, Scenario, Select };

/** A complete declarative grid sweep. */
struct SweepSpec
{
    std::string name;
    ScenarioSpec base;
    SweepRecordView record = SweepRecordView::Spec;
    std::vector<SweepAxis> axes;
    std::vector<SweepGrid> grids;
    /** record=select projection (sweep-level default). */
    std::vector<SpecKnob> metrics;
    std::vector<SweepOutput> outputs;

    SweepAxis *findAxis(const std::string &name);
    const SweepAxis *findAxis(const std::string &name) const;
    const SweepGrid *findGrid(const std::string &name) const;

    /** Expanded point count across all grids. */
    std::size_t pointCount() const;
};

/** Parse the sweep text form (fatal naming origin:line on errors). */
SweepSpec parseSweepSpec(const std::string &text,
                         const std::string &origin = "<sweep>");

/** parseSweepSpec() over a file's contents. */
SweepSpec loadSweepSpecFile(const std::string &path);

/** Canonical text; parseSweepSpec(serializeSweepSpec(s)) == s. */
std::string serializeSweepSpec(const SweepSpec &spec);

/**
 * Apply `--set` overrides to a sweep: `base.<spec line>` edits the
 * base scenario, `<axis>.values=` / `<axis>.labels=` / `<axis>.key=`
 * / `<axis>.range=` redefine an axis, `record=` the view. The batch
 * applies before the sweep revalidates. Fatal (naming @p origin) on
 * unknown targets or malformed values.
 */
void applySweepOverrides(SweepSpec &spec,
                         const std::vector<std::string> &assignments,
                         const std::string &origin = "--set");

/** Structural validation (also run by parse/apply); fatal naming
 *  @p origin on the first inconsistency. Resolves every point spec,
 *  so unknown axis keys and malformed override values are rejected
 *  here (with the declaring line), not at run time. */
void validateSweepSpec(const SweepSpec &spec, const std::string &origin);

/** Axis-name -> value-index bindings locating one grid point. */
using SweepBinding = std::vector<std::pair<std::string, std::size_t>>;

/** One expanded grid point: resolved name + scenario. */
struct SweepPoint
{
    const SweepGrid *grid = nullptr;
    SweepBinding binding; ///< one entry per grid axis, axes order
    std::string name;
    ScenarioSpec spec;
};

/** Expand every grid into its points, in declaration order (grids
 *  first, then the cartesian product with axes[0] outermost). */
std::vector<SweepPoint> expandSweepSpec(const SweepSpec &spec,
                                        const std::string &origin);

/** Point name for @p binding (must bind every grid axis). */
std::string sweepPointName(const SweepSpec &spec, const SweepGrid &grid,
                           const SweepBinding &binding,
                           const std::string &origin);

/** Substitute {axis} / {axis:label-set} placeholders in @p tmpl. */
std::string sweepSubstitute(const SweepSpec &spec, const std::string &tmpl,
                            const SweepBinding &binding,
                            const std::string &origin, unsigned line);

/** Evaluate a record=select metric expression ("sys.<field>" or
 *  "<workload>.<field>"; absent workloads read 0). */
double evalSweepMetric(const SpecResult &r, const std::string &expr);

/** True when @p expr names a known metric field. */
bool validSweepMetricExpr(const std::string &expr);

/** @name MicroResult / ScenarioResult views of a SpecResult.
 *  Bit-identical to the historical hand-wired micro / real-world
 *  conversion arithmetic; the workload names must match the
 *  canonical micro / realworld specs. @{ */
MicroResult microResultFromSpec(const SpecResult &sr);
ScenarioResult scenarioResultFromSpec(const SpecResult &sr);
/** @} */

} // namespace a4

#endif // A4_HARNESS_SPEC_HH
