#include "harness/sweep.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/spec.hh"
#include "harness/table.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace a4
{

// --------------------------------------------------------------------
// Record

namespace
{

/** Escape for the pipe codec: keys/strings become space-free. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '%' || ch == ' ' || ch == '\n' || ch == '\r')
            out += sformat("%%%02x", (unsigned char)ch);
        else
            out += ch;
    }
    return out;
}

/** Inverse of escape(): every '%' must be followed by exactly two
 *  hex digits, anything else is a corrupt field. */
std::string
unescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        const std::string hex = s.substr(i + 1, 2);
        if (hex.size() != 2 || !std::isxdigit((unsigned char)hex[0]) ||
            !std::isxdigit((unsigned char)hex[1]))
            fatal(sformat("Record: bad escape in '%s'", s.c_str()));
        out += char(std::stoi(hex, nullptr, 16));
        i += 2;
    }
    return out;
}

} // namespace

Record::Entry *
Record::find(const std::string &key)
{
    for (Entry &e : entries_) {
        if (e.key == key)
            return &e;
    }
    return nullptr;
}

const Record::Entry *
Record::find(const std::string &key) const
{
    return const_cast<Record *>(this)->find(key);
}

void
Record::set(const std::string &key, double v)
{
    if (Entry *e = find(key)) {
        *e = Entry{key, true, v, {}};
        return;
    }
    entries_.push_back(Entry{key, true, v, {}});
}

void
Record::set(const std::string &key, const std::string &v)
{
    if (Entry *e = find(key)) {
        *e = Entry{key, false, 0.0, v};
        return;
    }
    entries_.push_back(Entry{key, false, 0.0, v});
}

double
Record::num(const std::string &key) const
{
    const Entry *e = find(key);
    if (!e || !e->is_num)
        fatal(sformat("Record: no numeric value '%s'", key.c_str()));
    return e->num;
}

const std::string &
Record::str(const std::string &key) const
{
    const Entry *e = find(key);
    if (!e || e->is_num)
        fatal(sformat("Record: no string value '%s'", key.c_str()));
    return e->str;
}

bool
Record::has(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
Record::serialize() const
{
    std::string out;
    for (const Entry &e : entries_) {
        if (e.is_num) {
            // %a is exact: the reader recovers the identical double.
            out += sformat("N %s %a\n", escape(e.key).c_str(), e.num);
        } else {
            out += sformat("S %s %s\n", escape(e.key).c_str(),
                           escape(e.str).c_str());
        }
    }
    return out;
}

Record
Record::deserialize(const std::string &blob)
{
    Record r;
    std::size_t pos = 0;
    while (pos < blob.size()) {
        std::size_t eol = blob.find('\n', pos);
        if (eol == std::string::npos)
            eol = blob.size();
        const std::string line = blob.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        std::size_t s1 = line.find(' ');
        std::size_t s2 =
            s1 == std::string::npos ? s1 : line.find(' ', s1 + 1);
        if (line.size() < 2 || s1 != 1 || s2 == std::string::npos)
            fatal(sformat("Record: malformed line '%s'", line.c_str()));
        const std::string key =
            unescape(line.substr(s1 + 1, s2 - s1 - 1));
        const std::string val = line.substr(s2 + 1);
        if (line[0] == 'N') {
            char *end = nullptr;
            double v = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0')
                fatal(sformat("Record: bad number '%s'", val.c_str()));
            r.set(key, v);
        } else if (line[0] == 'S') {
            r.set(key, unescape(val));
        } else {
            fatal(sformat("Record: unknown tag in '%s'", line.c_str()));
        }
    }
    return r;
}

// --------------------------------------------------------------------
// SweepOptions

namespace
{

[[noreturn]] void
usage(const std::string &bench, int code)
{
    std::FILE *out = code ? stderr : stdout;
    std::fprintf(out,
                 "usage: %s [--jobs N] [--filter SUBSTR] [--json PATH] "
                 "[--list]\n"
                 "  --jobs N, -j N  worker processes (default: $A4_JOBS,"
                 " else all hardware\n"
                 "                  threads); 1 runs points in-process\n"
                 "  --filter SUBSTR run only points whose name contains "
                 "SUBSTR\n"
                 "  --json PATH     also write results as JSON to PATH\n"
                 "  --list          print the point names (after "
                 "--filter) and exit\n"
                 "  --burst MODE    NIC arrival batching (sets "
                 "$A4_NIC_BURST): 0/off = one\n"
                 "                  engine event per packet, 1/on = "
                 "default interval, or an\n"
                 "                  interval in ns; results are "
                 "byte-identical across modes\n"
                 "  --seed N        RNG stream selector (sets $A4_SEED "
                 "for every point and\n"
                 "                  forked worker); 0 = the built-in "
                 "default streams\n",
                 bench.c_str());
    std::exit(code);
}

/** "--opt value" / "--opt=value" accessor; advances @p i. */
bool
optValue(const std::string &bench, int argc, char **argv, int &i,
         const char *name, std::string &out)
{
    const std::string arg = argv[i];
    const std::string flag = name;
    if (arg == flag) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs a value\n",
                         bench.c_str(), name);
            usage(bench, 2);
        }
        out = argv[++i];
        return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
        out = arg.substr(flag.size() + 1);
        return true;
    }
    return false;
}

unsigned
parseJobs(const std::string &bench, const std::string &val)
{
    char *end = nullptr;
    long v = std::strtol(val.c_str(), &end, 10);
    if (!end || *end != '\0' || v < 1) {
        std::fprintf(stderr, "%s: bad --jobs value '%s'\n",
                     bench.c_str(), val.c_str());
        usage(bench, 2);
    }
    return unsigned(v);
}

} // namespace

bool
SweepOptions::takesValue(const std::string &flag)
{
    return flag == "--jobs" || flag == "-j" || flag == "--filter" ||
           flag == "--json" || flag == "--burst" || flag == "--seed";
}

SweepOptions
SweepOptions::parse(const std::string &bench, int argc, char **argv)
{
    SweepOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string val;
        if (arg == "--help" || arg == "-h") {
            usage(bench, 0);
        } else if (optValue(bench, argc, argv, i, "--jobs", val) ||
                   optValue(bench, argc, argv, i, "-j", val)) {
            opt.jobs = parseJobs(bench, val);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   arg[2] != '=') {
            opt.jobs = parseJobs(bench, arg.substr(2));
        } else if (optValue(bench, argc, argv, i, "--filter", val)) {
            opt.filter = val;
        } else if (optValue(bench, argc, argv, i, "--json", val)) {
            opt.json_path = val;
        } else if (optValue(bench, argc, argv, i, "--burst", val)) {
            opt.burst = val;
        } else if (optValue(bench, argc, argv, i, "--seed", val)) {
            opt.seed = val;
        } else if (arg == "--list") {
            opt.list = true;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         bench.c_str(), arg.c_str());
            usage(bench, 2);
        }
    }
    return opt;
}

unsigned
SweepOptions::effectiveJobs() const
{
    if (jobs)
        return jobs;
    if (const char *env = std::getenv("A4_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1)
            return unsigned(v);
        // stderr, not warn(): benches run quiet (see
        // warnOncePerValue in sim/log.hh for the rationale).
        std::fprintf(stderr,
                     "warning: A4_JOBS: ignoring malformed value "
                     "'%s'\n", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

// --------------------------------------------------------------------
// Sweep

Sweep::Sweep(std::string bench, int argc, char **argv)
    : Sweep(bench, SweepOptions::parse(bench, argc, argv))
{
}

Sweep::Sweep(std::string bench, SweepOptions opt)
    : bench_(std::move(bench)), opt_(std::move(opt))
{
}

void
Sweep::add(std::string point, std::function<Record()> fn)
{
    if (ran_)
        fatal(sformat("sweep %s: add('%s') after run()",
                      bench_.c_str(), point.c_str()));
    for (const Point &p : points_) {
        if (p.name == point)
            fatal(sformat("sweep %s: duplicate point '%s'",
                          bench_.c_str(), point.c_str()));
    }
    Point p;
    p.name = std::move(point);
    p.fn = std::move(fn);
    points_.push_back(std::move(p));
}

void
Sweep::run()
{
    if (ran_)
        fatal(sformat("sweep %s: run() called twice", bench_.c_str()));
    ran_ = true;

    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        points_[i].selected =
            opt_.filter.empty() ||
            points_[i].name.find(opt_.filter) != std::string::npos;
        if (points_[i].selected)
            selected.push_back(i);
    }

    if (opt_.list) {
        for (std::size_t i : selected)
            std::printf("%s\n", points_[i].name.c_str());
        std::exit(0);
    }

    // --burst / --seed export $A4_NIC_BURST / $A4_SEED so every point
    // (and every forked worker) constructs its devices in the
    // requested arrival mode and RNG stream.
    if (!opt_.burst.empty())
        setenv("A4_NIC_BURST", opt_.burst.c_str(), 1);
    if (!opt_.seed.empty())
        setenv("A4_SEED", opt_.seed.c_str(), 1);

    // Validate the env knobs once, in the parent: their rejection
    // diagnostics print here, and the forked workers inherit the
    // dedup state so they stay silent.
    Windows::fromEnv();
    NicConfig::burstFromEnv();
    SsdConfig::lazyFromEnv();
    envSeed();
    if (!checkpointDir().empty())
        buildTag(); // hash the executable once, before forking

    jobs_used_ =
        std::min<std::size_t>(opt_.effectiveJobs(),
                              std::max<std::size_t>(selected.size(), 1));
    DispatchConfig dc;
    dc.bench = bench_;
    dc.local_slots = jobs_used_;
    dc.point_timeout_s = pointTimeoutFromEnv();
    dc.retry_budget = retryBudgetFromEnv();
    Dispatcher pool(std::move(dc));
    std::vector<std::string> payloads = pool.run(
        selected.size(),
        [&](std::size_t i) {
            return points_[selected[i]].fn().serialize();
        },
        [&](std::size_t i) { return points_[selected[i]].name; });
    stats_ = pool.stats();

    for (std::size_t i = 0; i < selected.size(); ++i) {
        Point &p = points_[selected[i]];
        try {
            p.result = Record::deserialize(payloads[i]);
        } catch (const FatalError &e) {
            // A truncated payload from a worker whose death went
            // unreported (unreapable child) lands here; name the
            // point instead of surfacing a bare codec error.
            fatal(sformat("sweep %s: point '%s' returned a corrupt "
                          "payload (%s)",
                          bench_.c_str(), p.name.c_str(), e.what()));
        }
        p.done = true;
    }
}

const Record *
Sweep::find(const std::string &point) const
{
    if (!ran_)
        fatal(sformat("sweep %s: find('%s') before run()",
                      bench_.c_str(), point.c_str()));
    for (const Point &p : points_) {
        if (p.name == point)
            return p.done ? &p.result : nullptr;
    }
    fatal(sformat("sweep %s: unknown point '%s'", bench_.c_str(),
                  point.c_str()));
}

const Record &
Sweep::at(const std::string &point) const
{
    const Record *r = find(point);
    if (!r)
        fatal(sformat("sweep %s: point '%s' was filtered out",
                      bench_.c_str(), point.c_str()));
    return *r;
}

std::vector<std::string>
Sweep::names() const
{
    std::vector<std::string> out;
    out.reserve(points_.size());
    for (const Point &p : points_)
        out.push_back(p.name);
    return out;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if ((unsigned char)ch < 0x20)
                out += sformat("\\u%04x", ch);
            else
                out += ch;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf
    // 17 significant digits round-trip any double exactly.
    return sformat("%.17g", v);
}

} // namespace

void
Sweep::writeJson(const std::string &path) const
{
    if (!ran_)
        fatal(sformat("sweep %s: writeJson() before run()",
                      bench_.c_str()));
    std::ofstream out(path);
    if (!out)
        fatal(sformat("sweep %s: cannot write '%s'", bench_.c_str(),
                      path.c_str()));
    out << "{\n";
    out << "  \"bench\": \"" << jsonEscape(bench_) << "\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"jobs\": " << jobs_used_ << ",\n";
    // What the failure model had to do, on its own greppable line —
    // nondeterministic like "wall", so absent on a clean run and easy
    // to drop from byte-level diffs.
    if (stats_.retries) {
        out << "  \"dispatch\": {\"retries\": " << stats_.retries
            << "},\n";
    }
    // Non-default RNG stream: stamp it so a recorded JSON can always
    // be reproduced (absent = the built-in streams).
    if (const std::uint64_t s = envSeed())
        out << "  \"seed\": " << s << ",\n";
    if (!opt_.filter.empty())
        out << "  \"filter\": \"" << jsonEscape(opt_.filter) << "\",\n";
    out << "  \"points\": [";
    bool first_point = true;
    for (const Point &p : points_) {
        if (!p.done)
            continue;
        out << (first_point ? "\n" : ",\n");
        first_point = false;
        out << "    {\"name\": \"" << jsonEscape(p.name)
            << "\", \"metrics\": {";
        bool first_kv = true;
        std::string wall;
        for (const Record::Entry &e : p.result.entries()) {
            // Host wall-clock diagnostics are nondeterministic, so
            // they live in a sibling "wall" object on their own line:
            // byte-level diffs of two runs stay meaningful by
            // dropping lines containing "wall".
            if (e.key == "warmup_s" || e.key == "measure_s") {
                wall += wall.empty() ? "" : ", ";
                wall += "\"" + jsonEscape(e.key) +
                        "\": " + jsonNumber(e.num);
                continue;
            }
            out << (first_kv ? "" : ", ");
            first_kv = false;
            out << "\"" << jsonEscape(e.key) << "\": ";
            if (e.is_num)
                out << jsonNumber(e.num);
            else
                out << "\"" << jsonEscape(e.str) << "\"";
        }
        out << "}";
        if (!wall.empty())
            out << ",\n     \"wall\": {" << wall << "}";
        out << "}";
    }
    out << "\n  ]\n}\n";
    if (!out.flush())
        fatal(sformat("sweep %s: write to '%s' failed", bench_.c_str(),
                      path.c_str()));
}

int
Sweep::finish() const
{
    if (!opt_.json_path.empty())
        writeJson(opt_.json_path);
    return 0;
}

// --------------------------------------------------------------------
// Declarative sweeps

namespace
{

/** Run one resolved point and convert it through the record view. */
Record
pointRecord(const ScenarioSpec &point_spec, SweepRecordView view,
            const std::vector<SpecKnob> &metrics)
{
    SpecResult r = runSpec(point_spec);
    Record rec;
    switch (view) {
      case SweepRecordView::Micro:
        rec = toRecord(microResultFromSpec(r));
        break;
      case SweepRecordView::Scenario:
        rec = toRecord(scenarioResultFromSpec(r));
        break;
      case SweepRecordView::Select:
        for (const SpecKnob &m : metrics)
            rec.set(m.key, evalSweepMetric(r, m.value));
        rec.set("past_events", r.past_events);
        break;
      case SweepRecordView::Spec:
        rec = toRecord(r);
        break;
    }
    // Every view carries the wall-clock split — writeJson() diverts
    // these two keys into the point's "wall" object, outside the
    // deterministic "metrics".
    rec.set("warmup_s", r.warmup_wall_s);
    rec.set("measure_s", r.measure_wall_s);
    return rec;
}

} // namespace

void
expandSweep(const SweepSpec &spec, Sweep &sw)
{
    const std::string origin =
        spec.name.empty() ? "<sweep>" : spec.name;
    for (SweepPoint &p : expandSweepSpec(spec, origin)) {
        const SweepRecordView view = spec.record;
        const std::vector<SpecKnob> metrics =
            p.grid->metrics.empty() ? spec.metrics : p.grid->metrics;
        const ScenarioSpec point_spec = std::move(p.spec);
        sw.add(p.name, [point_spec, view, metrics] {
            return pointRecord(point_spec, view, metrics);
        });
    }
}

namespace
{

/** Set (or override) one axis binding. */
void
bindSet(SweepBinding &binding, const std::string &axis, std::size_t idx)
{
    for (auto &e : binding) {
        if (e.first == axis) {
            e.second = idx;
            return;
        }
    }
    binding.emplace_back(axis, idx);
}

/** Bindings from "axis=value" pairs (values validated earlier). */
void
bindPairs(const SweepSpec &spec, SweepBinding &binding,
          const std::vector<std::pair<std::string, std::string>> &pairs)
{
    for (const auto &[axis, value] : pairs)
        bindSet(binding, axis, spec.findAxis(axis)->indexOf(value));
}

/** The Record of the point at @p binding (null when filtered out). */
const Record *
pointRecord(const SweepSpec &spec, const Sweep &sw, const SweepGrid &g,
            const SweepBinding &binding, const std::string &origin)
{
    return sw.find(sweepPointName(spec, g, binding, origin));
}

/** Evaluate one cell; returns the text and whether the cell's own
 *  point was found (rows with no found point-cell are skipped, the
 *  sweep-wide --filter contract). */
std::pair<std::string, bool>
evalCell(const SweepSpec &spec, const Sweep &sw, const SweepGrid &g,
         const SweepBinding &row, const SweepCellSpec &cell,
         const Record *ref_rec, const std::string &origin)
{
    if (cell.op == "text") {
        return {sweepSubstitute(spec, cell.arg, row, origin, cell.line),
                false};
    }
    SweepBinding binding = row;
    bindPairs(spec, binding, cell.bind);
    const Record *rec = pointRecord(spec, sw, g, binding, origin);
    const bool found = rec != nullptr;
    if (cell.op == "num") {
        return {Table::num(rec, cell.arg,
                           cell.digits < 0 ? 2 : cell.digits),
                found};
    }
    if (cell.op == "pct") {
        return {rec ? Table::pct(rec->num(cell.arg),
                                 cell.digits < 0 ? 1 : cell.digits)
                    : std::string("-"),
                found};
    }
    if (cell.op == "rel") {
        if (rec == nullptr || ref_rec == nullptr)
            return {"-", found};
        return {Table::num(ratio(rec->num(cell.arg),
                                 ref_rec->num(cell.arg)),
                           cell.digits < 0 ? 2 : cell.digits),
                found};
    }
    // agg: geometric-mean relative performance vs the table ref.
    if (rec == nullptr || ref_rec == nullptr)
        return {"-", found};
    const ScenarioResult cur = scenarioResultFrom(*rec);
    const ScenarioResult base = scenarioResultFrom(*ref_rec);
    const std::optional<bool> filter =
        cell.arg == "hp"
            ? std::optional<bool>(true)
            : cell.arg == "lp" ? std::optional<bool>(false)
                               : std::nullopt;
    return {Table::num(ScenarioResult::avgRelative(cur, base, filter),
                       cell.digits < 0 ? 2 : cell.digits),
            found};
}

void
renderTable(const SweepSpec &spec, const Sweep &sw,
            const SweepOutput &o, const std::string &origin)
{
    const SweepTableSpec &t = o.table;
    const Record *ref_rec = nullptr;
    if (!t.ref_grid.empty()) {
        const SweepGrid *rg = spec.findGrid(t.ref_grid);
        SweepBinding b;
        bindPairs(spec, b, t.ref);
        ref_rec = pointRecord(spec, sw, *rg, b, origin);
    }

    Table table(t.headers);
    for (const SweepRowBlock &block : t.blocks) {
        const SweepGrid &g = *spec.findGrid(block.grid);
        std::vector<const SweepAxis *> axes;
        for (const std::string &name : block.axes)
            axes.push_back(spec.findAxis(name));
        std::vector<std::size_t> idx(axes.size(), 0);
        while (true) {
            SweepBinding row;
            bindPairs(spec, row, block.fix);
            for (std::size_t i = 0; i < axes.size(); ++i)
                bindSet(row, axes[i]->name, idx[i]);

            std::vector<std::string> cells;
            bool any_found = false;
            for (const SweepCellSpec &cell : block.cells) {
                auto [text, found] = evalCell(spec, sw, g, row, cell,
                                              ref_rec, origin);
                cells.push_back(std::move(text));
                any_found = any_found || found;
            }
            if (any_found)
                table.addRow(std::move(cells));

            bool done = true;
            for (std::size_t i = axes.size(); i-- > 0;) {
                if (++idx[i] < axes[i]->values.size()) {
                    done = false;
                    break;
                }
                idx[i] = 0;
            }
            if (done)
                break;
        }
    }
    table.print();
}

void
renderWorkloadTable(const SweepSpec &spec, const Sweep &sw,
                    const SweepOutput &o, const std::string &origin)
{
    const SweepWorkloadTable &w = o.wtable;
    const SweepGrid &g = *spec.findGrid(w.grid);
    const SweepAxis &sa = *spec.findAxis(w.scheme_axis);

    auto resultFor =
        [&](const std::string &value) -> std::optional<ScenarioResult> {
        SweepBinding b;
        bindPairs(spec, b, w.fix);
        bindSet(b, sa.name, sa.indexOf(value));
        if (const Record *rec = pointRecord(spec, sw, g, b, origin))
            return scenarioResultFrom(*rec);
        return std::nullopt;
    };

    std::vector<std::string> wanted{w.baseline};
    auto want = [&](const std::string &v) {
        if (v.empty())
            return;
        for (const std::string &have : wanted) {
            if (have == v)
                return;
        }
        wanted.push_back(v);
    };
    for (const std::string &c : w.columns)
        want(c);
    want(w.star);
    want(w.hit);

    std::vector<std::pair<std::string, std::optional<ScenarioResult>>>
        results;
    for (const std::string &v : wanted)
        results.emplace_back(v, resultFor(v));
    auto lookup = [&](const std::string &v)
        -> const std::optional<ScenarioResult> & {
        for (const auto &[name, r] : results) {
            if (name == v)
                return r;
        }
        static const std::optional<ScenarioResult> none;
        return none;
    };

    if (!lookup(w.baseline)) {
        // Every column is relative to the baseline; without it the
        // table is unprintable — but say so when other points did
        // run, instead of silently dropping their results.
        for (const auto &[name, r] : results) {
            if (r) {
                std::fputs(w.skip_text.c_str(), stdout);
                break;
            }
        }
        return;
    }
    const ScenarioResult &base = *lookup(w.baseline);

    if (!w.title.empty())
        std::fputs(w.title.c_str(), stdout);
    Table t(w.headers);
    for (const auto &wl : base.workloads) {
        auto rel = [&](const std::string &col) {
            const std::optional<ScenarioResult> &r = lookup(col);
            if (!r)
                return std::string("-");
            const WorkloadResult *res = r->find(wl.name);
            return Table::num(ratio(res ? res->perf : 0.0, wl.perf));
        };
        const WorkloadResult *d = nullptr;
        if (!w.star.empty() && lookup(w.star))
            d = lookup(w.star)->find(wl.name);
        std::vector<std::string> cells{
            wl.name + (d != nullptr && d->antagonist ? "*" : ""),
            wl.hpw ? "HP" : "LP"};
        for (const std::string &col : w.columns)
            cells.push_back(rel(col));
        if (!w.hit.empty()) {
            const WorkloadResult *h =
                lookup(w.hit) ? lookup(w.hit)->find(wl.name) : nullptr;
            cells.push_back(h != nullptr ? Table::pct(h->llc_hit_rate)
                                         : std::string("-"));
        }
        t.addRow(std::move(cells));
    }
    t.print();

    if (w.agg_headers.empty())
        return;
    Table avg(w.agg_headers);
    auto row = [&](const char *label, std::optional<bool> filter) {
        std::vector<std::string> cells{label};
        for (const std::string &col : w.columns) {
            const std::optional<ScenarioResult> &r = lookup(col);
            cells.push_back(
                r ? Table::num(
                        ScenarioResult::avgRelative(*r, base, filter))
                  : std::string("-"));
        }
        avg.addRow(cells);
    };
    row("Avg (HP)", true);
    row("Avg (LP)", false);
    row("Avg (all)", std::nullopt);
    avg.print();
}

void
renderNote(const Sweep &sw, const SweepOutput &o,
           const std::string &origin)
{
    const Record *rec = sw.find(o.point);
    if (rec == nullptr)
        return;
    std::string out;
    const std::string &tmpl = o.text;
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
        if (tmpl[i] != '{') {
            out += tmpl[i];
            continue;
        }
        const std::size_t close = tmpl.find('}', i);
        if (close == std::string::npos)
            fatal(sformat("%s:%u: unterminated '{' in note",
                          origin.c_str(), o.line));
        const std::string ref = tmpl.substr(i + 1, close - i - 1);
        const std::size_t colon = ref.find(':');
        char *end = nullptr;
        const long digits =
            colon == std::string::npos
                ? -1
                : std::strtol(ref.c_str() + colon + 1, &end, 10);
        if (colon == std::string::npos || end == nullptr ||
            *end != '\0' || digits < 0 || digits > 17)
            fatal(sformat("%s:%u: bad note placeholder '{%s}' (want "
                          "{metric:digits})", origin.c_str(), o.line,
                          ref.c_str()));
        out += sformat("%.*f", static_cast<int>(digits),
                       rec->num(ref.substr(0, colon)));
        i = close;
    }
    std::fputs(out.c_str(), stdout);
}

} // namespace

void
renderSweep(const SweepSpec &spec, const Sweep &sw)
{
    const std::string origin =
        spec.name.empty() ? "<sweep>" : spec.name;
    for (const SweepOutput &o : spec.outputs) {
        switch (o.kind) {
          case SweepOutput::Kind::Text:
            std::fputs(o.text.c_str(), stdout);
            break;
          case SweepOutput::Kind::Table:
            renderTable(spec, sw, o, origin);
            break;
          case SweepOutput::Kind::WorkloadTable:
            renderWorkloadTable(spec, sw, o, origin);
            break;
          case SweepOutput::Kind::Note:
            renderNote(sw, o, origin);
            break;
        }
    }
}

int
runSweepBench(const SweepSpec &spec, const std::string &bench, int argc,
              char **argv)
{
    setQuiet(true);
    Sweep sw(bench, argc, argv);
    expandSweep(spec, sw);
    sw.run();
    renderSweep(spec, sw);
    return sw.finish();
}

std::string
formatRegistryListing(const std::vector<RegistryLine> &rows)
{
    std::size_t name_w = 0;
    for (const RegistryLine &r : rows)
        name_w = std::max(name_w, r.name.size());
    std::string out;
    for (const RegistryLine &r : rows) {
        out += sformat("%-*s  %4zu pt  %s\n",
                       static_cast<int>(name_w), r.name.c_str(),
                       r.points, r.summary.c_str());
    }
    return out;
}

} // namespace a4
