#include "harness/spec.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "harness/builders.hh"
#include "harness/checkpoint.hh"
#include "harness/fleet.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace a4
{

namespace
{

// --------------------------------------------------------------------
// Value codecs: canonical text forms and full-string parsers. Doubles
// use C99 hex floats (%a) so serialization is bit-exact; the parsers
// also accept plain decimal for hand-written specs.

std::string
fmtU64(std::uint64_t v)
{
    return sformat("%llu", static_cast<unsigned long long>(v));
}

std::string
fmtNum(double v)
{
    return sformat("%a", v);
}

std::string
fmtBool(bool v)
{
    return v ? "1" : "0";
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseNum(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "1" || s == "true" || s == "on") {
        out = true;
        return true;
    }
    if (s == "0" || s == "false" || s == "off") {
        out = false;
        return true;
    }
    return false;
}

/** Error prefixed with origin:line when the source is known. */
[[noreturn]] void
specErr(const std::string &origin, unsigned line, const std::string &msg)
{
    if (line > 0)
        fatal(sformat("%s:%u: %s", origin.c_str(), line, msg.c_str()));
    if (!origin.empty())
        fatal(origin + ": " + msg);
    fatal(msg);
}

// --------------------------------------------------------------------
// Workload-kind registry: knob schemas + factories. The factories
// reproduce the builders.hh construction paths exactly — workload
// ids, cores, device ports, and address-map labels all allocate in
// the same order for the same knobs, which is what makes canonical
// specs bit-identical to the historical hand-wired scenarios.

using BuiltMap = std::unordered_map<std::string, Workload *>;

struct KnobDef
{
    const char *key;
    char type; ///< 'u' unsigned, 'd' double, 'b' bool, 's' string
};

struct KindDef
{
    const char *kind;
    bool multithread_io; ///< §7.2 perf rule: throughput vs IPC
    bool is_io;          ///< drives a PCIe device (per-port DCA knob)
    std::vector<KnobDef> knobs;
    Workload &(*build)(Testbed &, const WorkloadSpec &, BuiltMap &);
};

NicConfig
nicConfigFromKnobs(const WorkloadSpec &w)
{
    NicConfig nc;
    nc.packet_bytes = w.u32("packet_bytes", nc.packet_bytes);
    nc.offered_gbps = w.num("offered_gbps", nc.offered_gbps);
    nc.num_queues = w.u32("num_queues", nc.num_queues);
    nc.ring_entries = w.u32("ring_entries", nc.ring_entries);
    nc.poisson = w.flag("poisson", nc.poisson);
    nc.seed = w.u64("seed", nc.seed);
    return nc;
}

Workload &
buildDpdk(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    // per_packet_cpu_ns is a nominal per-unit CPU cost; like every
    // fixed per-unit cost it multiplies by the scale (scaling.hh).
    std::optional<double> cpu_ns;
    if (w.find("per_packet_cpu_ns") != nullptr)
        cpu_ns = w.num("per_packet_cpu_ns", 0.0) * bed.config().scale;
    return addDpdk(bed, w.name, w.flag("touch", true),
                   nicConfigFromKnobs(w), cpu_ns);
}

Workload &
buildFastclick(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    std::optional<double> cpu_ns;
    if (w.find("per_packet_cpu_ns") != nullptr)
        cpu_ns = w.num("per_packet_cpu_ns", 0.0) * bed.config().scale;
    return addFastclick(bed, w.name, nicConfigFromKnobs(w), cpu_ns);
}

Workload &
buildFio(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    const unsigned scale = bed.config().scale;

    SsdConfig sc;
    sc.link_bw_bps = w.num("link_bw_bps", sc.link_bw_bps);
    sc.parallelism = w.u32("parallelism", sc.parallelism);

    FioConfig fc;
    const std::string profile = w.str("profile", "");
    if (profile == "ffsb-heavy") {
        fc = ffsbHeavyConfig(scale);
    } else if (profile == "ffsb-light") {
        fc = ffsbLightConfig(scale);
    } else if (!profile.empty()) {
        fatal(sformat("workload '%s': unknown fio profile '%s' (want "
                      "ffsb-heavy or ffsb-light)",
                      w.name.c_str(), profile.c_str()));
    } else {
        fc = scaledFioConfig(w.u64("block_bytes", 128 * kKiB), scale);
    }
    // block_bytes is always nominal (paper) bytes; with a profile it
    // overrides the profile's block.
    if (!profile.empty() && w.find("block_bytes") != nullptr)
        fc.block_bytes = scaleBytes(w.u64("block_bytes", 0), scale);
    // regex_ns_per_line is nominal per-line cost; like every fixed
    // per-unit CPU cost it multiplies by the scale (see scaling.hh).
    if (w.find("regex_ns_per_line") != nullptr)
        fc.regex_ns_per_line = w.num("regex_ns_per_line", 0.0) * scale;
    fc.num_jobs = w.u32("num_jobs", fc.num_jobs);
    fc.iodepth = w.u32("iodepth", fc.iodepth);
    fc.write_mix = w.num("write_mix", fc.write_mix);
    fc.consume = w.flag("consume", fc.consume);
    fc.seed = w.u64("seed", fc.seed);
    return addFioCustom(bed, w.name, fc, sc);
}

Workload &
buildMemcached(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    const unsigned scale = bed.config().scale;
    MemcachedConfig mc;
    // Like the Redis store, the record count scales (keeping the
    // value size) so the store stays LLC-commensurate; num_keys is
    // nominal (paper) records, default ~64 MiB of 1 KiB values.
    mc.num_keys = scaledRedisKeys(w.u64("num_keys", 65536), scale);
    mc.value_bytes = w.u32("value_bytes", mc.value_bytes);
    mc.get_ratio = w.num("get_ratio", mc.get_ratio);
    mc.per_op_cpu_ns = w.num("per_op_cpu_ns", mc.per_op_cpu_ns) * scale;
    mc.seed = w.u64("seed", mc.seed);
    return addMemcached(bed, w.name, nicConfigFromKnobs(w), mc);
}

Workload &
buildStorageServer(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    const unsigned scale = bed.config().scale;

    SsdConfig sc;
    sc.link_bw_bps = w.num("link_bw_bps", sc.link_bw_bps);
    sc.parallelism = w.u32("parallelism", sc.parallelism);

    StorageServerConfig ss;
    // Block size and iodepth come from the ffsb profiles (already
    // machine-scale, like fio's profile knob); explicit block_bytes
    // is nominal (paper) bytes and overrides the profile's block.
    const std::string profile = w.str("profile", "");
    if (profile == "ffsb-heavy") {
        const FioConfig fc = ffsbHeavyConfig(scale);
        ss.block_bytes = fc.block_bytes;
        ss.iodepth = fc.iodepth;
    } else if (profile == "ffsb-light") {
        const FioConfig fc = ffsbLightConfig(scale);
        ss.block_bytes = fc.block_bytes;
        ss.iodepth = fc.iodepth;
    } else if (!profile.empty()) {
        fatal(sformat("workload '%s': unknown storage-server profile "
                      "'%s' (want ffsb-heavy or ffsb-light)",
                      w.name.c_str(), profile.c_str()));
    } else {
        ss.block_bytes = scaleBytes(w.u64("block_bytes", 128 * kKiB),
                                    scale);
    }
    if (!profile.empty() && w.find("block_bytes") != nullptr)
        ss.block_bytes = scaleBytes(w.u64("block_bytes", 0), scale);
    // Like the memcached store, the record count scales (keeping the
    // block size) so the map stays LLC-commensurate.
    ss.num_keys = scaledRedisKeys(w.u64("num_keys", 16384), scale);
    ss.get_ratio = w.num("get_ratio", ss.get_ratio);
    ss.mem_frac = w.num("mem_frac", ss.mem_frac);
    ss.per_op_cpu_ns = w.num("per_op_cpu_ns", ss.per_op_cpu_ns) * scale;
    ss.zipf_theta = w.num("zipf_theta", ss.zipf_theta);
    ss.iodepth = w.u32("iodepth", ss.iodepth);
    ss.ack_bytes = w.u32("ack_bytes", ss.ack_bytes);
    ss.seed = w.u64("seed", ss.seed);
    return addStorageServer(bed, w.name, ss, nicConfigFromKnobs(w), sc);
}

Workload &
buildXmem(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    const unsigned variant = w.u32("variant", 1);
    const unsigned n_cores = w.u32("cores", 2);
    CpuStreamConfig cfg =
        scaledCpuStream(xmemConfig(variant), bed.config().scale);
    cfg.seed = w.u64("seed", cfg.seed);
    auto wl = std::make_unique<CpuStreamWorkload>(
        w.name, bed.allocWorkloadId(), bed.allocCores(n_cores),
        bed.engine(), bed.cache(), bed.addrs(), cfg);
    return bed.adopt(std::move(wl));
}

Workload &
buildSpecCpu(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    const std::string bench = w.str("bench", w.name);
    CpuStreamConfig cfg = scaledCpuStream(specConfig(bench), 1);
    cfg.ws_bytes =
        scaleBytes(specProfile(bench).ws_bytes, bed.config().scale);
    cfg.cpi_base = specProfile(bench).cpi_base * bed.config().scale;
    auto wl = std::make_unique<CpuStreamWorkload>(
        w.name, bed.allocWorkloadId(), bed.allocCores(1), bed.engine(),
        bed.cache(), bed.addrs(), cfg);
    return bed.adopt(std::move(wl));
}

RedisConfig
redisConfigFromKnobs(Testbed &bed, const WorkloadSpec &w)
{
    const unsigned scale = bed.config().scale;
    RedisConfig cfg = scaledRedisConfig(scale);
    if (w.find("num_keys") != nullptr)
        cfg.num_keys = scaledRedisKeys(w.u64("num_keys", 0), scale);
    cfg.value_bytes = w.u32("value_bytes", cfg.value_bytes);
    cfg.seed = w.u64("seed", cfg.seed);
    return cfg;
}

Workload &
buildRedisServer(Testbed &bed, const WorkloadSpec &w, BuiltMap &)
{
    auto srv = std::make_unique<RedisServer>(
        w.name, bed.allocWorkloadId(), bed.allocCores(1)[0],
        bed.engine(), bed.cache(), bed.addrs(),
        redisConfigFromKnobs(bed, w));
    return bed.adopt(std::move(srv));
}

Workload &
buildRedisClient(Testbed &bed, const WorkloadSpec &w, BuiltMap &built)
{
    const std::string server = w.str("server", "");
    auto it = built.find(server);
    if (server.empty() || it == built.end()) {
        fatal(sformat("workload '%s': redis-client needs server=<name> "
                      "of a redis-server built before it (build order)",
                      w.name.c_str()));
    }
    auto *srv = dynamic_cast<RedisServer *>(it->second);
    if (srv == nullptr) {
        fatal(sformat("workload '%s': server '%s' is not a "
                      "redis-server", w.name.c_str(), server.c_str()));
    }
    // The client's config should mirror the server's; with equal
    // knobs both derive the identical scaled configuration.
    auto cli = std::make_unique<RedisClient>(
        w.name, bed.allocWorkloadId(), bed.allocCores(1)[0],
        bed.engine(), bed.cache(), bed.addrs(), *srv,
        redisConfigFromKnobs(bed, w));
    return bed.adopt(std::move(cli));
}

const std::vector<KindDef> &
kinds()
{
    static const std::vector<KindDef> defs = {
        {"dpdk", true, true,
         {{"packet_bytes", 'u'}, {"offered_gbps", 'd'},
          {"num_queues", 'u'}, {"ring_entries", 'u'}, {"touch", 'b'},
          {"poisson", 'b'}, {"per_packet_cpu_ns", 'd'}, {"seed", 'u'}},
         buildDpdk},
        {"fastclick", true, true,
         {{"packet_bytes", 'u'}, {"offered_gbps", 'd'},
          {"num_queues", 'u'}, {"ring_entries", 'u'}, {"poisson", 'b'},
          {"per_packet_cpu_ns", 'd'}, {"seed", 'u'}},
         buildFastclick},
        {"fio", true, true,
         {{"profile", 's'}, {"block_bytes", 'u'}, {"num_jobs", 'u'},
          {"iodepth", 'u'}, {"write_mix", 'd'},
          {"regex_ns_per_line", 'd'}, {"consume", 'b'}, {"seed", 'u'},
          {"link_bw_bps", 'd'}, {"parallelism", 'u'}},
         buildFio},
        {"memcached-udp", true, true,
         {{"packet_bytes", 'u'}, {"offered_gbps", 'd'},
          {"num_queues", 'u'}, {"ring_entries", 'u'}, {"poisson", 'b'},
          {"value_bytes", 'u'}, {"get_ratio", 'd'}, {"num_keys", 'u'},
          {"per_op_cpu_ns", 'd'}, {"seed", 'u'}},
         buildMemcached},
        {"storage-server", true, true,
         {{"packet_bytes", 'u'}, {"offered_gbps", 'd'},
          {"num_queues", 'u'}, {"ring_entries", 'u'}, {"poisson", 'b'},
          {"profile", 's'}, {"block_bytes", 'u'}, {"num_keys", 'u'},
          {"get_ratio", 'd'}, {"mem_frac", 'd'}, {"per_op_cpu_ns", 'd'},
          {"zipf_theta", 'd'}, {"iodepth", 'u'}, {"ack_bytes", 'u'},
          {"seed", 'u'}, {"link_bw_bps", 'd'}, {"parallelism", 'u'}},
         buildStorageServer},
        {"xmem", false, false,
         {{"variant", 'u'}, {"cores", 'u'}, {"seed", 'u'}},
         buildXmem},
        {"spec", false, false, {{"bench", 's'}}, buildSpecCpu},
        {"redis-server", false, false,
         {{"num_keys", 'u'}, {"value_bytes", 'u'}, {"seed", 'u'}},
         buildRedisServer},
        {"redis-client", false, false,
         {{"server", 's'}, {"num_keys", 'u'}, {"value_bytes", 'u'},
          {"seed", 'u'}},
         buildRedisClient},
    };
    return defs;
}

const KindDef *
findKind(const std::string &kind)
{
    for (const KindDef &k : kinds()) {
        if (kind == k.kind)
            return &k;
    }
    return nullptr;
}

// --------------------------------------------------------------------
// A4Params field table (the a4.* override block).

struct A4FieldNum
{
    const char *key;
    double A4Params::*member;
};

struct A4FieldU64
{
    const char *key;
    std::uint64_t A4Params::*member;
};

struct A4FieldU32
{
    const char *key;
    unsigned A4Params::*member;
};

struct A4FieldTick
{
    const char *key;
    Tick A4Params::*member;
};

struct A4FieldBool
{
    const char *key;
    bool A4Params::*member;
};

constexpr A4FieldNum kA4Nums[] = {
    {"t1", &A4Params::hpw_llc_hit_thr},
    {"t2", &A4Params::dmalk_dca_ms_thr},
    {"t3", &A4Params::dmalk_io_tp_thr},
    {"t4", &A4Params::dmalk_llc_ms_thr},
    {"t5", &A4Params::ant_cache_miss_thr},
    {"stability_fluct", &A4Params::stability_fluct},
    {"restore_fluct", &A4Params::restore_fluct},
};

constexpr A4FieldTick kA4Ticks[] = {
    {"monitor_interval_ns", &A4Params::monitor_interval},
};

constexpr A4FieldU32 kA4U32s[] = {
    {"expand_period", &A4Params::expand_period},
    {"stable_intervals", &A4Params::stable_intervals},
    {"revert_intervals", &A4Params::revert_intervals},
};

constexpr A4FieldU64 kA4U64s[] = {
    {"min_dma_lines", &A4Params::min_dma_lines},
    {"min_accesses", &A4Params::min_accesses},
};

constexpr A4FieldBool kA4Bools[] = {
    {"enable_revert", &A4Params::enable_revert},
    {"safeguard_io", &A4Params::safeguard_io},
    {"selective_ddio", &A4Params::selective_ddio},
    {"pseudo_bypass", &A4Params::pseudo_bypass},
    {"per_tenant_clos", &A4Params::per_tenant_clos},
};

/** Set one a4.* field; false when @p key is unknown. */
bool
setA4Field(A4Params &p, const std::string &key, const std::string &value,
           const std::string &origin, unsigned line)
{
    for (const auto &f : kA4Nums) {
        if (key == f.key) {
            double v;
            if (!parseNum(value, v))
                specErr(origin, line,
                        sformat("bad value '%s' for a4.%s (want a "
                                "number)", value.c_str(), f.key));
            p.*f.member = v;
            return true;
        }
    }
    for (const auto &f : kA4Ticks) {
        if (key == f.key) {
            std::uint64_t v;
            if (!parseU64(value, v))
                specErr(origin, line,
                        sformat("bad value '%s' for a4.%s (want an "
                                "unsigned integer)", value.c_str(),
                                f.key));
            p.*f.member = static_cast<Tick>(v);
            return true;
        }
    }
    for (const auto &f : kA4U32s) {
        if (key == f.key) {
            std::uint64_t v;
            if (!parseU64(value, v) || v > 0xFFFFFFFFull)
                specErr(origin, line,
                        sformat("bad value '%s' for a4.%s (want an "
                                "unsigned 32-bit integer)",
                                value.c_str(), f.key));
            p.*f.member = static_cast<unsigned>(v);
            return true;
        }
    }
    for (const auto &f : kA4U64s) {
        if (key == f.key) {
            std::uint64_t v;
            if (!parseU64(value, v))
                specErr(origin, line,
                        sformat("bad value '%s' for a4.%s (want an "
                                "unsigned integer)", value.c_str(),
                                f.key));
            p.*f.member = v;
            return true;
        }
    }
    for (const auto &f : kA4Bools) {
        if (key == f.key) {
            bool v;
            if (!parseBool(value, v))
                specErr(origin, line,
                        sformat("bad value '%s' for a4.%s (want 0/1)",
                                value.c_str(), f.key));
            p.*f.member = v;
            return true;
        }
    }
    return false;
}

void
serializeA4(std::ostringstream &out, const A4Params &p)
{
    for (const auto &f : kA4Nums)
        out << "a4." << f.key << " = " << fmtNum(p.*f.member) << "\n";
    for (const auto &f : kA4Ticks)
        out << "a4." << f.key << " = " << fmtU64(p.*f.member) << "\n";
    for (const auto &f : kA4U32s)
        out << "a4." << f.key << " = " << fmtU64(p.*f.member) << "\n";
    for (const auto &f : kA4U64s)
        out << "a4." << f.key << " = " << fmtU64(p.*f.member) << "\n";
    for (const auto &f : kA4Bools)
        out << "a4." << f.key << " = " << fmtBool(p.*f.member) << "\n";
}

/** Default A4 parameters for scenario runs (compressed intervals) —
 *  the historical hand-wired micro / real-world scenario values. */
A4Params
scenarioA4Defaults()
{
    A4Params p;
    p.monitor_interval = 5 * kMsec;
    p.min_accesses = 500;
    p.min_dma_lines = 500;
    return p;
}

bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            return false;
    }
    return true;
}

/**
 * Structural validation shared by parseSpec() (with the source
 * origin) and runSpec() (with the spec name): kinds exist, every
 * knob belongs to its kind's schema and parses as the declared type.
 */
void
validateSpec(const ScenarioSpec &spec, const std::string &origin)
{
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        const WorkloadSpec &w = spec.workloads[i];
        for (std::size_t j = i + 1; j < spec.workloads.size(); ++j) {
            if (spec.workloads[j].name == w.name)
                specErr(origin, spec.workloads[j].line,
                        sformat("duplicate workload '%s'",
                                w.name.c_str()));
        }
        if (w.kind.empty())
            specErr(origin, w.line,
                    sformat("workload '%s' has no kind",
                            w.name.c_str()));
        const KindDef *kd = findKind(w.kind);
        if (kd == nullptr)
            specErr(origin, w.line,
                    sformat("workload '%s': unknown kind '%s'",
                            w.name.c_str(), w.kind.c_str()));
        if (!w.dca && !kd->is_io)
            specErr(origin, w.line,
                    sformat("workload '%s': %s.dca applies only to "
                            "I/O-device kinds, not '%s'",
                            w.name.c_str(), w.name.c_str(),
                            w.kind.c_str()));
        if (w.replicate > 1) {
            // Replicas are positioned by the expansion itself; an
            // explicit rank or way pin cannot apply to all N.
            if (w.pin)
                specErr(origin, w.line,
                        sformat("workload '%s': pin and replicate > 1 "
                                "cannot combine", w.name.c_str()));
            if (w.build >= 0)
                specErr(origin, w.line,
                        sformat("workload '%s': an explicit build "
                                "rank and replicate > 1 cannot "
                                "combine", w.name.c_str()));
        }
        for (const SpecKnob &k : w.steps) {
            const KnobDef *def = nullptr;
            for (const KnobDef &cand : kd->knobs) {
                if (k.key == cand.key) {
                    def = &cand;
                    break;
                }
            }
            if (def == nullptr)
                specErr(origin, k.line,
                        sformat("unknown knob '%s.step.%s' for kind "
                                "'%s'", w.name.c_str(), k.key.c_str(),
                                w.kind.c_str()));
            if (def->type != 'u' && def->type != 'd')
                specErr(origin, k.line,
                        sformat("'%s.step.%s': knob '%s' is not "
                                "numeric", w.name.c_str(),
                                k.key.c_str(), k.key.c_str()));
            double d;
            if (!parseNum(k.value, d))
                specErr(origin, k.line,
                        sformat("bad value '%s' for '%s.step.%s' "
                                "(want a number)", k.value.c_str(),
                                w.name.c_str(), k.key.c_str()));
            if (def->type == 'u' &&
                (d != static_cast<double>(
                          static_cast<std::int64_t>(d))))
                specErr(origin, k.line,
                        sformat("bad value '%s' for '%s.step.%s' "
                                "(want an integer offset for an "
                                "integer knob)", k.value.c_str(),
                                w.name.c_str(), k.key.c_str()));
            // Offsets apply against an explicit base; stepping a
            // builder default would leave replica 0 on the default
            // and the rest counting up from zero.
            if (w.replicate > 1 && w.find(k.key) == nullptr)
                specErr(origin, k.line,
                        sformat("'%s.step.%s' needs an explicit base "
                                "'%s.%s = ...'", w.name.c_str(),
                                k.key.c_str(), w.name.c_str(),
                                k.key.c_str()));
        }
        for (const SpecKnob &k : w.knobs) {
            const KnobDef *def = nullptr;
            for (const KnobDef &cand : kd->knobs) {
                if (k.key == cand.key) {
                    def = &cand;
                    break;
                }
            }
            if (def == nullptr)
                specErr(origin, k.line,
                        sformat("unknown knob '%s.%s' for kind '%s'",
                                w.name.c_str(), k.key.c_str(),
                                w.kind.c_str()));
            bool ok = true;
            std::uint64_t u;
            double d;
            bool b;
            const char *want = "";
            switch (def->type) {
              case 'u':
                ok = parseU64(k.value, u);
                want = "an unsigned integer";
                break;
              case 'd':
                ok = parseNum(k.value, d);
                want = "a number";
                break;
              case 'b':
                ok = parseBool(k.value, b);
                want = "a boolean (0/1)";
                break;
              case 's':
                break;
            }
            if (!ok)
                specErr(origin, k.line,
                        sformat("bad value '%s' for '%s.%s' (want %s)",
                                k.value.c_str(), w.name.c_str(),
                                k.key.c_str(), want));
        }
    }
}

} // namespace

// --------------------------------------------------------------------
// WorkloadSpec / ScenarioSpec

void
WorkloadSpec::set(const std::string &key, std::uint64_t v)
{
    set(key, fmtU64(v));
}

void
WorkloadSpec::set(const std::string &key, double v)
{
    set(key, fmtNum(v));
}

void
WorkloadSpec::set(const std::string &key, const std::string &v)
{
    for (SpecKnob &k : knobs) {
        if (k.key == key) {
            k.value = v;
            return;
        }
    }
    knobs.push_back(SpecKnob{key, v, 0});
}

const SpecKnob *
WorkloadSpec::find(const std::string &key) const
{
    for (const SpecKnob &k : knobs) {
        if (k.key == key)
            return &k;
    }
    return nullptr;
}

std::uint64_t
WorkloadSpec::u64(const std::string &key, std::uint64_t dflt) const
{
    const SpecKnob *k = find(key);
    if (k == nullptr)
        return dflt;
    std::uint64_t v;
    if (!parseU64(k->value, v))
        specErr("", k->line,
                sformat("workload '%s': bad value '%s' for '%s' (want "
                        "an unsigned integer)", name.c_str(),
                        k->value.c_str(), key.c_str()));
    return v;
}

unsigned
WorkloadSpec::u32(const std::string &key, unsigned dflt) const
{
    const std::uint64_t v = u64(key, dflt);
    if (v > 0xFFFFFFFFull) {
        const SpecKnob *k = find(key);
        specErr("", k != nullptr ? k->line : 0,
                sformat("workload '%s': value %llu for '%s' exceeds "
                        "32 bits", name.c_str(),
                        static_cast<unsigned long long>(v),
                        key.c_str()));
    }
    return static_cast<unsigned>(v);
}

double
WorkloadSpec::num(const std::string &key, double dflt) const
{
    const SpecKnob *k = find(key);
    if (k == nullptr)
        return dflt;
    double v;
    if (!parseNum(k->value, v))
        specErr("", k->line,
                sformat("workload '%s': bad value '%s' for '%s' (want "
                        "a number)", name.c_str(), k->value.c_str(),
                        key.c_str()));
    return v;
}

bool
WorkloadSpec::flag(const std::string &key, bool dflt) const
{
    const SpecKnob *k = find(key);
    if (k == nullptr)
        return dflt;
    bool v;
    if (!parseBool(k->value, v))
        specErr("", k->line,
                sformat("workload '%s': bad value '%s' for '%s' (want "
                        "0/1)", name.c_str(), k->value.c_str(),
                        key.c_str()));
    return v;
}

std::string
WorkloadSpec::str(const std::string &key, const std::string &dflt) const
{
    const SpecKnob *k = find(key);
    return k != nullptr ? k->value : dflt;
}

WorkloadSpec &
ScenarioSpec::add(const std::string &wl_name, const std::string &kind,
                  bool hpw)
{
    if (findWorkload(wl_name) != nullptr)
        fatal(sformat("ScenarioSpec: duplicate workload '%s'",
                      wl_name.c_str()));
    if (!validName(wl_name) || wl_name == "a4")
        fatal(sformat("ScenarioSpec: invalid workload name '%s'",
                      wl_name.c_str()));
    WorkloadSpec w;
    w.name = wl_name;
    w.kind = kind;
    w.hpw = hpw;
    workloads.push_back(std::move(w));
    return workloads.back();
}

WorkloadSpec *
ScenarioSpec::findWorkload(const std::string &wl_name)
{
    for (WorkloadSpec &w : workloads) {
        if (w.name == wl_name)
            return &w;
    }
    return nullptr;
}

const WorkloadSpec *
ScenarioSpec::findWorkload(const std::string &wl_name) const
{
    return const_cast<ScenarioSpec *>(this)->findWorkload(wl_name);
}

// --------------------------------------------------------------------
// Text codec

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Apply one "key = value" assignment (shared by the parser and
 *  applySpecOverride). */
void
applyAssignment(ScenarioSpec &spec, const std::string &key,
                const std::string &value, const std::string &origin,
                unsigned line)
{
    const std::size_t dot = key.find('.');
    if (dot == std::string::npos) {
        if (key == "name") {
            spec.name = value;
        } else if (key == "scheme") {
            std::optional<Scheme> s = schemeFromName(value);
            if (!s)
                specErr(origin, line,
                        sformat("unknown scheme '%s' (want Default, "
                                "Isolate, or A4-a..A4-d)",
                                value.c_str()));
            spec.scheme = *s;
        } else if (key == "warmup_ns" || key == "measure_ns") {
            std::uint64_t v;
            if (!parseU64(value, v) || v == 0)
                specErr(origin, line,
                        sformat("bad value '%s' for %s (want a "
                                "positive integer of nanoseconds)",
                                value.c_str(), key.c_str()));
            (key == "warmup_ns" ? spec.windows.warmup
                                : spec.windows.measure) =
                static_cast<Tick>(v);
        } else if (key == "dca") {
            bool v;
            if (!parseBool(value, v))
                specErr(origin, line,
                        sformat("bad value '%s' for dca (want 0/1, "
                                "the global BIOS knob)", value.c_str()));
            spec.bios_dca = v;
        } else if (key == "replacement") {
            if (value != "lru" && value != "srrip")
                specErr(origin, line,
                        sformat("unknown replacement policy '%s' "
                                "(want lru or srrip)", value.c_str()));
            spec.replacement = value;
        } else if (key == "cores") {
            std::uint64_t v;
            if (!parseU64(value, v) || v == 0 || v > 4096)
                specErr(origin, line,
                        sformat("bad value '%s' for cores (want a "
                                "core budget in 1..4096)",
                                value.c_str()));
            spec.cores = static_cast<unsigned>(v);
        } else if (key == "workload") {
            if (!validName(value) || value == "a4")
                specErr(origin, line,
                        sformat("invalid workload name '%s' (want "
                                "[A-Za-z0-9_-]+, not 'a4')",
                                value.c_str()));
            if (spec.findWorkload(value) != nullptr)
                specErr(origin, line,
                        sformat("duplicate workload '%s'",
                                value.c_str()));
            WorkloadSpec w;
            w.name = value;
            w.line = line;
            spec.workloads.push_back(std::move(w));
        } else if (key == "drop") {
            bool found = false;
            for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
                if (spec.workloads[i].name == value) {
                    spec.workloads.erase(spec.workloads.begin() +
                                         static_cast<long>(i));
                    found = true;
                    break;
                }
            }
            if (!found)
                specErr(origin, line,
                        sformat("drop: no workload '%s' to remove",
                                value.c_str()));
        } else {
            specErr(origin, line,
                    sformat("unknown key '%s' (want name, scheme, dca, "
                            "replacement, cores, warmup_ns, "
                            "measure_ns, workload, drop, a4.*, or "
                            "<workload>.*)", key.c_str()));
        }
        return;
    }

    const std::string prefix = key.substr(0, dot);
    const std::string sub = key.substr(dot + 1);
    if (prefix.empty() || sub.empty())
        specErr(origin, line, sformat("malformed key '%s'", key.c_str()));

    if (prefix == "a4") {
        A4Params p = spec.a4 ? *spec.a4 : scenarioA4Defaults();
        if (!setA4Field(p, sub, value, origin, line))
            specErr(origin, line,
                    sformat("unknown A4 parameter 'a4.%s'",
                            sub.c_str()));
        spec.a4 = p;
        return;
    }

    WorkloadSpec *w = spec.findWorkload(prefix);
    if (w == nullptr)
        specErr(origin, line,
                sformat("workload '%s' not declared (add 'workload = "
                        "%s' first)", prefix.c_str(), prefix.c_str()));

    if (sub == "kind") {
        if (findKind(value) == nullptr)
            specErr(origin, line,
                    sformat("unknown kind '%s' for workload '%s'",
                            value.c_str(), prefix.c_str()));
        w->kind = value;
    } else if (sub == "hpw") {
        bool v;
        if (!parseBool(value, v))
            specErr(origin, line,
                    sformat("bad value '%s' for %s.hpw (want 0/1)",
                            value.c_str(), prefix.c_str()));
        w->hpw = v;
    } else if (sub == "dca") {
        bool v;
        if (!parseBool(value, v))
            specErr(origin, line,
                    sformat("bad value '%s' for %s.dca (want 0/1, the "
                            "per-port DDIO knob)", value.c_str(),
                            prefix.c_str()));
        w->dca = v;
    } else if (sub == "build") {
        std::uint64_t v;
        if (!parseU64(value, v) || v > 0x7FFFFFFFull)
            specErr(origin, line,
                    sformat("bad value '%s' for %s.build (want an "
                            "unsigned construction rank)",
                            value.c_str(), prefix.c_str()));
        w->build = static_cast<int>(v);
    } else if (sub == "pin") {
        unsigned lo = 0, hi = 0;
        const std::size_t colon = value.find(':');
        std::uint64_t a, b;
        bool ok = colon != std::string::npos &&
                  parseU64(value.substr(0, colon), a) &&
                  parseU64(value.substr(colon + 1), b) && a <= b &&
                  b <= 0xFFFFFFFFull;
        if (ok) {
            lo = static_cast<unsigned>(a);
            hi = static_cast<unsigned>(b);
        } else {
            specErr(origin, line,
                    sformat("bad value '%s' for %s.pin (want "
                            "\"lo:hi\" ways, lo <= hi)",
                            value.c_str(), prefix.c_str()));
        }
        w->pin = std::make_pair(lo, hi);
    } else if (sub == "replicate") {
        std::uint64_t v;
        if (!parseU64(value, v) || v == 0 || v > 1024)
            specErr(origin, line,
                    sformat("bad value '%s' for %s.replicate (want a "
                            "tenant count in 1..1024)", value.c_str(),
                            prefix.c_str()));
        w->replicate = static_cast<unsigned>(v);
    } else if (sub.rfind("step.", 0) == 0) {
        const std::string knob = sub.substr(5);
        if (knob.empty())
            specErr(origin, line,
                    sformat("malformed key '%s'", key.c_str()));
        // A per-replica offset; the schema/numeric check runs with
        // the rest of the validation once the kind is known.
        for (SpecKnob &k : w->steps) {
            if (k.key == knob) {
                k.value = value;
                k.line = line;
                return;
            }
        }
        w->steps.push_back(SpecKnob{knob, value, line});
    } else {
        // A kind knob; the schema/type check runs once the whole
        // spec (and therefore the kind) is known.
        for (SpecKnob &k : w->knobs) {
            if (k.key == sub) {
                k.value = value;
                k.line = line;
                return;
            }
        }
        w->knobs.push_back(SpecKnob{sub, value, line});
    }
}

} // namespace

ScenarioSpec
parseSpec(const std::string &text, const std::string &origin)
{
    ScenarioSpec spec;
    spec.windows = Windows{250 * kMsec, 100 * kMsec};

    std::istringstream in(text);
    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const std::string s = trim(raw);
        if (s.empty() || s[0] == '#')
            continue;
        const std::size_t eq = s.find('=');
        if (eq == std::string::npos)
            specErr(origin, line,
                    sformat("expected 'key = value', got '%s'",
                            s.c_str()));
        const std::string key = trim(s.substr(0, eq));
        const std::string value = trim(s.substr(eq + 1));
        if (key.empty())
            specErr(origin, line, "empty key");
        if (value.empty())
            specErr(origin, line,
                    sformat("empty value for '%s'", key.c_str()));
        applyAssignment(spec, key, value, origin, line);
    }
    validateSpec(spec, origin);
    return spec;
}

ScenarioSpec
loadSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal(sformat("cannot read spec file '%s'", path.c_str()));
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseSpec(ss.str(), path);
}

std::string
serializeSpec(const ScenarioSpec &spec)
{
    std::ostringstream out;
    out << "# a4 scenario spec\n";
    if (!spec.name.empty())
        out << "name = " << spec.name << "\n";
    out << "scheme = " << schemeName(spec.scheme) << "\n";
    if (!spec.bios_dca)
        out << "dca = 0\n";
    if (!spec.replacement.empty())
        out << "replacement = " << spec.replacement << "\n";
    if (spec.cores != 0)
        out << "cores = " << spec.cores << "\n";
    out << "warmup_ns = " << fmtU64(spec.windows.warmup) << "\n";
    out << "measure_ns = " << fmtU64(spec.windows.measure) << "\n";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        const WorkloadSpec &w = spec.workloads[i];
        out << "\nworkload = " << w.name << "\n";
        out << w.name << ".kind = " << w.kind << "\n";
        out << w.name << ".hpw = " << fmtBool(w.hpw) << "\n";
        if (!w.dca)
            out << w.name << ".dca = 0\n";
        if (w.build >= 0 && w.build != static_cast<int>(i))
            out << w.name << ".build = " << w.build << "\n";
        if (w.pin) {
            out << w.name << ".pin = " << w.pin->first << ":"
                << w.pin->second << "\n";
        }
        if (w.replicate != 1)
            out << w.name << ".replicate = " << w.replicate << "\n";
        for (const SpecKnob &k : w.steps)
            out << w.name << ".step." << k.key << " = " << k.value
                << "\n";
        for (const SpecKnob &k : w.knobs)
            out << w.name << "." << k.key << " = " << k.value << "\n";
    }
    if (spec.a4) {
        out << "\n";
        serializeA4(out, *spec.a4);
    }
    return out.str();
}

ScenarioSpec
expandReplicas(const ScenarioSpec &spec)
{
    bool any = false;
    for (const WorkloadSpec &w : spec.workloads)
        any = any || w.replicate > 1;
    if (!any)
        return spec;

    const std::string origin =
        spec.name.empty() ? "<replicate>" : spec.name;
    ScenarioSpec out = spec;
    out.workloads.clear();
    for (const WorkloadSpec &w : spec.workloads) {
        if (w.replicate == 1) {
            out.workloads.push_back(w);
            continue;
        }
        const KindDef *kd = findKind(w.kind);
        bool kind_seeded = false;
        if (kd != nullptr) {
            for (const KnobDef &def : kd->knobs)
                kind_seeded =
                    kind_seeded || std::strcmp(def.key, "seed") == 0;
        }
        bool seed_stepped = false;
        for (const SpecKnob &k : w.steps)
            seed_stepped = seed_stepped || k.key == "seed";
        const std::uint64_t base_seed =
            kind_seeded ? w.u64("seed", 0) : 0;

        for (unsigned i = 0; i < w.replicate; ++i) {
            WorkloadSpec r = w;
            r.name = w.name + std::to_string(i);
            r.replicate = 1;
            r.steps.clear();
            for (const SpecKnob &k : w.steps) {
                const KnobDef *def = nullptr;
                for (const KnobDef &cand : kd->knobs) {
                    if (k.key == cand.key) {
                        def = &cand;
                        break;
                    }
                }
                double delta;
                if (def == nullptr || !parseNum(k.value, delta))
                    specErr(origin, k.line,
                            sformat("cannot step knob '%s.step.%s'",
                                    w.name.c_str(), k.key.c_str()));
                if (def->type == 'u') {
                    const std::int64_t d =
                        static_cast<std::int64_t>(delta) *
                        static_cast<std::int64_t>(i);
                    const std::int64_t base =
                        static_cast<std::int64_t>(w.u64(k.key, 0));
                    if (base + d < 0)
                        specErr(origin, k.line,
                                sformat("'%s.step.%s': replica %u "
                                        "offset drives the knob "
                                        "negative", w.name.c_str(),
                                        k.key.c_str(), i));
                    r.set(k.key,
                          static_cast<std::uint64_t>(base + d));
                } else {
                    r.set(k.key, w.num(k.key, 0.0) + delta * i);
                }
            }
            // Every replica owns a decorrelated stream; replica 0
            // keeps the base stream so replicate=1 degenerates to
            // the unreplicated entry. An explicit seed step takes
            // precedence (it already varied the stream above).
            if (kind_seeded && !seed_stepped && i > 0)
                r.set("seed", tenantSeed(base_seed, i));
            out.workloads.push_back(std::move(r));
        }
    }
    // Expanded names can collide with explicit entries ("mc0" next
    // to "mc" with replicate=2); revalidation rejects those with the
    // declaring lines.
    validateSpec(out, origin);
    return out;
}

void
applySpecOverrides(ScenarioSpec &spec,
                   const std::vector<std::string> &assignments,
                   const std::string &origin)
{
    // Apply the whole batch, then validate once — the same
    // apply-all-then-validate shape as parseSpec(), so a batch can
    // declare a workload and set its kind/knobs in separate
    // assignments.
    for (const std::string &assignment : assignments) {
        const std::size_t eq = assignment.find('=');
        if (eq == std::string::npos)
            fatal(sformat("%s: expected 'key=value', got '%s'",
                          origin.c_str(), assignment.c_str()));
        const std::string key = trim(assignment.substr(0, eq));
        const std::string value = trim(assignment.substr(eq + 1));
        if (key.empty() || value.empty())
            fatal(sformat("%s: expected 'key=value', got '%s'",
                          origin.c_str(), assignment.c_str()));
        applyAssignment(spec, key, value, origin, 0);
    }
    validateSpec(spec, origin);
}

void
applySpecOverride(ScenarioSpec &spec, const std::string &assignment,
                  const std::string &origin)
{
    applySpecOverrides(spec, {assignment}, origin);
}

std::vector<std::string>
workloadKinds()
{
    std::vector<std::string> out;
    out.reserve(kinds().size());
    for (const KindDef &k : kinds())
        out.push_back(k.kind);
    return out;
}

bool
kindMultithreadIo(const std::string &kind)
{
    const KindDef *kd = findKind(kind);
    if (kd == nullptr)
        fatal(sformat("unknown workload kind '%s'", kind.c_str()));
    return kd->multithread_io;
}

// --------------------------------------------------------------------
// runSpec

const SpecWorkloadResult *
SpecResult::find(const std::string &name) const
{
    for (const SpecWorkloadResult &w : workloads) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
SpecResult::toGbps(double bytes) const
{
    return bytes * 1e9 / double(measure_window) * scale / 1e9;
}

namespace
{

/**
 * One construction + run attempt. @p restore_payload non-null: skip
 * scheme programming and every start() call, restore the warm-up
 * image instead (throws SnapshotError on mismatch — the caller
 * retries cold). @p save_path non-null (cold runs only): snapshot at
 * the warm-up boundary and publish the image.
 */
SpecResult
runSpecAttempt(const ScenarioSpec &spec, const Windows &win,
               const std::string *restore_payload,
               const std::string *save_path,
               const std::string *key_text)
{
    const bool restoring = restore_payload != nullptr;
    const auto t0 = std::chrono::steady_clock::now();

    ServerConfig server_cfg = ServerConfig::fast();
    if (spec.replacement == "srrip")
        server_cfg.geometry.replacement = LlcReplacement::Srrip;
    // Fleet-scale mixes outgrow the default core and port budgets.
    // The core budget only sizes the MLC array and the core-bound
    // checks (the LLC is unaffected), so raising it is behavior-
    // preserving; the port budget grows to the spec's own I/O demand
    // and keeps the default floor so unreplicated scenarios keep
    // their exact historical DDIO image shape.
    if (spec.cores != 0)
        server_cfg.geometry.num_cores = spec.cores;
    unsigned io_ports = 0;
    for (const WorkloadSpec &w : spec.workloads) {
        const KindDef *kd = findKind(w.kind);
        if (kd != nullptr && kd->is_io)
            io_ports += w.kind == "storage-server" ? 2 : 1;
    }
    if (io_ports > server_cfg.max_ports)
        server_cfg.max_ports = io_ports;
    Testbed bed(server_cfg);
    bed.ddio().setBiosDca(spec.bios_dca);
    const std::size_t n = spec.workloads.size();

    // Construction pass, in build order: allocates workload ids,
    // cores, device ports, and address ranges — the spec's identity.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         auto rank = [&](std::size_t i) {
                             const int br = spec.workloads[i].build;
                             return br < 0 ? static_cast<long>(i)
                                           : static_cast<long>(br);
                         };
                         return rank(a) < rank(b);
                     });
    BuiltMap built;
    std::vector<Workload *> by_index(n, nullptr);
    for (std::size_t idx : order) {
        const WorkloadSpec &w = spec.workloads[idx];
        Workload &wl = findKind(w.kind)->build(bed, w, built);
        built.emplace(w.name, &wl);
        by_index[idx] = &wl;
    }

    // Per-port DCA disable (the Fig. 8 I/O-device-aware knob). On the
    // restore path the flips live in the serialized DDIO state.
    if (!restoring) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!spec.workloads[i].dca)
                bed.ddio().disableDcaForPort(by_index[i]->ioPort());
        }
    }

    // Registration order is list order, like every historical runner.
    std::vector<WorkloadDesc> descs;
    descs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        descs.push_back(Testbed::describe(*by_index[i],
                                          spec.workloads[i].hpw
                                              ? QosPriority::High
                                              : QosPriority::Low));
    }

    // Scheme programming. A restore skips the register writes (CAT /
    // DDIO state is in the image) but still *constructs* the A4
    // daemon and registers the descriptors — registration is
    // construction state; the daemon's mutable state (and its queued
    // periodic firing) comes from the image instead of start().
    std::unique_ptr<A4Manager> mgr;
    if (spec.scheme != Scheme::Static &&
        spec.scheme != Scheme::Default &&
        spec.scheme != Scheme::Isolate) {
        mgr = std::make_unique<A4Manager>(
            bed.engine(), bed.cache(), bed.cat(), bed.ddio(),
            bed.dram(), bed.pcie(),
            a4Variant(a4Letter(spec.scheme),
                      spec.a4 ? *spec.a4 : scenarioA4Defaults()));
        for (const WorkloadDesc &d : descs)
            mgr->addWorkload(d);
        if (!restoring)
            mgr->start();
    } else if (spec.scheme == Scheme::Static && !restoring) {
        // Motivation-figure setup: no manager; pins programmed
        // directly, CLOS 1, 2, ... in list order — the historical
        // pinWays() testbeds bit for bit.
        unsigned clos = 1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!spec.workloads[i].pin)
                continue;
            bed.cat().setClosMask(
                clos, CatController::makeMask(spec.workloads[i].pin->first,
                                              spec.workloads[i].pin->second));
            for (CoreId c : by_index[i]->cores())
                bed.cat().assignCore(c, clos);
            ++clos;
        }
    } else if (spec.scheme == Scheme::Default && !restoring) {
        DefaultManager dm(bed.cat());
        dm.start();
    } else if (spec.scheme == Scheme::Isolate && !restoring) {
        IsolateManager im(bed.cat());
        // Pinned entries first (IsolateManager's pins parallel the
        // pinned prefix), auto-partitioned entries after, both in
        // list order.
        for (std::size_t i = 0; i < n; ++i) {
            if (spec.workloads[i].pin) {
                im.pin(descs[i], spec.workloads[i].pin->first,
                       spec.workloads[i].pin->second);
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!spec.workloads[i].pin)
                im.addWorkload(descs[i]);
        }
        im.start();
    }

    std::vector<Workload *> tracked(by_index.begin(), by_index.end());
    Measurement m(bed, tracked, win);
    if (restoring) {
        restoreWarmupImage(*restore_payload, bed, mgr.get());
    } else {
        m.startAndWarm();
        if (save_path) {
            try {
                storeWarmupImage(*save_path, *key_text,
                                 saveWarmupImage(bed, mgr.get()));
            } catch (const SnapshotError &e) {
                // Unsnapshottable state (e.g. an untagged in-flight
                // completion): the run itself is unaffected.
                static std::string warned;
                warnOncePerValue(warned, e.what(),
                                 "warning: A4_CKPT_DIR: cannot "
                                 "snapshot warm-up (%s); continuing "
                                 "without\n");
            }
        }
    }
    const auto t_warm = std::chrono::steady_clock::now();
    m.beginMeasure();
    m.runMeasure();
    const auto t_done = std::chrono::steady_clock::now();

    SpecResult res;
    res.scale = bed.config().scale;
    res.measure_window = win.measure;
    res.warmup_wall_s =
        std::chrono::duration<double>(t_warm - t0).count();
    res.measure_wall_s =
        std::chrono::duration<double>(t_done - t_warm).count();
    SystemSample sys = m.system();
    for (std::size_t i = 0; i < n; ++i) {
        Workload &wl = *by_index[i];
        SpecWorkloadResult r;
        r.name = wl.name();
        r.kind = spec.workloads[i].kind;
        r.hpw = spec.workloads[i].hpw;
        r.multithread_io = kindMultithreadIo(r.kind);
        WorkloadSample s = m.sample(wl);
        r.llc_hit_rate = s.llcHitRate();
        r.llc_miss_rate = s.llcMissRate();
        r.mpa = s.missesPerAccess();
        r.dca_leak = s.dcaMissRate();
        r.lat_mean_ns = wl.latency().mean();
        r.ipc = m.ipc(wl);
        // §7.2: multi-threaded I/O workloads are measured by
        // throughput = inverse latency per request; single-threaded
        // workloads by IPC.
        r.perf = r.multithread_io
                     ? (wl.latency().count()
                            ? 1e9 / wl.latency().mean()
                            : 0.0)
                     : r.ipc;
        r.antagonist = mgr && mgr->isAntagonist(wl.id());
        if (wl.latency().count())
            r.tail_latency_us = wl.latency().percentile(99) / 1000.0;
        if (wl.isIo() && wl.ioPort() < sys.ports.size()) {
            r.ingress_bytes =
                double(sys.ports[wl.ioPort()].ingress_bytes);
            r.egress_bytes =
                double(sys.ports[wl.ioPort()].egress_bytes);
        }
        if (auto *ssw = dynamic_cast<StorageServerWorkload *>(&wl)) {
            // Cross-device workload: the NIC is ioPort(); fold the
            // storage side's PCIe traffic into the I/O byte totals.
            if (ssw->ssdPort() < sys.ports.size()) {
                r.ingress_bytes +=
                    double(sys.ports[ssw->ssdPort()].ingress_bytes);
                r.egress_bytes +=
                    double(sys.ports[ssw->ssdPort()].egress_bytes);
            }
        }
        if (auto *fc = dynamic_cast<FastclickWorkload *>(&wl)) {
            r.has_net_breakdown = true;
            r.nic_to_host_ns = fc->nicToHost().mean();
            r.pointer_ns = fc->pointerAccess().mean();
            r.process_ns = fc->processing().mean();
        }
        if (auto *fw = dynamic_cast<FioWorkload *>(&wl)) {
            r.has_storage_breakdown = true;
            r.read_ns = fw->readLatency().mean();
            r.regex_ns = fw->regexLatency().mean();
            r.write_ns = fw->writeLatency().mean();
        }
        res.workloads.push_back(std::move(r));
    }
    res.mem_rd_bw_bps = sys.memReadBwBps();
    res.mem_wr_bw_bps = sys.memWriteBwBps();
    res.past_events = double(bed.engine().pastEvents());
    return res;
}

} // namespace

SpecResult
runSpecWithWindows(const ScenarioSpec &raw_spec, const Windows &win)
{
    validateSpec(raw_spec,
                 raw_spec.name.empty() ? "<spec>" : raw_spec.name);
    // Tenant replication expands before anything consumes the spec,
    // so the run — and the checkpoint identity — is the expanded
    // canonical form.
    const ScenarioSpec spec = expandReplicas(raw_spec);
    if (spec.workloads.empty())
        fatal(sformat("spec '%s': no workloads",
                      spec.name.empty() ? "<spec>" : spec.name.c_str()));

    const std::string dir = checkpointDir();
    if (dir.empty() || buildTag().empty())
        return runSpecAttempt(spec, win, nullptr, nullptr, nullptr);

    const std::string key_text = checkpointKeyText(spec, win.warmup);
    const std::string path = checkpointPath(dir, key_text);
    std::string payload;
    if (loadWarmupImage(path, key_text, payload)) {
        try {
            return runSpecAttempt(spec, win, &payload, nullptr,
                                  nullptr);
        } catch (const SnapshotError &e) {
            // A mid-restore failure leaves the attempt's testbed in an
            // undefined state; the retry below rebuilds from scratch.
            static std::string warned;
            warnOncePerValue(warned, e.what(),
                             "warning: A4_CKPT_DIR: restore failed "
                             "(%s); running cold\n");
        }
    }
    return runSpecAttempt(spec, win, nullptr, &path, &key_text);
}

SpecResult
runSpec(const ScenarioSpec &spec)
{
    return runSpecWithWindows(spec, Windows::fromEnv(spec.windows));
}

// --------------------------------------------------------------------
// SpecResult codec

Record
toRecord(const SpecResult &r)
{
    Record rec;
    rec.set("workloads", double(r.workloads.size()));
    for (std::size_t i = 0; i < r.workloads.size(); ++i) {
        const SpecWorkloadResult &w = r.workloads[i];
        const std::string p = sformat("w%zu.", i);
        rec.set(p + "name", w.name);
        rec.set(p + "kind", w.kind);
        rec.set(p + "hpw", w.hpw ? 1.0 : 0.0);
        rec.set(p + "mtio", w.multithread_io ? 1.0 : 0.0);
        rec.set(p + "ant", w.antagonist ? 1.0 : 0.0);
        rec.set(p + "perf", w.perf);
        rec.set(p + "ipc", w.ipc);
        rec.set(p + "hit", w.llc_hit_rate);
        rec.set(p + "miss", w.llc_miss_rate);
        rec.set(p + "mpa", w.mpa);
        rec.set(p + "leak", w.dca_leak);
        rec.set(p + "tail_us", w.tail_latency_us);
        rec.set(p + "lat_mean_ns", w.lat_mean_ns);
        rec.set(p + "in_bytes", w.ingress_bytes);
        rec.set(p + "out_bytes", w.egress_bytes);
        if (w.has_net_breakdown) {
            rec.set(p + "net_nic_to_host_ns", w.nic_to_host_ns);
            rec.set(p + "net_pointer_ns", w.pointer_ns);
            rec.set(p + "net_process_ns", w.process_ns);
        }
        if (w.has_storage_breakdown) {
            rec.set(p + "sto_read_ns", w.read_ns);
            rec.set(p + "sto_regex_ns", w.regex_ns);
            rec.set(p + "sto_write_ns", w.write_ns);
        }
    }
    rec.set("mem_rd_bw_bps", r.mem_rd_bw_bps);
    rec.set("mem_wr_bw_bps", r.mem_wr_bw_bps);
    rec.set("measure_ns", double(r.measure_window));
    rec.set("scale", double(r.scale));
    rec.set("past_events", r.past_events);
    return rec;
}

SpecResult
specResultFrom(const Record &rec)
{
    SpecResult r;
    const std::size_t n = std::size_t(rec.num("workloads"));
    for (std::size_t i = 0; i < n; ++i) {
        const std::string p = sformat("w%zu.", i);
        SpecWorkloadResult w;
        w.name = rec.str(p + "name");
        w.kind = rec.str(p + "kind");
        w.hpw = rec.num(p + "hpw") != 0.0;
        w.multithread_io = rec.num(p + "mtio") != 0.0;
        w.antagonist = rec.num(p + "ant") != 0.0;
        w.perf = rec.num(p + "perf");
        w.ipc = rec.num(p + "ipc");
        w.llc_hit_rate = rec.num(p + "hit");
        w.llc_miss_rate = rec.num(p + "miss");
        w.mpa = rec.num(p + "mpa");
        w.dca_leak = rec.num(p + "leak");
        w.tail_latency_us = rec.num(p + "tail_us");
        w.lat_mean_ns = rec.num(p + "lat_mean_ns");
        w.ingress_bytes = rec.num(p + "in_bytes");
        w.egress_bytes = rec.num(p + "out_bytes");
        if (rec.has(p + "net_nic_to_host_ns")) {
            w.has_net_breakdown = true;
            w.nic_to_host_ns = rec.num(p + "net_nic_to_host_ns");
            w.pointer_ns = rec.num(p + "net_pointer_ns");
            w.process_ns = rec.num(p + "net_process_ns");
        }
        if (rec.has(p + "sto_read_ns")) {
            w.has_storage_breakdown = true;
            w.read_ns = rec.num(p + "sto_read_ns");
            w.regex_ns = rec.num(p + "sto_regex_ns");
            w.write_ns = rec.num(p + "sto_write_ns");
        }
        r.workloads.push_back(std::move(w));
    }
    r.mem_rd_bw_bps = rec.num("mem_rd_bw_bps");
    r.mem_wr_bw_bps = rec.num("mem_wr_bw_bps");
    r.measure_window = Tick(rec.num("measure_ns"));
    r.scale = unsigned(rec.num("scale"));
    r.past_events = rec.num("past_events");
    return r;
}

// --------------------------------------------------------------------
// Canonical specs and the registry

ScenarioSpec
microSpec(unsigned packet_bytes, std::uint64_t storage_block)
{
    ScenarioSpec s;
    s.name = "micro";

    WorkloadSpec &dpdk = s.add("dpdk-t", "dpdk", true);
    dpdk.pin = std::make_pair(2u, 3u);
    dpdk.set("packet_bytes", std::uint64_t(packet_bytes));

    WorkloadSpec &fio = s.add("fio", "fio", false);
    fio.pin = std::make_pair(4u, 6u);
    fio.set("block_bytes", storage_block);

    const std::pair<unsigned, unsigned> pins[3] = {
        {7u, 8u}, {9u, 10u}, {0u, 1u}};
    for (unsigned v = 1; v <= 3; ++v) {
        WorkloadSpec &x =
            s.add(sformat("xmem%u", v), "xmem", v == 1);
        x.pin = pins[v - 1];
        x.set("variant", std::uint64_t(v));
        x.set("cores", std::uint64_t(2));
    }
    return s;
}

namespace
{

/** The FFSB storage configurations of the Table-2 mixes. */
void
ffsbKnobs(WorkloadSpec &w, const char *profile, double link_bw_bps,
          std::uint64_t parallelism)
{
    w.set("profile", std::string(profile));
    w.set("regex_ns_per_line", 19.0);
    w.set("link_bw_bps", link_bw_bps);
    w.set("parallelism", parallelism);
}

} // namespace

ScenarioSpec
realWorldSpec(bool hpw_heavy)
{
    // The build ranks reproduce the historical construction
    // interleaving (devices first, SPEC proxies inline), which fixed
    // the core/port/address assignment the published numbers depend
    // on; the list order is the Table-2 registration order.
    ScenarioSpec s;
    s.name = hpw_heavy ? "realworld-hpw" : "realworld-lpw";

    auto addSpecCpu = [&s](const char *name, bool hpw, int build) {
        WorkloadSpec &w = s.add(name, "spec", hpw);
        w.build = build;
    };

    if (hpw_heavy) {
        // 7 HPWs: fastclick redis-s redis-c x264 parest xalancbmk lbm
        // 4 LPWs: ffsb-h omnetpp exchange2 bwaves
        s.add("fastclick", "fastclick", true).build = 0;
        s.add("redis-s", "redis-server", true).build = 2;
        WorkloadSpec &rc = s.add("redis-c", "redis-client", true);
        rc.build = 3;
        rc.set("server", std::string("redis-s"));
        addSpecCpu("x264", true, 4);
        addSpecCpu("parest", true, 5);
        addSpecCpu("xalancbmk", true, 6);
        addSpecCpu("lbm", true, 7);
        WorkloadSpec &fh = s.add("ffsb-h", "fio", false);
        fh.build = 1;
        ffsbKnobs(fh, "ffsb-heavy", 9.6e9, 12); // 3-SSD array share
        addSpecCpu("omnetpp", false, 8);
        addSpecCpu("exchange2", false, 9);
        addSpecCpu("bwaves", false, 10);
    } else {
        // 4 HPWs: fastclick ffsb-l mcf blender
        // 8 LPWs: ffsb-h redis-s redis-c x264 parest fotonik3d lbm
        //         bwaves
        s.add("fastclick", "fastclick", true).build = 0;
        WorkloadSpec &fl = s.add("ffsb-l", "fio", true);
        fl.build = 4;
        ffsbKnobs(fl, "ffsb-light", 3.2e9, 4); // single-SSD share
        addSpecCpu("mcf", true, 5);
        addSpecCpu("blender", true, 6);
        WorkloadSpec &fh = s.add("ffsb-h", "fio", false);
        fh.build = 1;
        ffsbKnobs(fh, "ffsb-heavy", 9.6e9, 12);
        s.add("redis-s", "redis-server", false).build = 2;
        WorkloadSpec &rc = s.add("redis-c", "redis-client", false);
        rc.build = 3;
        rc.set("server", std::string("redis-s"));
        addSpecCpu("x264", false, 7);
        addSpecCpu("parest", false, 8);
        addSpecCpu("fotonik3d", false, 9);
        addSpecCpu("lbm", false, 10);
        addSpecCpu("bwaves", false, 11);
    }
    return s;
}

const std::vector<RegisteredScenario> &
scenarioRegistry()
{
    static const std::vector<RegisteredScenario> reg = [] {
        std::vector<RegisteredScenario> v;

        v.push_back({"micro",
                     "Sec. 7.1 microbenchmark co-run: DPDK-T + FIO "
                     "(2 MiB blocks) + X-Mem 1/2/3 (the Fig. 11 "
                     "1024 B point)",
                     microSpec(1024, 2 * kMiB)});
        v.push_back({"realworld-hpw",
                     "Table-2 HPW-heavy mix: 7 HPWs + 4 LPWs "
                     "(Fig. 13a/14)",
                     realWorldSpec(true)});
        v.push_back({"realworld-lpw",
                     "Table-2 LPW-heavy mix: 4 HPWs + 8 LPWs "
                     "(Fig. 13b)",
                     realWorldSpec(false)});

        // Non-paper mixes: the spec layer opens the scenario space
        // beyond the handful of co-runs the paper evaluated.
        {
            ScenarioSpec s;
            s.name = "trident";
            s.scheme = Scheme::A4d;
            s.add("fastclick", "fastclick", true);
            s.add("redis-s", "redis-server", true);
            WorkloadSpec &rc = s.add("redis-c", "redis-client", true);
            rc.set("server", std::string("redis-s"));
            WorkloadSpec &f = s.add("fio", "fio", false);
            f.set("block_bytes", std::uint64_t(1 * kMiB));
            v.push_back({"trident",
                         "Tri-tenant: Fastclick + Redis pair (HPW) vs "
                         "a 1 MiB-block FIO antagonist (LPW)",
                         std::move(s)});
        }
        {
            ScenarioSpec s;
            s.name = "dual-nic";
            s.scheme = Scheme::A4d;
            WorkloadSpec &a = s.add("dpdk-a", "dpdk", true);
            a.set("packet_bytes", std::uint64_t(256));
            WorkloadSpec &b = s.add("dpdk-b", "dpdk", false);
            b.set("packet_bytes", std::uint64_t(1024));
            b.set("touch", std::string("0"));
            v.push_back({"dual-nic",
                         "Two NICs: small-packet DPDK-T (HPW) against "
                         "a DPDK-NT bulk receiver (LPW) on its own "
                         "port",
                         std::move(s)});
        }
        {
            ScenarioSpec s;
            s.name = "memcached";
            WorkloadSpec &mc = s.add("mc", "memcached-udp", true);
            mc.set("value_bytes", std::uint64_t(1024));
            WorkloadSpec &f = s.add("fio", "fio", false);
            f.set("block_bytes", std::uint64_t(1 * kMiB));
            v.push_back({"memcached",
                         "Memcached-over-UDP KV server (HPW) fed from "
                         "the NIC against a 1 MiB-block FIO antagonist "
                         "(LPW)",
                         std::move(s)});
        }
        {
            ScenarioSpec s;
            s.name = "storage-server";
            WorkloadSpec &ss = s.add("ss", "storage-server", true);
            ss.set("block_bytes", std::uint64_t(128 * kKiB));
            WorkloadSpec &f = s.add("fio", "fio", false);
            f.set("profile", std::string("ffsb-heavy"));
            v.push_back({"storage-server",
                         "End-to-end storage server (HPW): NIC receive "
                         "-> parse -> NVMe -> NIC transmit in one QoS "
                         "domain, against an ffsb-heavy FIO antagonist "
                         "(LPW)",
                         std::move(s)});
        }
        {
            ScenarioSpec s;
            s.name = "storage-flood";
            s.scheme = Scheme::A4d;
            const std::uint64_t blocks[] = {64 * kKiB, 512 * kKiB,
                                            2 * kMiB};
            const char *names[] = {"flood-64k", "flood-512k",
                                   "flood-2m"};
            for (unsigned i = 0; i < 3; ++i) {
                WorkloadSpec &f = s.add(names[i], "fio", false);
                f.set("block_bytes", blocks[i]);
            }
            v.push_back({"storage-flood",
                         "All-LPW storage flood: three FIO arrays at "
                         "64 KiB / 512 KiB / 2 MiB blocks, no HPW to "
                         "protect",
                         std::move(s)});
        }

        // Fleet-scale multi-tenant mixes: the replicate= expansion
        // stamps out tens of tenants, far past the 16 CLOS the CAT
        // hardware exposes (per_tenant_clos then exercises the IOCA
        // grouping pass). Windows are deliberately short: the point
        // of these mixes is tenant count, not duration.
        {
            ScenarioSpec s;
            s.name = "fleet-memcached";
            s.cores = 80;
            s.windows = Windows{50 * kMsec, 20 * kMsec};
            WorkloadSpec &fe = s.add("fe", "memcached-udp", true);
            fe.set("num_queues", std::uint64_t(1));
            fe.set("offered_gbps", 4.0);
            fe.set("num_keys", std::uint64_t(8192));
            WorkloadSpec &mc = s.add("mc", "memcached-udp", false);
            mc.replicate = 32;
            mc.set("num_queues", std::uint64_t(1));
            mc.set("offered_gbps", 2.0);
            mc.set("num_keys", std::uint64_t(8192));
            mc.set("seed", std::uint64_t(1));
            v.push_back({"fleet-memcached",
                         "Fleet of 33 memcached-over-UDP tenants: one "
                         "HPW frontend vs 32 replicated LPW cache "
                         "tenants with decorrelated request streams",
                         std::move(s)});
        }
        {
            ScenarioSpec s;
            s.name = "fleet-mixed";
            s.cores = 80;
            s.windows = Windows{50 * kMsec, 20 * kMsec};
            WorkloadSpec &fe = s.add("fe", "memcached-udp", true);
            fe.replicate = 2;
            fe.set("num_queues", std::uint64_t(1));
            fe.set("offered_gbps", 4.0);
            fe.set("num_keys", std::uint64_t(8192));
            fe.set("seed", std::uint64_t(7));
            WorkloadSpec &ss = s.add("ss", "storage-server", true);
            ss.set("num_queues", std::uint64_t(1));
            ss.set("block_bytes", std::uint64_t(128 * kKiB));
            WorkloadSpec &mc = s.add("mc", "memcached-udp", false);
            mc.replicate = 24;
            mc.set("num_queues", std::uint64_t(1));
            mc.set("offered_gbps", 2.0);
            mc.set("num_keys", std::uint64_t(8192));
            mc.set("value_bytes", std::uint64_t(1024));
            mc.set("seed", std::uint64_t(1));
            // Heterogeneous tenants: each replica serves a different
            // record size (1024, 1040, ... bytes), so the grouping
            // pass sees a spread of miss behavior, not 24 clones.
            SpecKnob step;
            step.key = "value_bytes";
            step.value = "16";
            mc.steps.push_back(step);
            WorkloadSpec &xm = s.add("xm", "xmem", false);
            xm.replicate = 20;
            xm.set("variant", std::uint64_t(2));
            xm.set("cores", std::uint64_t(1));
            xm.set("seed", std::uint64_t(2));
            WorkloadSpec &sp = s.add("sp", "spec", false);
            sp.replicate = 16;
            sp.set("bench", std::string("lbm"));
            WorkloadSpec &f = s.add("fio", "fio", false);
            f.set("num_jobs", std::uint64_t(2));
            f.set("block_bytes", std::uint64_t(1 * kMiB));
            v.push_back({"fleet-mixed",
                         "64-tenant mixed fleet: memcached frontends + "
                         "a storage server (HPW) vs replicated "
                         "memcached / X-Mem / SPEC-proxy / FIO LPW "
                         "tenants",
                         std::move(s)});
        }
        return v;
    }();
    return reg;
}

const RegisteredScenario *
findScenario(const std::string &name)
{
    for (const RegisteredScenario &r : scenarioRegistry()) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

// --------------------------------------------------------------------
// SweepSpec

namespace
{

/** Escape for single-line text payloads (titles, cells, notes). */
std::string
escText(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '\\')
            out += "\\\\";
        else if (ch == '\n')
            out += "\\n";
        else
            out += ch;
    }
    return out;
}

std::string
unescText(const std::string &s, const std::string &origin, unsigned line)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (i + 1 >= s.size())
            specErr(origin, line, "dangling '\\' in text");
        ++i;
        if (s[i] == '\\')
            out += '\\';
        else if (s[i] == 'n')
            out += '\n';
        else
            specErr(origin, line,
                    sformat("unknown escape '\\%c' (want \\n or \\\\)",
                            s[i]));
    }
    return out;
}

/** Comma-split (no trimming: labels keep their spaces). */
std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        std::size_t next = s.find(sep, pos);
        if (next == std::string::npos) {
            out.push_back(s.substr(pos));
            return out;
        }
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
}

/** Parse "axis=value,axis=value" cell/row bindings. */
std::vector<std::pair<std::string, std::string>>
parseBinds(const std::string &s, const std::string &origin, unsigned line)
{
    std::vector<std::pair<std::string, std::string>> out;
    if (s.empty())
        return out;
    for (const std::string &item : splitList(s, ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size())
            specErr(origin, line,
                    sformat("bad binding '%s' (want axis=value)",
                            item.c_str()));
        out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    return out;
}

std::string
bindsText(const std::vector<std::pair<std::string, std::string>> &binds)
{
    std::string out;
    for (std::size_t i = 0; i < binds.size(); ++i) {
        if (i)
            out += ",";
        out += binds[i].first + "=" + binds[i].second;
    }
    return out;
}

/** Expand a "lo:hi:step" range into decimal value texts. */
std::vector<std::string>
expandRange(const std::string &s, const std::string &origin, unsigned line)
{
    const std::vector<std::string> parts = splitList(s, ':');
    std::uint64_t lo = 0, hi = 0, step = 1;
    bool ok = (parts.size() == 2 || parts.size() == 3) &&
              parseU64(parts[0], lo) && parseU64(parts[1], hi) &&
              (parts.size() == 2 || parseU64(parts[2], step)) &&
              step > 0 && lo <= hi;
    if (ok && (hi - lo) / step + 1 > 10000)
        specErr(origin, line,
                sformat("range '%s' expands to more than 10000 values",
                        s.c_str()));
    if (!ok)
        specErr(origin, line,
                sformat("bad range '%s' (want \"lo:hi[:step]\", "
                        "lo <= hi, step > 0)", s.c_str()));
    std::vector<std::string> out;
    const std::uint64_t count = (hi - lo) / step + 1;
    for (std::uint64_t i = 0; i < count; ++i)
        out.push_back(fmtU64(lo + i * step));
    return out;
}

const char *
viewName(SweepRecordView v)
{
    switch (v) {
      case SweepRecordView::Spec: return "spec";
      case SweepRecordView::Micro: return "micro";
      case SweepRecordView::Scenario: return "scenario";
      case SweepRecordView::Select: return "select";
    }
    return "?";
}

bool
viewFromName(const std::string &s, SweepRecordView &out)
{
    for (SweepRecordView v :
         {SweepRecordView::Spec, SweepRecordView::Micro,
          SweepRecordView::Scenario, SweepRecordView::Select}) {
        if (s == viewName(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

/** One spec-override assignment, plus the sweep-only "scenario" key
 *  that swaps the whole working spec for a registered one. */
void
applySweepAssignment(ScenarioSpec &working, const std::string &key,
                     const std::string &value, const std::string &origin,
                     unsigned line)
{
    if (key == "scenario") {
        const RegisteredScenario *r = findScenario(value);
        if (r == nullptr)
            specErr(origin, line,
                    sformat("unknown scenario '%s' (a4sim --list shows "
                            "the registry)", value.c_str()));
        working = r->spec;
        return;
    }
    applyAssignment(working, key, value, origin, line);
}

/** Known record=select metric fields. */
const char *const kSweepSysFields[] = {
    "mem_rd_gbps",  "mem_wr_gbps",    "past_events",
    "jain_fairness", "fleet_p99_us",  "worst_slowdown"};
const char *const kSweepWlFields[] = {
    "perf",       "ipc",        "hit",        "miss",
    "mpa",        "leak",       "lat_avg_us", "lat_p99_us",
    "io_rd_gbps", "io_wr_gbps"};

bool
knownField(const char *const *table, std::size_t n,
           const std::string &field)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (field == table[i])
            return true;
    }
    return false;
}

/** Parse one "cell = ..." payload. */
SweepCellSpec
parseCell(const std::string &value, const std::string &origin,
          unsigned line)
{
    SweepCellSpec cell;
    cell.line = line;
    const std::size_t sp = value.find(' ');
    cell.op = value.substr(0, sp);
    if (cell.op == "text") {
        if (sp == std::string::npos)
            specErr(origin, line, "cell: text needs a template");
        cell.arg = unescText(value.substr(sp + 1), origin, line);
        return cell;
    }
    if (cell.op != "num" && cell.op != "pct" && cell.op != "rel" &&
        cell.op != "agg")
        specErr(origin, line,
                sformat("unknown cell op '%s' (want text, num, pct, "
                        "rel, or agg)", cell.op.c_str()));
    std::istringstream in(sp == std::string::npos ? std::string()
                                                  : value.substr(sp + 1));
    std::string tok;
    while (in >> tok) {
        if (tok[0] == '@') {
            cell.bind = parseBinds(tok.substr(1), origin, line);
        } else if (cell.arg.empty()) {
            cell.arg = tok;
        } else if (cell.digits < 0) {
            std::uint64_t d;
            if (!parseU64(tok, d) || d > 17)
                specErr(origin, line,
                        sformat("bad cell digits '%s'", tok.c_str()));
            cell.digits = static_cast<int>(d);
        } else {
            specErr(origin, line,
                    sformat("unexpected cell token '%s'", tok.c_str()));
        }
    }
    if (cell.arg.empty())
        specErr(origin, line,
                sformat("cell: %s needs a metric key", cell.op.c_str()));
    if (cell.op == "agg" && cell.arg != "hp" && cell.arg != "lp" &&
        cell.arg != "all")
        specErr(origin, line,
                sformat("cell: agg wants hp, lp, or all, not '%s'",
                        cell.arg.c_str()));
    return cell;
}

std::string
cellText(const SweepCellSpec &cell)
{
    if (cell.op == "text")
        return "text " + escText(cell.arg);
    std::string out = cell.op + " " + cell.arg;
    if (cell.digits >= 0)
        out += sformat(" %d", cell.digits);
    if (!cell.bind.empty())
        out += " @" + bindsText(cell.bind);
    return out;
}

} // namespace

const std::string &
SweepAxis::label(std::size_t index, const std::string &set) const
{
    if (set.empty())
        return labels.empty() ? values[index] : labels[index];
    for (const auto &ls : label_sets) {
        if (ls.first == set)
            return ls.second[index];
    }
    fatal(sformat("axis '%s': no label set '%s'", name.c_str(),
                  set.c_str()));
}

std::size_t
SweepAxis::indexOf(const std::string &value) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] == value)
            return i;
    }
    return std::string::npos;
}

SweepAxis *
SweepSpec::findAxis(const std::string &axis_name)
{
    for (SweepAxis &a : axes) {
        if (a.name == axis_name)
            return &a;
    }
    return nullptr;
}

const SweepAxis *
SweepSpec::findAxis(const std::string &axis_name) const
{
    return const_cast<SweepSpec *>(this)->findAxis(axis_name);
}

const SweepGrid *
SweepSpec::findGrid(const std::string &grid_name) const
{
    for (const SweepGrid &g : grids) {
        if (g.name == grid_name)
            return &g;
    }
    return nullptr;
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t total = 0;
    for (const SweepGrid &g : grids) {
        std::size_t n = 1;
        for (const std::string &a : g.axes) {
            const SweepAxis *axis = findAxis(a);
            n *= axis != nullptr ? axis->values.size() : 0;
        }
        total += n;
    }
    return total;
}

std::string
sweepSubstitute(const SweepSpec &spec, const std::string &tmpl,
                const SweepBinding &binding, const std::string &origin,
                unsigned line)
{
    std::string out;
    out.reserve(tmpl.size());
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
        if (tmpl[i] != '{') {
            out += tmpl[i];
            continue;
        }
        const std::size_t close = tmpl.find('}', i);
        if (close == std::string::npos)
            specErr(origin, line,
                    sformat("unterminated '{' in '%s'", tmpl.c_str()));
        std::string ref = tmpl.substr(i + 1, close - i - 1);
        std::string set;
        if (const std::size_t colon = ref.find(':');
            colon != std::string::npos) {
            set = ref.substr(colon + 1);
            ref = ref.substr(0, colon);
        }
        const SweepAxis *axis = spec.findAxis(ref);
        if (axis == nullptr)
            specErr(origin, line,
                    sformat("'{%s}': unknown axis '%s'", ref.c_str(),
                            ref.c_str()));
        if (!set.empty()) {
            bool has_set = false;
            for (const auto &ls : axis->label_sets)
                has_set = has_set || ls.first == set;
            if (!has_set)
                specErr(origin, line,
                        sformat("'{%s:%s}': axis '%s' has no label "
                                "set '%s' (overriding %s.values drops "
                                "size-mismatched label sets — override "
                                "%s.labels.%s too)", ref.c_str(),
                                set.c_str(), ref.c_str(), set.c_str(),
                                ref.c_str(), ref.c_str(), set.c_str()));
        }
        bool bound = false;
        for (const auto &[name, index] : binding) {
            if (name == ref) {
                out += axis->label(index, set);
                bound = true;
                break;
            }
        }
        if (!bound)
            specErr(origin, line,
                    sformat("'{%s}': axis '%s' is not bound here",
                            ref.c_str(), ref.c_str()));
        i = close;
    }
    return out;
}

std::string
sweepPointName(const SweepSpec &spec, const SweepGrid &grid,
               const SweepBinding &binding, const std::string &origin)
{
    return sweepSubstitute(spec, grid.point, binding, origin, grid.line);
}

std::vector<SweepPoint>
expandSweepSpec(const SweepSpec &spec, const std::string &origin)
{
    std::vector<SweepPoint> out;
    for (const SweepGrid &g : spec.grids) {
        std::vector<const SweepAxis *> axes;
        for (const std::string &name : g.axes) {
            const SweepAxis *a = spec.findAxis(name);
            if (a == nullptr)
                specErr(origin, g.line,
                        sformat("grid '%s': unknown axis '%s'",
                                g.name.c_str(), name.c_str()));
            axes.push_back(a);
        }
        std::vector<std::size_t> idx(axes.size(), 0);
        while (true) {
            SweepPoint p;
            p.grid = &g;
            for (std::size_t i = 0; i < axes.size(); ++i)
                p.binding.emplace_back(axes[i]->name, idx[i]);
            p.name = sweepPointName(spec, g, p.binding, origin);
            ScenarioSpec point = spec.base;
            for (const SpecKnob &s : g.sets)
                applySweepAssignment(point, s.key, s.value, origin,
                                     s.line);
            for (std::size_t i = 0; i < axes.size(); ++i)
                applySweepAssignment(point, axes[i]->key,
                                     axes[i]->values[idx[i]], origin,
                                     axes[i]->line);
            validateSpec(point, origin);
            p.spec = std::move(point);
            out.push_back(std::move(p));

            // Odometer: last axis innermost.
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
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t j = i + 1; j < out.size(); ++j) {
            if (out[i].name == out[j].name)
                specErr(origin, out[j].grid->line,
                        sformat("duplicate point name '%s'",
                                out[j].name.c_str()));
        }
    }
    return out;
}

double
evalSweepMetric(const SpecResult &r, const std::string &expr)
{
    const std::size_t dot = expr.find('.');
    if (dot == std::string::npos)
        fatal(sformat("metric '%s': want sys.<field> or "
                      "<workload>.<field>", expr.c_str()));
    const std::string target = expr.substr(0, dot);
    const std::string field = expr.substr(dot + 1);
    if (target == "sys") {
        if (field == "mem_rd_gbps")
            return unscaleBw(r.mem_rd_bw_bps, r.scale) / 1e9;
        if (field == "mem_wr_gbps")
            return unscaleBw(r.mem_wr_bw_bps, r.scale) / 1e9;
        if (field == "past_events")
            return r.past_events;
        if (field == "jain_fairness")
            return fleetMetrics(r).jain_fairness;
        if (field == "fleet_p99_us")
            return fleetMetrics(r).fleet_p99_us;
        if (field == "worst_slowdown")
            return fleetMetrics(r).worst_slowdown;
        if (field.rfind("kind_p99_us.", 0) == 0)
            return fleetMetrics(r).kindP99(field.substr(12));
        fatal(sformat("metric '%s': unknown sys field", expr.c_str()));
    }
    const SpecWorkloadResult *w = r.find(target);
    if (w == nullptr)
        return 0.0; // absent (dropped) workloads read as zero
    if (field == "perf")
        return w->perf;
    if (field == "ipc")
        return w->ipc;
    if (field == "hit")
        return w->llc_hit_rate;
    if (field == "miss")
        return w->llc_miss_rate;
    if (field == "mpa")
        return w->mpa;
    if (field == "leak")
        return w->dca_leak;
    if (field == "lat_avg_us")
        return w->lat_mean_ns / 1000.0;
    if (field == "lat_p99_us")
        return w->tail_latency_us;
    if (field == "io_rd_gbps")
        return unscaleBw(w->ingress_bytes * 1e9 /
                             double(r.measure_window),
                         r.scale) /
               1e9;
    if (field == "io_wr_gbps")
        return unscaleBw(w->egress_bytes * 1e9 /
                             double(r.measure_window),
                         r.scale) /
               1e9;
    fatal(sformat("metric '%s': unknown workload field", expr.c_str()));
}

bool
validSweepMetricExpr(const std::string &expr)
{
    const std::size_t dot = expr.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= expr.size())
        return false;
    const std::string target = expr.substr(0, dot);
    const std::string field = expr.substr(dot + 1);
    if (target == "sys")
        return field.rfind("kind_p99_us.", 0) == 0
                   ? field.size() > 12
                   : knownField(kSweepSysFields,
                                std::size(kSweepSysFields), field);
    return knownField(kSweepWlFields, std::size(kSweepWlFields), field);
}

namespace
{

/** Can @p key appear in a Record of @p g's record view? Per-workload
 *  "w<N>.*" keys of the scenario/spec views are workload-count
 *  dependent, so they pass as a pattern. */
bool
sweepRecordHasKey(const SweepSpec &spec, const SweepGrid &g,
                  const std::string &key)
{
    auto fixed = [&key](std::initializer_list<const char *> keys) {
        for (const char *k : keys) {
            if (key == k)
                return true;
        }
        return false;
    };
    auto perWorkload = [&key] {
        if (key.size() < 3 || key[0] != 'w')
            return false;
        std::size_t i = 1;
        while (i < key.size() && std::isdigit(
                                     static_cast<unsigned char>(key[i])))
            ++i;
        return i > 1 && i < key.size() && key[i] == '.';
    };
    switch (spec.record) {
      case SweepRecordView::Select: {
        if (key == "past_events")
            return true;
        const std::vector<SpecKnob> &metrics =
            g.metrics.empty() ? spec.metrics : g.metrics;
        for (const SpecKnob &m : metrics) {
            if (m.key == key)
                return true;
        }
        return false;
      }
      case SweepRecordView::Micro:
        return fixed({"x1_ipc", "x1_hit", "x2_ipc", "x2_hit", "x3_ipc",
                      "x3_hit", "net_tail_us", "net_rd_gbps",
                      "past_events"});
      case SweepRecordView::Scenario:
        return perWorkload() ||
               fixed({"workloads", "fc_nic_to_host_us",
                      "fc_pointer_us", "fc_process_us", "ffsbh_read_ms",
                      "ffsbh_regex_ms", "ffsbh_write_ms", "fc_rd_gbps",
                      "fc_wr_gbps", "ffsbh_rd_gbps", "ffsbh_wr_gbps",
                      "mem_rd_gbps", "mem_wr_gbps", "past_events"});
      case SweepRecordView::Spec:
        return perWorkload() ||
               fixed({"workloads", "mem_rd_bw_bps", "mem_wr_bw_bps",
                      "measure_ns", "scale", "past_events"});
    }
    return false;
}

} // namespace

void
validateSweepSpec(const SweepSpec &spec, const std::string &origin)
{
    if (!validName(spec.name))
        specErr(origin, 0,
                sformat("invalid sweep name '%s'", spec.name.c_str()));
    validateSpec(spec.base, origin);

    auto checkMetricList = [&](const std::vector<SpecKnob> &metrics) {
        for (const SpecKnob &m : metrics) {
            if (!validName(m.key))
                specErr(origin, m.line,
                        sformat("invalid metric key '%s'",
                                m.key.c_str()));
            if (!validSweepMetricExpr(m.value))
                specErr(origin, m.line,
                        sformat("metric '%s': unknown expression '%s' "
                                "(want sys.<field> or "
                                "<workload>.<field>)", m.key.c_str(),
                                m.value.c_str()));
        }
    };
    checkMetricList(spec.metrics);

    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const SweepAxis &a = spec.axes[i];
        if (!validName(a.name) || a.name == "base")
            specErr(origin, a.line,
                    sformat("invalid axis name '%s'", a.name.c_str()));
        for (std::size_t j = i + 1; j < spec.axes.size(); ++j) {
            if (spec.axes[j].name == a.name)
                specErr(origin, spec.axes[j].line,
                        sformat("duplicate axis '%s'", a.name.c_str()));
        }
        if (a.key.empty())
            specErr(origin, a.line,
                    sformat("axis '%s' has no key", a.name.c_str()));
        if (a.values.empty())
            specErr(origin, a.line,
                    sformat("axis '%s' has no values", a.name.c_str()));
        for (std::size_t v = 0; v < a.values.size(); ++v) {
            if (a.values[v].empty() ||
                a.values[v].find(',') != std::string::npos)
                specErr(origin, a.line,
                        sformat("axis '%s': bad value '%s' (empty or "
                                "contains ',')", a.name.c_str(),
                                a.values[v].c_str()));
            if (a.indexOf(a.values[v]) != v)
                specErr(origin, a.line,
                        sformat("axis '%s': duplicate value '%s'",
                                a.name.c_str(), a.values[v].c_str()));
        }
        auto checkLabels = [&](const std::vector<std::string> &ls,
                               const std::string &set) {
            if (ls.size() != a.values.size())
                specErr(origin, a.line,
                        sformat("axis '%s': %zu values but %zu "
                                "labels%s%s", a.name.c_str(),
                                a.values.size(), ls.size(),
                                set.empty() ? "" : " in set ",
                                set.c_str()));
            for (const std::string &l : ls) {
                if (l.find(',') != std::string::npos)
                    specErr(origin, a.line,
                            sformat("axis '%s': label '%s' contains "
                                    "','", a.name.c_str(), l.c_str()));
            }
        };
        if (!a.labels.empty())
            checkLabels(a.labels, "");
        for (const auto &ls : a.label_sets) {
            if (!validName(ls.first))
                specErr(origin, a.line,
                        sformat("axis '%s': invalid label-set name "
                                "'%s'", a.name.c_str(),
                                ls.first.c_str()));
            checkLabels(ls.second, ls.first);
        }
    }

    for (std::size_t i = 0; i < spec.grids.size(); ++i) {
        const SweepGrid &g = spec.grids[i];
        if (!validName(g.name) || g.name == "base")
            specErr(origin, g.line,
                    sformat("invalid grid name '%s'", g.name.c_str()));
        for (std::size_t j = i + 1; j < spec.grids.size(); ++j) {
            if (spec.grids[j].name == g.name)
                specErr(origin, spec.grids[j].line,
                        sformat("duplicate grid '%s'", g.name.c_str()));
        }
        if (spec.findAxis(g.name) != nullptr)
            specErr(origin, g.line,
                    sformat("grid '%s' collides with an axis name",
                            g.name.c_str()));
        if (g.point.empty())
            specErr(origin, g.line,
                    sformat("grid '%s' has no point template",
                            g.name.c_str()));
        for (std::size_t ai = 0; ai < g.axes.size(); ++ai) {
            if (spec.findAxis(g.axes[ai]) == nullptr)
                specErr(origin, g.line,
                        sformat("grid '%s': unknown axis '%s'",
                                g.name.c_str(), g.axes[ai].c_str()));
            for (std::size_t aj = ai + 1; aj < g.axes.size(); ++aj) {
                if (g.axes[aj] == g.axes[ai])
                    specErr(origin, g.line,
                            sformat("grid '%s': duplicate axis '%s'",
                                    g.name.c_str(), g.axes[ai].c_str()));
            }
        }
        checkMetricList(g.metrics);
        if (spec.record == SweepRecordView::Select &&
            g.metrics.empty() && spec.metrics.empty())
            specErr(origin, g.line,
                    sformat("grid '%s': record=select needs metric "
                            "lines (sweep-level or per-grid)",
                            g.name.c_str()));
    }
    if (spec.grids.empty())
        specErr(origin, 0, "sweep has no grids");

    // Resolving every point validates axis keys, set lines, and
    // name-template placeholders with their declaring lines — before
    // any simulation runs, so a bad sweep (or a bad --set override)
    // can never discard a finished run at render time.
    const std::vector<SweepPoint> points =
        expandSweepSpec(spec, origin);

    // Output elements.
    auto checkBinds =
        [&](const std::vector<std::pair<std::string, std::string>> &bs,
            const SweepGrid &g, unsigned line) {
            for (const auto &[axis, value] : bs) {
                const SweepAxis *a = spec.findAxis(axis);
                if (a == nullptr)
                    specErr(origin, line,
                            sformat("unknown axis '%s' in binding",
                                    axis.c_str()));
                bool in_grid = false;
                for (const std::string &ga : g.axes)
                    in_grid = in_grid || ga == axis;
                if (!in_grid)
                    specErr(origin, line,
                            sformat("axis '%s' is not an axis of grid "
                                    "'%s'", axis.c_str(),
                                    g.name.c_str()));
                if (a->indexOf(value) == std::string::npos)
                    specErr(origin, line,
                            sformat("axis '%s' has no value '%s'",
                                    axis.c_str(), value.c_str()));
            }
        };

    for (const SweepOutput &o : spec.outputs) {
        if (o.kind == SweepOutput::Kind::Text)
            continue;
        if (o.kind == SweepOutput::Kind::Note) {
            if (o.point.empty() || o.text.empty())
                specErr(origin, o.line,
                        "note needs note_point and note_text");
            const SweepGrid *note_grid = nullptr;
            for (const SweepPoint &p : points) {
                if (p.name == o.point) {
                    note_grid = p.grid;
                    break;
                }
            }
            if (note_grid == nullptr)
                specErr(origin, o.line,
                        sformat("note: no point named '%s'",
                                o.point.c_str()));
            // Placeholders: {metric:digits}, keys of the point's view.
            for (std::size_t i = 0; i < o.text.size(); ++i) {
                if (o.text[i] != '{')
                    continue;
                const std::size_t close = o.text.find('}', i);
                if (close == std::string::npos)
                    specErr(origin, o.line, "unterminated '{' in note");
                const std::string ref =
                    o.text.substr(i + 1, close - i - 1);
                const std::size_t colon = ref.find(':');
                std::uint64_t digits = 0;
                if (colon == std::string::npos ||
                    !parseU64(ref.substr(colon + 1), digits) ||
                    digits > 17)
                    specErr(origin, o.line,
                            sformat("bad note placeholder '{%s}' "
                                    "(want {metric:digits})",
                                    ref.c_str()));
                const std::string key = ref.substr(0, colon);
                if (!sweepRecordHasKey(spec, *note_grid, key))
                    specErr(origin, o.line,
                            sformat("note: no metric '%s' in the "
                                    "records of grid '%s'",
                                    key.c_str(),
                                    note_grid->name.c_str()));
                i = close;
            }
            continue;
        }
        if (o.kind == SweepOutput::Kind::WorkloadTable) {
            const SweepWorkloadTable &w = o.wtable;
            if (spec.record != SweepRecordView::Scenario)
                specErr(origin, o.line,
                        "workload_table needs record = scenario");
            const SweepGrid *g = spec.findGrid(w.grid);
            if (g == nullptr)
                specErr(origin, o.line,
                        sformat("workload_table: unknown grid '%s'",
                                w.grid.c_str()));
            checkBinds(w.fix, *g, o.line);
            const SweepAxis *sa = spec.findAxis(w.scheme_axis);
            if (sa == nullptr)
                specErr(origin, o.line,
                        sformat("workload_table: unknown scheme axis "
                                "'%s'", w.scheme_axis.c_str()));
            auto checkValue = [&](const std::string &v,
                                  const char *what) {
                if (!v.empty() &&
                    sa->indexOf(v) == std::string::npos)
                    specErr(origin, o.line,
                            sformat("workload_table: %s '%s' is not a "
                                    "value of axis '%s'", what,
                                    v.c_str(), sa->name.c_str()));
            };
            if (w.baseline.empty())
                specErr(origin, o.line,
                        "workload_table needs wt_baseline");
            checkValue(w.baseline, "baseline");
            if (w.columns.empty())
                specErr(origin, o.line,
                        "workload_table needs wt_columns");
            for (const std::string &c : w.columns)
                checkValue(c, "column");
            checkValue(w.star, "star");
            checkValue(w.hit, "hit");
            const std::size_t want =
                2 + w.columns.size() + (w.hit.empty() ? 0 : 1);
            if (w.headers.size() != want)
                specErr(origin, o.line,
                        sformat("workload_table: %zu headers for %zu "
                                "columns", w.headers.size(), want));
            if (!w.agg_headers.empty() &&
                w.agg_headers.size() != 1 + w.columns.size())
                specErr(origin, o.line,
                        sformat("workload_table: %zu agg headers for "
                                "%zu columns", w.agg_headers.size(),
                                1 + w.columns.size()));
            continue;
        }
        // Table.
        const SweepTableSpec &t = o.table;
        if (t.headers.empty())
            specErr(origin, o.line, "table has no headers");
        const SweepGrid *ref_grid = nullptr;
        if (!t.ref_grid.empty()) {
            ref_grid = spec.findGrid(t.ref_grid);
            if (ref_grid == nullptr)
                specErr(origin, o.line,
                        sformat("table ref: unknown grid '%s'",
                                t.ref_grid.c_str()));
            checkBinds(t.ref, *ref_grid, o.line);
            for (const std::string &ga : ref_grid->axes) {
                bool bound = false;
                for (const auto &[axis, value] : t.ref)
                    bound = bound || axis == ga;
                if (!bound)
                    specErr(origin, o.line,
                            sformat("table ref: axis '%s' of grid "
                                    "'%s' unbound", ga.c_str(),
                                    ref_grid->name.c_str()));
            }
        }
        if (t.blocks.empty())
            specErr(origin, o.line, "table has no row blocks");
        for (const SweepRowBlock &b : t.blocks) {
            const SweepGrid *g = spec.findGrid(b.grid);
            if (g == nullptr)
                specErr(origin, b.line,
                        sformat("block: unknown grid '%s'",
                                b.grid.c_str()));
            for (const std::string &axis : b.axes) {
                bool in_grid = false;
                for (const std::string &ga : g->axes)
                    in_grid = in_grid || ga == axis;
                if (!in_grid)
                    specErr(origin, b.line,
                            sformat("block: '%s' is not an axis of "
                                    "grid '%s'", axis.c_str(),
                                    g->name.c_str()));
            }
            checkBinds(b.fix, *g, b.line);
            if (b.cells.size() != t.headers.size())
                specErr(origin, b.line,
                        sformat("block has %zu cells for %zu headers",
                                b.cells.size(), t.headers.size()));
            for (const SweepCellSpec &c : b.cells) {
                checkBinds(c.bind, *g, c.line);
                if ((c.op == "rel" || c.op == "agg") &&
                    t.ref_grid.empty())
                    specErr(origin, c.line,
                            sformat("cell: %s needs a table ref",
                                    c.op.c_str()));
                if (c.op == "agg" &&
                    spec.record != SweepRecordView::Scenario)
                    specErr(origin, c.line,
                            "cell: agg needs record = scenario");
                if (c.op == "text") {
                    // Dry-run the substitution with the row's
                    // bindings (fix values, first value of each
                    // varying axis): unknown axes, unbound axes, and
                    // missing label sets reject here, not after the
                    // whole sweep has run.
                    SweepBinding binding;
                    for (const auto &[axis, value] : b.fix)
                        binding.emplace_back(
                            axis, spec.findAxis(axis)->indexOf(value));
                    for (const std::string &axis : b.axes)
                        binding.emplace_back(axis, 0);
                    sweepSubstitute(spec, c.arg, binding, origin,
                                    c.line);
                }
                if (c.op == "num" || c.op == "pct" || c.op == "rel") {
                    if (!sweepRecordHasKey(spec, *g, c.arg))
                        specErr(origin, c.line,
                                sformat("cell: no metric '%s' in the "
                                        "records of grid '%s'",
                                        c.arg.c_str(),
                                        g->name.c_str()));
                    if (c.op == "rel" && ref_grid != nullptr &&
                        !sweepRecordHasKey(spec, *ref_grid, c.arg))
                        specErr(origin, c.line,
                                sformat("cell: no metric '%s' in the "
                                        "reference grid '%s'",
                                        c.arg.c_str(),
                                        ref_grid->name.c_str()));
                }
                if (c.op == "num" || c.op == "pct" || c.op == "rel") {
                    // Every axis of the block's grid must be bound by
                    // the row (block axes + fix) or the cell itself.
                    for (const std::string &ga : g->axes) {
                        bool bound = false;
                        for (const std::string &ba : b.axes)
                            bound = bound || ba == ga;
                        for (const auto &[axis, value] : b.fix)
                            bound = bound || axis == ga;
                        for (const auto &[axis, value] : c.bind)
                            bound = bound || axis == ga;
                        if (!bound)
                            specErr(origin, c.line,
                                    sformat("cell: axis '%s' of grid "
                                            "'%s' unbound",
                                            ga.c_str(),
                                            g->name.c_str()));
                    }
                }
            }
        }
    }

}

SweepSpec
parseSweepSpec(const std::string &text, const std::string &origin)
{
    SweepSpec spec;
    spec.base.windows = Windows{250 * kMsec, 100 * kMsec};

    SweepOutput *cur_out = nullptr;
    SweepRowBlock *cur_block = nullptr;

    auto curTable = [&](unsigned line) -> SweepTableSpec & {
        if (cur_out == nullptr ||
            cur_out->kind != SweepOutput::Kind::Table)
            specErr(origin, line, "no open table ('out = table' first)");
        return cur_out->table;
    };
    auto curWt = [&](unsigned line) -> SweepWorkloadTable & {
        if (cur_out == nullptr ||
            cur_out->kind != SweepOutput::Kind::WorkloadTable)
            specErr(origin, line,
                    "no open workload_table ('out = workload_table' "
                    "first)");
        return cur_out->wtable;
    };
    auto curNote = [&](unsigned line) -> SweepOutput & {
        if (cur_out == nullptr ||
            cur_out->kind != SweepOutput::Kind::Note)
            specErr(origin, line, "no open note ('out = note' first)");
        return *cur_out;
    };

    std::istringstream in(text);
    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const std::string s = trim(raw);
        if (s.empty() || s[0] == '#')
            continue;
        const std::size_t eq = s.find('=');
        if (eq == std::string::npos)
            specErr(origin, line,
                    sformat("expected 'key = value', got '%s'",
                            s.c_str()));
        const std::string key = trim(s.substr(0, eq));
        const std::string value = trim(s.substr(eq + 1));
        if (key.empty())
            specErr(origin, line, "empty key");
        if (value.empty())
            specErr(origin, line,
                    sformat("empty value for '%s'", key.c_str()));

        // ---- bare keys ---------------------------------------------
        if (key == "sweep") {
            spec.name = value;
            continue;
        }
        if (key == "record") {
            if (!viewFromName(value, spec.record))
                specErr(origin, line,
                        sformat("unknown record view '%s' (want spec, "
                                "micro, scenario, or select)",
                                value.c_str()));
            continue;
        }
        if (key == "scenario") {
            applySweepAssignment(spec.base, "scenario", value, origin,
                                 line);
            continue;
        }
        if (key == "metric") {
            const std::size_t colon = value.find(':');
            if (colon == std::string::npos)
                specErr(origin, line,
                        "metric wants '<key>: <expression>'");
            spec.metrics.push_back(SpecKnob{trim(value.substr(0, colon)),
                                            trim(value.substr(colon + 1)),
                                            line});
            continue;
        }
        if (key == "axis") {
            SweepAxis a;
            a.name = value;
            a.line = line;
            spec.axes.push_back(std::move(a));
            continue;
        }
        if (key == "grid") {
            SweepGrid g;
            g.name = value;
            g.line = line;
            spec.grids.push_back(std::move(g));
            continue;
        }
        if (key == "out") {
            SweepOutput o;
            o.line = line;
            if (value.rfind("text ", 0) == 0) {
                o.kind = SweepOutput::Kind::Text;
                o.text = unescText(value.substr(5), origin, line);
            } else if (value == "table") {
                o.kind = SweepOutput::Kind::Table;
            } else if (value == "workload_table") {
                o.kind = SweepOutput::Kind::WorkloadTable;
            } else if (value == "note") {
                o.kind = SweepOutput::Kind::Note;
            } else {
                specErr(origin, line,
                        sformat("unknown output '%s' (want 'text ...', "
                                "table, workload_table, or note)",
                                value.c_str()));
            }
            spec.outputs.push_back(std::move(o));
            cur_out = &spec.outputs.back();
            cur_block = nullptr;
            continue;
        }

        // ---- table-context keys ------------------------------------
        if (key == "headers") {
            curTable(line).headers = splitList(value, '|');
            continue;
        }
        if (key == "ref") {
            SweepTableSpec &t = curTable(line);
            const std::size_t sp = value.find(' ');
            t.ref_grid = value.substr(0, sp);
            t.ref = sp == std::string::npos
                        ? std::vector<std::pair<std::string,
                                                std::string>>{}
                        : parseBinds(value.substr(sp + 1), origin, line);
            continue;
        }
        if (key == "block") {
            SweepTableSpec &t = curTable(line);
            SweepRowBlock b;
            b.grid = value;
            b.line = line;
            t.blocks.push_back(std::move(b));
            cur_block = &t.blocks.back();
            continue;
        }
        if (key == "axes" || key == "fix" || key == "cell") {
            curTable(line);
            if (cur_block == nullptr)
                specErr(origin, line,
                        sformat("'%s' outside a block ('block = "
                                "<grid>' first)", key.c_str()));
            if (key == "axes")
                cur_block->axes = splitList(value, ',');
            else if (key == "fix")
                cur_block->fix = parseBinds(value, origin, line);
            else
                cur_block->cells.push_back(
                    parseCell(value, origin, line));
            continue;
        }

        // ---- workload_table keys -----------------------------------
        if (key.rfind("wt_", 0) == 0) {
            SweepWorkloadTable &w = curWt(line);
            const std::string f = key.substr(3);
            if (f == "grid")
                w.grid = value;
            else if (f == "fix")
                w.fix = parseBinds(value, origin, line);
            else if (f == "axis")
                w.scheme_axis = value;
            else if (f == "baseline")
                w.baseline = value;
            else if (f == "columns")
                w.columns = splitList(value, ',');
            else if (f == "star")
                w.star = value;
            else if (f == "hit")
                w.hit = value;
            else if (f == "title")
                w.title = unescText(value, origin, line);
            else if (f == "skip")
                w.skip_text = unescText(value, origin, line);
            else if (f == "headers")
                w.headers = splitList(value, '|');
            else if (f == "agg_headers")
                w.agg_headers = splitList(value, '|');
            else
                specErr(origin, line,
                        sformat("unknown workload_table key '%s'",
                                key.c_str()));
            continue;
        }

        // ---- note keys ---------------------------------------------
        if (key == "note_point") {
            curNote(line).point = value;
            continue;
        }
        if (key == "note_text") {
            curNote(line).text = unescText(value, origin, line);
            continue;
        }

        // ---- dotted keys: base.* / <axis>.* / <grid>.* -------------
        const std::size_t dot = key.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 >= key.size())
            specErr(origin, line,
                    sformat("unknown key '%s'", key.c_str()));
        const std::string prefix = key.substr(0, dot);
        const std::string sub = key.substr(dot + 1);

        if (prefix == "base") {
            applySweepAssignment(spec.base, sub, value, origin, line);
            continue;
        }
        if (SweepAxis *a = spec.findAxis(prefix)) {
            if (sub == "key") {
                a->key = value;
            } else if (sub == "values") {
                a->values = splitList(value, ',');
                a->range.clear();
            } else if (sub == "range") {
                a->values = expandRange(value, origin, line);
                a->range = value;
            } else if (sub == "labels") {
                a->labels = splitList(value, ',');
            } else if (sub.rfind("labels.", 0) == 0) {
                const std::string set = sub.substr(7);
                bool replaced = false;
                for (auto &ls : a->label_sets) {
                    if (ls.first == set) {
                        ls.second = splitList(value, ',');
                        replaced = true;
                        break;
                    }
                }
                if (!replaced)
                    a->label_sets.emplace_back(set,
                                               splitList(value, ','));
            } else {
                specErr(origin, line,
                        sformat("unknown axis key '%s.%s' (want key, "
                                "values, range, labels, or "
                                "labels.<set>)", prefix.c_str(),
                                sub.c_str()));
            }
            continue;
        }
        bool grid_found = false;
        for (SweepGrid &g : spec.grids) {
            if (g.name != prefix)
                continue;
            grid_found = true;
            if (sub == "point") {
                g.point = value;
            } else if (sub == "axes") {
                g.axes = splitList(value, ',');
            } else if (sub == "set") {
                const std::size_t seq = value.find('=');
                if (seq == std::string::npos)
                    specErr(origin, line,
                            sformat("bad set '%s' (want key=value)",
                                    value.c_str()));
                g.sets.push_back(SpecKnob{trim(value.substr(0, seq)),
                                          trim(value.substr(seq + 1)),
                                          line});
            } else if (sub == "metric") {
                const std::size_t colon = value.find(':');
                if (colon == std::string::npos)
                    specErr(origin, line,
                            "metric wants '<key>: <expression>'");
                g.metrics.push_back(
                    SpecKnob{trim(value.substr(0, colon)),
                             trim(value.substr(colon + 1)), line});
            } else {
                specErr(origin, line,
                        sformat("unknown grid key '%s.%s' (want "
                                "point, axes, set, or metric)",
                                prefix.c_str(), sub.c_str()));
            }
            break;
        }
        if (grid_found)
            continue;
        specErr(origin, line,
                sformat("unknown prefix '%s' (declare 'axis = %s' or "
                        "'grid = %s' first, or use base.*)",
                        prefix.c_str(), prefix.c_str(),
                        prefix.c_str()));
    }

    if (spec.name.empty())
        specErr(origin, 0, "missing 'sweep = <name>'");
    validateSweepSpec(spec, origin);
    return spec;
}

SweepSpec
loadSweepSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal(sformat("cannot read sweep file '%s'", path.c_str()));
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseSweepSpec(ss.str(), path);
}

std::string
serializeSweepSpec(const SweepSpec &spec)
{
    std::ostringstream out;
    out << "# a4 sweep spec\n";
    out << "sweep = " << spec.name << "\n";
    out << "record = " << viewName(spec.record) << "\n";

    out << "\n";
    {
        std::istringstream base(serializeSpec(spec.base));
        std::string l;
        while (std::getline(base, l)) {
            if (l.empty() || l[0] == '#')
                continue;
            out << "base." << l << "\n";
        }
    }

    auto metricLines = [&out](const std::vector<SpecKnob> &metrics,
                              const std::string &prefix) {
        for (const SpecKnob &m : metrics)
            out << prefix << "metric = " << m.key << ": " << m.value
                << "\n";
    };
    if (!spec.metrics.empty()) {
        out << "\n";
        metricLines(spec.metrics, "");
    }

    auto joined = [](const std::vector<std::string> &v, char sep) {
        std::string s;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                s += sep;
            s += v[i];
        }
        return s;
    };

    for (const SweepAxis &a : spec.axes) {
        out << "\naxis = " << a.name << "\n";
        out << a.name << ".key = " << a.key << "\n";
        if (!a.range.empty())
            out << a.name << ".range = " << a.range << "\n";
        else
            out << a.name << ".values = " << joined(a.values, ',')
                << "\n";
        if (!a.labels.empty())
            out << a.name << ".labels = " << joined(a.labels, ',')
                << "\n";
        for (const auto &ls : a.label_sets)
            out << a.name << ".labels." << ls.first << " = "
                << joined(ls.second, ',') << "\n";
    }

    for (const SweepGrid &g : spec.grids) {
        out << "\ngrid = " << g.name << "\n";
        out << g.name << ".point = " << g.point << "\n";
        if (!g.axes.empty())
            out << g.name << ".axes = " << joined(g.axes, ',') << "\n";
        for (const SpecKnob &s : g.sets)
            out << g.name << ".set = " << s.key << "=" << s.value
                << "\n";
        metricLines(g.metrics, g.name + ".");
    }

    for (const SweepOutput &o : spec.outputs) {
        out << "\n";
        switch (o.kind) {
          case SweepOutput::Kind::Text:
            out << "out = text " << escText(o.text) << "\n";
            break;
          case SweepOutput::Kind::Note:
            out << "out = note\n";
            out << "note_point = " << o.point << "\n";
            out << "note_text = " << escText(o.text) << "\n";
            break;
          case SweepOutput::Kind::WorkloadTable: {
            const SweepWorkloadTable &w = o.wtable;
            out << "out = workload_table\n";
            out << "wt_grid = " << w.grid << "\n";
            if (!w.fix.empty())
                out << "wt_fix = " << bindsText(w.fix) << "\n";
            out << "wt_axis = " << w.scheme_axis << "\n";
            out << "wt_baseline = " << w.baseline << "\n";
            out << "wt_columns = " << joined(w.columns, ',') << "\n";
            if (!w.star.empty())
                out << "wt_star = " << w.star << "\n";
            if (!w.hit.empty())
                out << "wt_hit = " << w.hit << "\n";
            if (!w.title.empty())
                out << "wt_title = " << escText(w.title) << "\n";
            if (!w.skip_text.empty())
                out << "wt_skip = " << escText(w.skip_text) << "\n";
            out << "wt_headers = " << joined(w.headers, '|') << "\n";
            if (!w.agg_headers.empty())
                out << "wt_agg_headers = " << joined(w.agg_headers, '|')
                    << "\n";
            break;
          }
          case SweepOutput::Kind::Table: {
            const SweepTableSpec &t = o.table;
            out << "out = table\n";
            out << "headers = " << joined(t.headers, '|') << "\n";
            if (!t.ref_grid.empty()) {
                out << "ref = " << t.ref_grid;
                if (!t.ref.empty())
                    out << " " << bindsText(t.ref);
                out << "\n";
            }
            for (const SweepRowBlock &b : t.blocks) {
                out << "block = " << b.grid << "\n";
                if (!b.axes.empty())
                    out << "axes = " << joined(b.axes, ',') << "\n";
                if (!b.fix.empty())
                    out << "fix = " << bindsText(b.fix) << "\n";
                for (const SweepCellSpec &c : b.cells)
                    out << "cell = " << cellText(c) << "\n";
            }
            break;
          }
        }
    }
    return out.str();
}

void
applySweepOverrides(SweepSpec &spec,
                    const std::vector<std::string> &assignments,
                    const std::string &origin)
{
    for (const std::string &assignment : assignments) {
        const std::size_t eq = assignment.find('=');
        if (eq == std::string::npos)
            fatal(sformat("%s: expected 'key=value', got '%s'",
                          origin.c_str(), assignment.c_str()));
        const std::string key = trim(assignment.substr(0, eq));
        const std::string value = trim(assignment.substr(eq + 1));
        if (key.empty() || value.empty())
            fatal(sformat("%s: expected 'key=value', got '%s'",
                          origin.c_str(), assignment.c_str()));

        if (key == "record") {
            if (!viewFromName(value, spec.record))
                fatal(sformat("%s: unknown record view '%s'",
                              origin.c_str(), value.c_str()));
            continue;
        }
        if (key == "scenario") {
            applySweepAssignment(spec.base, "scenario", value, origin,
                                 0);
            continue;
        }
        const std::size_t dot = key.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 >= key.size())
            fatal(sformat("%s: unknown sweep key '%s' (want record, "
                          "scenario, base.*, or <axis>.*)",
                          origin.c_str(), key.c_str()));
        const std::string prefix = key.substr(0, dot);
        const std::string sub = key.substr(dot + 1);
        if (prefix == "base") {
            applySweepAssignment(spec.base, sub, value, origin, 0);
            continue;
        }
        SweepAxis *a = spec.findAxis(prefix);
        if (a == nullptr)
            fatal(sformat("%s: unknown axis '%s' in '%s'",
                          origin.c_str(), prefix.c_str(), key.c_str()));
        if (sub == "key") {
            a->key = value;
        } else if (sub == "values") {
            a->values = splitList(value, ',');
            a->range.clear();
            // Redefined values invalidate any parallel label lists;
            // names fall back to the values unless labels are also
            // overridden in the same batch.
            if (a->labels.size() != a->values.size())
                a->labels.clear();
            for (auto it = a->label_sets.begin();
                 it != a->label_sets.end();) {
                if (it->second.size() != a->values.size())
                    it = a->label_sets.erase(it);
                else
                    ++it;
            }
        } else if (sub == "range") {
            a->values = expandRange(value, origin, 0);
            a->range = value;
            a->labels.clear();
            a->label_sets.clear();
        } else if (sub == "labels") {
            a->labels = splitList(value, ',');
        } else if (sub.rfind("labels.", 0) == 0) {
            const std::string set = sub.substr(7);
            bool replaced = false;
            for (auto &ls : a->label_sets) {
                if (ls.first == set) {
                    ls.second = splitList(value, ',');
                    replaced = true;
                    break;
                }
            }
            if (!replaced)
                a->label_sets.emplace_back(set, splitList(value, ','));
        } else {
            fatal(sformat("%s: unknown axis key '%s' (want key, "
                          "values, range, labels, or labels.<set>)",
                          origin.c_str(), key.c_str()));
        }
    }
    validateSweepSpec(spec, origin);
}

} // namespace a4
