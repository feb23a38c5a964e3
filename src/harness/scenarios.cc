#include "harness/scenarios.hh"

#include <cmath>

#include "harness/scaling.hh"
#include "harness/spec.hh"
#include "sim/log.hh"

namespace a4
{

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Default: return "Default";
      case Scheme::Isolate: return "Isolate";
      case Scheme::A4a: return "A4-a";
      case Scheme::A4b: return "A4-b";
      case Scheme::A4c: return "A4-c";
      case Scheme::A4d: return "A4-d";
      case Scheme::Static: return "Static";
    }
    return "?";
}

std::span<const Scheme>
allSchemes()
{
    static const Scheme all[] = {Scheme::Default, Scheme::Isolate,
                                 Scheme::A4a,     Scheme::A4b,
                                 Scheme::A4c,     Scheme::A4d};
    return all;
}

std::optional<Scheme>
schemeFromName(const std::string &name)
{
    for (Scheme s : allSchemes()) {
        if (name == schemeName(s))
            return s;
    }
    if (name == schemeName(Scheme::Static))
        return Scheme::Static;
    return std::nullopt;
}

char
a4Letter(Scheme s)
{
    switch (s) {
      case Scheme::A4a: return 'a';
      case Scheme::A4b: return 'b';
      case Scheme::A4c: return 'c';
      case Scheme::A4d: return 'd';
      default: panic("a4Letter: not an A4 scheme");
    }
}

Record
scenarioRecord(const SpecResult &sr)
{
    const SpecWorkloadResult *fc = sr.find("fastclick");
    const SpecWorkloadResult *fh = sr.find("ffsb-h");
    if (fc == nullptr || fh == nullptr)
        fatal("scenarioRecord: needs the canonical real-world mix "
              "('fastclick' and 'ffsb-h' workloads)");

    Record rec;
    rec.set("workloads", double(sr.workloads.size()));
    for (std::size_t i = 0; i < sr.workloads.size(); ++i) {
        const SpecWorkloadResult &w = sr.workloads[i];
        const std::string p = sformat("w%zu.", i);
        rec.set(p + "name", w.name);
        rec.set(p + "hpw", w.hpw ? 1.0 : 0.0);
        rec.set(p + "mtio", w.multithread_io ? 1.0 : 0.0);
        rec.set(p + "perf", w.perf);
        rec.set(p + "hit", w.llc_hit_rate);
        rec.set(p + "ant", w.antagonist ? 1.0 : 0.0);
        rec.set(p + "tail_us", w.tail_latency_us);
    }
    rec.set("fc_nic_to_host_us", fc->nic_to_host_ns / 1000.0);
    rec.set("fc_pointer_us", fc->pointer_ns / 1000.0);
    rec.set("fc_process_us", fc->process_ns / 1000.0);
    rec.set("ffsbh_read_ms", fh->read_ns / 1e6);
    rec.set("ffsbh_regex_ms", fh->regex_ns / 1e6);
    rec.set("ffsbh_write_ms", fh->write_ns / 1e6);
    // The historical association, (1e9 / window * scale / 1e9) *
    // bytes: regrouping it changes the last bit of the figures.
    const double to_gbps =
        1e9 / double(sr.measure_window) * sr.scale / 1e9;
    rec.set("fc_rd_gbps", fc->ingress_bytes * to_gbps);
    rec.set("fc_wr_gbps", fc->egress_bytes * to_gbps);
    rec.set("ffsbh_rd_gbps", fh->ingress_bytes * to_gbps);
    rec.set("ffsbh_wr_gbps", fh->egress_bytes * to_gbps);
    rec.set("mem_rd_gbps", unscaleBw(sr.mem_rd_bw_bps, sr.scale) / 1e9);
    rec.set("mem_wr_gbps", unscaleBw(sr.mem_wr_bw_bps, sr.scale) / 1e9);
    rec.set("past_events", sr.past_events);
    return rec;
}

MicroResult
microResultFromSpec(const SpecResult &sr)
{
    MicroResult res;
    for (unsigned v = 0; v < 3; ++v) {
        const SpecWorkloadResult *x =
            sr.find(sformat("xmem%u", v + 1));
        if (x == nullptr)
            fatal(sformat("microResultFromSpec: needs the canonical "
                          "micro mix (no 'xmem%u' workload)", v + 1));
        res.xmem_ipc[v] = x->ipc;
        res.xmem_hit[v] = x->llc_hit_rate;
    }
    const SpecWorkloadResult *dpdk = sr.find("dpdk-t");
    if (dpdk == nullptr)
        fatal("microResultFromSpec: needs the canonical micro mix "
              "(no 'dpdk-t' workload)");
    res.net_tail_us = dpdk->tail_latency_us;
    res.net_rd_gbps = dpdk->ingress_bytes * 1e9 /
                      double(sr.measure_window) * sr.scale / 1e9;
    res.past_events = sr.past_events;
    return res;
}

Record
toRecord(const MicroResult &r)
{
    Record rec;
    for (unsigned v = 0; v < 3; ++v) {
        rec.set(sformat("x%u_ipc", v + 1), r.xmem_ipc[v]);
        rec.set(sformat("x%u_hit", v + 1), r.xmem_hit[v]);
    }
    rec.set("net_tail_us", r.net_tail_us);
    rec.set("net_rd_gbps", r.net_rd_gbps);
    rec.set("past_events", r.past_events);
    return rec;
}

std::string
recordWorkload(const Record &rec, const std::string &name)
{
    const std::size_t n = std::size_t(rec.num("workloads"));
    for (std::size_t i = 0; i < n; ++i) {
        std::string p = sformat("w%zu.", i);
        if (rec.str(p + "name") == name)
            return p;
    }
    return "";
}

double
avgRelativePerf(const Record &r, const Record &baseline,
                std::optional<bool> hpw_filter)
{
    double log_sum = 0.0;
    unsigned n = 0;
    const std::size_t count = std::size_t(r.num("workloads"));
    for (std::size_t i = 0; i < count; ++i) {
        const std::string p = sformat("w%zu.", i);
        if (hpw_filter && (r.num(p + "hpw") != 0.0) != *hpw_filter)
            continue;
        const std::string b = recordWorkload(baseline, r.str(p + "name"));
        if (b.empty())
            continue;
        const double perf = r.num(p + "perf");
        const double base = baseline.num(b + "perf");
        if (base <= 0.0 || perf <= 0.0)
            continue;
        log_sum += std::log(perf / base);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

} // namespace a4
