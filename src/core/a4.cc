#include "core/a4.hh"

#include <algorithm>

#include "sim/log.hh"

namespace a4
{

A4Params
a4Variant(char variant, const A4Params &base)
{
    A4Params p = base;
    switch (variant) {
      case 'a':
        p.safeguard_io = false;
        p.selective_ddio = false;
        p.pseudo_bypass = false;
        break;
      case 'b':
        p.safeguard_io = true;
        p.selective_ddio = false;
        p.pseudo_bypass = false;
        break;
      case 'c':
        p.safeguard_io = true;
        p.selective_ddio = true;
        p.pseudo_bypass = false;
        break;
      case 'd':
        p.safeguard_io = true;
        p.selective_ddio = true;
        p.pseudo_bypass = true;
        break;
      default:
        fatal(sformat("a4Variant: unknown variant '%c'", variant));
    }
    return p;
}

A4Manager::A4Manager(Engine &eng_, CacheSystem &cache_,
                     CatController &cat_, DdioController &ddio_,
                     Dram &dram_, PcieTopology &pcie_,
                     const A4Params &params)
    : eng(eng_), cache(cache_), cat(cat_), ddio(ddio_), pcie(pcie_),
      pcm(eng_, cache_, dram_, pcie_), prm(params)
{
    if (cat.numClos() <= kClosTrash)
        fatal("A4Manager: CAT exposes too few CLOS");
}

// --- registration --------------------------------------------------------

void
A4Manager::addWorkload(const WorkloadDesc &desc)
{
    if (desc.id == kNoWorkload)
        fatal("A4Manager: workload id 0 is reserved");
    for (const auto &w : wls) {
        if (w.desc.id == desc.id)
            fatal(sformat("A4Manager: workload %u already registered",
                          desc.id));
    }
    WlState st;
    st.desc = desc;
    st.effective = desc.priority;
    wls.push_back(std::move(st));
    layout_dirty = true;
}

void
A4Manager::removeWorkload(WorkloadId id)
{
    auto it = std::find_if(wls.begin(), wls.end(), [&](const WlState &w) {
        return w.desc.id == id;
    });
    if (it == wls.end())
        fatal(sformat("A4Manager: workload %u not registered", id));
    if (it->ddio_off)
        ddio.enableDcaForPort(it->desc.port);
    wls.erase(it);
    layout_dirty = true;
}

// --- daemon --------------------------------------------------------------

void
A4Manager::start()
{
    if (running)
        return;
    running = true;
    if (!periodic_ev.initialized())
        periodic_ev.init(eng, [this] { periodic(); });
    periodic_ev.arm(prm.monitor_interval);
}

void
A4Manager::periodic()
{
    if (!running)
        return;
    tick();
    periodic_ev.arm(prm.monitor_interval);
}

void
A4Manager::sampleAll()
{
    for (auto &w : wls)
        w.last = pcm.sampleWorkload(w.desc.id);
    last_sys = pcm.sampleSystem();
}

bool
A4Manager::anyIoHpw() const
{
    for (const auto &w : wls) {
        if (w.desc.is_io && w.effective == QosPriority::High)
            return true;
    }
    return false;
}

// --- layout --------------------------------------------------------------

void
A4Manager::computeInitialLayout()
{
    const CacheGeometry &g = cache.geometry();
    const bool io = anyIoHpw() && prm.safeguard_io;
    lp_init_hi = io ? g.firstInclusiveWay() - 1 : g.llc_ways - 1;
    lp_init_lo = lp_init_hi - 1;
    lp_min_lo = io ? g.dca_ways : 0;
}

unsigned
A4Manager::closFor(const WlState &w) const
{
    if (w.effective == QosPriority::High)
        return w.desc.is_io ? kClosIoHpw : kClosNonIoHpw;
    if (w.antagonist && prm.pseudo_bypass)
        return kClosTrash;
    if (prm.per_tenant_clos && w.lp_clos != 0)
        return w.lp_clos;
    return kClosLpw;
}

bool
A4Manager::isLpw(const WlState &w) const
{
    return w.effective == QosPriority::Low &&
           !(w.antagonist && prm.pseudo_bypass);
}

void
A4Manager::regroupLpTenants()
{
    if (!prm.per_tenant_clos)
        return;

    std::vector<std::size_t> lpws;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        if (isLpw(wls[i]))
            lpws.push_back(i);
        else
            wls[i].lp_clos = 0; // left the LP Zone
    }

    // CLOS 0 is the OS default and 1..kClosTrash are the fixed A4
    // classes; everything past them is available to LP tenants.
    const unsigned budget = cat.numClos() > kClosTrash + 1
                                ? cat.numClos() - (kClosTrash + 1)
                                : 0;
    if (budget == 0 || lpws.empty()) {
        for (std::size_t i : lpws)
            wls[i].lp_clos = 0; // shared kClosLpw
        return;
    }

    // Cluster by observed cache behavior. Before the first monitor
    // interval every sample is zero, so every tenant looks alike —
    // groupTenants() still hands out distinct groups while the count
    // fits the budget, and the id tie-break keeps it deterministic.
    std::vector<ClosTenant> tenants;
    tenants.reserve(lpws.size());
    for (std::size_t i : lpws) {
        const WlState &w = wls[i];
        tenants.push_back({w.desc.id, w.last.llcMissRate(),
                           w.last.missesPerAccess()});
    }
    const std::vector<unsigned> grp = groupTenants(tenants, budget);

    bool changed = false;
    unsigned groups = 0;
    for (std::size_t k = 0; k < lpws.size(); ++k) {
        const std::uint32_t want = kClosTrash + 1 + grp[k];
        if (wls[lpws[k]].lp_clos != want) {
            wls[lpws[k]].lp_clos = want;
            changed = true;
        }
        groups = std::max(groups, grp[k] + 1);
    }
    if (changed)
        inform(sformat("A4: grouped %zu LP tenants into %u CLOS",
                       lpws.size(), groups));
}

void
A4Manager::applyAllocation()
{
    regroupLpTenants();

    const CacheGeometry &g = cache.geometry();
    const WayMask full = CatController::fullMask(g.llc_ways);
    const bool io = anyIoHpw() && prm.safeguard_io;

    // I/O HPWs are deliberately unconstrained (O3: they must cover the
    // DCA and inclusive ways); non-I/O HPWs are kept off the DCA ways
    // once I/O HPWs exist (latent-contention avoidance).
    cat.setClosMask(kClosIoHpw, full);
    cat.setClosMask(kClosNonIoHpw,
                    io ? CatController::makeMask(g.dca_ways,
                                                 g.llc_ways - 1)
                       : full);
    const WayMask lp_mask = CatController::makeMask(lp_lo, lp_hi);
    cat.setClosMask(kClosLpw, lp_mask);
    cat.setClosMask(kClosTrash,
                    CatController::makeMask(std::min(trash_lo, lp_hi),
                                            lp_hi));
    // Per-tenant / grouped LP CLOS all carry the LP-Zone mask: the
    // grouping decides CLOS-id sharing (so per-group occupancy is
    // observable and the id space never exhausts), not capacity — the
    // paper's LP-Zone allocation semantics are preserved exactly.
    for (const auto &w : wls) {
        if (w.lp_clos != 0)
            cat.setClosMask(w.lp_clos, lp_mask);
    }

    for (const auto &w : wls) {
        unsigned clos = closFor(w);
        for (CoreId c : w.desc.cores)
            cat.assignCore(c, clos);
    }
}

void
A4Manager::applyRevertAllocation()
{
    // Probe allocation: LP Zone back at the initial partitions; the
    // other zones keep their current shape.
    unsigned cur_lo = lp_lo, cur_hi = lp_hi;
    lp_lo = lp_init_lo;
    lp_hi = lp_init_hi;
    applyAllocation();
    lp_lo = cur_lo;
    lp_hi = cur_hi;
    cat.setClosMask(kClosLpw,
                    CatController::makeMask(lp_init_lo, lp_init_hi));
}

void
A4Manager::enterInit()
{
    computeInitialLayout();
    lp_lo = lp_init_lo;
    lp_hi = lp_init_hi;
    trash_lo = lp_lo;
    trash_frozen = false;
    shrink_pending_check = false;
    stable_count = 0;
    revert_count = 0;
    intervals_since_expand = 0;
    for (auto &w : wls)
        w.baseline_hit = -1.0;
    applyAllocation();
    phase_ = Phase::Baseline;
    layout_dirty = false;
}

// --- measurements ----------------------------------------------------------

void
A4Manager::recordBaselines()
{
    for (auto &w : wls) {
        if (w.effective != QosPriority::High)
            continue;
        if (w.last.llc_hit + w.last.llc_miss >= prm.min_accesses)
            w.baseline_hit = w.last.llcHitRate();
    }
}

bool
A4Manager::hpwDegradedVsBaseline() const
{
    for (const auto &w : wls) {
        if (w.effective != QosPriority::High || w.baseline_hit < 0.0)
            continue;
        if (w.last.llc_hit + w.last.llc_miss < prm.min_accesses)
            continue;
        if (w.baseline_hit - w.last.llcHitRate() > prm.hpw_llc_hit_thr)
            return true;
    }
    return false;
}

// --- detectors -------------------------------------------------------------

void
A4Manager::runDetectors()
{
    for (auto &w : wls) {
        // (F2) Storage-driven DMA-leak detection (§5.4).
        if (prm.selective_ddio && w.desc.is_io &&
            w.desc.io_class == DeviceClass::Storage && !w.ddio_off) {
            const WorkloadSample &s = w.last;
            bool leaky = s.dma_written >= prm.min_dma_lines &&
                         s.dcaMissRate() > prm.dmalk_dca_ms_thr;
            bool missing = s.llc_hit + s.llc_miss >= prm.min_accesses &&
                           s.llcMissRate() > prm.dmalk_llc_ms_thr;
            bool dominant = last_sys.ingressShare(w.desc.port) >
                            prm.dmalk_io_tp_thr;
            if (leaky && missing && dominant) {
                ddio.disableDcaForPort(w.desc.port);
                w.ddio_off = true;
                w.antagonist = true;
                w.effective = QosPriority::Low;
                w.ingress_at_detect = static_cast<double>(
                    last_sys.ports[w.desc.port].ingress_bytes);
                inform(sformat("A4: DDIO disabled for '%s' (port %u)",
                               w.desc.name.c_str(), w.desc.port));
                enterInit();
                return;
            }
        }

        // Pseudo-LLC-bypass antagonist detection (§5.5).
        if (prm.pseudo_bypass && !w.desc.is_io && !w.antagonist) {
            const WorkloadSample &s = w.last;
            bool enough = s.mlc_hit + s.mlc_miss >= prm.min_accesses &&
                          s.llc_hit + s.llc_miss >= prm.min_accesses;
            if (enough && s.mlcMissRate() > prm.ant_cache_miss_thr &&
                s.llcMissRate() > prm.ant_cache_miss_thr) {
                w.antagonist = true;
                w.effective = QosPriority::Low;
                w.miss_at_detect = s.llcMissRate();
                trash_lo = lp_lo;
                trash_frozen = false;
                shrink_pending_check = false;
                inform(sformat("A4: '%s' detected as antagonist",
                               w.desc.name.c_str()));
                applyAllocation();
            }
        }
    }
}

void
A4Manager::runTrashShrink()
{
    if (!prm.pseudo_bypass)
        return;
    bool any_ant = std::any_of(wls.begin(), wls.end(),
                               [](const WlState &w) {
                                   return w.antagonist;
                               });
    if (!any_ant)
        return;

    // Stability metrics: antagonist miss rates, storage-antagonist
    // I/O throughput, and system memory bandwidth (§5.5).
    double miss_sum = 0.0;
    unsigned miss_n = 0;
    double io_tp = 0.0;
    for (const auto &w : wls) {
        if (!w.antagonist)
            continue;
        if (!w.desc.is_io &&
            w.last.llc_hit + w.last.llc_miss >= prm.min_accesses) {
            miss_sum += w.last.llcMissRate();
            ++miss_n;
        }
        if (w.desc.is_io && w.desc.port < last_sys.ports.size()) {
            io_tp += static_cast<double>(
                last_sys.ports[w.desc.port].ingress_bytes);
        }
    }
    double miss_now = miss_n ? miss_sum / miss_n : 0.0;
    double membw_now = static_cast<double>(last_sys.mem_rd_bytes +
                                           last_sys.mem_wr_bytes);

    if (shrink_pending_check) {
        shrink_pending_check = false;
        bool unstable = false;
        if (missrate_before_shrink > 0.0 &&
            miss_now > missrate_before_shrink *
                           (1.0 + prm.stability_fluct))
            unstable = true;
        if (iotp_before_shrink > 0.0 &&
            io_tp < iotp_before_shrink * (1.0 - prm.stability_fluct))
            unstable = true;
        if (membw_before_shrink > 0.0 &&
            membw_now > membw_before_shrink *
                            (1.0 + prm.stability_fluct))
            unstable = true;
        if (unstable) {
            if (trash_lo > lp_lo)
                --trash_lo;
            trash_frozen = true;
            applyAllocation();
            return;
        }
    }

    if (trash_frozen)
        return;

    // Walk antagonists down toward the single rightmost LP way.
    if (trash_lo < lp_hi) {
        missrate_before_shrink = miss_now;
        iotp_before_shrink = io_tp;
        membw_before_shrink = membw_now;
        ++trash_lo;
        shrink_pending_check = true;
        applyAllocation();
    }
}

void
A4Manager::runRestorations()
{
    for (auto &w : wls) {
        if (!w.antagonist)
            continue;

        if (w.ddio_off) {
            // Storage antagonist: a large swing in storage throughput
            // signals a phase change (§5.6).
            double now_b = w.desc.port < last_sys.ports.size()
                               ? static_cast<double>(
                                     last_sys.ports[w.desc.port]
                                         .ingress_bytes)
                               : 0.0;
            if (w.ingress_at_detect > 0.0 &&
                std::abs(now_b - w.ingress_at_detect) /
                        w.ingress_at_detect >
                    prm.restore_fluct) {
                ddio.enableDcaForPort(w.desc.port);
                w.ddio_off = false;
                w.antagonist = false;
                w.effective = w.desc.priority;
                inform(sformat("A4: DDIO re-enabled for '%s'",
                               w.desc.name.c_str()));
                enterInit();
                return;
            }
        } else if (!w.desc.is_io) {
            if (w.last.llc_hit + w.last.llc_miss < prm.min_accesses)
                continue;
            double miss_now = w.last.llcMissRate();
            if (std::abs(miss_now - w.miss_at_detect) >
                prm.restore_fluct) {
                w.antagonist = false;
                w.effective = w.desc.priority;
                inform(sformat("A4: '%s' no longer antagonistic",
                               w.desc.name.c_str()));
                if (w.desc.priority == QosPriority::High) {
                    enterInit();
                    return;
                }
                applyAllocation();
            }
        }
    }
}

// --- the monitoring step ---------------------------------------------------

void
A4Manager::tick()
{
    ++tick_count;
    sampleAll();

    if (layout_dirty) {
        enterInit();
        return;
    }

    switch (phase_) {
      case Phase::Init:
        enterInit();
        break;

      case Phase::Baseline:
        recordBaselines();
        phase_ = Phase::Expanding;
        intervals_since_expand = 0;
        break;

      case Phase::Expanding:
        if (hpwDegradedVsBaseline()) {
            // Undo the last expansion and settle.
            if (lp_lo < lp_init_lo)
                ++lp_lo;
            applyAllocation();
            phase_ = Phase::Stable;
            stable_count = 0;
        } else if (++intervals_since_expand >= prm.expand_period) {
            if (lp_lo > lp_min_lo) {
                --lp_lo;
                applyAllocation();
                intervals_since_expand = 0;
            } else {
                phase_ = Phase::Stable;
                stable_count = 0;
            }
        }
        break;

      case Phase::Stable: {
        for (auto &w : wls) {
            if (w.effective == QosPriority::High &&
                w.last.llc_hit + w.last.llc_miss >= prm.min_accesses)
                w.stable_hit = w.last.llcHitRate();
        }
        if (hpwDegradedVsBaseline()) {
            enterInit(); // execution-phase change
            break;
        }
        runDetectors();
        if (phase_ != Phase::Baseline) {
            runTrashShrink();
            runRestorations();
        }
        if (phase_ == Phase::Stable &&
            prm.enable_revert &&
            ++stable_count >= prm.stable_intervals) {
            saved_lp_lo = lp_lo;
            applyRevertAllocation();
            revert_count = 0;
            phase_ = Phase::Reverting;
        }
        break;
      }

      case Phase::Reverting:
        if (++revert_count >= prm.revert_intervals) {
            // Attainable hit rate vs the stable allocation (§5.6).
            bool changed = false;
            for (const auto &w : wls) {
                if (w.effective != QosPriority::High ||
                    w.stable_hit < 0.0)
                    continue;
                if (w.last.llc_hit + w.last.llc_miss <
                    prm.min_accesses)
                    continue;
                if (w.last.llcHitRate() - w.stable_hit >
                    prm.hpw_llc_hit_thr)
                    changed = true;
            }
            lp_lo = saved_lp_lo;
            applyAllocation();
            if (changed) {
                enterInit();
            } else {
                phase_ = Phase::Stable;
                stable_count = 0;
            }
        }
        break;
    }
}

// --- introspection -----------------------------------------------------------

WayMask
A4Manager::lpMask() const
{
    return CatController::makeMask(lp_lo, lp_hi);
}

WayMask
A4Manager::hpNonIoMask() const
{
    return cat.closMask(kClosNonIoHpw);
}

WayMask
A4Manager::trashMask() const
{
    return cat.closMask(kClosTrash);
}

bool
A4Manager::isAntagonist(WorkloadId id) const
{
    for (const auto &w : wls) {
        if (w.desc.id == id)
            return w.antagonist;
    }
    return false;
}

bool
A4Manager::isDemoted(WorkloadId id) const
{
    for (const auto &w : wls) {
        if (w.desc.id == id) {
            return w.desc.priority == QosPriority::High &&
                   w.effective == QosPriority::Low;
        }
    }
    return false;
}

bool
A4Manager::ddioDisabled(PortId port) const
{
    return !ddio.allocatingWrites(port);
}

unsigned
A4Manager::closDemand() const
{
    unsigned lpws = 0;
    for (const auto &w : wls) {
        if (isLpw(w))
            ++lpws;
    }
    return kClosTrash + 1 + lpws;
}

unsigned
A4Manager::lpClosOf(WorkloadId id) const
{
    for (const auto &w : wls) {
        if (w.desc.id == id)
            return w.lp_clos != 0 ? w.lp_clos : kClosLpw;
    }
    return kClosLpw;
}

unsigned
A4Manager::lpGroupCount() const
{
    std::vector<unsigned> seen;
    for (const auto &w : wls) {
        if (!isLpw(w))
            continue;
        const unsigned c = w.lp_clos != 0 ? w.lp_clos : kClosLpw;
        if (std::find(seen.begin(), seen.end(), c) == seen.end())
            seen.push_back(c);
    }
    return static_cast<unsigned>(seen.size());
}

} // namespace a4
