/**
 * @file
 * A4: the runtime microarchitecture-aware LLC management framework
 * (§5 of the paper) — the primary contribution of this repository.
 *
 * A4 orchestrates CAT masks and per-port DDIO state from performance
 * counters only, at a fixed monitoring interval, following the Fig. 9
 * execution flow:
 *
 *  - (F1) Priority-based allocation (§5.2): an HP Zone that spans all
 *    usable ways and an LP Zone that starts at the two rightmost ways
 *    and expands leftward every `expand_period` intervals until some
 *    HPW's LLC hit rate drops more than T1 below its value at the
 *    initial partitions.
 *  - Safeguarding I/O buffers (§5.3): with I/O HPWs present, the DCA
 *    ways are reserved for them (non-I/O HPWs get way[2:10]) and the
 *    LP Zone is pushed off the inclusive ways (initial way[7:8]).
 *  - (F2) Selective DDIO disable (§5.4): a storage workload whose
 *    DCA miss rate exceeds T2, whose LLC miss rate exceeds T4, and
 *    whose share of PCIe write throughput exceeds T3 is a DMA-leak
 *    source: its port's DDIO is disabled and it is demoted to LPW.
 *  - Pseudo LLC bypassing (§5.5): a non-I/O workload whose MLC *and*
 *    LLC miss rates exceed T5 is an antagonist; antagonists are walked
 *    down to the trash ways (toward way 8) while stability holds.
 *  - Phase handling (§5.6): per-interval fluctuation checks against
 *    the initial-partition baseline; periodic reverts to the initial
 *    partitions every `stable_intervals` to estimate the attainable
 *    hit rate; antagonist restoration and DDIO re-enable.
 *
 * Feature gates reproduce the paper's A4-a/b/c/d ablation (Fig. 13).
 */

#ifndef A4_CORE_A4_HH
#define A4_CORE_A4_HH

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "iodev/ddio.hh"
#include "iodev/pcie.hh"
#include "pcm/monitor.hh"
#include "rdt/cat.hh"
#include "sim/engine.hh"

namespace a4
{

/** QoS priority supplied by the user / cluster manager. */
enum class QosPriority { High, Low };

/** Workload registration record (what cluster software supplies). */
struct WorkloadDesc
{
    WorkloadId id = kNoWorkload;
    std::string name;
    std::vector<CoreId> cores;
    QosPriority priority = QosPriority::Low;
    bool is_io = false;
    PortId port = 0xFFFF;
    DeviceClass io_class = DeviceClass::Other;
};

/** A4 thresholds (Table 1 defaults), timing, and feature gates. */
struct A4Params
{
    double hpw_llc_hit_thr = 0.20;    ///< T1
    double dmalk_dca_ms_thr = 0.40;   ///< T2
    double dmalk_io_tp_thr = 0.35;    ///< T3
    double dmalk_llc_ms_thr = 0.40;   ///< T4
    double ant_cache_miss_thr = 0.90; ///< T5

    Tick monitor_interval = kSec;   ///< counter sampling period
    unsigned expand_period = 2;     ///< intervals between LP expansions
    unsigned stable_intervals = 10; ///< stable period before a revert
    unsigned revert_intervals = 1;  ///< length of the revert probe
    double stability_fluct = 0.10;  ///< trash-shrink stability bound
    double restore_fluct = 0.30;    ///< antagonist-restoration trigger
    bool enable_revert = true;      ///< false = the Fig. 15c oracle

    /** @name Ablation gates (Fig. 13 A4-a..d). @{ */
    bool safeguard_io = true;   ///< §5.3 (off = A4-a)
    bool selective_ddio = true; ///< §5.4 (off = A4-a/b)
    bool pseudo_bypass = true;  ///< §5.5 (off = A4-a/b/c)
    /** @} */

    /**
     * Fleet mode: give each LPW its own CLOS id so per-tenant
     * occupancy is observable, falling back to IOCA-style grouping
     * (groupTenants()) when the LPW count exceeds the CLOS the
     * hardware has left over. Off (the default) keeps the paper's
     * single shared LPW CLOS.
     */
    bool per_tenant_clos = false;

    /** Minimum per-interval events before a detector may fire. */
    std::uint64_t min_dma_lines = 1000;
    std::uint64_t min_accesses = 1000;
};

/** Preset for the paper's A4-a..d variants ('a' ... 'd'). */
A4Params a4Variant(char variant, const A4Params &base = A4Params());

/** The A4 LLC-management daemon. */
class A4Manager
{
  public:
    /** Execution-flow phase (Fig. 9). */
    enum class Phase { Init, Baseline, Expanding, Stable, Reverting };

    A4Manager(Engine &eng, CacheSystem &cache, CatController &cat,
              DdioController &ddio, Dram &dram, PcieTopology &pcie,
              const A4Params &params = A4Params());

    /** Register a launched workload (triggers reallocation). */
    void addWorkload(const WorkloadDesc &desc);

    /** Deregister a terminated workload (triggers reallocation). */
    void removeWorkload(WorkloadId id);

    /** Start the periodic daemon on the engine. */
    void start();

    /** Stop the daemon (allocations stay as they are). */
    void
    stop()
    {
        running = false;
        // Drop the queued firing so a stop()/start() cycle within one
        // interval cannot leave two periodic chains interleaved.
        periodic_ev.cancel();
    }

    /**
     * One monitoring step. Normally driven by the engine; exposed so
     * tests can step the state machine deterministically.
     */
    void tick();

    /** @name Introspection. @{ */
    Phase phase() const { return phase_; }
    unsigned ticks() const { return tick_count; }
    WayMask lpMask() const;
    WayMask hpNonIoMask() const;
    WayMask trashMask() const;
    unsigned lpLow() const { return lp_lo; }
    unsigned lpHigh() const { return lp_hi; }
    bool isAntagonist(WorkloadId id) const;
    bool isDemoted(WorkloadId id) const;
    bool ddioDisabled(PortId port) const;
    const A4Params &params() const { return prm; }
    /** Distinct CLOS the current tenant mix would want: the five
     *  fixed classes plus one per LPW under per_tenant_clos. */
    unsigned closDemand() const;
    /** CLOS id workload @p id currently occupies for the LP Zone
     *  (kClosLpw when ungrouped / not an LPW / unknown). */
    unsigned lpClosOf(WorkloadId id) const;
    /** Distinct CLOS ids in use by LPWs (0 when none). */
    unsigned lpGroupCount() const;
    /** @} */

    /** @name CLOS layout used by the daemon. @{ */
    static constexpr unsigned kClosIoHpw = 1;
    static constexpr unsigned kClosNonIoHpw = 2;
    static constexpr unsigned kClosLpw = 3;
    static constexpr unsigned kClosTrash = 4;
    /** @} */

  private:
    struct WlState
    {
        WorkloadDesc desc;
        QosPriority effective = QosPriority::Low;
        bool antagonist = false;
        bool ddio_off = false;
        double baseline_hit = -1.0; ///< at the initial partitions
        double stable_hit = -1.0;   ///< latest hit rate in Stable
        double miss_at_detect = 0.0;
        double ingress_at_detect = 0.0;
        /** LP-Zone CLOS under per_tenant_clos (0 = shared kClosLpw).
         *  Assigned by regroupLpTenants() each reallocation. */
        std::uint32_t lp_clos = 0;
        WorkloadSample last;
    };

    void periodic();
    void sampleAll();
    bool anyIoHpw() const;
    unsigned closFor(const WlState &w) const;
    bool isLpw(const WlState &w) const;
    void computeInitialLayout();
    void regroupLpTenants();
    void applyAllocation();
    void applyRevertAllocation();
    void recordBaselines();
    bool hpwDegradedVsBaseline() const;
    void runDetectors();
    void runTrashShrink();
    void runRestorations();
    void enterInit();

    Engine &eng;
    CacheSystem &cache;
    CatController &cat;
    DdioController &ddio;
    PcieTopology &pcie;
    PcmMonitor pcm;
    A4Params prm;

    std::vector<WlState> wls;
    SystemSample last_sys;

    Phase phase_ = Phase::Init;
    bool running = false;
    bool layout_dirty = true;
    unsigned tick_count = 0;
    Engine::Recurring periodic_ev;

    // LP Zone bounds (way indices, inclusive).
    unsigned lp_lo = 9, lp_hi = 10;
    unsigned lp_init_lo = 9, lp_init_hi = 10;
    unsigned lp_min_lo = 0;
    unsigned saved_lp_lo = 9; ///< restored after a revert probe

    // Trash zone [trash_lo : lp_hi].
    unsigned trash_lo = 8;
    bool trash_frozen = false;
    double membw_before_shrink = -1.0;
    double missrate_before_shrink = -1.0;
    double iotp_before_shrink = -1.0;
    bool shrink_pending_check = false;

    unsigned intervals_since_expand = 0;
    unsigned stable_count = 0;
    unsigned revert_count = 0;
};

} // namespace a4

#endif // A4_CORE_A4_HH
