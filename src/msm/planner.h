/**
 * @file
 * The DistMSM execution planner and analytic time estimator.
 *
 * Given a curve, an input size and a cluster, the planner decides the
 * window size (per-thread workload model, Section 3.1), the work
 * distribution (whole windows per GPU, or buckets of a window split
 * across GPUs, Section 3.2.2), the scatter kernel and where
 * bucket-reduce runs (Section 3.2.3). The plan is the only source of
 * algorithmic decisions for both the functional execution
 * (engine.h) and the analytic timeline used at paper-scale N
 * (estimateDistMsmWithPlan): every choice either of them makes —
 * window, digits, GLV, scatter kernel, accumulation, reduce
 * placement, merge strategy, field backend — is resolved here and
 * read from MsmPlan, never re-derived from MsmOptions, so the two
 * cannot drift apart. The plan search (autoplan.h) returns an
 * MsmPlan and nothing else.
 */

#ifndef DISTMSM_MSM_PLANNER_H
#define DISTMSM_MSM_PLANNER_H

#include <cstdint>
#include <string>
#include <string_view>

#include "src/gpusim/cluster.h"
#include "src/gpusim/collectives.h"
#include "src/gpusim/cost_model.h"
#include "src/gpusim/faults.h"
#include "src/msm/scatter.h"
#include "src/msm/timeline.h"
#include "src/msm/workload_model.h"

namespace distmsm::support {
class TraceRecorder;
}

namespace distmsm::gpusim {
class HealthTracker;
}

namespace distmsm::msm {

/**
 * How planMsm arrives at the plan.
 *
 *  - `Heuristic` — the legacy hand-tuned rules (window model,
 *    precompute grow-or-decline, bucket-split threshold, ...);
 *    bit-compatible with every release before the autoscheduler.
 *  - `Search` — the cost-model-scored plan search of msm/autoplan.h,
 *    seeded with the heuristic plan so it can only tie or win.
 *  - `Cached` — `Search` behind the persisted plan cache
 *    (DISTMSM_PLAN_CACHE / ~/.cache/distmsm); a warm hit performs
 *    zero cost-model evaluations.
 */
enum class PlannerMode { Heuristic, Search, Cached };

const char *plannerModeName(PlannerMode mode);

/** Parses "heuristic" / "search" / "cached". Returns false and
 *  leaves @p out untouched on junk. */
bool parsePlannerMode(std::string_view text, PlannerMode *out);

/** User-facing knobs of a DistMSM run. */
struct MsmOptions
{
    /** 0 = choose s from the workload model. */
    unsigned windowBitsOverride = 0;
    /** Hierarchical (Algorithm 3) vs naive scatter. */
    bool hierarchicalScatter = true;
    /** Offload bucket-reduce to the host CPU (Section 3.2.3). */
    bool cpuBucketReduce = true;
    /** Overlap the host reduce with GPU work (pipelined proving). */
    bool overlapReduce = true;
    /** Minimum threads cooperating on one bucket; the planner grows
     *  this toward a warp multiple while the device has idle
     *  capacity (Section 3.2.2). */
    int threadsPerBucket = 1;
    /** Signed-digit windows: buckets halve to 2^(s-1) (Section 6's
     *  ZPrize technique, adopted by DistMSM). */
    bool signedDigits = false;
    /** Precompute 2^(js) P_i so windows merge before bucket-reduce
     *  (Section 2.3.1). */
    bool precompute = false;
    /** GLV endomorphism decomposition: each (scalar, point) pair
     *  becomes two half-width pairs (P and phi(P) = (beta*x, y)),
     *  halving the window passes for the same bucket count. Silently
     *  ignored on curves without generated GLV constants. */
    bool glv = false;
    /** Batched-affine bucket accumulation: per-bucket affine running
     *  sums whose addition slopes share one Montgomery batch
     *  inversion per round (~6 muls per accumulation vs pacc's 10). */
    bool batchAffine = false;
    /**
     * Merge strategy for the bucket/window merge (gpusim/
     * collectives.h): a forced gather/ring/tree/reduce-scatter, or
     * Auto to let the link-cost tuner pick per (topology, message
     * size, device count) — re-resolved at every merge point, not
     * once per plan, so congestion-priced winners are picked per
     * payload. Gather — the default — is the paper's all-to-host
     * baseline and reproduces the legacy execution exactly.
     */
    gpusim::CollectivePolicy collective =
        gpusim::CollectivePolicy::Gather;
    /**
     * MSMs kept in flight per partition in the two-stage proving
     * flow shop (msm/pipeline.h): the planner scores candidates by
     * the depth-amortized makespan instead of one MSM's latency.
     * 1 — the default — prices exactly the single-MSM totalNs (the
     * legacy objective); 0 lets the plan search choose the depth
     * from {1, 2, 4}. Values > 1 never change the functional result
     * — only the planner's objective and the plan's recorded
     * geometry.
     */
    int pipelineDepth = 1;
    /**
     * Independent device partitions serving concurrent MSMs: the
     * cluster splits into this many equal groups, each running its
     * own proof stream while the single host serializes the reduce
     * tails. 1 — the default — is the whole-cluster plan; 0 lets the
     * search choose from the divisors of the device count in
     * {1, 2, 4}. Like pipelineDepth, a pricing/geometry knob only.
     */
    int devicePartitions = 1;
    /** EC kernel optimization set (Section 4). */
    gpusim::EcKernelVariant kernel = gpusim::EcKernelVariant::full();
    /**
     * Field-arithmetic backend for the simulated kernels' Montgomery
     * multiplications (Section 4.3). `Auto` — the default — lets the
     * planner price both backends with the cost model and pick the
     * cheaper one per (curve, N, window bits); a forced `CudaCore` /
     * `TensorCore` overrides both the pricing and, for TensorCore,
     * routes the functional engine's field muls through the
     * tcmul::montMulTC differential path (bit-identical to CIOS,
     * ~10-60x slower to simulate). Auto never engages the
     * differential path: it prices TC but executes CIOS.
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::Auto;
    /** Scatter launch geometry. */
    ScatterConfig scatter;
    /**
     * Host threads driving the functional execution (simulated
     * devices, kernel blocks, windows, bucket groups). Follows
     * support::resolveHostThreads: 0 = DISTMSM_HOST_THREADS env or
     * hardware_concurrency, 1 = the exact legacy sequential path,
     * n = at most n threads. Results are bit-identical either way.
     */
    int hostThreads = 0;
    /**
     * Fault injection plan (gpusim/faults.h). Empty (the default)
     * falls back to the DISTMSM_FAULT_SPEC environment variable; an
     * explicit plan wins over the environment.
     */
    gpusim::FaultPlan faults;
    /**
     * Transfer attempts repeated after a detected corruption or
     * timeout before the engine gives up and returns the typed
     * Status. 2 tolerates every transient (one-shot) fault while a
     * persistent fault still terminates promptly.
     */
    int maxRetries = 2;
    /**
     * RLC-checksum every simulated device->host transfer (msm/
     * checksum.h). Costs one short scalar-mul per shipped point,
     * priced as MsmTimeline::verifyNs (< 3% of totalNs at 2^18); off
     * reproduces the pre-fault-layer timelines exactly. Corruption
     * can only be *detected* while this is on.
     */
    bool verifyChecksums = true;
    /** Transfer attempts slower than this (injected delay) time out. */
    double transferTimeoutNs = 1e8;
    /**
     * Cost-model-derived straggler watchdog. Every window gets a
     * deadline of gpusim::kWatchdogSlack x the calibrated per-window
     * estimate; a window that blows it (degrade beyond the slack, or
     * a hang) is speculatively re-dispatched onto the fastest
     * healthy survivor. The adopted copy is chosen by priced
     * completion with a fixed canonical tie-break (the original
     * wins ties), so results stay bit-identical at every
     * hostThreads setting. Off: a hang is a typed error and a
     * degrade merely stalls the merge. Transfer retries back off
     * exponentially either way (gpusim::retryBackoffNs plus seeded
     * jitter), priced into FaultReport::backoffNs and
     * MsmTimeline::backoffNs.
     */
    bool watchdog = true;
    /**
     * Optional per-device health ladder (gpusim/health.h). When set,
     * the engine records timeouts / checksum failures / stragglers /
     * hangs into it, excludes quarantined devices from scheduling
     * and resharding, fails transfers over to healthy survivors
     * after retry exhaustion, and re-plans when the tracker's
     * generation changes. Null (the default) keeps the legacy
     * fail-fast behavior. Borrowed, not owned; must outlive the
     * engine.
     */
    gpusim::HealthTracker *health = nullptr;
    /** Seeds the RLC coefficients (device and host must agree). */
    std::uint64_t checksumSeed = 0xC0FFEEull;
    /**
     * Structured tracing sink (support/trace.h). When non-null, the
     * analytic estimators emit per-device timeline lanes and the
     * functional engine emits kernel-launch and simulated-phase
     * spans plus flat metrics. Null (the default) keeps every
     * instrumentation site zero-cost; MsmEngine additionally falls
     * back to the DISTMSM_TRACE environment toggle.
     */
    support::TraceRecorder *trace = nullptr;
    /**
     * Plan selection strategy (see PlannerMode). The default keeps
     * the legacy heuristics; Search/Cached route planMsm through the
     * autoscheduler in msm/autoplan.h.
     */
    PlannerMode planner = PlannerMode::Heuristic;
};

/** A concrete execution plan. */
struct MsmPlan
{
    unsigned windowBits = 0;
    unsigned numWindows = 0;
    /** Effective scalar width the windows cover: the curve's scalar
     *  bits, or the GLV half-scalar width when glv is active. */
    unsigned scalarBits = 0;
    /** GLV active: 2n half-width (scalar, point) pairs. */
    bool glv = false;
    /** Buckets per window excluding bucket 0 (halved when signed). */
    std::uint64_t numBuckets = 0;
    bool signedDigits = false;
    /** GPUs cooperating on each window (1 = whole windows per GPU). */
    int gpusPerWindow = 1;
    /** Windows handled by the busiest GPU. */
    unsigned windowsPerGpu = 0;
    /** Threads summing each bucket. */
    int threadsPerBucket = 32;
    bool bucketsSplitAcrossGpus = false;
    /**
     * Fixed-base precompute tables active. Requested via
     * MsmOptions::precompute but *owned by the planner*: the tables
     * multiply base storage by the window count, so the planner
     * grows the window size until the table fits the device's
     * global-memory budget, or declines (false) when it cannot
     * (pinned windowBitsOverride, or no window size fits). The
     * engine and the analytic estimator both key off this field.
     */
    bool precompute = false;
    /** Bytes of the per-device precompute table (0 when declined). */
    std::uint64_t tableBytes = 0;
    /**
     * The concrete merge strategy: MsmOptions::collective resolved
     * by the link-cost tuner (Auto), or the forced choice. Drives
     * both the functional engine's merge path and the analytic
     * transfer pricing.
     */
    gpusim::CollectiveAlgo collective = gpusim::CollectiveAlgo::Gather;
    /** Per-device payload bytes the tuner priced the merge at. */
    std::uint64_t mergeBytesPerGpu = 0;
    /**
     * The resolved field-arithmetic backend: MsmOptions::fieldBackend
     * with Auto replaced by the cost model's per-(curve, N, s) pick.
     * Never Auto in a built plan. Drives the kernel variant every
     * cost-model call prices (via gpusim::applyFieldBackend) and the
     * engine's per-backend op attribution.
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::CudaCore;
    /** True when the planner's Auto resolution chose the backend (vs
     *  a forced MsmOptions::fieldBackend). */
    bool fieldBackendAuto = false;
    /** Resolved MsmOptions::pipelineDepth (search picks when the
     *  option was 0); >= 1 in a built plan. */
    int pipelineDepth = 1;
    /** Resolved MsmOptions::devicePartitions; >= 1 and dividing the
     *  device count in a built plan. */
    int devicePartitions = 1;
    /**
     * Hierarchical (Algorithm 3) scatter: requested by
     * MsmOptions::hierarchicalScatter and granted only when its 2^s
     * counters plus a one-element tile fit the block's shared memory
     * (hierarchicalSharedBytes). Above that (s > 14 on the A100)
     * DistMSM runs the naive scatter (Figure 11).
     */
    bool hierarchicalScatter = true;
    /** Batched-affine bucket accumulation (MsmOptions::batchAffine). */
    bool batchAffine = false;
    /** The host bucket reduce is allowed (MsmOptions::
     *  cpuBucketReduce); the timeline still picks the cheaper
     *  placement. */
    bool cpuBucketReduce = true;
    /** MsmOptions::collective was Auto: every merge re-resolves the
     *  strategy at its actual payload instead of using `collective`. */
    bool collectiveAuto = false;

    bool operator==(const MsmPlan &) const = default;
};

/**
 * Build the plan for @p n points on @p cluster, honoring
 * MsmOptions::planner: the legacy heuristics, or the cost-model
 * search (optionally behind the persisted plan cache).
 */
MsmPlan planMsm(const gpusim::CurveProfile &curve, std::uint64_t n,
                const gpusim::Cluster &cluster,
                const MsmOptions &options);

/**
 * The legacy hand-tuned planner, ignoring MsmOptions::planner. This
 * is both `PlannerMode::Heuristic`'s implementation and the search's
 * seed/pruning oracle: autoplan realizes every candidate through
 * these rules so searched plans stay inside the space the engine can
 * execute.
 */
MsmPlan planMsmHeuristic(const gpusim::CurveProfile &curve,
                         std::uint64_t n,
                         const gpusim::Cluster &cluster,
                         const MsmOptions &options);

/**
 * The cluster the planner should plan against once quarantined
 * devices are removed: @p cluster itself when @p health is null or
 * nothing is quarantined (or everything is — an empty cluster cannot
 * be planned; the engine reports the error instead), otherwise a
 * copy whose topology holds only the schedulable device count. Both
 * planMsm and autoplanMsm route through this, so the plan-cache key
 * (which covers the topology) distinguishes shrunken fleets
 * automatically.
 */
gpusim::Cluster planningCluster(const gpusim::Cluster &cluster,
                                const gpusim::HealthTracker *health);

/**
 * Analytically synthesized scatter statistics for @p elements
 * uniformly random bucket ids into 2^s buckets, matching what the
 * functional kernels measure (validated by tests).
 */
gpusim::KernelStats
synthesizeScatterStats(bool hierarchical, std::uint64_t elements,
                       unsigned window_bits,
                       const ScatterConfig &config);

/**
 * Analytic end-to-end timeline of DistMSM under @p options
 * (paper-scale N allowed; nothing is executed): planMsm's plan,
 * priced by estimateDistMsmWithPlan.
 */
MsmTimeline estimateDistMsm(const gpusim::CurveProfile &curve,
                            std::uint64_t n,
                            const gpusim::Cluster &cluster,
                            const MsmOptions &options);

/**
 * estimateDistMsm against an explicit @p plan instead of re-running
 * planMsm. Every algorithmic decision comes from @p plan; @p options
 * supplies only what a plan does not decide (kernel variant, scatter
 * geometry, overlap, checksums, faults, watchdog, trace). The plan
 * search scores its candidates through this entry.
 */
MsmTimeline estimateDistMsmWithPlan(const gpusim::CurveProfile &curve,
                                    std::uint64_t n,
                                    const gpusim::Cluster &cluster,
                                    const MsmOptions &options,
                                    const MsmPlan &plan);

/**
 * Analytic timeline of a single-GPU-design Pippenger scaled to
 * multiple GPUs by splitting the points (N-dim), the way the paper
 * augments baselines without native multi-GPU support. The kernel
 * variant models the baseline's arithmetic maturity.
 */
/**
 * Emit the analytic timeline of one MSM as trace spans: per-device
 * compute/transfer lanes plus the host-CPU lane, laid out on the
 * simulated-time axis exactly as totalNs() accounts them (scatter,
 * bucket-sum, reduce, transfer, window-reduce; overlap rules
 * applied). The last span ends at @p timeline .totalNs(). @p label
 * prefixes the span names ("msm0/scatter"), letting pipelined MSMs
 * share the device lanes.
 */
void traceMsmTimeline(support::TraceRecorder &trace,
                      const MsmPlan &plan,
                      const MsmTimeline &timeline,
                      const gpusim::Cluster &cluster,
                      const std::string &label = {},
                      double start_ns = 0.0);

MsmTimeline
estimateNdimBaseline(const gpusim::CurveProfile &curve,
                     std::uint64_t n, const gpusim::Cluster &cluster,
                     const gpusim::EcKernelVariant &kernel,
                     unsigned window_bits_override = 0,
                     bool rigid_single_gpu_design = false);

} // namespace distmsm::msm

#endif // DISTMSM_MSM_PLANNER_H
