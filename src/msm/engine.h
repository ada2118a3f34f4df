/**
 * @file
 * Stateful MSM engine.
 *
 * In zkSNARK proving the point vector is fixed by the trusted setup
 * while the scalars change per proof (paper Section 2.2). MsmEngine
 * captures that usage: construct it once with the points, the
 * cluster and the options — it plans the execution and obtains the
 * fixed-base precomputation tables (built, or reused from the
 * process-wide BaseTableCache when another engine already built them
 * for the same bases and geometry) — then call compute() per scalar
 * vector. computeDistMsm() in distmsm.h is the one-shot convenience
 * wrapper.
 *
 * Execution shapes, one dispatch
 * ------------------------------
 * Without precompute, each window is one unit: it scatters and sums
 * its own bucket set, and the window points merge through the serial
 * Horner recurrence (s doublings per window). With precompute
 * (plan.precompute), the table rows 2^(js) P_i realign every
 * window's digit into ONE shared bucket set: a single combined
 * scatter over numWindows * n elements, then one unit per device
 * summing its bucket slice, and a single bucket-reduce — no
 * per-window passes and no final doubling chain.
 *
 * Both shapes share one fault-tolerant dispatch (tryCompute). A
 * unit's output never depends on the device that runs it, so every
 * unit runs exactly once in one parallel pass; the faults (kills,
 * hangs, stragglers, quarantines) only decide which device ships
 * which output and what gets counted. After a shape-specific fault
 * classification, the reshard, execution, checksummed ship (gather
 * or collective), clean-device health credit and trace are one code
 * path; the shapes differ only in their unit function, their
 * classifier and their final reduce.
 */

#ifndef DISTMSM_MSM_ENGINE_H
#define DISTMSM_MSM_ENGINE_H

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ec/point.h"
#include "src/field/backend.h"
#include "src/field/batch_inverse.h"
#include "src/gpusim/faults.h"
#include "src/gpusim/health.h"
#include "src/msm/batch_affine.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/checksum.h"
#include "src/msm/glv.h"
#include "src/msm/planner.h"
#include "src/msm/precompute.h"
#include "src/msm/scatter.h"
#include "src/msm/signed_digits.h"
#include "src/support/check.h"
#include "src/support/prng.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace distmsm::msm {

/** Output of a functional DistMSM run. */
template <typename Curve>
struct MsmResult
{
    XYZZPoint<Curve> value;
    MsmPlan plan;
    /** Aggregated simulator statistics across all GPUs/windows. */
    gpusim::KernelStats stats;
    /** EC additions executed by the host (reduce steps). */
    std::uint64_t hostOps = 0;
    /**
     * What the fault layer injected, detected and recovered during
     * this run (gpusim/faults.h). All zero on a fault-free run; the
     * digest EC work (verifyEcOps) is deliberately kept out of both
     * `stats` and `hostOps` so a zero-fault run's counters are
     * bit-identical to a build without the fault layer.
     */
    gpusim::FaultReport fault;
};

/**
 * Sum one bucket with @p threads_per_bucket cooperating threads:
 * independent partial chains followed by a pairwise tree reduction
 * (Section 3.2.2). @p point_of maps a scattered id to the (possibly
 * negated or precomputed) affine point it contributes.
 */
template <typename Curve, typename PointOf>
XYZZPoint<Curve>
bucketSumTree(const std::vector<std::uint32_t> &ids,
              PointOf &&point_of, int threads_per_bucket,
              gpusim::KernelStats &stats)
{
    using Xyzz = XYZZPoint<Curve>;
    const std::size_t m = ids.size();
    const int t = threads_per_bucket;
    std::vector<Xyzz> partials;
    partials.reserve(t);
    for (int lane = 0; lane < t; ++lane) {
        Xyzz acc = Xyzz::identity();
        for (std::size_t i = lane; i < m;
             i += static_cast<std::size_t>(t)) {
            acc = pacc(acc, point_of(ids[i]));
            ++stats.paccOps;
        }
        partials.push_back(acc);
    }
    // Pairwise tree reduction: log2(t) SIMD steps.
    while (partials.size() > 1) {
        std::vector<Xyzz> next;
        for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
            next.push_back(padd(partials[i], partials[i + 1]));
            ++stats.paddOps;
        }
        if (partials.size() % 2 == 1)
            next.push_back(partials.back());
        partials = std::move(next);
    }
    return partials.front();
}

/** Reusable MSM executor over a fixed point vector. */
template <typename Curve>
class MsmEngine
{
  public:
    using Scalar = BigInt<Curve::Fr::kLimbs>;

    MsmEngine(std::vector<AffinePoint<Curve>> points,
              const gpusim::Cluster &cluster,
              const MsmOptions &options = MsmOptions{})
        : points_(std::move(points)), cluster_(cluster),
          options_(options)
    {
        // The engine-level knob governs every layer below it: the
        // scatter kernels inherit the same host-thread budget.
        options_.scatter.hostThreads = options_.hostThreads;
        // DISTMSM_TRACE=path.json turns tracing on without touching
        // call sites; an explicit MsmOptions::trace wins.
        if (options_.trace == nullptr)
            options_.trace = support::globalTraceFromEnv();
        curve_profile_ = gpusim::CurveProfile{
            Curve::kName, Curve::Fq::Params::kBits,
            Curve::kScalarBits, Curve::kAIsZero,
            glv::CurveGlv<Curve>::kSupported ? glv::kHalfScalarBits
                                             : 0};
        // The differential tcmul execution engages only when the
        // *user* forced TensorCore: the planner's Auto pick, and the
        // search pinning TensorCore for pricing, price TC while the
        // functional path stays on CIOS — bit-identical either way.
        tc_exec_ =
            options_.fieldBackend == gpusim::FieldBackend::TensorCore;
        stagePlan();
    }

    const MsmPlan &plan() const { return plan_; }
    std::size_t numPoints() const { return points_.size(); }
    /** The precompute table came from the cross-proof cache. */
    bool tableCacheHit() const { return table_cache_hit_; }

    /**
     * Run one MSM against the staged points.
     *
     * Host parallelism (options.hostThreads): the signed-digit
     * decomposition, the windows, the per-device bucket groups of a
     * window and the simulated scatter blocks all run concurrently
     * on the support::ThreadPool. Every parallel unit writes only
     * its own slot and the slots are merged in the exact order of
     * the sequential algorithm (windows high-to-low, buckets
     * ascending, devices ascending), so the returned point, the
     * KernelStats and hostOps are bit-identical for every thread
     * count — hostThreads == 1 is the legacy serial execution.
     */
    MsmResult<Curve>
    compute(const std::vector<Scalar> &scalars) const
    {
        support::StatusOr<MsmResult<Curve>> result =
            tryCompute(scalars);
        DISTMSM_REQUIRE(result.isOk(),
                        result.status().toString().c_str());
        return std::move(*result);
    }

    /**
     * compute() with a typed error channel. Faults the recovery
     * layer absorbs (a killed device whose windows reshard onto
     * survivors, a corrupted or delayed transfer that succeeds
     * within MsmOptions::maxRetries) still return a value — bit
     * identical to the fault-free run — with the injections and
     * recoveries tallied in MsmResult::fault. Unrecoverable faults
     * (every device lost, a persistently corrupt link exhausting its
     * retries) return the typed Status instead; a wrong answer is
     * never returned, because every accepted transfer passed its RLC
     * digest check (when MsmOptions::verifyChecksums is on).
     */
    support::StatusOr<MsmResult<Curve>>
    tryCompute(const std::vector<Scalar> &scalars) const
    {
        if (scalars.size() != points_.size())
            return support::Status(
                support::StatusCode::InvalidArgument,
                "points/scalars size mismatch");
        // A stale health generation (a quarantine, parole or
        // reintegration since planning) invalidates the plan:
        // re-plan — through the caller's planner mode, so
        // Search/Cached re-search — over the changed schedulable
        // fleet before reading any plan field. Not thread-safe
        // against concurrent tryCompute calls on one engine; health
        // tracking is a sequential-coordinator feature.
        if (options_.health != nullptr &&
            options_.health->generation() != planned_generation_)
            stagePlan();
        using Xyzz = XYZZPoint<Curve>;
        MsmResult<Curve> result;
        result.plan = plan_;
        const unsigned s = plan_.windowBits;
        const std::size_t n_buckets = plan_.numBuckets + 1;
        const int host_threads =
            support::resolveHostThreads(options_.hostThreads);
        auto &pool = support::ThreadPool::global();
        const std::size_t n_base = points_.size();

        // GLV: rewrite the n full-width scalars as 2n half-width
        // magnitudes with per-half sign flags; half i drives P_i,
        // half n + i drives phi(P_i). Scalar i only writes its own
        // two slots.
        std::vector<Scalar> half_scalars;
        std::vector<std::uint8_t> glv_neg;
        if constexpr (glv::CurveGlv<Curve>::kSupported) {
            if (plan_.glv) {
                half_scalars.resize(2 * n_base);
                glv_neg.assign(2 * n_base, 0);
                pool.parallelFor(
                    0, n_base,
                    [&](std::size_t i) {
                        const auto split =
                            glv::decompose<Curve>(scalars[i]);
                        half_scalars[i] = split.k1;
                        half_scalars[n_base + i] = split.k2;
                        glv_neg[i] = split.neg1;
                        glv_neg[n_base + i] = split.neg2;
                    },
                    host_threads);
            }
        }
        const std::vector<Scalar> &eff_scalars =
            plan_.glv ? half_scalars : scalars;
        const std::size_t n_eff = eff_scalars.size();

        // Signed-digit decomposition up front; scalar i only writes
        // digits[i]. The window passes cover plan_.scalarBits — the
        // GLV half width when active.
        std::vector<std::vector<std::int32_t>> digits;
        if (plan_.signedDigits) {
            digits.resize(n_eff);
            pool.parallelFor(
                0, n_eff,
                [&](std::size_t i) {
                    digits[i] = signedWindowDigits(
                        eff_scalars[i], plan_.scalarBits, s);
                },
                host_threads);
        }

        // Digit of window w for effective scalar i, as (magnitude,
        // negate) against the bucket array.
        auto digit_of = [&](unsigned w, std::size_t i,
                            std::uint32_t &id, std::uint8_t &neg) {
            if (plan_.signedDigits) {
                const std::int32_t d = digits[i][w];
                id = static_cast<std::uint32_t>(d < 0 ? -d : d);
                neg = d < 0;
            } else {
                id = static_cast<std::uint32_t>(
                    eff_scalars[i].bits(
                        static_cast<std::size_t>(w) * s, s));
                neg = 0;
            }
            // A negative half-scalar flips its contribution;
            // composes with the signed-digit flip.
            if (plan_.glv)
                neg ^= glv_neg[i];
        };

        const std::uint64_t msm_idx =
            options_.trace != nullptr
                ? msm_counter_.fetch_add(1,
                                         std::memory_order_relaxed)
                : 0;
        const std::string trace_prefix =
            "msm" + std::to_string(msm_idx) + "/";

        const support::StatusOr<const gpusim::FaultPlan *> fplan_or =
            activeFaultPlan();
        if (!fplan_or.isOk())
            return fplan_or.status();
        const gpusim::FaultPlan &fplan = **fplan_or;
        support::TraceRecorder *const trace = options_.trace;
        const int num_gpus = cluster_.numGpus();
        gpusim::HealthTracker *const health = options_.health;
        FaultState fs{fplan, result.fault,
                      std::vector<std::uint8_t>(
                          static_cast<std::size_t>(num_gpus), 0),
                      {}};

        // --- Units ---
        // Per-window plans run one unit per window: it scatters,
        // sums and reduces window w into out[w]. With precompute
        // (plan_.precompute) the table rows 2^(js) P_i realign every
        // window's digit into ONE shared bucket set: one combined
        // scatter over numWindows * n_eff table-indexed elements up
        // front, then one unit per device summing its bucket slice
        // into out[lo, hi) — no doubling chain. A unit's output never
        // depends on the device that runs it, so the faults below
        // only decide who ships which output and what gets counted.
        struct Unit
        {
            support::Status status;
            gpusim::KernelStats scatterStats;
            gpusim::KernelStats ecStats;
            ReduceStats reduceStats;
        };
        const bool combined = plan_.precompute;
        const std::size_t n_units =
            combined ? static_cast<std::size_t>(num_gpus)
                     : plan_.numWindows;
        std::vector<Unit> units(n_units);
        std::vector<Xyzz> out(combined ? n_buckets : n_units,
                              Xyzz::identity());
        const auto unit_keys = [&](std::size_t u) {
            return combined
                       ? std::pair{sliceBound(n_buckets, u, n_units),
                                   sliceBound(n_buckets, u + 1,
                                              n_units)}
                       : std::pair{u, u + 1};
        };

        std::size_t total = 0;
        std::vector<std::uint8_t> negs;
        ScatterResult scattered;
        if (combined) {
            const std::uint64_t total64 =
                static_cast<std::uint64_t>(plan_.numWindows) * n_eff;
            DISTMSM_REQUIRE(
                total64 <=
                    std::numeric_limits<std::uint32_t>::max(),
                "combined precompute pass exceeds 32-bit element ids");
            total = static_cast<std::size_t>(total64);
            // Element e = w * n_eff + i contributes table row w of
            // base i to the bucket of digit (w, i). Each scalar
            // writes only its own numWindows slots.
            std::vector<std::uint32_t> ids(total);
            negs.resize(total);
            pool.parallelFor(
                0, n_eff,
                [&](std::size_t i) {
                    for (unsigned w = 0; w < plan_.numWindows; ++w) {
                        const std::size_t e =
                            static_cast<std::size_t>(w) * n_eff + i;
                        digit_of(w, i, ids[e], negs[e]);
                    }
                },
                host_threads);
            scattered =
                scatterIds(ids, trace_prefix + "combined/scatter", 0);
            if (!scattered.ok)
                return scattered.status;
            result.stats.merge(scattered.stats);
        }

        auto run_unit = [&](std::size_t u, Unit &unit,
                            std::vector<Xyzz> &dst) {
            if (combined) {
                sumSlice(
                    scattered.buckets, u, n_units,
                    [&](std::uint32_t idx) {
                        const auto &base =
                            table_->rows[idx / n_eff][idx % n_eff];
                        return negs[idx] ? base.negated() : base;
                    },
                    dst, unit.ecStats);
                return;
            }
            // Simulated-kernel field muls of this window (bucket
            // sums, window reduce) execute on the forced backend;
            // entered per worker thread, so the pool-distributed
            // bucket groups re-enter it themselves (sumSlice).
            const field::TcBackendScope tc_scope(tc_exec_);
            const unsigned w = static_cast<unsigned>(u);
            std::vector<std::uint32_t> ids(n_eff);
            std::vector<std::uint8_t> w_negs(n_eff, 0);
            for (std::size_t i = 0; i < n_eff; ++i)
                digit_of(w, i, ids[i], w_negs[i]);
            // One kernel-launch lane per window: the launch span
            // carries the measured contention of exactly this
            // window's scatter.
            const ScatterResult sc = scatterIds(
                ids, trace_prefix + "w" + std::to_string(w) + "/scatter",
                static_cast<int>(w));
            unit.status = sc.status;
            if (!sc.ok)
                return;
            unit.scatterStats = sc.stats;
            // Bucket groups map to the simulated devices of the
            // bucket-split distribution (Section 3.2.2), one task
            // per device. They are one launch running on
            // gpusPerWindow devices in lockstep: work counts sum,
            // the shared phase structure does not (see
            // KernelStats::mergeLockstep).
            std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
            const int groups = plan_.bucketsSplitAcrossGpus
                                   ? plan_.gpusPerWindow
                                   : 1;
            std::vector<gpusim::KernelStats> group_stats(groups);
            cluster_.forEachDevice(
                groups,
                [&](int g) {
                    sumSlice(
                        sc.buckets, static_cast<std::size_t>(g),
                        static_cast<std::size_t>(groups),
                        [&](std::uint32_t idx) {
                            const auto &base =
                                idx < n_base
                                    ? points_[idx]
                                    : phi_points_[idx - n_base];
                            return w_negs[idx] ? base.negated() : base;
                        },
                        sums, group_stats[g]);
                },
                options_.hostThreads);
            for (const auto &gs : group_stats)
                unit.ecStats.mergeLockstep(gs);
            dst[w] = bucketReduceSerial<Curve>(sums, &unit.reduceStats);
        };

        // --- Fault classification ---
        // Every unit starts on exec_dev; a lost unit moves to a
        // survivor below; a dual unit runs a second, speculative copy
        // that must agree bit for bit.
        std::vector<int> exec_dev(n_units);
        std::vector<std::uint8_t> lost(n_units, 0);
        std::vector<std::size_t> dual;
        std::vector<int> survivors;
        // The window shape labels its lanes up front, so a failed
        // run's trace carries them too; the combined shape labels
        // them with its spans.
        if (trace != nullptr && !combined)
            labelEngineLanes(*trace);
        if (combined) {
            // The combined pass has no window boundaries, so a kill
            // clause (at any ordinal) takes the device's whole bucket
            // slice with it — and so do a hang (with the watchdog on:
            // the slice is speculatively respawned on a survivor, a
            // guaranteed win because the original never finishes) and
            // a quarantine (the tracker excluded the device up
            // front). A degrade clause only slows its device; at
            // slice granularity there is no per-window deadline to
            // blow, so it is logged and priced (timeline stragglerNs)
            // but never respawned.
            for (int g = 0; g < num_gpus; ++g) {
                exec_dev[g] = g;
                const bool quarantined =
                    health != nullptr && g < health->numDevices() &&
                    !health->schedulable(g);
                const bool hung = fplan.hangWindow(g) >= 0;
                if (hung && !options_.watchdog)
                    return support::Status(
                        support::StatusCode::TransferTimeout,
                        "device " + std::to_string(g) +
                            " hung in the combined pass and the "
                            "watchdog is off");
                if (fplan.killWindow(g) >= 0) {
                    result.fault.devicesLost += 1;
                    result.fault.faultsInjected += 1;
                    fs.log.push_back("kill/dev" + std::to_string(g));
                } else if (hung) {
                    result.fault.hangs += 1;
                    result.fault.faultsInjected += 1;
                    result.fault.stragglersDetected += 1;
                    result.fault.stragglerRespawns += 1;
                    result.fault.speculativeWins += 1;
                    fs.log.push_back("hang/dev" + std::to_string(g));
                    if (health != nullptr)
                        health->recordHang(g);
                } else if (!quarantined) {
                    survivors.push_back(g);
                    if (fplan.degradeFactor(g, 0) > 1.0) {
                        result.fault.faultsInjected += 1;
                        fs.faulted[g] = 1;
                        fs.log.push_back("degrade/dev" +
                                         std::to_string(g));
                    }
                    continue;
                }
                // Not a new fault when merely quarantined — the
                // tracker already counted whatever quarantined it.
                lost[g] = 1;
                fs.faulted[g] = 1;
            }
        } else {
            // Windows round-robin over the *schedulable* devices:
            // quarantined ones sit out entirely. Without a tracker
            // that is every device, reproducing the legacy
            // w % numGpus layout bit-for-bit. The ordinal of w on its
            // device is w / n_sched — the operand the fault grammar's
            // win= names. A device killed at its j-th window loses
            // every window of ordinal >= j (results of earlier
            // ordinals were already streamed out). Collective merges
            // (plan_.collective != Gather) tighten the kill: a dead
            // device can neither source nor relay reduce steps, so
            // *every* window it owned is lost.
            const bool collective_merge =
                plan_.collective != gpusim::CollectiveAlgo::Gather;
            std::vector<int> sched_devs;
            for (int d = 0; d < num_gpus; ++d)
                if (health == nullptr || d >= health->numDevices() ||
                    health->schedulable(d))
                    sched_devs.push_back(d);
            if (sched_devs.empty())
                return support::Status(
                    support::StatusCode::DeviceLost,
                    "all " + std::to_string(num_gpus) +
                        " devices quarantined; nothing schedulable");
            const int n_sched = static_cast<int>(sched_devs.size());
            std::vector<std::uint8_t> dev_sched(
                static_cast<std::size_t>(num_gpus), 0);
            for (const int d : sched_devs)
                dev_sched[static_cast<std::size_t>(d)] = 1;
            for (unsigned w = 0; w < plan_.numWindows; ++w)
                exec_dev[w] =
                    sched_devs[static_cast<int>(w) % n_sched];
            const auto window_ordinal = [n_sched](unsigned w) {
                return static_cast<int>(w) / n_sched;
            };
            for (int d = 0; d < num_gpus; ++d) {
                const int kw = fplan.killWindow(d);
                if (kw < 0) {
                    // Hung devices cannot receive resharded windows
                    // either; with the watchdog off a hang is
                    // rejected below before any reshard happens.
                    if (dev_sched[d] && fplan.hangWindow(d) < 0)
                        survivors.push_back(d);
                    continue;
                }
                ++result.fault.devicesLost;
                ++result.fault.faultsInjected;
                fs.faulted[d] = 1;
                fs.log.push_back("kill/dev" + std::to_string(d) +
                                 "@win" + std::to_string(kw));
            }
            for (unsigned w = 0; w < plan_.numWindows; ++w) {
                const int kw = fplan.killWindow(exec_dev[w]);
                if (kw >= 0 &&
                    (collective_merge || window_ordinal(w) >= kw))
                    lost[w] = 1;
            }

            // Watchdog: stragglers and hangs. Sequential, windows
            // ascending, so detection, health escalation and target
            // choice are identical at every hostThreads setting. A
            // window whose projected completion blows its deadline —
            // kWatchdogSlack x the calibrated per-window estimate —
            // is speculatively re-dispatched onto the fastest healthy
            // candidate. The adopted copy is the one with the earlier
            // *priced* completion, the original canonical on ties. A
            // hung original never completes, so only the respawned
            // copy runs; a slow-but-alive original still finishes, so
            // its respawn is a dual execution.
            if (fplan.hasStragglerFaults()) {
                const double est = window_estimate_ns_;
                const double slack = gpusim::kWatchdogSlack;
                for (int d = 0; d < num_gpus; ++d) {
                    if (fplan.degraded(d)) {
                        ++result.fault.faultsInjected;
                        fs.faulted[d] = 1;
                        fs.log.push_back("degrade/dev" +
                                         std::to_string(d));
                    }
                    const int hw = fplan.hangWindow(d);
                    if (hw >= 0) {
                        ++result.fault.hangs;
                        ++result.fault.faultsInjected;
                        fs.faulted[d] = 1;
                        if (health != nullptr)
                            health->recordHang(d);
                        fs.log.push_back("hang/dev" +
                                         std::to_string(d) + "@win" +
                                         std::to_string(hw));
                    }
                }
                for (unsigned w = 0; w < plan_.numWindows; ++w) {
                    if (lost[w])
                        continue;
                    const int d = exec_dev[w];
                    const int ord = window_ordinal(w);
                    const double f = fplan.degradeFactor(d, ord);
                    const int hw = fplan.hangWindow(d);
                    // A collective merge loses every window of a hung
                    // device (nothing streams out before the merge),
                    // exactly like the kill path.
                    const bool hang =
                        hw >= 0 && (collective_merge || ord >= hw);
                    if (!hang && f <= slack) {
                        // Within the deadline: the window stretches
                        // but no respawn fires.
                        result.fault.stragglerWaitNs += (f - 1.0) * est;
                        result.fault.stragglerStallNs +=
                            (f - 1.0) * est;
                        continue;
                    }
                    if (hang && !options_.watchdog)
                        return support::Status(
                            support::StatusCode::TransferTimeout,
                            "device " + std::to_string(d) +
                                " hung at window " +
                                std::to_string(w) +
                                " and the watchdog is off");
                    if (!options_.watchdog) {
                        // Degrade past the slack, watchdog off: the
                        // merge stalls the full factor behind the
                        // straggler.
                        result.fault.stragglerWaitNs += (f - 1.0) * est;
                        result.fault.stragglerStallNs +=
                            (f - 1.0) * est;
                        continue;
                    }
                    ++result.fault.stragglersDetected;
                    if (health != nullptr && !hang)
                        health->recordStraggler(d);
                    // Fastest healthy candidate: schedulable, alive,
                    // not hung, not the straggler itself; the lowest
                    // index breaks factor ties (deterministic).
                    int target = -1;
                    double target_f =
                        std::numeric_limits<double>::infinity();
                    for (const int c : sched_devs) {
                        if (c == d || fplan.killWindow(c) >= 0 ||
                            fplan.hangWindow(c) >= 0)
                            continue;
                        const double cf = fplan.degradeFactor(c, 0);
                        if (cf < target_f) {
                            target_f = cf;
                            target = c;
                        }
                    }
                    if (target < 0) {
                        if (hang)
                            return support::Status(
                                support::StatusCode::DeviceLost,
                                "device " + std::to_string(d) +
                                    " hung and no healthy candidate "
                                    "remains to respawn onto");
                        result.fault.stragglerWaitNs += (f - 1.0) * est;
                        result.fault.stragglerStallNs +=
                            (f - 1.0) * est;
                        continue;
                    }
                    ++result.fault.stragglerRespawns;
                    if (!hang)
                        dual.push_back(w);
                    fs.log.push_back("respawn/w" + std::to_string(w) +
                                     "/dev" + std::to_string(d) +
                                     "->dev" + std::to_string(target));
                    // Priced completions: the straggling original
                    // runs f x the estimate (a hang never completes);
                    // the speculative copy starts when the deadline
                    // fires and runs at the target's speed.
                    const double orig_ns =
                        hang ? std::numeric_limits<double>::infinity()
                             : f * est;
                    const double spec_ns = slack * est + target_f * est;
                    if (spec_ns < orig_ns) {
                        ++result.fault.speculativeWins;
                        exec_dev[w] = target;
                    } else {
                        ++result.fault.speculativeLosses;
                    }
                    result.fault.stragglerWaitNs +=
                        std::min(orig_ns, spec_ns) - est;
                    result.fault.stragglerStallNs +=
                        hang ? options_.transferTimeoutNs
                             : (f - 1.0) * est;
                }
            }
        }

        // --- Reshard ---
        // Lost units move round-robin onto the survivors, same-node
        // first (pickSurvivor). A unit's output is the same on any
        // device, so the survivor simply owns and ships it.
        std::vector<std::size_t> resharded;
        for (std::size_t u = 0; u < n_units; ++u)
            if (lost[u])
                resharded.push_back(u);
        if (!resharded.empty()) {
            if (survivors.empty())
                return support::Status(
                    support::StatusCode::DeviceLost,
                    "all " + std::to_string(num_gpus) +
                        " devices lost; no survivor to reshard "
                        "onto");
            for (std::size_t i = 0; i < resharded.size(); ++i)
                exec_dev[resharded[i]] = pickSurvivor(
                    survivors, exec_dev[resharded[i]], i,
                    result.fault);
            result.fault.windowsResharded += resharded.size();
        }

        // --- Execute: every unit once, then the dual copies ---
        // Every parallel unit writes only its own slots. A dual copy
        // runs into scratch, must agree bit-for-bit with the
        // original, and its stats are discarded so KernelStats stay
        // identical to the fault-free run.
        pool.parallelFor(
            0, n_units,
            [&](std::size_t u) { run_unit(u, units[u], out); },
            host_threads);
        pool.parallelFor(
            0, dual.size(),
            [&](std::size_t i) {
                Unit scratch;
                std::vector<Xyzz> copy(out.size(), Xyzz::identity());
                run_unit(dual[i], scratch, copy);
                DISTMSM_ASSERT(bitEqual(copy[dual[i]], out[dual[i]]));
            },
            host_threads);
        for (const Unit &unit : units)
            if (!unit.status.isOk())
                return unit.status;

        // --- Ship ---
        // Canonical shipment order: a device ships all its windows at
        // once, devices ascending; bucket slices ship one by one,
        // slices ascending. Keys are global window / bucket indices.
        std::vector<Shipment> ships(static_cast<std::size_t>(num_gpus));
        for (std::size_t u = 0; u < n_units; ++u) {
            Shipment &sh =
                ships[combined ? u
                               : static_cast<std::size_t>(exec_dev[u])];
            sh.device = exec_dev[u];
            const auto [lo, hi] = unit_keys(u);
            for (std::size_t k = lo; k < hi; ++k) {
                sh.points.push_back(out[k]);
                sh.keys.push_back(k);
            }
        }
        std::erase_if(ships,
                      [](const Shipment &sh) { return sh.keys.empty(); });
        const support::Status shipped =
            shipAll(std::move(ships), fs, trace_prefix, out);
        if (!shipped.isOk())
            return shipped;

        // Clean devices feed the health ladder (sequential, units
        // ascending — deterministic streak growth): a window credits
        // the device that ran it, a bucket slice its own device (a
        // resharded slice's device is faulted).
        if (health != nullptr)
            for (std::size_t u = 0; u < n_units; ++u) {
                const int d =
                    combined ? static_cast<int>(u) : exec_dev[u];
                if (!fs.faulted[static_cast<std::size_t>(d)] &&
                    d < health->numDevices())
                    health->recordCleanWindow(d);
            }

        // --- Reduce ---
        namespace lane = support::tracelane;
        const auto &cost_model = cluster_.model();
        const int scatter_threads = scatterThreads();
        if (combined) {
            gpusim::KernelStats ec_stats;
            for (const Unit &unit : units)
                ec_stats.mergeLockstep(unit.ecStats);
            result.stats.merge(ec_stats);
            ReduceStats reduce_stats;
            result.value = bucketReduceSerial<Curve>(out, &reduce_stats);
            result.hostOps += reduce_stats.padds + reduce_stats.pdbls;
            if (trace != nullptr) {
                labelEngineLanes(*trace);
                const double scatter_ns =
                    cost_model.scatterComputeNs(total,
                                                scatter_threads) +
                    cost_model.atomicNs(scattered.stats,
                                        scatter_threads) +
                    cost_model.gmemNs(scattered.stats.gmemBytes);
                const std::string cl = trace_prefix + "combined/";
                support::TraceArgs scatter_args;
                scatter_args
                    .arg("elements", static_cast<double>(total))
                    .arg("global_atomics",
                         static_cast<double>(
                             scattered.stats.globalAtomics));
                // The combined scatter is one bulk-synchronous kernel
                // across the cluster; its span sits on device 0's
                // lane, the bucket sums start after it on every
                // device.
                trace->span(cl + "scatter", "phase",
                            lane::engineDevicePid(0), lane::kComputeTid,
                            0.0, scatter_ns, std::move(scatter_args));
                auto &metrics = trace->metrics();
                for (int g = 0; g < num_gpus; ++g) {
                    const double sum_ns = bucketSumNs(units[g].ecStats);
                    trace->span(cl + "bucket-sum", "phase",
                                lane::engineDevicePid(g),
                                lane::kComputeTid, scatter_ns, sum_ns);
                    const std::string mp = "engine/" + trace_prefix +
                                           "dev" + std::to_string(g) +
                                           "/combined/";
                    units[g].ecStats.recordMetrics(metrics, mp + "ec/");
                    metrics.add(mp + "bucket_sum_ns", sum_ns);
                }
                const double reduce_ns = cost_model.hostEcNs(
                    curve_profile_,
                    reduce_stats.padds + reduce_stats.pdbls,
                    cluster_.host());
                trace->span(cl + "bucket-reduce", "phase",
                            lane::kEngineHostPid, lane::kComputeTid, 0.0,
                            reduce_ns);
                const std::string mp0 =
                    "engine/" + trace_prefix + "dev0/combined/";
                scattered.stats.recordMetrics(metrics, mp0 + "scatter/");
                metrics.add(mp0 + "scatter_ns", scatter_ns);
                metrics.add("engine/" + trace_prefix +
                                "combined/bucket_reduce_ns",
                            reduce_ns);
            }
        } else {
            // Merge strictly high-to-low exactly like the serial
            // Horner recurrence. Tracing: this serial loop visits
            // windows in a fixed order regardless of hostThreads, so
            // the measured stats are mapped onto simulated time (via
            // the cost model) and emitted from here — the spans are
            // deterministic even though the windows executed
            // concurrently. Each window lands on its device's lane.
            std::vector<double> dev_cursor(
                static_cast<std::size_t>(num_gpus), 0.0);
            double host_cursor = 0.0;
            Xyzz total_point = Xyzz::identity();
            for (unsigned w = plan_.numWindows; w-- > 0;) {
                const Unit &wu = units[w];
                result.stats.merge(wu.scatterStats);
                result.stats.merge(wu.ecStats);
                if (trace != nullptr) {
                    const int d = exec_dev[w];
                    const int pid = lane::engineDevicePid(d);
                    const double scatter_ns =
                        cost_model.scatterComputeNs(n_eff,
                                                    scatter_threads) +
                        cost_model.atomicNs(wu.scatterStats,
                                            scatter_threads) +
                        cost_model.gmemNs(wu.scatterStats.gmemBytes);
                    const double sum_ns = bucketSumNs(wu.ecStats);
                    const std::string wl =
                        trace_prefix + "w" + std::to_string(w) + "/";
                    support::TraceArgs scatter_args;
                    scatter_args
                        .arg("global_atomics",
                             static_cast<double>(
                                 wu.scatterStats.globalAtomics))
                        .arg("global_conflict_weight",
                             static_cast<double>(
                                 wu.scatterStats.globalConflictWeight))
                        .arg("global_max_conflict",
                             static_cast<double>(
                                 wu.scatterStats.globalMaxConflict));
                    trace->span(wl + "scatter", "phase", pid,
                                lane::kComputeTid, dev_cursor[d],
                                scatter_ns, std::move(scatter_args));
                    trace->span(wl + "bucket-sum", "phase", pid,
                                lane::kComputeTid,
                                dev_cursor[d] + scatter_ns, sum_ns);
                    dev_cursor[d] += scatter_ns + sum_ns;
                    const double reduce_ns = cost_model.hostEcNs(
                        curve_profile_,
                        wu.reduceStats.padds + wu.reduceStats.pdbls,
                        cluster_.host());
                    if (reduce_ns > 0.0) {
                        trace->span(wl + "bucket-reduce", "phase",
                                    lane::kEngineHostPid,
                                    lane::kComputeTid, host_cursor,
                                    reduce_ns);
                        host_cursor += reduce_ns;
                    }
                    auto &metrics = trace->metrics();
                    const std::string mp =
                        "engine/" + trace_prefix + "dev" +
                        std::to_string(d) + "/w" + std::to_string(w) +
                        "/";
                    wu.scatterStats.recordMetrics(metrics,
                                                  mp + "scatter/");
                    wu.ecStats.recordMetrics(metrics, mp + "ec/");
                    metrics.add(mp + "scatter_ns", scatter_ns);
                    metrics.add(mp + "bucket_sum_ns", sum_ns);
                    metrics.add(mp + "bucket_reduce_ns", reduce_ns);
                }
                if (!total_point.isIdentity()) {
                    for (unsigned b = 0; b < s; ++b) {
                        total_point = pdbl(total_point);
                        ++result.hostOps;
                    }
                }
                total_point = padd(total_point, out[w]);
                result.hostOps += wu.reduceStats.padds + 1;
            }
            result.value = total_point;
        }
        if (trace != nullptr) {
            emitFieldBackendMetrics(*trace, result.stats);
            emitFaultTrace(*trace, result.fault, fs.log);
        }
        return result;
    }

  private:
    /**
     * Obtain the precompute table: a BaseTableCache lookup keyed by
     * the base fingerprint and the plan geometry, building on a
     * miss. A proving loop constructing one engine per proof against
     * the same proving key pays the build once.
     */
    void
    acquireTable(int host_threads) const
    {
        TableCacheKey key;
        // The phi images are derived deterministically from the
        // points, so fingerprinting the points alone identifies the
        // GLV-folded table too (glv is part of the key).
        key.fingerprint = fingerprintBases<Curve>(points_);
        key.numBases = points_.size();
        key.windowBits = plan_.windowBits;
        key.numWindows = plan_.numWindows;
        key.glv = plan_.glv;
        table_ = BaseTableCache<Curve>::global().findOrBuild(
            key,
            [&] {
                std::vector<AffinePoint<Curve>> bases = points_;
                bases.insert(bases.end(), phi_points_.begin(),
                             phi_points_.end());
                return buildPrecomputeTable<Curve>(
                    bases, plan_.numWindows, plan_.windowBits,
                    plan_.glv, host_threads);
            },
            &table_cache_hit_);

        support::TraceRecorder *const trace = options_.trace;
        if (trace == nullptr)
            return;
        namespace lane = support::tracelane;
        auto &metrics = trace->metrics();
        metrics.add("engine/precompute/cache_hits",
                    table_cache_hit_ ? 1.0 : 0.0);
        metrics.add("engine/precompute/cache_misses",
                    table_cache_hit_ ? 0.0 : 1.0);
        metrics.set("engine/precompute/table_bytes",
                    static_cast<double>(table_->bytes));
        trace->labelProcess(lane::kEngineHostPid, "engine host");
        trace->labelThread(lane::kEngineHostPid, kPrecomputeTid,
                           "precompute");
        support::TraceArgs args;
        args.arg("table_bytes",
                 static_cast<double>(table_->bytes))
            .arg("rows", static_cast<double>(plan_.numWindows))
            .arg("bases", static_cast<double>(key.numBases));
        if (table_cache_hit_) {
            // Cached-hit lane: the amortized path is an instant, not
            // a span — no simulated time is spent.
            trace->instant("precompute/table-cache-hit", "phase",
                           lane::kEngineHostPid, kPrecomputeTid, 0.0,
                           std::move(args));
        } else {
            // Priced from the op count (deterministic), never wall
            // clock: (W-1) * s doublings per base at GPU throughput.
            const double build_ns = cluster_.model().ecThroughputNs(
                curve_profile_, eff_kernel_, gpusim::EcOp::Pdbl,
                table_->buildPdbls);
            trace->span("precompute/table-build", "phase",
                        lane::kEngineHostPid, kPrecomputeTid, 0.0,
                        build_ns, std::move(args));
        }
    }
    /**
     * Resolve the active fault plan: an explicit MsmOptions::faults
     * wins, then the DISTMSM_FAULT_SPEC environment variable, then
     * no faults. A malformed environment spec surfaces as the typed
     * parse Status — tryCompute propagates it instead of exiting.
     */
    support::StatusOr<const gpusim::FaultPlan *>
    activeFaultPlan() const
    {
        static const gpusim::FaultPlan kNoFaults;
        if (!options_.faults.empty())
            return &options_.faults;
        support::StatusOr<const gpusim::FaultPlan *> env =
            gpusim::globalFaultPlanFromEnv();
        if (!env.isOk())
            return env;
        if (*env != nullptr)
            return *env;
        return &kNoFaults;
    }

    /**
     * Plan and stage everything the plan needs: the constructor and
     * every health-generation change (tryCompute) run this. planMsm
     * honors the caller's planner mode (heuristic, search, cached)
     * over the quarantine-shrunken cluster (planningCluster), and the
     * plan is the engine's only source of algorithmic decisions.
     * Then: the effective kernel variant, the phi images, the
     * precompute table, the planned health generation and the
     * watchdog's window estimate. Mutates the mutable planning state,
     * so concurrent tryCompute calls on one engine are not supported
     * with a tracker attached.
     */
    void
    stagePlan() const
    {
        plan_ = planMsm(curve_profile_, points_.size(), cluster_,
                        options_);
        // Every cost-model price in the engine uses the kernel
        // variant as the plan's resolved field backend executes it.
        eff_kernel_ = gpusim::applyFieldBackend(options_.kernel,
                                                plan_.fieldBackend);
        const int host_threads =
            support::resolveHostThreads(options_.hostThreads);
        if (plan_.glv && phi_points_.empty()) {
            // The endomorphism images phi(P_i) = (beta * x_i, y_i)
            // are scalar-independent: staged once, like the points.
            phi_points_.resize(points_.size());
            support::ThreadPool::global().parallelFor(
                0, points_.size(),
                [&](std::size_t i) {
                    phi_points_[i] =
                        glv::endomorphismIfSupported<Curve>(
                            points_[i]);
                },
                host_threads);
        }
        // plan_.precompute, not options_.precompute: the planner may
        // have declined (device memory budget, 32-bit element ids)
        // or grown the window.
        if (plan_.precompute)
            acquireTable(host_threads);
        if (options_.health != nullptr)
            planned_generation_ = options_.health->generation();
        refreshWindowEstimate();
    }

    /**
     * Calibrated fault-free per-window GPU time — the base of the
     * watchdog deadline (kWatchdogSlack x this) and of the straggler
     * pricing. Computed only when a tracker is attached or the
     * fault plan contains degrade/hang clauses, so fault-free
     * engines skip the cost-model call entirely (zero overhead).
     */
    void
    refreshWindowEstimate() const
    {
        window_estimate_ns_ = 0.0;
        const support::StatusOr<const gpusim::FaultPlan *> fplan =
            activeFaultPlan();
        if (options_.health == nullptr &&
            !(fplan.isOk() && (*fplan)->hasStragglerFaults()))
            return;
        MsmOptions est_opts = options_;
        // The estimate prices the *healthy* window (the deadline
        // base), silently: no trace spans, no fault penalties.
        est_opts.trace = nullptr;
        est_opts.faults = gpusim::FaultPlan{};
        const MsmTimeline t = estimateDistMsmWithPlan(
            curve_profile_, points_.size(), cluster_, est_opts,
            plan_);
        const double wpg =
            std::max(1.0, static_cast<double>(plan_.numWindows) /
                              cluster_.numGpus());
        window_estimate_ns_ = (t.scatterNs + t.bucketSumNs) / wpg;
    }

  public:
    /**
     * Probe each quarantined device with one out-of-band verified
     * transfer (a single attempt through the same serialize /
     * inject / digest path, at a transfer index far above any real
     * counter so it cannot collide with corrupt:xfer clauses). A
     * clean probe paroles the device to Probation
     * (HealthTracker::recordCleanProbe); a corrupted one records
     * another checksum failure. Returns the number paroled. No-op
     * without a tracker.
     */
    int
    probeQuarantinedDevices() const
    {
        gpusim::HealthTracker *const health = options_.health;
        if (health == nullptr)
            return 0;
        const support::StatusOr<const gpusim::FaultPlan *> fp =
            activeFaultPlan();
        if (!fp.isOk())
            return 0;
        const gpusim::FaultPlan &fplan = **fp;
        using Xyzz = XYZZPoint<Curve>;
        int paroled = 0;
        const int n_dev =
            std::min(cluster_.numGpus(), health->numDevices());
        for (int d = 0; d < n_dev; ++d) {
            if (health->schedulable(d))
                continue;
            const std::uint64_t xfer =
                kProbeXferBase + probe_counter_++;
            const std::vector<Xyzz> pts(1, Xyzz::identity());
            const std::vector<std::uint64_t> keys(1, 0);
            std::vector<Xyzz> wire = pts;
            wire.push_back(rlcKeyedDigest<Curve>(
                pts, keys, options_.checksumSeed));
            std::vector<std::uint8_t> bytes =
                serializePoints<Curve>(wire);
            if (fplan.transferFault(xfer, d) !=
                gpusim::TransferFault::None)
                gpusim::corruptBytes(bytes, fplan.seed, xfer);
            std::vector<Xyzz> got =
                deserializePoints<Curve>(bytes);
            const Xyzz device_digest = got.back();
            got.pop_back();
            const Xyzz host_digest =
                rlcKeyedDigest<Curve>(got, keys, options_.checksumSeed);
            if (bitEqual(host_digest, device_digest)) {
                health->recordCleanProbe(d);
                ++paroled;
            } else {
                health->recordChecksumFailure(d);
            }
        }
        return paroled;
    }

  private:

    /** Bucket slice bound: slice g of @p groups owns buckets
     *  [sliceBound(g), sliceBound(g + 1)); bucket 0 is never
     *  summed. */
    static std::size_t
    sliceBound(std::size_t n_buckets, std::size_t g, std::size_t groups)
    {
        return 1 + (n_buckets - 1) * g / groups;
    }

    /** One scatter launch of @p ids under the plan's configuration,
     *  traced as @p label on kernel lane @p lane. */
    ScatterResult
    scatterIds(const std::vector<std::uint32_t> &ids, std::string label,
               int lane) const
    {
        ScatterConfig cfg = options_.scatter;
        cfg.fieldBackend = plan_.fieldBackend;
        if (options_.trace != nullptr) {
            cfg.trace = options_.trace;
            cfg.traceLabel = std::move(label);
            cfg.traceLane = lane;
        }
        return plan_.hierarchicalScatter
                   ? hierarchicalScatter(ids, plan_.windowBits, cfg)
                   : naiveScatter(ids, plan_.windowBits, cfg);
    }

    /**
     * Sum bucket slice @p g of @p groups into @p sums (one entry per
     * bucket; only the slice's entries are written), tallying the EC
     * work into @p stats. Runs on the forced field backend — entered
     * per call, because slices run as pool tasks.
     */
    template <typename PointOf>
    void
    sumSlice(const std::vector<std::vector<std::uint32_t>> &buckets,
             std::size_t g, std::size_t groups, PointOf &&point_of,
             std::vector<XYZZPoint<Curve>> &sums,
             gpusim::KernelStats &stats) const
    {
        const field::TcBackendScope tc_scope(tc_exec_);
        const std::size_t lo = sliceBound(sums.size(), g, groups);
        const std::size_t hi = sliceBound(sums.size(), g + 1, groups);
        if (plan_.batchAffine) {
            BatchAffineScratch<Curve> scratch;
            batchAffineAccumulate<Curve>(buckets, lo, hi, point_of,
                                         sums, stats, scratch);
            return;
        }
        for (std::size_t b = lo; b < hi && b < buckets.size(); ++b)
            if (!buckets[b].empty())
                sums[b] = bucketSumTree<Curve>(
                    buckets[b], point_of, plan_.threadsPerBucket, stats);
    }

    /** One device's share of a merge: points keyed by global window
     *  or bucket index. */
    struct Shipment
    {
        int device = 0;
        std::vector<XYZZPoint<Curve>> points;
        std::vector<std::uint64_t> keys;
    };

    /**
     * Per-call fault bookkeeping the ship steps share: the active
     * plan, the report, the per-device faulted flags (a faulted
     * device forfeits its clean-window credit), the deterministic
     * fault log for the trace track, and the canonical transfer
     * counter — the ordinal a corrupt:xfer clause names.
     */
    struct FaultState
    {
        const gpusim::FaultPlan &plan;
        gpusim::FaultReport &report;
        std::vector<std::uint8_t> faulted;
        std::vector<std::string> log;
        std::uint64_t xfers = 0;
    };

    /**
     * Ship every shipment to the host through the checksummed
     * transfer layer and write the accepted points into @p out at
     * their keys. Sequential, in the given canonical order, so
     * injection, detection and retry are identical at every
     * hostThreads setting; the RLC digests are keyed by global
     * index, so resharding or re-routing never changes the digest a
     * payload must match.
     *
     * Gather ships each shipment straight to the host. A collective
     * merge folds the shipments per device and routes them along the
     * schedule (mergeViaCollective); every key has exactly one
     * contributor, so the points reaching the host are bit-identical
     * to the gather's. Under CollectivePolicy::Auto (the plan's
     * collectiveAuto) the strategy is re-resolved here against the
     * merge's *actual* payload size (the plan resolved it once, at
     * the planning-time estimate); when that pick is Gather, each
     * device's folded payload ships straight to the host, devices
     * ascending.
     */
    support::Status
    shipAll(std::vector<Shipment> ships, FaultState &fs,
            const std::string &trace_prefix,
            std::vector<XYZZPoint<Curve>> &out) const
    {
        gpusim::CollectiveAlgo algo = plan_.collective;
        if (algo != gpusim::CollectiveAlgo::Gather && !ships.empty()) {
            std::vector<Shipment> per_dev(
                static_cast<std::size_t>(cluster_.numGpus()));
            for (const Shipment &sh : ships) {
                Shipment &dev = per_dev[static_cast<std::size_t>(
                    sh.device)];
                dev.device = sh.device;
                dev.points.insert(dev.points.end(), sh.points.begin(),
                                  sh.points.end());
                dev.keys.insert(dev.keys.end(), sh.keys.begin(),
                                sh.keys.end());
            }
            std::vector<int> members;
            std::uint64_t max_bytes = 0;
            for (const Shipment &dev : per_dev)
                if (!dev.keys.empty()) {
                    members.push_back(dev.device);
                    max_bytes = std::max<std::uint64_t>(
                        max_bytes,
                        dev.points.size() * sizeof(XYZZPoint<Curve>));
                }
            // The busiest member's bytes: deterministic at every
            // hostThreads (the payload partition is fixed).
            if (plan_.collectiveAuto)
                algo = gpusim::CollectiveTimeEstimator(
                           cluster_.topology(), cluster_.device())
                           .pick(gpusim::CollectivePolicy::Auto,
                                 static_cast<int>(members.size()),
                                 max_bytes);
            const gpusim::CollectiveSchedule sched =
                gpusim::buildCollectiveSchedule(
                    algo, cluster_.topology(), members);
            if (sched.root >= 0)
                return mergeViaCollective(per_dev, sched, algo, fs,
                                          trace_prefix, out);
            ships.clear();
            for (const int m : members)
                ships.push_back(
                    std::move(per_dev[static_cast<std::size_t>(m)]));
        }
        for (const Shipment &sh : ships) {
            std::vector<XYZZPoint<Curve>> received;
            const support::Status shipped = shipPayloadResilient(
                sh.device, sh.points, sh.keys, fs, received);
            if (!shipped.isOk())
                return shipped;
            for (std::size_t i = 0; i < received.size(); ++i)
                out[static_cast<std::size_t>(sh.keys[i])] = received[i];
        }
        return support::Status::ok();
    }

    /**
     * One simulated device->host transfer under the fault plan:
     * append the device-side RLC digest, serialize, apply any
     * injected delay or byte corruption, deserialize, re-derive the
     * digest host-side and compare limb-for-limb — retrying (with a
     * fresh canonical attempt index) up to MsmOptions::maxRetries
     * times. Every retry waits out an exponential backoff
     * (gpusim::retryBackoffNs) plus a deterministic seeded jitter — simulated time, priced
     * into FaultReport::backoffNs, never wall clock. On success
     * @p received holds the accepted points, bit-identical to
     * @p points whenever nothing corrupted the wire. On exhaustion,
     * returns the typed Status of the final failed attempt. Each
     * observed fault marks the device faulted in @p fs (it forfeits
     * its clean window) and feeds the health tracker when one is
     * attached.
     */
    support::Status
    shipPayload(int device,
                const std::vector<XYZZPoint<Curve>> &points,
                const std::vector<std::uint64_t> &rho_keys,
                FaultState &fs,
                std::vector<XYZZPoint<Curve>> &received) const
    {
        using Xyzz = XYZZPoint<Curve>;
        gpusim::FaultReport &report = fs.report;
        gpusim::HealthTracker *const health =
            (options_.health != nullptr &&
             device < options_.health->numDevices())
                ? options_.health
                : nullptr;
        support::Status last(support::StatusCode::TransferTimeout,
                             "transfer never attempted");
        for (int attempt = 0; attempt <= options_.maxRetries;
             ++attempt) {
            const std::uint64_t xfer = fs.xfers++;
            ++report.transfers;
            if (attempt > 0) {
                ++report.retries;
                // Exponential backoff with seeded jitter: dead wire
                // time in the simulated timeline. The jitter PRNG is
                // keyed by (plan seed, attempt's transfer index), so
                // the wait is bit-identical at every hostThreads.
                const double backoff = gpusim::retryBackoffNs(attempt);
                Prng jitter_rng(fs.plan.seed ^
                                (xfer * 0x9E3779B97F4A7C15ull) ^
                                0xBACC0FFull);
                const double jitter =
                    backoff * 0.25 *
                    (static_cast<double>(jitter_rng() >> 11) *
                     0x1.0p-53);
                report.backoffNs += backoff + jitter;
            }
            const double delay =
                fs.plan.transferDelayNs(device, attempt);
            if (delay > 0.0) {
                report.delayNs += delay;
                ++report.faultsInjected;
                fs.log.push_back("delay/dev" +
                                    std::to_string(device) +
                                    "/xfer" + std::to_string(xfer));
                if (delay > options_.transferTimeoutNs) {
                    ++report.timeouts;
                    fs.faulted[static_cast<std::size_t>(device)] = 1;
                    if (health != nullptr)
                        health->recordTimeout(device);
                    last = support::Status(
                        support::StatusCode::TransferTimeout,
                        "device " + std::to_string(device) +
                            " transfer attempt " +
                            std::to_string(attempt) +
                            " exceeded the timeout");
                    continue;
                }
            }
            std::vector<Xyzz> wire = points;
            if (options_.verifyChecksums)
                wire.push_back(
                    rlcKeyedDigest<Curve>(points, rho_keys,
                                          options_.checksumSeed,
                                          &report));
            std::vector<std::uint8_t> bytes =
                serializePoints<Curve>(wire);
            const gpusim::TransferFault tf =
                fs.plan.transferFault(xfer, device);
            if (tf != gpusim::TransferFault::None) {
                gpusim::corruptBytes(bytes, fs.plan.seed, xfer);
                ++report.corruptInjected;
                ++report.faultsInjected;
                fs.faulted[static_cast<std::size_t>(device)] = 1;
                fs.log.push_back(
                    (tf == gpusim::TransferFault::Flaky
                         ? "flaky/dev"
                         : "corrupt/dev") +
                    std::to_string(device) + "/xfer" +
                    std::to_string(xfer));
            }
            std::vector<Xyzz> got =
                deserializePoints<Curve>(bytes);
            if (got.size() != wire.size())
                return support::Status(
                    support::StatusCode::ResultMismatch,
                    "device " + std::to_string(device) +
                        " transfer payload size mismatch");
            if (options_.verifyChecksums) {
                const Xyzz device_digest = got.back();
                got.pop_back();
                const Xyzz host_digest =
                    rlcKeyedDigest<Curve>(got, rho_keys,
                                          options_.checksumSeed, &report);
                if (!bitEqual(host_digest, device_digest)) {
                    ++report.corruptDetected;
                    if (health != nullptr)
                        health->recordChecksumFailure(device);
                    fs.log.push_back(
                        "detect/dev" + std::to_string(device) +
                        "/xfer" + std::to_string(xfer));
                    last = support::Status(
                        support::StatusCode::TransferCorrupt,
                        "device " + std::to_string(device) +
                            " transfer digest mismatch (attempt " +
                            std::to_string(attempt) + ")");
                    continue;
                }
            }
            received = std::move(got);
            return support::Status::ok();
        }
        return last;
    }

    /**
     * shipPayload with one health-gated failover: when every retry
     * from @p device fails AND a health tracker is attached, the
     * payload is re-shipped once from the healthiest-preferred
     * survivor (same node first, ascending — the pickSurvivor
     * ordering, round-robined by the failover ordinal). In the
     * simulation the payload bytes live host-side either way, so
     * the redirect is purely a routing decision; the RLC digests are
     * keyed by global index, so the new sender must match the same
     * digest. Without a tracker this is exactly shipPayload — the
     * persistent-corruption error paths are untouched.
     */
    support::Status
    shipPayloadResilient(
        int device, const std::vector<XYZZPoint<Curve>> &points,
        const std::vector<std::uint64_t> &rho_keys, FaultState &fs,
        std::vector<XYZZPoint<Curve>> &received) const
    {
        const support::Status first =
            shipPayload(device, points, rho_keys, fs, received);
        gpusim::HealthTracker *const health = options_.health;
        if (first.isOk() || health == nullptr)
            return first;
        if (first.code() != support::StatusCode::TransferCorrupt &&
            first.code() != support::StatusCode::TransferTimeout)
            return first;
        const gpusim::Topology &topo = cluster_.topology();
        std::vector<int> pref;
        for (const int pass : {0, 1})
            for (int c = 0; c < cluster_.numGpus(); ++c) {
                if (c == device || fs.plan.killWindow(c) >= 0 ||
                    fs.plan.hangWindow(c) >= 0)
                    continue;
                if (c < health->numDevices() &&
                    !health->schedulable(c))
                    continue;
                if (topo.sameNode(c, device) == (pass == 0))
                    pref.push_back(c);
            }
        if (pref.empty())
            return first;
        const int target = pref[static_cast<std::size_t>(
            fs.report.transferFailovers % pref.size())];
        ++fs.report.transferFailovers;
        fs.log.push_back("failover/dev" +
                            std::to_string(device) + "->dev" +
                            std::to_string(target));
        return shipPayload(target, points, rho_keys, fs, received);
    }

    /**
     * Topology-aware reshard target: the preference list puts the
     * dead device's same-node survivors first (NVLink-local
     * recovery), then cross-node survivors, both ascending; the
     * global reshard ordinal round-robins over it. On a single-node
     * cluster the preference list IS the ascending survivor list, so
     * the assignment is bit-for-bit the legacy
     * survivors[i % survivors.size()].
     */
    int
    pickSurvivor(const std::vector<int> &survivors, int original,
                 std::size_t ordinal,
                 gpusim::FaultReport &report) const
    {
        const gpusim::Topology &topo = cluster_.topology();
        std::vector<int> pref;
        pref.reserve(survivors.size());
        for (int s : survivors)
            if (topo.sameNode(s, original))
                pref.push_back(s);
        for (int s : survivors)
            if (!topo.sameNode(s, original))
                pref.push_back(s);
        const int target = pref[ordinal % pref.size()];
        if (topo.sameNode(target, original))
            ++report.reshardsIntraNode;
        else
            ++report.reshardsCrossNode;
        return target;
    }

    /**
     * Functional ring/tree/reduce-scatter merge: route the per-device
     * payloads device-to-device along @p sched — each hop a
     * checksummed shipPayloadResilient, receivers concatenating —
     * then one root->host hop carrying the union, written into
     * @p out at its keys. A sharded step (reduce-scatter rounds)
     * moves only the keys k with k % shardCount == step.shard,
     * leaving the rest on the sender. The keys are disjoint, so no
     * point is ever combined in-flight. Steps execute sequentially
     * in schedule order — one deterministic transfer-counter stream,
     * so injected faults hit the same hop at every hostThreads
     * setting. @p payloads (indexed by device) are consumed.
     */
    support::Status
    mergeViaCollective(std::vector<Shipment> &payloads,
                       const gpusim::CollectiveSchedule &sched,
                       gpusim::CollectiveAlgo algo, FaultState &fs,
                       const std::string &trace_prefix,
                       std::vector<XYZZPoint<Curve>> &out) const
    {
        using Xyzz = XYZZPoint<Curve>;
        const gpusim::Topology &topo = cluster_.topology();
        namespace lane = support::tracelane;
        support::TraceRecorder *trace = options_.trace;
        const std::uint64_t digest_pts =
            options_.verifyChecksums ? 1 : 0;
        double cursor = 0.0;
        std::uint64_t bytes_intra = 0;
        std::uint64_t bytes_inter = 0;
        for (const gpusim::CollectiveStep &step : sched.steps) {
            Shipment &src = payloads[static_cast<std::size_t>(step.src)];
            Shipment ship;
            if (step.shard < 0) {
                std::swap(ship.points, src.points);
                std::swap(ship.keys, src.keys);
            } else {
                // Sharded step: split the sender's payload into the
                // forwarded shard and the rest, preserving order on
                // both sides (deterministic at every hostThreads).
                Shipment stay;
                for (std::size_t i = 0; i < src.keys.size(); ++i) {
                    Shipment &to =
                        static_cast<int>(
                            src.keys[i] %
                            static_cast<std::uint64_t>(
                                sched.shardCount)) == step.shard
                            ? ship
                            : stay;
                    to.points.push_back(src.points[i]);
                    to.keys.push_back(src.keys[i]);
                }
                src.points = std::move(stay.points);
                src.keys = std::move(stay.keys);
            }
            std::vector<Xyzz> received;
            const support::Status shipped = shipPayloadResilient(
                step.src, ship.points, ship.keys, fs, received);
            if (!shipped.isOk())
                return shipped;
            const std::uint64_t wire_bytes =
                (received.size() + digest_pts) * sizeof(Xyzz);
            if (topo.sameNode(step.src, step.dst))
                bytes_intra += wire_bytes;
            else
                bytes_inter += wire_bytes;
            if (trace != nullptr) {
                const double dur =
                    topo.linkNs(step.src, step.dst, wire_bytes);
                trace->labelThread(
                    lane::engineDevicePid(step.src),
                    lane::kTransferTid, "transfer");
                trace->span(
                    "collective/" + trace_prefix +
                        std::string(
                            gpusim::collectiveAlgoName(algo)),
                    "transfer", lane::engineDevicePid(step.src),
                    lane::kTransferTid, cursor, dur,
                    support::TraceArgs()
                        .arg("dst", std::to_string(step.dst))
                        .arg("points", static_cast<double>(
                                           received.size())));
                cursor += dur;
            }
            Shipment &dst = payloads[static_cast<std::size_t>(step.dst)];
            dst.points.insert(dst.points.end(), received.begin(),
                              received.end());
            dst.keys.insert(dst.keys.end(), ship.keys.begin(),
                            ship.keys.end());
        }
        const Shipment &root =
            payloads[static_cast<std::size_t>(sched.root)];
        std::vector<Xyzz> received;
        const support::Status shipped = shipPayloadResilient(
            sched.root, root.points, root.keys, fs, received);
        if (!shipped.isOk())
            return shipped;
        for (std::size_t i = 0; i < received.size(); ++i)
            out[static_cast<std::size_t>(root.keys[i])] = received[i];
        if (trace != nullptr) {
            auto &metrics = trace->metrics();
            const std::string cp = "collective/" + trace_prefix;
            metrics.add(cp + "steps",
                        static_cast<double>(sched.steps.size()));
            metrics.add(cp + "bytes_intra",
                        static_cast<double>(bytes_intra));
            metrics.add(cp + "bytes_inter",
                        static_cast<double>(bytes_inter));
            metrics.add(cp + "bytes_host",
                        static_cast<double>(
                            (received.size() + digest_pts) *
                            sizeof(Xyzz)));
        }
        return support::Status::ok();
    }

    /**
     * The fault layer's trace track: one instant per injection or
     * detection (deterministic ordinals as the logical time axis) on
     * the engine-host process, plus the flat "fault/" counters.
     */
    void
    emitFaultTrace(support::TraceRecorder &trace,
                   const gpusim::FaultReport &report,
                   const std::vector<std::string> &log) const
    {
        namespace lane = support::tracelane;
        trace.labelProcess(lane::kEngineHostPid, "engine host");
        trace.labelThread(lane::kEngineHostPid, kFaultTid, "faults");
        for (std::size_t i = 0; i < log.size(); ++i)
            trace.instant("fault/" + log[i], "fault",
                          lane::kEngineHostPid, kFaultTid,
                          static_cast<double>(i) * 1000.0);
        auto &metrics = trace.metrics();
        metrics.add("fault/faults_injected",
                    static_cast<double>(report.faultsInjected));
        metrics.add("fault/corrupt_injected",
                    static_cast<double>(report.corruptInjected));
        metrics.add("fault/corrupt_detected",
                    static_cast<double>(report.corruptDetected));
        metrics.add("fault/timeouts",
                    static_cast<double>(report.timeouts));
        metrics.add("fault/retries",
                    static_cast<double>(report.retries));
        metrics.add("fault/windows_resharded",
                    static_cast<double>(report.windowsResharded));
        metrics.add("fault/reshards_intra_node",
                    static_cast<double>(report.reshardsIntraNode));
        metrics.add("fault/reshards_cross_node",
                    static_cast<double>(report.reshardsCrossNode));
        metrics.add("fault/devices_lost",
                    static_cast<double>(report.devicesLost));
        metrics.add("fault/transfers",
                    static_cast<double>(report.transfers));
        metrics.add("fault/checksums",
                    static_cast<double>(report.checksummed));
        metrics.add("fault/verify_ec_ops",
                    static_cast<double>(report.verifyEcOps));
        metrics.add("fault/delay_ns", report.delayNs);
        metrics.add("fault/stragglers_detected",
                    static_cast<double>(report.stragglersDetected));
        metrics.add("fault/straggler_respawns",
                    static_cast<double>(report.stragglerRespawns));
        metrics.add("fault/speculative_wins",
                    static_cast<double>(report.speculativeWins));
        metrics.add("fault/speculative_losses",
                    static_cast<double>(report.speculativeLosses));
        metrics.add("fault/hangs",
                    static_cast<double>(report.hangs));
        metrics.add("fault/transfer_failovers",
                    static_cast<double>(report.transferFailovers));
        metrics.add("fault/backoff_ns",
                    static_cast<double>(report.backoffNs));
        metrics.add("fault/straggler_wait_ns",
                    static_cast<double>(report.stragglerWaitNs));
        metrics.add("fault/straggler_stall_ns",
                    static_cast<double>(report.stragglerStallNs));
        if (options_.health != nullptr)
            options_.health->recordMetrics(trace.metrics());
    }

    /** Simulated threads executing one scatter launch. */
    int
    scatterThreads() const
    {
        return static_cast<int>(std::min<std::uint64_t>(
            cluster_.device().maxConcurrentThreads(),
            static_cast<std::uint64_t>(options_.scatter.blockDim) *
                options_.scatter.gridDim));
    }

    /** Cost-model time of one bucket-sum launch's EC work. */
    double
    bucketSumNs(const gpusim::KernelStats &ec) const
    {
        const auto &m = cluster_.model();
        return m.ecThroughputNs(curve_profile_, eff_kernel_,
                                gpusim::EcOp::Pacc, ec.paccOps) +
               m.ecThroughputNs(curve_profile_, eff_kernel_,
                                gpusim::EcOp::Padd, ec.paddOps) +
               m.ecThroughputNs(curve_profile_, eff_kernel_,
                                gpusim::EcOp::Pdbl, ec.pdblOps) +
               m.ecThroughputNs(curve_profile_, eff_kernel_,
                                gpusim::EcOp::AffineAdd,
                                ec.affineAddOps);
    }

    /**
     * Modular multiplications the measured EC work retired, in the
     * cost model's per-op units — the denomination of the
     * per-backend attribution metrics.
     */
    double
    kernelModmuls(const gpusim::KernelStats &ec) const
    {
        const bool az = curve_profile_.aIsZero;
        return static_cast<double>(ec.paccOps) *
                   gpusim::ecOpModmuls(eff_kernel_,
                                       gpusim::EcOp::Pacc, az) +
               static_cast<double>(ec.paddOps) *
                   gpusim::ecOpModmuls(eff_kernel_,
                                       gpusim::EcOp::Padd, az) +
               static_cast<double>(ec.pdblOps) *
                   gpusim::ecOpModmuls(eff_kernel_,
                                       gpusim::EcOp::Pdbl, az) +
               static_cast<double>(ec.affineAddOps) *
                   gpusim::ecOpModmuls(eff_kernel_,
                                       gpusim::EcOp::AffineAdd, az);
    }

    /**
     * Flat per-backend attribution for one compute(): which backend
     * the run's kernel modmuls belong to, derived deterministically
     * from the merged KernelStats (identical at every hostThreads).
     */
    void
    emitFieldBackendMetrics(support::TraceRecorder &trace,
                            const gpusim::KernelStats &stats) const
    {
        auto &metrics = trace.metrics();
        const bool tc = plan_.fieldBackend ==
                        gpusim::FieldBackend::TensorCore;
        metrics.set("engine/field_backend",
                    static_cast<double>(
                        static_cast<int>(plan_.fieldBackend)));
        metrics.set("engine/field_backend_auto",
                    plan_.fieldBackendAuto ? 1.0 : 0.0);
        const double modmuls = kernelModmuls(stats);
        metrics.add(tc ? "engine/field_backend_tc_modmuls"
                       : "engine/field_backend_cuda_modmuls",
                    modmuls);
        // The differential tcmul execution only runs on a forced
        // TensorCore; an Auto-resolved TC prices the offload but
        // executes CIOS (bit-identical), so the flag is separate.
        metrics.set("engine/field_backend_tc_executed",
                    tc_exec_ ? 1.0 : 0.0);
    }

    void
    labelEngineLanes(support::TraceRecorder &trace) const
    {
        namespace lane = support::tracelane;
        // Suffix the compute lane with the resolved backend so a
        // trace viewer shows per-backend lanes without a metric
        // lookup.
        const std::string compute_label =
            std::string("windows [") +
            gpusim::fieldBackendName(plan_.fieldBackend) + "]";
        for (int d = 0; d < cluster_.numGpus(); ++d) {
            trace.labelProcess(lane::engineDevicePid(d),
                               "engine gpu" + std::to_string(d));
            trace.labelThread(lane::engineDevicePid(d),
                              lane::kComputeTid, compute_label);
        }
        trace.labelProcess(lane::kEngineHostPid, "engine host");
        trace.labelThread(lane::kEngineHostPid, lane::kComputeTid,
                          "reduce");
    }

    /** Engine-host track carrying table-build / cache-hit events. */
    static constexpr int kPrecomputeTid = 2;
    /** Engine-host track carrying fault injection/detection events. */
    static constexpr int kFaultTid = 3;
    /**
     * Quarantine probes draw transfer indices from here upward — far
     * above any real transfer counter, so a probe can never collide
     * with a corrupt:xfer=N clause aimed at the compute path.
     */
    static constexpr std::uint64_t kProbeXferBase = 1ull << 62;

    std::vector<AffinePoint<Curve>> points_;
    // The planning state below is mutable: a health-generation
    // change re-plans from inside the const tryCompute (see
    // stagePlan). Engines with a tracker attached must not
    // run concurrent tryCompute calls; without one, nothing here
    // ever changes after construction.
    /** phi(P_i) images when the plan enabled GLV (else empty). */
    mutable std::vector<AffinePoint<Curve>> phi_points_;
    gpusim::Cluster cluster_;
    MsmOptions options_;
    gpusim::CurveProfile curve_profile_;
    mutable MsmPlan plan_;
    /**
     * options_.kernel with the plan's resolved field backend applied
     * (gpusim::applyFieldBackend) — the variant every cost-model
     * query in the engine prices against.
     */
    mutable gpusim::EcKernelVariant eff_kernel_;
    /** Forced-TensorCore runs execute the tcmul differential path. */
    bool tc_exec_ = false;
    /** Shared precompute table (plan_.precompute; else null). */
    mutable std::shared_ptr<const PrecomputeTable<Curve>> table_;
    mutable bool table_cache_hit_ = false;
    /** Health generation plan_ was computed against. */
    mutable std::uint64_t planned_generation_ = 0;
    /**
     * Calibrated fault-free per-window GPU time (ns): the watchdog
     * deadline base. Zero when neither a tracker nor straggler
     * clauses are present.
     */
    mutable double window_estimate_ns_ = 0.0;
    /** Monotone probe ordinal (offsets kProbeXferBase). */
    mutable std::uint64_t probe_counter_ = 0;
    /** Orders trace labels of successive compute() calls. */
    mutable std::atomic<std::uint64_t> msm_counter_{0};
};

} // namespace distmsm::msm

#endif // DISTMSM_MSM_ENGINE_H
