#include "src/msm/autoplan.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/msm/pipeline.h"
#include "src/sched/schedule_search.h"
#include "src/support/fnv1a.h"
#include "src/support/trace.h"

namespace distmsm::msm {
namespace {

using gpusim::CollectivePolicy;
using gpusim::CurveProfile;
using gpusim::FieldBackend;

/** What a knob's value list may depend on. */
struct SpaceInputs
{
    const CurveProfile &curve;
    int numGpus;
    const MsmOptions &base;
    /** The heuristic plan of `base`: the search's seed. */
    const MsmPlan &seed;
};

using Values = std::vector<int>;

/**
 * One searchable MsmOptions field: the values the search enumerates
 * for it, in order (a pinned option collapses to a single value),
 * and the getter/setter that move the field through the int a
 * candidate stores.
 */
struct Knob
{
    Values (*values)(const SpaceInputs &);
    int (*get)(const MsmOptions &);
    void (*set)(MsmOptions &, int);
};

template <auto Field>
constexpr Knob
knob(Values (*values)(const SpaceInputs &))
{
    using T = std::remove_cvref_t<
        decltype(std::declval<MsmOptions &>().*Field)>;
    return {values,
            [](const MsmOptions &o) { return static_cast<int>(o.*Field); },
            [](MsmOptions &o, int v) { o.*Field = static_cast<T>(v); }};
}

Values
toggle(const SpaceInputs &)
{
    return {0, 1};
}

/**
 * The knob table: the search space and its enumeration order. The
 * exhaustive search walks it as an odometer, first knob outermost;
 * the beam search fixes one knob per stage, in table order. Making
 * an MsmOptions field searchable is one row here.
 */
constexpr Knob kKnobs[] = {
    // Window bits: the caller's pin, or the model's pick (0)
    // bracketed two bits each way within the planner's [4, 24] range.
    knob<&MsmOptions::windowBitsOverride>([](const SpaceInputs &in) {
        if (in.base.windowBitsOverride != 0)
            return Values{static_cast<int>(in.base.windowBitsOverride)};
        Values out{0};
        for (int d = -2; d <= 2; ++d) {
            const int s = static_cast<int>(in.seed.windowBits) + d;
            if (s >= 4 && s <= 24)
                out.push_back(s);
        }
        return out;
    }),
    knob<&MsmOptions::signedDigits>(toggle),
    knob<&MsmOptions::glv>([](const SpaceInputs &in) {
        return in.curve.glvScalarBits == 0 ? Values{0} : Values{0, 1};
    }),
    knob<&MsmOptions::batchAffine>(toggle),
    knob<&MsmOptions::precompute>(toggle),
    // The host reduce is a candidate only where the caller allows it.
    knob<&MsmOptions::cpuBucketReduce>([](const SpaceInputs &in) {
        return in.base.cpuBucketReduce ? Values{0, 1} : Values{0};
    }),
    // Auto must not resurrect an explicitly stripped tensor-core
    // kernel variant.
    knob<&MsmOptions::fieldBackend>([](const SpaceInputs &in) {
        if (in.base.fieldBackend != FieldBackend::Auto)
            return Values{static_cast<int>(in.base.fieldBackend)};
        if (!in.base.kernel.tensorCoreMont)
            return Values{static_cast<int>(FieldBackend::CudaCore)};
        return Values{static_cast<int>(FieldBackend::CudaCore),
                      static_cast<int>(FieldBackend::TensorCore)};
    }),
    // Gather (the legacy default) and Auto both mean "merge strategy
    // not pinned": search the four concrete strategies against the
    // full timeline, which sees overlap effects the link tuner's
    // local argmin cannot.
    knob<&MsmOptions::collective>([](const SpaceInputs &in) {
        const CollectivePolicy p = in.base.collective;
        if (p != CollectivePolicy::Gather && p != CollectivePolicy::Auto)
            return Values{static_cast<int>(p)};
        return Values{static_cast<int>(CollectivePolicy::Gather),
                      static_cast<int>(CollectivePolicy::Ring),
                      static_cast<int>(CollectivePolicy::Tree),
                      static_cast<int>(CollectivePolicy::ReduceScatter)};
    }),
    knob<&MsmOptions::threadsPerBucket>([](const SpaceInputs &in) {
        Values out{in.base.threadsPerBucket};
        if (2 * in.seed.threadsPerBucket != in.base.threadsPerBucket)
            out.push_back(2 * in.seed.threadsPerBucket);
        return out;
    }),
    // Pipeline depth / device partitions: 0 opts the dimension into
    // the search, any explicit value pins it; 0 in the seed passes
    // through to planMsmHeuristic, which resolves it to 1. Partitions
    // must divide the cluster evenly.
    knob<&MsmOptions::pipelineDepth>([](const SpaceInputs &in) {
        return in.base.pipelineDepth == 0
                   ? Values{1, 2, 4}
                   : Values{std::max(1, in.base.pipelineDepth)};
    }),
    knob<&MsmOptions::devicePartitions>([](const SpaceInputs &in) {
        if (in.base.devicePartitions != 0)
            return Values{std::max(1, in.base.devicePartitions)};
        Values out;
        for (const int k : {1, 2, 4})
            if (k <= in.numGpus && in.numGpus % k == 0)
                out.push_back(k);
        return out;
    }),
};

constexpr std::size_t kNumKnobs = std::size(kKnobs);

/** One point of the search space: a value per knob-table row. */
using Candidate = std::array<int, kNumKnobs>;

/** The caller's own knob values: the search's seed. */
Candidate
seedCandidate(const MsmOptions &base)
{
    Candidate c{};
    for (std::size_t k = 0; k < kNumKnobs; ++k)
        c[k] = kKnobs[k].get(base);
    return c;
}

/**
 * Scoring probe: the caller's options with the candidate's knobs
 * applied. Planner pinned to Heuristic (the probe flows through
 * planMsmHeuristic / estimateDistMsmWithPlan, never back into the
 * search) and the trace detached (thousands of probes must not spam
 * the caller's timeline).
 */
MsmOptions
realize(const MsmOptions &base, const Candidate &c)
{
    MsmOptions o = base;
    o.planner = PlannerMode::Heuristic;
    o.trace = nullptr;
    for (std::size_t k = 0; k < kNumKnobs; ++k)
        kKnobs[k].set(o, c[k]);
    return o;
}

/**
 * DISTMSM_AUTOPLAN_BEAM: a positive width turns the exhaustive
 * enumeration into a staged beam search (see searchPlans); unset,
 * empty, or <= 0 keeps the exhaustive default.
 */
int
beamWidthFromEnv()
{
    const char *v = std::getenv("DISTMSM_AUTOPLAN_BEAM");
    if (v == nullptr || *v == '\0')
        return 0;
    return std::atoi(v);
}

/**
 * Cache key: everything the search's answer depends on — curve, N,
 * topology fingerprint, device spec, host spec, cost params, and the
 * full option mask (each searchable knob's *starting* value pins or
 * seeds a dimension, and the fixed knobs shape every score).
 */
std::uint64_t
cacheKey(const CurveProfile &curve, std::uint64_t n,
         const gpusim::Cluster &cluster, const MsmOptions &o)
{
    std::ostringstream s;
    s.precision(17);
    s << "v3|" << curve.name << '|' << curve.fieldBits << '|'
      << curve.scalarBits << '|' << curve.aIsZero << '|'
      << curve.glvScalarBits << '|' << n << '|'
      << cluster.topology().describe() << '|';
    const auto &d = cluster.device();
    s << d.name << '|' << d.smCount << '|' << d.maxThreadsPerSm << '|'
      << d.registersPerSm << '|' << d.maxRegistersPerThread << '|'
      << d.sharedMemPerSm << '|' << d.globalMemBytes << '|'
      << d.clockGhz << '|' << d.int32Tops << '|' << d.tensorInt8Tops
      << '|' << d.fp32Tflops << '|' << d.memBandwidthGBs << '|'
      << d.sharedBandwidthRatio << '|' << d.globalAtomicNs << '|'
      << d.globalAtomicConflictNs << '|' << d.sharedAtomicNs << '|'
      << d.sharedAtomicConflictNs << '|' << d.transferBandwidthGBs
      << '|' << d.transferLatencyUs << '|';
    const auto &h = cluster.host();
    s << h.name << '|' << h.cores << '|' << h.gpuToCpuEcRatio << '|';
    const auto &p = cluster.model().params();
    s << p.opsPerMac << '|' << p.opsPerAdd << '|' << p.auxRegisters
      << '|' << p.saturationThreadsPerSm << '|' << p.tcOpsPerByteMac
      << '|' << p.tcMarshalOpsPerOffloadedMac << '|'
      << p.compactWideMarshalFactor << '|' << p.scatterOpsPerElement
      << '|' << p.kernelLaunchUs << '|' << p.tcRawStoreOpsPerLimb
      << '|';
    s << o.windowBitsOverride << '|' << o.hierarchicalScatter << '|'
      << o.cpuBucketReduce << '|' << o.overlapReduce << '|'
      << o.threadsPerBucket << '|' << o.signedDigits << '|'
      << o.precompute << '|' << o.glv << '|' << o.batchAffine << '|'
      << static_cast<int>(o.collective) << '|'
      << o.kernel.dedicatedPacc << o.kernel.optimalOrder
      << o.kernel.explicitSpill << o.kernel.tensorCoreMont
      << o.kernel.onTheFlyCompact << '|'
      << static_cast<int>(o.fieldBackend) << '|'
      << o.scatter.blockDim << '|' << o.scatter.gridDim << '|'
      << o.scatter.sharedBytesPerBlock << '|'
      << o.scatter.localIdBytes << '|' << o.scatter.globalIdBytes
      << '|' << o.scatter.uncoalescedWriteFactor << '|'
      << o.verifyChecksums << '|' << o.pipelineDepth << '|'
      << o.devicePartitions << '|' << beamWidthFromEnv();
    return support::fnv1a(s.str());
}

/** Everything a cache hit must reproduce without re-searching. */
struct CacheEntry
{
    MsmPlan plan;
    double searchedNs = 0.0;
    double heuristicNs = 0.0;
};

/** Applies @p f to every MsmPlan field, in record-column order. */
template <typename Plan, typename F>
void
forEachPlanField(Plan &p, F &&f)
{
    std::apply([&f](auto &...field) { (f(field), ...); },
               std::tie(p.windowBits, p.numWindows, p.scalarBits, p.glv,
                        p.numBuckets, p.signedDigits, p.gpusPerWindow,
                        p.windowsPerGpu, p.threadsPerBucket,
                        p.bucketsSplitAcrossGpus, p.precompute,
                        p.tableBytes, p.collective, p.mergeBytesPerGpu,
                        p.fieldBackend, p.fieldBackendAuto,
                        p.pipelineDepth, p.devicePartitions,
                        p.hierarchicalScatter, p.batchAffine,
                        p.cpuBucketReduce, p.collectiveAuto));
}

/** One v3 TSV record: the key, every plan field as an exact
 *  integer, then the two timings (%.17g round-trips doubles). */
std::string
formatEntry(std::uint64_t key, const CacheEntry &e)
{
    std::ostringstream s;
    s << key;
    forEachPlanField(e.plan, [&s](const auto &v) {
        if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>)
            s << '\t' << static_cast<int>(v);
        else
            s << '\t' << v;
    });
    char ns[64];
    std::snprintf(ns, sizeof ns, "\t%.17g\t%.17g", e.searchedNs,
                  e.heuristicNs);
    return s.str() + ns;
}

/** Parses exactly one v3 record: a truncated line, a stale v2 record
 *  or trailing columns are rejected (a cache miss). */
bool
parseEntry(const std::string &line, std::uint64_t &key, CacheEntry &e)
{
    std::istringstream s(line);
    bool ok = static_cast<bool>(s >> key);
    forEachPlanField(e.plan, [&](auto &field) {
        long long v = 0;
        ok = ok && static_cast<bool>(s >> v);
        field = static_cast<std::remove_cvref_t<decltype(field)>>(v);
    });
    std::string rest;
    return ok && static_cast<bool>(s >> e.searchedNs >> e.heuristicNs) &&
           !(s >> rest);
}

/**
 * In-process view of the persisted plan cache: a map loaded lazily
 * from the cache file, with misses appended back. The file lives at
 * DISTMSM_PLAN_CACHE, else $XDG_CACHE_HOME/distmsm/plans.tsv, else
 * $HOME/.cache/distmsm/plans.tsv; with none of the three variables
 * set the cache degrades to in-memory only.
 */
class PlanCache
{
  public:
    static PlanCache &
    instance()
    {
        static PlanCache cache;
        return cache;
    }

    bool
    lookup(std::uint64_t key, CacheEntry &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        out = it->second;
        return true;
    }

    void
    store(std::uint64_t key, const CacheEntry &entry)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        if (!entries_.emplace(key, entry).second)
            return;
        if (path_.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path_).parent_path(), ec);
        std::ofstream os(path_, std::ios::app);
        if (os)
            os << formatEntry(key, entry) << '\n';
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        loaded_ = false;
    }

  private:
    PlanCache() = default;

    static std::string
    defaultPath()
    {
        if (const char *p = std::getenv("DISTMSM_PLAN_CACHE"))
            return p;
        if (const char *xdg = std::getenv("XDG_CACHE_HOME"))
            return std::string(xdg) + "/distmsm/plans.tsv";
        if (const char *home = std::getenv("HOME"))
            return std::string(home) + "/.cache/distmsm/plans.tsv";
        return {};
    }

    void
    loadLocked()
    {
        if (loaded_)
            return;
        loaded_ = true;
        path_ = defaultPath();
        if (path_.empty())
            return;
        std::ifstream is(path_);
        std::string line;
        while (std::getline(is, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::uint64_t key = 0;
            CacheEntry e;
            if (parseEntry(line, key, e))
                entries_.emplace(key, e);
        }
    }

    std::mutex mutex_;
    bool loaded_ = false;
    std::string path_;
    std::unordered_map<std::uint64_t, CacheEntry> entries_;
};

/**
 * Score one realized candidate: heuristic plan + analytic timeline.
 *
 * At pipelineDepth 1 x devicePartitions 1 (the default, and what the
 * heuristic seed resolves to) the score is exactly totalNs() — the
 * pre-existing objective, so the search-never-loses contract holds
 * bit-exactly. Deeper candidates are scored as a two-stage flow shop
 * (pipeline.h): depth d keeps d MSMs in flight per partition, and
 * splitting the cluster into k partitions runs k independent streams
 * whose GPU stages each take ~k times longer (1/k of the devices);
 * the objective is the amortized per-MSM makespan, which rewards
 * depth exactly when the exposed host tail can hide behind another
 * MSM's GPU stage.
 */
double
scoreCandidate(const CurveProfile &curve, std::uint64_t n,
               const gpusim::Cluster &cluster,
               const MsmOptions &probe, MsmPlan &plan_out)
{
    plan_out = planMsmHeuristic(curve, n, cluster, probe);
    const MsmTimeline t =
        estimateDistMsmWithPlan(curve, n, cluster, probe, plan_out);
    const int d = plan_out.pipelineDepth;
    const int k = plan_out.devicePartitions;
    if (d <= 1 && k <= 1)
        return t.totalNs();
    const PipelineTask task{t.gpuStageNs() * k,
                            t.totalNs() - t.gpuStageNs()};
    const std::vector<PipelineTask> tasks(
        static_cast<std::size_t>(d) * static_cast<std::size_t>(k),
        task);
    return pipelineMakespanNs(tasks) / static_cast<double>(d * k);
}

/** Steps the odometer @p at over @p dims, last knob fastest (so the
 *  first knob is the outermost loop); false once it wraps. */
bool
advance(std::array<std::size_t, kNumKnobs> &at,
        const std::array<Values, kNumKnobs> &dims)
{
    for (std::size_t k = kNumKnobs; k-- > 0;) {
        if (++at[k] < dims[k].size())
            return true;
        at[k] = 0;
    }
    return false;
}

/** The search proper (no cache involvement). */
AutoPlanResult
searchPlans(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &cluster, const MsmOptions &base)
{
    // The driver tracks the winning *candidate*; plans are cheap to
    // re-derive, and keying on the candidate keeps the tie-break
    // story identical to the kernel scheduler's.
    sched::SearchDriver<Candidate, double> driver;
    const auto score = [&](const Candidate &c) {
        MsmPlan plan;
        return scoreCandidate(curve, n, cluster, realize(base, c), plan);
    };

    const Candidate seed = seedCandidate(base);
    MsmPlan seed_plan;
    const double seed_ns = scoreCandidate(
        curve, n, cluster, realize(base, seed), seed_plan);
    driver.seed(seed, seed_ns);

    const SpaceInputs inputs{curve, cluster.numGpus(), base, seed_plan};
    std::array<Values, kNumKnobs> dims;
    std::uint64_t space = 1;
    for (std::size_t k = 0; k < kNumKnobs; ++k) {
        dims[k] = kKnobs[k].values(inputs);
        space *= dims[k].size();
    }

    const int beam = beamWidthFromEnv();
    if (beam > 0) {
        // Staged beam: fix one knob per stage, keeping the `beam`
        // best partially-refined candidates (every unfixed knob holds
        // its stem's value, so each stem is always a complete,
        // scoreable candidate). Every scored candidate also feeds
        // the driver, and the driver was seeded first — so however
        // narrow the beam, the result never loses to the heuristic
        // seed. Stems carry their scores forward between stages
        // (offered to the next pool unscored); only genuinely new
        // knob values cost an evaluation.
        std::vector<sched::BeamPool<Candidate, double>::Entry> stems{
            {seed, seed_ns}};
        for (std::size_t k = 0; k < kNumKnobs; ++k) {
            sched::BeamPool<Candidate, double> pool(beam);
            for (const auto &stem : stems) {
                pool.offer(stem.candidate, stem.score);
                for (const int v : dims[k]) {
                    if (v == stem.candidate[k])
                        continue;
                    Candidate c = stem.candidate;
                    c[k] = v;
                    const double ns = score(c);
                    driver.consider(c, ns);
                    pool.offer(c, ns);
                }
            }
            stems = pool.entries();
        }
        // Everything the narrowed beam never reached counts as
        // pruned — the exhaustive space minus what was scored.
        if (space > driver.stats().evaluated)
            driver.prune(space - driver.stats().evaluated);
    } else {
        std::array<std::size_t, kNumKnobs> at{};
        do {
            Candidate c;
            for (std::size_t k = 0; k < kNumKnobs; ++k)
                c[k] = dims[k][at[k]];
            driver.consider(c, score(c));
        } while (advance(at, dims));
    }

    AutoPlanResult r;
    r.plan = planMsmHeuristic(curve, n, cluster,
                              realize(base, driver.best()));
    // The caller asked Auto (or pinned a backend); whether *this*
    // search or the heuristic's local rule resolved it, the plan's
    // provenance bit reports the caller's contract.
    r.plan.fieldBackendAuto = base.fieldBackend == FieldBackend::Auto;
    r.searchedNs = driver.bestScore();
    r.heuristicNs = seed_ns;
    r.evaluated = driver.stats().evaluated;
    r.pruned = driver.stats().pruned;
    return r;
}

void
recordMetrics(const MsmOptions &base, const AutoPlanResult &r,
              bool cached_mode)
{
    if (base.trace == nullptr)
        return;
    auto &m = base.trace->metrics();
    if (cached_mode)
        m.add(r.cacheHit ? "plan_cache/hits" : "plan_cache/misses",
              1.0);
    m.set("autoplan/evaluated", static_cast<double>(r.evaluated));
    m.set("autoplan/pruned", static_cast<double>(r.pruned));
    m.set("autoplan/cost_model_evals",
          static_cast<double>(r.costModelEvals));
    m.set("autoplan/searched_ns", r.searchedNs);
    m.set("autoplan/heuristic_ns", r.heuristicNs);
    m.set("autoplan/cache_hit", r.cacheHit ? 1.0 : 0.0);
}

} // namespace

AutoPlanResult
autoplanMsm(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &full_cluster, const MsmOptions &base)
{
    // Quarantined devices shrink the planning fleet before anything
    // is keyed or scored: the cache key covers the topology, so a
    // shrunken fleet gets its own entry (idempotent when planMsm
    // already shrank).
    const gpusim::Cluster cluster =
        planningCluster(full_cluster, base.health);
    const std::uint64_t evals_before =
        gpusim::CostModel::evaluations();
    const bool cached_mode = base.planner == PlannerMode::Cached;
    const std::uint64_t key =
        cached_mode ? cacheKey(curve, n, cluster, base) : 0;

    AutoPlanResult r;
    CacheEntry entry;
    if (cached_mode && PlanCache::instance().lookup(key, entry)) {
        r.plan = entry.plan;
        r.searchedNs = entry.searchedNs;
        r.heuristicNs = entry.heuristicNs;
        r.cacheHit = true;
    } else {
        r = searchPlans(curve, n, cluster, base);
        if (cached_mode)
            PlanCache::instance().store(
                key, {r.plan, r.searchedNs, r.heuristicNs});
    }
    r.costModelEvals =
        gpusim::CostModel::evaluations() - evals_before;
    recordMetrics(base, r, cached_mode);
    return r;
}

void
resetPlanCacheForTesting()
{
    PlanCache::instance().reset();
}

} // namespace distmsm::msm
