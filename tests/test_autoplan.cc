/**
 * @file
 * Autoscheduling planner tests (msm/autoplan.h).
 *
 * The contracts under test:
 *  - Search never loses: the searched plan's analytic totalNs is <=
 *    the heuristic plan's across a randomized (curve, N, topology,
 *    option-mask) sweep — guaranteed by seeding the SearchDriver
 *    with the heuristic candidate and displacing it only on a
 *    strictly better score. Ties return the heuristic's exact plan.
 *  - The plan cache: a hit returns a bit-identical plan, records
 *    plan_cache/{hits,misses}, and performs ZERO cost-model
 *    evaluations (CostModel::evaluations() delta) — both from the
 *    in-process map and from the persisted file after a reload.
 *  - Engine differential: an engine driven by the searched plan
 *    computes the same MSM value as the heuristic engine and the
 *    serial Pippenger reference.
 *  - The satellite bugfixes: the threadsPerBucket override respects
 *    the 1024-thread cap and the idle guard, and the N-dim baseline
 *    charges the ceiling slice (the slowest GPU's share).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/msm/autoplan.h"
#include "src/msm/distmsm.h"
#include "src/msm/engine.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/trace.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::CollectivePolicy;
using gpusim::CostModel;
using gpusim::CurveProfile;
using gpusim::DeviceSpec;
using gpusim::FieldBackend;
using gpusim::Topology;

CurveProfile
curveByIndex(unsigned i)
{
    switch (i % 4) {
      case 0:
        return CurveProfile::bn254();
      case 1:
        return CurveProfile::bls377();
      case 2:
        return CurveProfile::bls381();
      default:
        return CurveProfile::mnt4753();
    }
}

// ---------------------------------------------------------------
// Search-never-loses sweep: randomized (curve, N, topology, option
// mask) cases, fixed seed for a stable tier-1 corpus;
// DISTMSM_SWEEP_CASES deepens the sweep in CI soak runs.
// ---------------------------------------------------------------
TEST(AutoplanSweep, SearchNeverLosesToHeuristic)
{
    int cases = 16;
    if (const char *env = std::getenv("DISTMSM_SWEEP_CASES")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            cases = static_cast<int>(v);
    }
    Prng prng(0xA070);
    for (int c = 0; c < cases; ++c) {
        const CurveProfile curve =
            curveByIndex(static_cast<unsigned>(prng.below(4)));
        const unsigned log_n =
            14 + static_cast<unsigned>(prng.below(11)); // [14, 24]
        Topology topology;
        switch (prng.below(3)) {
          case 0:
            topology = Topology::flat(
                1 + static_cast<int>(prng.below(16)));
            break;
          case 1:
            topology =
                Topology::dgx(1 + static_cast<int>(prng.below(4)),
                              1 + static_cast<int>(prng.below(8)));
            break;
          default: {
            const auto topo_or = Topology::parse(
                "nodes=2,gpus=4,intra=ring,nics=2");
            ASSERT_TRUE(topo_or.isOk());
            topology = *topo_or;
          }
        }
        const Cluster cluster(DeviceSpec::a100(), topology);

        MsmOptions base;
        base.signedDigits = prng.below(2) != 0;
        base.glv = prng.below(2) != 0;
        base.batchAffine = prng.below(2) != 0;
        base.precompute = prng.below(2) != 0;
        base.cpuBucketReduce = prng.below(2) != 0;
        base.overlapReduce = prng.below(2) != 0;
        if (prng.below(4) == 0)
            base.windowBitsOverride =
                8 + static_cast<unsigned>(prng.below(10));
        constexpr CollectivePolicy kPolicies[] = {
            CollectivePolicy::Gather, CollectivePolicy::Ring,
            CollectivePolicy::Tree, CollectivePolicy::ReduceScatter,
            CollectivePolicy::Auto};
        base.collective = kPolicies[prng.below(5)];
        constexpr FieldBackend kBackends[] = {
            FieldBackend::Auto, FieldBackend::CudaCore,
            FieldBackend::TensorCore};
        base.fieldBackend = kBackends[prng.below(3)];

        const std::uint64_t n = std::uint64_t{1} << log_n;
        MsmOptions heur = base;
        heur.planner = PlannerMode::Heuristic;
        MsmOptions search = base;
        search.planner = PlannerMode::Search;

        const double heur_ns =
            estimateDistMsm(curve, n, cluster, heur).totalNs();
        const double search_ns =
            estimateDistMsm(curve, n, cluster, search).totalNs();
        EXPECT_LE(search_ns, heur_ns)
            << "case " << c << ": " << curve.name << " N=2^"
            << log_n << " on " << topology.describe();

        // The search is deterministic: re-planning returns the
        // same plan bit-identically.
        EXPECT_TRUE(planMsm(curve, n, cluster, search) ==
                    planMsm(curve, n, cluster, search));
    }
}

// On a tie (every candidate >= the seed) the search returns the
// heuristic's exact plan; in general the searched plan matches
// searchedNs and the heuristic plan heuristicNs.
TEST(AutoplanSweep, SeedIsHeuristicPlan)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const std::uint64_t n = 1ull << 20;
    MsmOptions base;

    const AutoPlanResult r = autoplanMsm(curve, n, cluster, base);
    EXPECT_DOUBLE_EQ(
        r.heuristicNs,
        estimateDistMsm(curve, n, cluster, base).totalNs());
    // The plan alone reproduces the searched score: the estimator
    // reads every decision from it, not from the caller's options.
    MsmOptions search = base;
    search.planner = PlannerMode::Search;
    EXPECT_DOUBLE_EQ(
        r.searchedNs,
        estimateDistMsm(curve, n, cluster, search).totalNs());
    EXPECT_TRUE(r.plan == planMsm(curve, n, cluster, search));
    // fieldBackendAuto is post-stamped to the caller's contract
    // (base asked Auto, so the provenance bit stays true even when
    // the search pinned a backend for pricing).
    EXPECT_TRUE(r.plan.fieldBackendAuto);
    EXPECT_LE(r.searchedNs, r.heuristicNs);
    EXPECT_GE(r.evaluated, 1u);
}

// ---------------------------------------------------------------
// Beam search (DISTMSM_AUTOPLAN_BEAM): even the narrowest beam is
// seeded with the heuristic plan and so never loses to it; an
// unbounded beam enumerates exactly the exhaustive candidate set
// and reproduces the exhaustive argmin score.
// ---------------------------------------------------------------
TEST(AutoplanBeam, NarrowBeamNeverLosesWideBeamMatchesExhaustive)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), Topology::dgx(2, 4));
    const std::uint64_t n = 1ull << 18;
    MsmOptions base;
    base.planner = PlannerMode::Search;

    unsetenv("DISTMSM_AUTOPLAN_BEAM");
    const AutoPlanResult exhaustive =
        autoplanMsm(curve, n, cluster, base);

    ASSERT_EQ(setenv("DISTMSM_AUTOPLAN_BEAM", "1", 1), 0);
    const AutoPlanResult narrow =
        autoplanMsm(curve, n, cluster, base);
    EXPECT_LE(narrow.searchedNs, narrow.heuristicNs);
    EXPECT_DOUBLE_EQ(narrow.heuristicNs, exhaustive.heuristicNs);
    EXPECT_LT(narrow.evaluated, exhaustive.evaluated);
    EXPECT_GT(narrow.pruned, 0u);

    // Width far beyond every stage's fan-out: the staged expansion
    // covers the full Cartesian product, so the argmin score is the
    // exhaustive one.
    ASSERT_EQ(setenv("DISTMSM_AUTOPLAN_BEAM", "65536", 1), 0);
    const AutoPlanResult wide = autoplanMsm(curve, n, cluster, base);
    EXPECT_DOUBLE_EQ(wide.searchedNs, exhaustive.searchedNs);

    // Determinism under a fixed width.
    ASSERT_EQ(setenv("DISTMSM_AUTOPLAN_BEAM", "2", 1), 0);
    const AutoPlanResult a = autoplanMsm(curve, n, cluster, base);
    const AutoPlanResult b = autoplanMsm(curve, n, cluster, base);
    EXPECT_TRUE(a.plan == b.plan);
    EXPECT_DOUBLE_EQ(a.searchedNs, b.searchedNs);

    unsetenv("DISTMSM_AUTOPLAN_BEAM");
}

// ---------------------------------------------------------------
// Pipeline depth and device partitions as search dimensions.
// ---------------------------------------------------------------
TEST(AutoplanPipeline, SearchableDepthNeverLosesAndHidesHostTail)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const std::uint64_t n = 1ull << 20;
    MsmOptions base;
    base.pipelineDepth = 0;    // let the search choose
    base.devicePartitions = 0; // let the search choose
    base.planner = PlannerMode::Search;

    const AutoPlanResult r = autoplanMsm(curve, n, cluster, base);
    EXPECT_LE(r.searchedNs, r.heuristicNs);
    // The default plan has a real host tail (the window reduce at
    // minimum), so keeping more MSMs in flight strictly lowers the
    // amortized per-MSM makespan: the search must engage the depth.
    EXPECT_GT(r.plan.pipelineDepth, 1);
    EXPECT_TRUE(r.plan.pipelineDepth == 2 ||
                r.plan.pipelineDepth == 4);
    EXPECT_GE(r.plan.devicePartitions, 1);
    EXPECT_EQ(cluster.numGpus() % r.plan.devicePartitions, 0);
    EXPECT_LT(r.searchedNs, r.heuristicNs);
}

TEST(AutoplanPipeline, ExplicitKnobsPassThroughAndValidate)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions o;
    o.windowBitsOverride = 8;
    o.pipelineDepth = 2;
    o.devicePartitions = 4;
    MsmPlan plan = planMsm(curve, 1ull << 18, cluster, o);
    EXPECT_EQ(plan.pipelineDepth, 2);
    EXPECT_EQ(plan.devicePartitions, 4);

    // A partition count that does not divide the cluster falls back
    // to 1 rather than fabricating ragged device groups.
    o.devicePartitions = 3;
    plan = planMsm(curve, 1ull << 18, cluster, o);
    EXPECT_EQ(plan.devicePartitions, 1);

    // Defaults keep the legacy single-MSM objective bit-exactly.
    MsmOptions plain;
    plain.windowBitsOverride = 8;
    plan = planMsm(curve, 1ull << 18, cluster, plain);
    EXPECT_EQ(plan.pipelineDepth, 1);
    EXPECT_EQ(plan.devicePartitions, 1);
}

// ---------------------------------------------------------------
// Plan cache: hit/miss metrics, bit-identical plans, and the
// zero-cost-model-evaluations guarantee on warm hits — through the
// in-process map and through the persisted file.
// ---------------------------------------------------------------
TEST(PlanCache, WarmHitIsBitIdenticalAndFree)
{
    const std::string path =
        ::testing::TempDir() + "distmsm_plan_cache_test.tsv";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("DISTMSM_PLAN_CACHE", path.c_str(), 1), 0);
    resetPlanCacheForTesting();

    const CurveProfile curve = CurveProfile::bls381();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const std::uint64_t n = 1ull << 18;

    support::TraceRecorder trace;
    MsmOptions options;
    options.planner = PlannerMode::Cached;
    options.trace = &trace;

    // Cold: miss, search runs, entry persisted.
    const MsmPlan cold = planMsm(curve, n, cluster, options);
    EXPECT_EQ(trace.metrics().value("plan_cache/misses"), 1.0);
    EXPECT_EQ(trace.metrics().value("plan_cache/hits"), 0.0);
    EXPECT_EQ(trace.metrics().value("autoplan/cache_hit"), 0.0);
    EXPECT_GT(trace.metrics().value("autoplan/cost_model_evals"),
              0.0);

    // Warm (in-process map): bit-identical plan, zero cost-model
    // evaluations — the acceptance gate.
    const std::uint64_t evals_before = CostModel::evaluations();
    const MsmPlan warm = planMsm(curve, n, cluster, options);
    EXPECT_EQ(CostModel::evaluations(), evals_before);
    EXPECT_TRUE(cold == warm);
    EXPECT_EQ(trace.metrics().value("plan_cache/hits"), 1.0);
    EXPECT_EQ(trace.metrics().value("plan_cache/misses"), 1.0);
    EXPECT_EQ(trace.metrics().value("autoplan/cache_hit"), 1.0);
    EXPECT_EQ(trace.metrics().value("autoplan/cost_model_evals"),
              0.0);

    // Reload from disk: drop the in-process map, hit the persisted
    // file, still bit-identical and still free.
    resetPlanCacheForTesting();
    const std::uint64_t evals_before2 = CostModel::evaluations();
    const MsmPlan reloaded = planMsm(curve, n, cluster, options);
    EXPECT_EQ(CostModel::evaluations(), evals_before2);
    EXPECT_TRUE(cold == reloaded);
    EXPECT_EQ(trace.metrics().value("plan_cache/hits"), 2.0);
    EXPECT_EQ(trace.metrics().value("plan_cache/misses"), 1.0);

    // A different problem misses (the key covers N).
    const MsmPlan other =
        planMsm(curve, n * 2, cluster, options);
    EXPECT_EQ(trace.metrics().value("plan_cache/misses"), 2.0);
    (void)other;

    std::remove(path.c_str());
    unsetenv("DISTMSM_PLAN_CACHE");
    resetPlanCacheForTesting();
}

// The v2 cache records round-trip the pipeline knobs: a searched
// depth/partition choice must come back bit-identical from the
// persisted file, not silently reset to 1.
TEST(PlanCache, PipelineKnobsRoundTripThroughPersistedFile)
{
    const std::string path =
        ::testing::TempDir() + "distmsm_plan_cache_pipeline.tsv";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("DISTMSM_PLAN_CACHE", path.c_str(), 1), 0);
    resetPlanCacheForTesting();

    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const std::uint64_t n = 1ull << 18;
    MsmOptions options;
    options.planner = PlannerMode::Cached;
    options.pipelineDepth = 0;
    options.devicePartitions = 0;

    const MsmPlan cold = planMsm(curve, n, cluster, options);
    EXPECT_GT(cold.pipelineDepth, 1);

    resetPlanCacheForTesting(); // force the disk round-trip
    const std::uint64_t evals_before = CostModel::evaluations();
    const MsmPlan reloaded = planMsm(curve, n, cluster, options);
    EXPECT_EQ(CostModel::evaluations(), evals_before);
    EXPECT_TRUE(cold == reloaded);

    std::remove(path.c_str());
    unsetenv("DISTMSM_PLAN_CACHE");
    resetPlanCacheForTesting();
}

// Plan-cache files come from outside the program. A stale v2 record,
// a record truncated at any column boundary and a record with an
// extra column must each be a miss followed by a fresh search whose
// plan equals an uncached search.
TEST(PlanCache, ForeignRecordsAreMisses)
{
    const std::string path =
        ::testing::TempDir() + "distmsm_plan_cache_foreign.tsv";
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 2);
    const std::uint64_t n = 1ull << 12;
    MsmOptions cached;
    cached.planner = PlannerMode::Search;
    const MsmPlan uncached = planMsm(curve, n, cluster, cached);
    cached.planner = PlannerMode::Cached;

    // The record the program itself writes for this problem.
    std::remove(path.c_str());
    ASSERT_EQ(setenv("DISTMSM_PLAN_CACHE", path.c_str(), 1), 0);
    resetPlanCacheForTesting();
    planMsm(curve, n, cluster, cached);
    std::string record;
    {
        std::ifstream is(path);
        ASSERT_TRUE(std::getline(is, record));
    }
    std::vector<std::string> columns;
    for (std::size_t at = 0;;) {
        const std::size_t tab = record.find('\t', at);
        columns.push_back(record.substr(at, tab - at));
        if (tab == std::string::npos)
            break;
        at = tab + 1;
    }
    // The key, 22 plan fields, the two scores.
    ASSERT_EQ(columns.size(), 25u);
    const auto join = [&](std::size_t count) {
        std::string line = columns[0];
        for (std::size_t i = 1; i < count; ++i)
            line += '\t' + columns[i];
        return line;
    };

    // v2 layout: 18 plan fields, the 11 winning-candidate columns,
    // the two scores.
    std::string v2 = join(19);
    for (int i = 0; i < 11; ++i)
        v2 += "\t1";
    v2 += '\t' + columns[23] + '\t' + columns[24];
    std::vector<std::string> foreign{v2, record + "\t0"};
    for (std::size_t count = 1; count < columns.size(); ++count)
        foreign.push_back(join(count));

    const auto lookup = [&](const std::string &line, double *misses) {
        {
            std::ofstream os(path, std::ios::trunc);
            os << line << '\n';
        }
        resetPlanCacheForTesting();
        support::TraceRecorder trace;
        MsmOptions options = cached;
        options.trace = &trace;
        const MsmPlan plan = planMsm(curve, n, cluster, options);
        *misses = trace.metrics().value("plan_cache/misses");
        return plan;
    };
    double misses = 0.0;
    // Control: the untouched record is a hit.
    EXPECT_TRUE(lookup(record, &misses) == uncached);
    EXPECT_EQ(misses, 0.0);
    for (const std::string &line : foreign) {
        EXPECT_TRUE(lookup(line, &misses) == uncached) << line;
        EXPECT_EQ(misses, 1.0) << line;
    }

    std::remove(path.c_str());
    unsetenv("DISTMSM_PLAN_CACHE");
    resetPlanCacheForTesting();
}

// ---------------------------------------------------------------
// Engine differential: searched plans compute the same MSM value
// as heuristic plans (XYZZ projective equality, which is the
// cross-plan contract — different window/digit choices produce
// different representatives of the same point).
// ---------------------------------------------------------------
TEST(AutoplanEngine, SearchedPlanMatchesHeuristicResult)
{
    using Curve = Bn254;
    Prng prng(0xBEEF);
    const std::size_t n = 1u << 10;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);

    MsmOptions base;
    base.windowBitsOverride = 8;
    base.scatter.blockDim = 64;
    base.scatter.gridDim = 4;
    base.scatter.sharedBytesPerBlock = 128 * 1024;
    base.hostThreads = 1;

    MsmOptions heur = base;
    heur.planner = PlannerMode::Heuristic;
    MsmOptions search = base;
    search.planner = PlannerMode::Search;

    const auto expect = msmSerialPippenger<Curve>(points, scalars, 8);
    const auto heur_result =
        computeDistMsm<Curve>(points, scalars, cluster, heur);
    const auto search_result =
        computeDistMsm<Curve>(points, scalars, cluster, search);
    EXPECT_TRUE(heur_result.value == expect);
    EXPECT_TRUE(search_result.value == expect);
    EXPECT_TRUE(search_result.value == heur_result.value);
}

// The engine adopts the searched candidate's functional knobs but
// must not engage the slow tcmul differential execution unless the
// *user* forced the tensor-core backend.
TEST(AutoplanEngine, SearchWithFreeWindowMatchesReference)
{
    using Curve = Bls381;
    Prng prng(0xCAFE);
    const std::size_t n = 1u << 9;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 2);

    MsmOptions search;
    search.planner = PlannerMode::Search;
    search.scatter.blockDim = 64;
    search.scatter.gridDim = 4;
    search.scatter.sharedBytesPerBlock = 128 * 1024;
    search.hostThreads = 1;

    const auto result =
        computeDistMsm<Curve>(points, scalars, cluster, search);
    const auto expect = msmSerialPippenger<Curve>(points, scalars, 8);
    EXPECT_TRUE(result.value == expect);
}

// ---------------------------------------------------------------
// Satellite bugfixes.
// ---------------------------------------------------------------

// A forced threadsPerBucket=4096 must come back capped: the 1024
// block cap when buckets are dense, the 2x-points-per-bucket idle
// guard when they are not.
TEST(PlannerFixes, ThreadsPerBucketOverrideIsCapped)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);

    MsmOptions options;
    options.windowBitsOverride = 8; // 255 buckets, ppb ~ 4k
    options.threadsPerBucket = 4096;
    const MsmPlan plan =
        planMsm(curve, 1ull << 20, cluster, options);
    EXPECT_EQ(plan.threadsPerBucket, 1024);

    // Sparse buckets: the idle guard (2 * points_per_bucket) wins
    // over the override — the forced 4096 cannot conjure work.
    MsmOptions sparse;
    sparse.windowBitsOverride = 8;
    sparse.threadsPerBucket = 4096;
    const MsmPlan sparse_plan =
        planMsm(curve, 1ull << 8, cluster, sparse);
    EXPECT_LE(sparse_plan.threadsPerBucket, 8);

    // No override: the legacy grow loop is untouched.
    MsmOptions plain;
    plain.windowBitsOverride = 8;
    const MsmPlan plain_plan =
        planMsm(curve, 1ull << 20, cluster, plain);
    EXPECT_LE(plain_plan.threadsPerBucket, 1024);
    EXPECT_GE(plain_plan.threadsPerBucket, 1);
}

// The N-dim baseline charges ceil(N / numGpus) — the slowest GPU's
// share. With the window pinned, N = 8k+1 must cost exactly what
// N = 8k+8 costs (same per-GPU slice) and strictly more than
// N = 8k (a larger slice), which the old truncating division got
// backwards (8k+1 priced as 8k).
TEST(PlannerFixes, NdimBaselineUsesCeilingSlice)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto kernel = gpusim::EcKernelVariant::full();
    const std::uint64_t n = 1ull << 20; // divisible by 8

    const double at_n =
        estimateNdimBaseline(curve, n, cluster, kernel, 16)
            .totalNs();
    const double just_over =
        estimateNdimBaseline(curve, n + 1, cluster, kernel, 16)
            .totalNs();
    const double next_full =
        estimateNdimBaseline(curve, n + 8, cluster, kernel, 16)
            .totalNs();
    EXPECT_GT(just_over, at_n);
    EXPECT_DOUBLE_EQ(just_over, next_full);
}

// ---------------------------------------------------------------
// Characterization: search outcomes and searched-engine results
// pinned to recorded hashes. Any change in what the search
// enumerates, scores, counts or returns, or in what an engine runs
// under a searched or cached plan, shows up here.
// ---------------------------------------------------------------

/** FNV-1a over the eight little-endian bytes of each mixed word. */
struct Hasher
{
    std::uint64_t h = 14695981039346656037ull;

    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    }

    void
    raw(const void *p, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < size; ++i)
            word(bytes[i]);
    }

    /** The eighteen plan fields the pinned hashes were recorded
     *  over. */
    void
    plan(const MsmPlan &p)
    {
        for (const std::uint64_t v :
             {std::uint64_t{p.windowBits}, std::uint64_t{p.numWindows},
              std::uint64_t{p.scalarBits}, std::uint64_t{p.glv},
              p.numBuckets, std::uint64_t{p.signedDigits},
              static_cast<std::uint64_t>(p.gpusPerWindow),
              std::uint64_t{p.windowsPerGpu},
              static_cast<std::uint64_t>(p.threadsPerBucket),
              std::uint64_t{p.bucketsSplitAcrossGpus},
              std::uint64_t{p.precompute}, p.tableBytes,
              static_cast<std::uint64_t>(p.collective),
              p.mergeBytesPerGpu,
              static_cast<std::uint64_t>(p.fieldBackend),
              std::uint64_t{p.fieldBackendAuto},
              static_cast<std::uint64_t>(p.pipelineDepth),
              static_cast<std::uint64_t>(p.devicePartitions)})
            word(v);
    }
};

// 4 curves x {1 GPU, 8 GPUs, dgx(2,4)} x N in {2^12, 2^16, 2^20}
// per (base options, beam width) cell: the plan, both scores, the
// evaluated/pruned counts and the cost-model evaluation delta.
TEST(Characterization, SearchOutcomesArePinned)
{
    struct Cell
    {
        const char *name;
        MsmOptions base;
        /** Beam unset, width 1, width 3. */
        std::uint64_t want[3];
    };
    MsmOptions pinned_window;
    pinned_window.windowBitsOverride = 12;
    MsmOptions pinned_collective;
    pinned_collective.collective = CollectivePolicy::Ring;
    MsmOptions pipeline;
    pipeline.pipelineDepth = 0;
    pipeline.devicePartitions = 0;
    MsmOptions no_tc;
    no_tc.kernel.tensorCoreMont = false;
    const Cell cells[] = {
        {"default",
         MsmOptions{},
         {0x87f9cfb902193d7ull, 0xf2e6d80494e584eull,
          0xaf7eaaf72197ee3ull}},
        {"pinned-window",
         pinned_window,
         {0xe7a3f59cf763352bull, 0xb88ffdce4d9dc0efull,
          0x1ef8e1a110576813ull}},
        {"pinned-collective",
         pinned_collective,
         {0xa213ad96645378d7ull, 0x7a43f6104c00faacull,
          0x4b16a4e6b9d71357ull}},
        {"searched-pipeline",
         pipeline,
         {0x3e0520fbc274d32cull, 0xf3c61fa1b897f733ull,
          0xfcbab668abba48e3ull}},
        {"no-tensor-cores",
         no_tc,
         {0x9463ae3fe57d3faeull, 0xc814e5aa1501c01ull,
          0xa1e8b29ab720f01ull}},
    };
    const Cluster clusters[] = {
        Cluster(DeviceSpec::a100(), 1), Cluster(DeviceSpec::a100(), 8),
        Cluster(DeviceSpec::a100(), Topology::dgx(2, 4))};
    const char *const beams[] = {nullptr, "1", "3"};

    for (const Cell &cell : cells) {
        for (int b = 0; b < 3; ++b) {
            if (beams[b] == nullptr)
                unsetenv("DISTMSM_AUTOPLAN_BEAM");
            else
                ASSERT_EQ(setenv("DISTMSM_AUTOPLAN_BEAM", beams[b], 1),
                          0);
            Hasher h;
            for (unsigned c = 0; c < 4; ++c)
                for (const Cluster &cluster : clusters)
                    for (const unsigned log_n : {12u, 16u, 20u}) {
                        const std::uint64_t evals0 =
                            CostModel::evaluations();
                        const AutoPlanResult r = autoplanMsm(
                            curveByIndex(c), std::uint64_t{1} << log_n,
                            cluster, cell.base);
                        h.plan(r.plan);
                        h.real(r.searchedNs);
                        h.real(r.heuristicNs);
                        h.word(r.evaluated);
                        h.word(r.pruned);
                        h.word(CostModel::evaluations() - evals0);
                    }
            EXPECT_EQ(h.h, cell.want[b])
                << cell.name << " beam=" << (beams[b] ? beams[b] : "unset")
                << ": 0x" << std::hex << h.h;
        }
    }
    unsetenv("DISTMSM_AUTOPLAN_BEAM");
}

// Search-mode and Cached-mode engines (cold miss, warm in-process
// hit, hit reloaded from disk) under faults: value, KernelStats,
// hostOps and the whole FaultReport, at hostThreads 1 and 4.
TEST(Characterization, SearchedAndCachedEnginesArePinned)
{
    using Curve = Bn254;
    unsetenv("DISTMSM_AUTOPLAN_BEAM");
    const std::string path =
        ::testing::TempDir() + "distmsm_plan_cache_characterize.tsv";
    Prng prng(0xC4A7);
    const std::size_t n = 1u << 10;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const auto fault_or =
        gpusim::FaultPlan::parse("kill:dev=1;corrupt:xfer=2;seed:5");
    ASSERT_TRUE(fault_or.isOk());

    struct Case
    {
        const char *name;
        Topology topology;
        MsmOptions base;
        std::uint64_t want;
        /** DeviceSpec::globalMemBytes; 0 keeps the A100's. */
        std::uint64_t globalMemBytes = 0;
    };
    MsmOptions plain;
    plain.scatter.blockDim = 64;
    plain.scatter.gridDim = 4;
    plain.scatter.sharedBytesPerBlock = 128 * 1024;
    plain.faults = *fault_or;
    MsmOptions knobs = plain;
    knobs.collective = CollectivePolicy::Auto;
    knobs.signedDigits = true;
    knobs.batchAffine = true;
    knobs.pipelineDepth = 0;
    knobs.devicePartitions = 0;
    MsmOptions window8 = plain;
    window8.windowBitsOverride = 8;
    window8.collective = CollectivePolicy::Auto;
    // The searched plans: flat4 and dgx2x2-knobs run precompute with
    // signed digits (flat4 adds GLV; dgx2x2-knobs a depth-4,
    // 2-partition pipeline), window8 precompute under a tree merge,
    // and window8-lowmem, where no table fits, the per-window path
    // with signed digits, GLV and a tree merge.
    const Case cases[] = {
        {"flat4", Topology::flat(4), plain, 0x33136eab3f0fdf07ull},
        {"dgx2x2-knobs", Topology::dgx(2, 2), knobs,
         0x716b0048f831ae92ull},
        {"window8", Topology::dgx(2, 4), window8, 0x63776fd66a031413ull},
        {"window8-lowmem", Topology::dgx(2, 4), window8,
         0x4518898a412e984bull, 1u << 18},
    };
    for (const Case &c : cases) {
        DeviceSpec device = DeviceSpec::a100();
        if (c.globalMemBytes != 0)
            device.globalMemBytes = c.globalMemBytes;
        const Cluster cluster(device, c.topology);
        for (const PlannerMode mode :
             {PlannerMode::Search, PlannerMode::Cached}) {
            std::remove(path.c_str());
            ASSERT_EQ(setenv("DISTMSM_PLAN_CACHE", path.c_str(), 1), 0);
            resetPlanCacheForTesting();
            // Cached: cold miss, warm hit, then a hit reloaded from
            // the persisted file.
            for (int run = 0; run < 3; ++run) {
                if (run == 2)
                    resetPlanCacheForTesting();
                for (const int threads : {1, 4}) {
                    MsmOptions options = c.base;
                    options.planner = mode;
                    options.hostThreads = threads;
                    const MsmEngine<Curve> engine(points, cluster,
                                                  options);
                    const auto result_or = engine.tryCompute(scalars);
                    ASSERT_TRUE(result_or.isOk())
                        << c.name << ": "
                        << result_or.status().toString();
                    Hasher h;
                    h.plan(result_or->plan);
                    h.raw(&result_or->value, sizeof result_or->value);
                    h.raw(&result_or->stats, sizeof result_or->stats);
                    h.word(result_or->hostOps);
                    h.raw(&result_or->fault, sizeof result_or->fault);
                    EXPECT_EQ(h.h, c.want)
                        << c.name << " " << plannerModeName(mode)
                        << " run=" << run << " threads=" << threads
                        << ": 0x" << std::hex << h.h;
                }
                if (mode == PlannerMode::Search)
                    break;
            }
        }
    }
    std::remove(path.c_str());
    unsetenv("DISTMSM_PLAN_CACHE");
    resetPlanCacheForTesting();
}

} // namespace
} // namespace distmsm::msm
