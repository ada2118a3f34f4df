/**
 * @file
 * DistMSM benchmark driver: runs ONE workload as a closed loop (one
 * caller, each op waits for the previous result) against the
 * library's public API and prints one JSON line of raw samples.
 * perfbench/run.py builds this binary, isolates its environment and
 * turns the samples into the named metrics; see perfbench/README.md.
 *
 *   perfbench --workload NAME --seed N --seconds S --threads T
 *             [--trace-out FILE]
 *
 * With --trace-out the run is the traced one: ops alternate between
 * an untraced engine and one carrying MsmOptions::trace, every op is
 * wrapped in benchmark-owned host-clock spans, and after the timed
 * loop each layer is replayed from outside through its public entry
 * point (scatter, bucket sum, bucket reduce, checksum, planner,
 * precompute, ...) to give the per-layer numbers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/ec/point.h"
#include "src/gpusim/cluster.h"
#include "src/gpusim/faults.h"
#include "src/gpusim/topology.h"
#include "src/msm/autoplan.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/checksum.h"
#include "src/msm/engine.h"
#include "src/msm/glv.h"
#include "src/msm/planner.h"
#include "src/msm/precompute.h"
#include "src/msm/reference.h"
#include "src/msm/scatter.h"
#include "src/msm/signed_digits.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "src/zksnark/groth16.h"
#include "src/zksnark/qap.h"
#include "src/zksnark/workloads.h"

// Heap traffic of the code under test. The replaced global operator
// new counts calls and bytes, but only while counting is switched on
// (the traced run), so untraced ops pay one relaxed load per call.
namespace perfbench_alloc {
std::atomic<bool> counting{false};
std::atomic<std::uint64_t> calls{0};
std::atomic<std::uint64_t> bytes{0};
} // namespace perfbench_alloc

void *
operator new(std::size_t size)
{
    if (perfbench_alloc::counting.load(std::memory_order_relaxed)) {
        perfbench_alloc::calls.fetch_add(1, std::memory_order_relaxed);
        perfbench_alloc::bytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace distmsm;
using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Workload geometry. Each value is part of the workload definition;
// perfbench/README.md says why it was chosen.
constexpr int kGpus = 8;
constexpr std::size_t kSteadyPoints = std::size_t{1} << 16;
constexpr std::size_t kFaultyPoints = std::size_t{1} << 14;
constexpr std::size_t kProveConstraints = 1000;
constexpr std::size_t kProvePublic = 4;
/** Pre-generated inputs each workload cycles through. */
constexpr int kInputSets = 3;
/** Window of the msmSerialPippenger correctness references. */
constexpr unsigned kRefWindow = 12;
/** The loop stops only after this many timed ops, however long. */
constexpr std::size_t kMinOps = 2;
/**
 * When a workload's peak RSS is read. With two host threads the
 * allocator keeps up to 80 MB more after some ops than others, at
 * random. An MSM engine's process keeps growing this way, so a peak
 * read at the end would grow with the number of ops a run fits in (a
 * faster program would read as a hungrier one); its peak is read
 * after setup and the warm-up op, where it varies least. A Groth16
 * process keeps the scratch memory it frees (see run.py), so its peak
 * is read at the end of the run, once every proof has grown the heap
 * as far as it will.
 */
enum class RssRead
{
    AfterWarmup,
    AtEnd,
};
const char *const kFaultSpec =
    "kill:dev=2@win=1;degrade:dev=0,factor=4;corrupt:xfer=3";

// ---------------------------------------------------------------
// Host-clock spans owned by the benchmark (kept in memory, written
// out at exit). A span's parent is the span that caused it; every
// span of one op carries that op's id.

class SpanLog
{
  public:
    /** Returns -1 (nothing recorded) once kMaxSpans are held. */
    int
    begin(const std::string &name, std::uint64_t op, int parent)
    {
        if (spans_.size() >= kMaxSpans) {
            ++dropped_;
            return -1;
        }
        spans_.push_back({name, op, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }

    std::uint64_t dropped() const { return dropped_; }

    /** Self time per span name: duration minus the part of it that
     *  direct children cover (children never overlap here). */
    std::map<std::string, double>
    selfNs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = nsBetween(spans_[i].start, spans_[i].end);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    nsBetween(s.start, s.end);
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    void
    write(std::ostream &os) const
    {
        const Clock::time_point origin =
            spans_.empty() ? Clock::now() : spans_.front().start;
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
               << ",\"start_ns\":" << nsBetween(origin, s.start)
               << ",\"end_ns\":" << nsBetween(origin, s.end) << "}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::uint64_t op;
        int parent;
        Clock::time_point start, end;
    };
    /** Bounds memory on workloads with microsecond ops. */
    static constexpr std::size_t kMaxSpans = 50000;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** RAII span; a null log records nothing (the untraced path). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name, std::uint64_t op,
              int parent)
        : log_(log), id_(log != nullptr ? log->begin(name, op, parent)
                                        : -1)
    {
    }
    ~SpanScope()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int threads = 2;
    std::string traceOut;
};

/** Raw samples of one run; run.py derives the metrics. */
struct Output
{
    std::vector<double> opMs;
    std::vector<double> tracedOpMs;
    std::vector<double> setupS;
    /** Heap calls / bytes of each untraced timed op (traced run). */
    std::vector<double> allocCalls, allocBytes;
    double pointsPerOp = 0.0;
    double modeledMs = 0.0;
    long peakRssKb = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> layers;
    std::vector<std::string> errors;
};

long
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Heap-counter snapshot; counts move only in the traced run. */
struct AllocMark
{
    std::uint64_t calls =
        perfbench_alloc::calls.load(std::memory_order_relaxed);
    std::uint64_t bytes =
        perfbench_alloc::bytes.load(std::memory_order_relaxed);
};

struct Run
{
    const Args &args;
    Output out;
    SpanLog spans;
    support::TraceRecorder engineTrace;

    bool traced() const { return !args.traceOut.empty(); }

    void
    fail(const std::string &why)
    {
        ++out.failed;
        if (out.errors.size() < 8)
            out.errors.push_back(why);
    }

    /** Heap traffic of an untraced op of the traced run, from
     *  @p since (taken just before the library call) to now. */
    void
    noteAllocs(const AllocMark &since, bool with_trace)
    {
        if (!traced() || with_trace)
            return;
        const AllocMark now;
        out.allocCalls.push_back(double(now.calls - since.calls));
        out.allocBytes.push_back(double(now.bytes - since.bytes));
    }

    /**
     * The closed loop: op(i, traced) returns the op's host time in
     * ms (measured around the library call only; result checks run
     * outside it). Op 0 is an untimed warm-up that lets lazy state
     * (pool threads, allocator arenas) settle. In a traced run odd
     * ops carry tracing and even ops do not, so both medians come
     * from the same process.
     */
    template <typename Op>
    void
    closedLoop(Op &&op, RssRead rss)
    {
        op(0, false);
        ++out.attempted;
        out.allocCalls.clear();
        out.allocBytes.clear();
        if (rss == RssRead::AfterWarmup)
            out.peakRssKb = maxRssKb();
        const Clock::time_point t_end =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(args.seconds));
        for (std::uint64_t i = 1;; ++i) {
            const bool with_trace = traced() && i % 2 == 0;
            const double ms = op(i, with_trace);
            ++out.attempted;
            (with_trace ? out.tracedOpMs : out.opMs).push_back(ms);
            const bool pair_done = !traced() || with_trace;
            if (pair_done && out.opMs.size() >= kMinOps &&
                Clock::now() >= t_end)
                break;
        }
        if (rss == RssRead::AtEnd)
            out.peakRssKb = maxRssKb();
        if (traced()) {
            out.layers["alloc.calls_per_op"] = median(out.allocCalls);
            out.layers["alloc.mb_per_op"] = median(out.allocBytes) / 1e6;
        }
    }
};

template <typename Curve>
bool
sameAffine(const XYZZPoint<Curve> &a, const XYZZPoint<Curve> &b)
{
    const AffinePoint<Curve> x = a.toAffine();
    const AffinePoint<Curve> y = b.toAffine();
    if (x.infinity || y.infinity)
        return x.infinity == y.infinity;
    return x.x == y.x && x.y == y.y;
}

template <typename Curve>
gpusim::CurveProfile
profileOf()
{
    return gpusim::CurveProfile{
        Curve::kName, Curve::Fq::Params::kBits, Curve::kScalarBits,
        Curve::kAIsZero,
        msm::glv::CurveGlv<Curve>::kSupported ? msm::glv::kHalfScalarBits
                                              : 0};
}

// ---------------------------------------------------------------
// Per-layer measurements shared by the MSM workloads.

/** Host ns of one field mul / sqr and one pacc / padd / pdbl, on
 *  fresh random points (proving-key tables hold identities). */
template <typename Curve>
void
measureArithmetic(Output &out)
{
    using Fq = typename Curve::Fq;
    using Xyzz = XYZZPoint<Curve>;
    constexpr int kFieldOps = 1 << 20;
    constexpr int kEcOps = 1 << 15;
    Prng prng(7);
    const auto points = msm::generatePoints<Curve>(64, prng);
    Fq a = Fq::random(prng);
    const Fq b = Fq::random(prng);
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kFieldOps; ++i)
        a = a * b;
    out.layers["field.mul_ns"] = nsBetween(t0, Clock::now()) / kFieldOps;
    t0 = Clock::now();
    for (int i = 0; i < kFieldOps; ++i)
        a = a.sqr() + b;
    out.layers["field.sqr_ns"] = nsBetween(t0, Clock::now()) / kFieldOps;

    Xyzz acc = Xyzz::fromAffine(points[0]);
    t0 = Clock::now();
    for (int i = 0; i < kEcOps; ++i)
        acc = pacc(acc, points[1 + i % (points.size() - 1)]);
    out.layers["ec.pacc_ns"] = nsBetween(t0, Clock::now()) / kEcOps;
    std::vector<Xyzz> addends;
    for (const auto &p : points)
        addends.push_back(pdbl(Xyzz::fromAffine(p)));
    t0 = Clock::now();
    for (int i = 0; i < kEcOps; ++i)
        acc = padd(acc, addends[i % addends.size()]);
    out.layers["ec.padd_ns"] = nsBetween(t0, Clock::now()) / kEcOps;
    t0 = Clock::now();
    for (int i = 0; i < kEcOps; ++i)
        acc = pdbl(acc);
    out.layers["ec.pdbl_ns"] = nsBetween(t0, Clock::now()) / kEcOps;
    // Keep the chains observable so they are not folded away.
    if (a == b && acc.isIdentity())
        std::fputs("", stderr);
}

/** Engine counters of one (or several summed) MsmResults. */
struct EngineCounters
{
    gpusim::KernelStats stats;
    std::uint64_t hostOps = 0;
    gpusim::FaultReport fault;

    template <typename Curve>
    void
    add(const msm::MsmResult<Curve> &r)
    {
        stats.merge(r.stats);
        hostOps += r.hostOps;
        fault.merge(r.fault);
    }
};

/** Host time of each replayed stage (summed over the four MSMs of a
 *  proof). */
struct StageNs
{
    double digits = 0, scatter = 0, bucketSum = 0, bucketReduce = 0,
           windowReduce = 0, checksum = 0;
    std::uint64_t reduceOps = 0;
    gpusim::KernelStats scatterStats;

    double
    total() const
    {
        return digits + scatter + bucketSum + bucketReduce +
               windowReduce + checksum;
    }
};

/**
 * Re-execute one MSM stage by stage through the layers' public entry
 * points, on the engine's plan, timing each stage in its own span.
 * Stages run window-parallel at the engine's host-thread count, so
 * their summed time is comparable with the engine's op time. Returns
 * false when the replayed value differs from @p expect (the replay
 * then does not describe what the engine ran).
 */
template <typename Curve>
bool
replayMsm(const std::vector<AffinePoint<Curve>> &points,
          const std::vector<BigInt<Curve::Fr::kLimbs>> &scalars,
          const msm::MsmPlan &plan, const msm::MsmOptions &opts,
          const gpusim::Cluster &cluster, int threads,
          const XYZZPoint<Curve> &expect, SpanLog &log,
          std::uint64_t op, int parent, StageNs &ns,
          double *table_build_s, double *table_mb)
{
    using Xyzz = XYZZPoint<Curve>;
    using Scalar = BigInt<Curve::Fr::kLimbs>;
    auto &pool = support::ThreadPool::global();
    const std::size_t n_base = points.size();
    const unsigned s = plan.windowBits;
    const unsigned n_windows = plan.numWindows;
    const std::size_t n_buckets =
        opts.signedDigits ? (std::size_t{1} << (s - 1)) + 1
                          : std::size_t{1} << s;
    auto timed = [&](const char *name, double &acc, auto &&fn) {
        SpanScope span(&log, name, op, parent);
        const Clock::time_point t0 = Clock::now();
        fn();
        acc += nsBetween(t0, Clock::now());
    };

    std::vector<AffinePoint<Curve>> bases = points;
    if (plan.glv)
        for (const auto &p : points)
            bases.push_back(msm::glv::endomorphismIfSupported<Curve>(p));
    const std::size_t n_eff = bases.size();

    // Digits: GLV split, signed or plain window digits, as
    // (bucket id, negate) per (window, effective scalar).
    std::vector<std::vector<std::uint32_t>> ids(n_windows);
    std::vector<std::vector<std::uint8_t>> negs(n_windows);
    timed("digits", ns.digits, [&] {
        std::vector<Scalar> eff(n_eff);
        std::vector<std::uint8_t> glv_neg(n_eff, 0);
        pool.parallelFor(
            0, n_base,
            [&](std::size_t i) {
                if constexpr (msm::glv::CurveGlv<Curve>::kSupported) {
                    if (plan.glv) {
                        const auto split =
                            msm::glv::decompose<Curve>(scalars[i]);
                        eff[i] = split.k1;
                        eff[n_base + i] = split.k2;
                        glv_neg[i] = split.neg1;
                        glv_neg[n_base + i] = split.neg2;
                        return;
                    }
                }
                eff[i] = scalars[i];
            },
            threads);
        pool.parallelFor(
            0, n_windows,
            [&](std::size_t w) {
                ids[w].resize(n_eff);
                negs[w].assign(n_eff, 0);
            },
            threads);
        pool.parallelFor(
            0, n_eff,
            [&](std::size_t i) {
                std::vector<std::int32_t> digits;
                if (opts.signedDigits)
                    digits = msm::signedWindowDigits(
                        eff[i], plan.scalarBits, s);
                for (unsigned w = 0; w < n_windows; ++w) {
                    std::uint32_t id;
                    std::uint8_t neg = 0;
                    if (opts.signedDigits) {
                        const std::int32_t d = digits[w];
                        id = static_cast<std::uint32_t>(d < 0 ? -d : d);
                        neg = d < 0;
                    } else {
                        id = static_cast<std::uint32_t>(eff[i].bits(
                            static_cast<std::size_t>(w) * s, s));
                    }
                    ids[w][i] = id;
                    negs[w][i] = neg ^ glv_neg[i];
                }
            },
            threads);
    });

    msm::ScatterConfig cfg = opts.scatter;
    cfg.fieldBackend = plan.fieldBackend;
    cfg.trace = nullptr;
    auto scatter = [&](const std::vector<std::uint32_t> &v) {
        return opts.hierarchicalScatter
                   ? msm::hierarchicalScatter(v, s, cfg)
                   : msm::naiveScatter(v, s, cfg);
    };
    auto sum_range = [&](const std::vector<std::vector<std::uint32_t>>
                             &buckets,
                         std::size_t lo, std::size_t hi, auto &&point_of,
                         std::vector<Xyzz> &sums) {
        gpusim::KernelStats st;
        if (opts.batchAffine) {
            msm::BatchAffineScratch<Curve> scratch;
            msm::batchAffineAccumulate<Curve>(buckets, lo, hi, point_of,
                                              sums, st, scratch);
            return;
        }
        for (std::size_t b = lo; b < hi && b < buckets.size(); ++b)
            if (!buckets[b].empty())
                sums[b] = msm::bucketSumTree<Curve>(
                    buckets[b], point_of, plan.threadsPerBucket, st);
    };
    // One checksummed transfer: device digest, wire round trip, host
    // re-derivation and comparison.
    auto ship = [&](const std::vector<Xyzz> &payload) {
        if (!opts.verifyChecksums || payload.empty())
            return true;
        std::vector<Xyzz> wire = payload;
        wire.push_back(
            msm::rlcDigest<Curve>(payload, opts.checksumSeed, 0));
        std::vector<Xyzz> got = msm::deserializePoints<Curve>(
            msm::serializePoints<Curve>(wire));
        const Xyzz device_digest = got.back();
        got.pop_back();
        return msm::bitEqual(
            device_digest,
            msm::rlcDigest<Curve>(got, opts.checksumSeed, 0));
    };
    bool checks_ok = true;
    Xyzz total = Xyzz::identity();

    if (plan.precompute) {
        std::shared_ptr<const msm::PrecomputeTable<Curve>> table;
        {
            SpanScope span(&log, "precompute", op, parent);
            const Clock::time_point t0 = Clock::now();
            table = msm::buildPrecomputeTable<Curve>(
                bases, n_windows, s, plan.glv, threads);
            *table_build_s = nsBetween(t0, Clock::now()) / 1e9;
            *table_mb = static_cast<double>(table->bytes) / 1e6;
        }
        // Element e = w * n_eff + i, as in the engine's combined pass.
        const std::size_t total_elems =
            static_cast<std::size_t>(n_windows) * n_eff;
        std::vector<std::uint32_t> flat_ids(total_elems);
        std::vector<std::uint8_t> flat_negs(total_elems);
        timed("digits", ns.digits, [&] {
            pool.parallelFor(
                0, n_windows,
                [&](std::size_t w) {
                    std::copy(ids[w].begin(), ids[w].end(),
                              flat_ids.begin() + w * n_eff);
                    std::copy(negs[w].begin(), negs[w].end(),
                              flat_negs.begin() + w * n_eff);
                },
                threads);
        });
        msm::ScatterResult scattered;
        cfg.hostThreads = threads;
        timed("scatter", ns.scatter,
              [&] { scattered = scatter(flat_ids); });
        checks_ok = checks_ok && scattered.ok;
        ns.scatterStats.merge(scattered.stats);
        auto point_of = [&](std::uint32_t idx) {
            const auto &base = table->rows[idx / n_eff][idx % n_eff];
            return flat_negs[idx] ? base.negated() : base;
        };
        std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
        const int groups = cluster.numGpus();
        auto lo_of = [&](int g) { return 1 + (n_buckets - 1) * g / groups; };
        timed("bucket_sum", ns.bucketSum, [&] {
            pool.parallelFor(
                0, static_cast<std::size_t>(groups),
                [&](std::size_t g) {
                    sum_range(scattered.buckets, lo_of(int(g)),
                              lo_of(int(g) + 1), point_of, sums);
                },
                threads);
        });
        timed("checksum", ns.checksum, [&] {
            for (int g = 0; g < groups; ++g)
                checks_ok =
                    ship(std::vector<Xyzz>(sums.begin() + lo_of(g),
                                           sums.begin() + lo_of(g + 1))) &&
                    checks_ok;
        });
        timed("bucket_reduce", ns.bucketReduce, [&] {
            msm::ReduceStats rs;
            total = msm::bucketReduceSerial<Curve>(sums, &rs);
            ns.reduceOps += rs.padds + rs.pdbls;
        });
        return checks_ok && sameAffine(total, expect);
    }

    std::vector<msm::ScatterResult> scattered(n_windows);
    cfg.hostThreads = 1;
    timed("scatter", ns.scatter, [&] {
        pool.parallelFor(
            0, n_windows,
            [&](std::size_t w) { scattered[w] = scatter(ids[w]); },
            threads);
    });
    for (const auto &sr : scattered) {
        checks_ok = checks_ok && sr.ok;
        ns.scatterStats.merge(sr.stats);
    }
    std::vector<std::vector<Xyzz>> sums(
        n_windows, std::vector<Xyzz>(n_buckets, Xyzz::identity()));
    const int groups =
        plan.bucketsSplitAcrossGpus ? plan.gpusPerWindow : 1;
    timed("bucket_sum", ns.bucketSum, [&] {
        pool.parallelFor(
            0, n_windows,
            [&](std::size_t w) {
                auto point_of = [&](std::uint32_t idx) {
                    return negs[w][idx] ? bases[idx].negated()
                                        : bases[idx];
                };
                for (int g = 0; g < groups; ++g)
                    sum_range(scattered[w].buckets,
                              1 + (n_buckets - 1) * g / groups,
                              1 + (n_buckets - 1) * (g + 1) / groups,
                              point_of, sums[w]);
            },
            threads);
    });
    std::vector<Xyzz> window_points(n_windows);
    std::vector<msm::ReduceStats> reduce_stats(n_windows);
    timed("bucket_reduce", ns.bucketReduce, [&] {
        pool.parallelFor(
            0, n_windows,
            [&](std::size_t w) {
                window_points[w] = msm::bucketReduceSerial<Curve>(
                    sums[w], &reduce_stats[w]);
            },
            threads);
    });
    for (const auto &rs : reduce_stats)
        ns.reduceOps += rs.padds + rs.pdbls;
    // Windows round-robin over the devices; each device ships its
    // window points once (the gather merge).
    timed("checksum", ns.checksum, [&] {
        for (int d = 0; d < cluster.numGpus(); ++d) {
            std::vector<Xyzz> payload;
            for (unsigned w = d; w < n_windows;
                 w += static_cast<unsigned>(cluster.numGpus()))
                payload.push_back(window_points[w]);
            checks_ok = ship(payload) && checks_ok;
        }
    });
    timed("window_reduce", ns.windowReduce, [&] {
        for (unsigned w = n_windows; w-- > 0;) {
            if (!total.isIdentity())
                for (unsigned b = 0; b < s; ++b)
                    total = pdbl(total);
            total = padd(total, window_points[w]);
        }
    });
    return checks_ok && sameAffine(total, expect);
}

/** Pairs of stages whose host-time order disagrees with the model. */
int
rankInversions(const std::vector<double> &host,
               const std::vector<double> &model)
{
    int inversions = 0;
    for (std::size_t i = 0; i < host.size(); ++i)
        for (std::size_t j = i + 1; j < host.size(); ++j) {
            const double h = host[i] - host[j];
            const double m = model[i] - model[j];
            if ((h > 0 && m < 0) || (h < 0 && m > 0))
                ++inversions;
        }
    return inversions;
}

/** Modeled stage breakdown (summed over @p timelines). */
void
recordModel(const std::vector<msm::MsmTimeline> &timelines,
            const StageNs &host, Output &out)
{
    msm::MsmTimeline sum;
    double total = 0.0, merge = 0.0;
    for (const auto &t : timelines) {
        sum.scatterNs += t.scatterNs;
        sum.bucketSumNs += t.bucketSumNs;
        sum.bucketReduceNs += t.bucketReduceNs;
        sum.windowReduceNs += t.windowReduceNs;
        sum.transferNs += t.transferNs;
        sum.verifyNs += t.verifyNs;
        sum.stragglerNs += t.stragglerNs;
        sum.backoffNs += t.backoffNs;
        total += t.totalNs();
        merge += t.mergeCosts.ns(t.collective);
    }
    auto &l = out.layers;
    l["model.scatter_ms"] = sum.scatterNs / 1e6;
    l["model.bucket_sum_ms"] = sum.bucketSumNs / 1e6;
    l["model.bucket_reduce_ms"] = sum.bucketReduceNs / 1e6;
    l["model.window_reduce_ms"] = sum.windowReduceNs / 1e6;
    l["model.transfer_ms"] = sum.transferNs / 1e6;
    l["model.verify_ms"] = sum.verifyNs / 1e6;
    l["model.straggler_ms"] = sum.stragglerNs / 1e6;
    l["model.backoff_ms"] = sum.backoffNs / 1e6;
    l["model.total_ms"] = total / 1e6;
    l["collectives.merge_ms"] = merge / 1e6;
    l["model.rank_inversions"] = rankInversions(
        {host.scatter, host.bucketSum, host.bucketReduce,
         host.windowReduce, host.checksum},
        {sum.scatterNs, sum.bucketSumNs, sum.bucketReduceNs,
         sum.windowReduceNs, sum.verifyNs});
}

/** engine.*, scatter.*, checksum.*, faults.*, replay.coverage for
 *  one replayed op against the engine's op time. */
void
recordEngineLayers(const EngineCounters &c, const StageNs &ns,
                   double engine_op_ms, int threads, Output &out)
{
    auto &l = out.layers;
    const auto &st = c.stats;
    l["engine.pacc_ops"] = double(st.paccOps);
    l["engine.padd_ops"] = double(st.paddOps);
    l["engine.pdbl_ops"] = double(st.pdblOps);
    l["engine.affine_add_ops"] = double(st.affineAddOps);
    l["engine.host_ops"] = double(c.hostOps);
    const double sum_ops =
        double(st.paccOps + st.paddOps + st.affineAddOps);
    l["engine.tree_padd_share"] =
        sum_ops > 0 ? double(st.paddOps) / sum_ops : 0.0;
    // Batch-affine adds cost roughly a pacc on the host; the
    // checksum's [rho]P work is a mix of doublings and additions.
    const double ec_ns =
        double(st.paccOps + st.affineAddOps) * l["ec.pacc_ns"] +
        double(st.paddOps + c.hostOps) * l["ec.padd_ns"] +
        double(st.pdblOps) * l["ec.pdbl_ns"] +
        double(c.fault.verifyEcOps) *
            0.5 * (l["ec.padd_ns"] + l["ec.pdbl_ns"]);
    l["engine.ec_explained_share"] =
        engine_op_ms > 0 ? ec_ns / (engine_op_ms * 1e6 * threads) : 0.0;
    l["digits.host_ms"] = ns.digits / 1e6;
    l["scatter.host_ms"] = ns.scatter / 1e6;
    l["scatter.global_atomics"] =
        double(ns.scatterStats.globalAtomics);
    l["scatter.shared_atomics"] =
        double(ns.scatterStats.sharedAtomics);
    l["scatter.gmem_bytes"] = double(ns.scatterStats.gmemBytes);
    l["bucket_sum.host_ms"] = ns.bucketSum / 1e6;
    l["bucket_reduce.host_ms"] = ns.bucketReduce / 1e6;
    l["bucket_reduce.ops"] = double(ns.reduceOps);
    l["window_reduce.host_ms"] = ns.windowReduce / 1e6;
    l["checksum.host_ms"] = ns.checksum / 1e6;
    l["checksum.ec_ops"] = double(c.fault.verifyEcOps);
    l["checksum.payloads"] = double(c.fault.checksummed);
    l["replay.coverage"] =
        engine_op_ms > 0 ? ns.total() / 1e6 / engine_op_ms
                         : 0.0;
    const auto &f = c.fault;
    l["faults.transfers"] = double(f.transfers);
    l["faults.retries"] = double(f.retries);
    l["faults.retry_ratio"] =
        f.transfers > 0 ? double(f.retries) / double(f.transfers) : 0.0;
    l["faults.windows_resharded"] = double(f.windowsResharded);
    l["faults.straggler_respawns"] = double(f.stragglerRespawns);
    const double spec = double(f.speculativeWins + f.speculativeLosses);
    l["faults.speculative_waste"] =
        spec > 0 ? double(f.speculativeLosses) / spec : 0.0;
    l["faults.corrupt_detected"] = double(f.corruptDetected);
}

/** planner.*: the plan the engine builds, re-run from outside. */
void
recordPlanner(const gpusim::CurveProfile &curve,
              const std::vector<std::size_t> &sizes,
              const gpusim::Cluster &cluster,
              const msm::MsmOptions &opts, SpanLog &log,
              std::uint64_t op, Output &out)
{
    SpanScope root(&log, "op", op, -1);
    const std::uint64_t evals0 = gpusim::CostModel::evaluations();
    double candidates = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (const std::size_t n : sizes) {
        SpanScope span(&log, "planner", op, root.id());
        if (opts.planner == msm::PlannerMode::Heuristic) {
            msm::planMsm(curve, n, cluster, opts);
            candidates += 1.0;
        } else {
            candidates += double(
                msm::autoplanMsm(curve, n, cluster, opts).evaluated);
        }
    }
    out.layers["planner.host_ms"] = nsBetween(t0, Clock::now()) / 1e6;
    out.layers["planner.candidates"] = candidates;
    out.layers["planner.cost_model_evals"] =
        double(gpusim::CostModel::evaluations() - evals0);
}

// ---------------------------------------------------------------
// Workloads.

template <typename Curve>
using ScalarVec = std::vector<BigInt<Curve::Fr::kLimbs>>;

/** msm_steady / msm_faulty_precompute: MsmEngine::tryCompute. */
template <typename Curve>
void
runEngineWorkload(Run &run, std::size_t n, msm::MsmOptions opts,
                  int setup_reps)
{
    const Args &args = run.args;
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(), kGpus);
    Prng prng(args.seed);
    const auto points = msm::generatePoints<Curve>(n, prng);
    std::vector<ScalarVec<Curve>> scalars;
    for (int k = 0; k < kInputSets; ++k)
        scalars.push_back(msm::generateScalars<Curve>(n, prng));
    std::vector<XYZZPoint<Curve>> refs(kInputSets);
    support::ThreadPool::global().parallelFor(
        0, kInputSets,
        [&](std::size_t k) {
            refs[k] = msm::msmSerialPippenger<Curve>(points, scalars[k],
                                                     kRefWindow);
        },
        args.threads);

    // Setup: input-ready to first-op-ready, repeated with a cold
    // table cache each time.
    std::unique_ptr<msm::MsmEngine<Curve>> engine;
    for (int r = 0; r < setup_reps; ++r) {
        engine.reset();
        msm::BaseTableCache<Curve>::global().clear();
        const Clock::time_point t0 = Clock::now();
        engine = std::make_unique<msm::MsmEngine<Curve>>(points, cluster,
                                                         opts);
        run.out.setupS.push_back(nsBetween(t0, Clock::now()) / 1e9);
    }
    std::unique_ptr<msm::MsmEngine<Curve>> traced_engine;
    msm::MsmOptions traced_opts = opts;
    if (run.traced()) {
        traced_opts.trace = &run.engineTrace;
        traced_engine = std::make_unique<msm::MsmEngine<Curve>>(
            points, cluster, traced_opts);
    }

    EngineCounters last;
    run.closedLoop([&](std::uint64_t i, bool with_trace) {
        const std::size_t k = i % kInputSets;
        SpanLog *log = with_trace ? &run.spans : nullptr;
        const AllocMark mark;
        Clock::time_point t0 = Clock::now();
        std::optional<support::StatusOr<msm::MsmResult<Curve>>> r;
        {
            SpanScope root(log, "op", i, -1);
            SpanScope call(log, "engine.tryCompute", i, root.id());
            r = (with_trace ? *traced_engine : *engine)
                    .tryCompute(scalars[k]);
        }
        const double ms = nsBetween(t0, Clock::now()) / 1e6;
        run.noteAllocs(mark, with_trace);
        if (!r->isOk())
            run.fail("op " + std::to_string(i) + ": " +
                     r->status().toString());
        else if (!sameAffine((*r)->value, refs[k]))
            run.fail("op " + std::to_string(i) +
                     ": result differs from the reference");
        else if (with_trace || i == 0) {
            last = EngineCounters{};
            last.add(**r);
        }
        return ms;
    }, RssRead::AfterWarmup);
    run.out.pointsPerOp = double(n);
    const auto curve = profileOf<Curve>();
    const msm::MsmTimeline timeline = msm::estimateDistMsmWithPlan(
        curve, n, cluster, opts, engine->plan());
    run.out.modeledMs = timeline.totalMs();
    if (!run.traced())
        return;

    // Per-layer replay, after the timed loop.
    const std::uint64_t op = run.out.attempted;
    StageNs ns;
    double build_s = 0.0, table_mb = 0.0;
    {
        SpanScope root(&run.spans, "op", op, -1);
        SpanScope replay(&run.spans, "replay", op, root.id());
        if (!replayMsm<Curve>(points, scalars[0], engine->plan(), opts,
                              cluster, args.threads, refs[0], run.spans,
                              op, replay.id(), ns, &build_s, &table_mb))
            run.fail("replay: stage-by-stage result differs from the "
                     "engine's");
    }
    measureArithmetic<Curve>(run.out);
    double one_thread_ms = 0.0;
    {
        msm::MsmOptions one = opts;
        one.hostThreads = 1;
        const msm::MsmEngine<Curve> single(points, cluster, one);
        SpanScope root(&run.spans, "op", op + 1, -1);
        SpanScope call(&run.spans, "engine.tryCompute.1thread", op + 1,
                       root.id());
        const Clock::time_point t0 = Clock::now();
        const auto r = single.tryCompute(scalars[0]);
        one_thread_ms = nsBetween(t0, Clock::now()) / 1e6;
        if (!r.isOk() || !sameAffine(r->value, refs[0]))
            run.fail("one-thread op differs from the reference");
    }
    const double op_ms = median(run.out.opMs);
    recordEngineLayers(last, ns, op_ms, args.threads, run.out);
    run.out.layers["engine.thread_efficiency"] =
        one_thread_ms / (args.threads * op_ms);
    recordModel({timeline}, ns, run.out);
    run.out.layers["collectives.merge_bytes_per_gpu"] =
        double(engine->plan().mergeBytesPerGpu);
    run.out.layers["precompute.build_s"] = build_s;
    run.out.layers["precompute.table_mb"] = table_mb;
    recordPlanner(curve, {n}, cluster, opts, run.spans, op + 2, run.out);
}

void
runMsmSteady(Run &run)
{
    msm::MsmOptions opts;
    opts.hostThreads = run.args.threads;
    runEngineWorkload<Bn254>(run, kSteadyPoints, opts, 31);
}

void
runMsmFaultyPrecompute(Run &run)
{
    msm::MsmOptions opts;
    opts.hostThreads = run.args.threads;
    opts.precompute = true;
    auto plan = gpusim::FaultPlan::parse(
        std::string(kFaultSpec) + ";seed:" + std::to_string(run.args.seed));
    if (!plan.isOk()) {
        run.fail("fault spec: " + plan.status().toString());
        return;
    }
    opts.faults = *plan;
    runEngineWorkload<Bls381>(run, kFaultyPoints, opts, 3);
}

void
runGroth16Prove(Run &run)
{
    using F = Bn254::Fr;
    const Args &args = run.args;
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(), kGpus);
    Prng prng(args.seed);
    // The constraint system is the same for every witness; only the
    // wire values (and so the MSM scalars) change.
    std::vector<zksnark::BuiltCircuit<F>> circuits;
    for (int k = 0; k < kInputSets; ++k)
        circuits.push_back(zksnark::buildMulChainCircuit<F>(
            kProveConstraints, kProvePublic, prng));
    const auto &r1cs = circuits[0].r1cs;
    const auto keys = zksnark::setup<Bn254>(
        r1cs, zksnark::Trapdoor<F>::random(prng));
    std::vector<std::vector<F>> publics;
    for (const auto &c : circuits)
        publics.emplace_back(c.wires.begin() + 1,
                             c.wires.begin() + 1 + kProvePublic);

    msm::MsmOptions opts;
    opts.hostThreads = args.threads;
    // One ProverEngines build takes tens of microseconds, so each
    // setup sample is the mean over a batch of about 10 ms.
    constexpr int kBatch = 500;
    std::unique_ptr<zksnark::ProverEngines<Bn254>> engines;
    for (int r = 0; r < 15; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (int b = 0; b < kBatch; ++b) {
            engines.reset();
            engines = std::make_unique<zksnark::ProverEngines<Bn254>>(
                keys.pk, cluster, opts);
        }
        run.out.setupS.push_back(nsBetween(t0, Clock::now()) / 1e9 /
                                 kBatch);
    }
    std::unique_ptr<zksnark::ProverEngines<Bn254>> traced_engines;
    if (run.traced()) {
        msm::MsmOptions traced_opts = opts;
        traced_opts.trace = &run.engineTrace;
        traced_engines = std::make_unique<zksnark::ProverEngines<Bn254>>(
            keys.pk, cluster, traced_opts);
    }

    Prng blind(args.seed ^ 0xB11D);
    std::vector<zksnark::ProverTiming> timings;
    run.closedLoop([&](std::uint64_t i, bool with_trace) {
        const std::size_t k = i % kInputSets;
        SpanLog *log = with_trace ? &run.spans : nullptr;
        zksnark::ProverTiming timing;
        const AllocMark mark;
        const Clock::time_point t0 = Clock::now();
        std::optional<support::StatusOr<zksnark::Proof<Bn254>>> proof;
        {
            SpanScope root(log, "op", i, -1);
            SpanScope call(log, "prover.tryProve", i, root.id());
            proof = zksnark::tryProve<Bn254>(
                keys.pk, r1cs, circuits[k].wires, blind, &timing,
                with_trace ? &run.engineTrace : nullptr,
                with_trace ? traced_engines.get() : engines.get());
        }
        const double ms = nsBetween(t0, Clock::now()) / 1e6;
        run.noteAllocs(mark, with_trace);
        std::vector<F> tampered = publics[k];
        tampered[0] += F::one();
        if (!proof->isOk())
            run.fail("proof " + std::to_string(i) + ": " +
                     proof->status().toString());
        else if (!zksnark::verify(keys.vk, **proof, publics[k]))
            run.fail("proof " + std::to_string(i) + " does not verify");
        else if (zksnark::verify(keys.vk, **proof, tampered))
            run.fail("proof " + std::to_string(i) +
                     " verifies a tampered public input");
        if (!with_trace)
            timings.push_back(timing);
        run.out.pointsPerOp = double(timing.msmPoints);
        return ms;
    }, RssRead::AtEnd);

    // The four MSMs of one proof: (engine, points, scalars).
    const auto &wires = circuits[0].wires;
    const std::vector<F> private_wires(wires.begin() + kProvePublic + 1,
                                       wires.end());
    const std::vector<F> h = zksnark::computeQuotientH(r1cs, wires);
    struct Msm
    {
        const msm::MsmEngine<Bn254> *engine;
        const std::vector<AffinePoint<Bn254>> *points;
        const std::vector<F> *scalars;
    };
    const std::vector<Msm> msms = {
        {engines->a.get(), &keys.pk.aPoints, &wires},
        {engines->b.get(), &keys.pk.bPoints, &wires},
        {engines->l.get(), &keys.pk.lPoints, &private_wires},
        {engines->h.get(), &keys.pk.hPoints, &h}};
    const auto curve = profileOf<Bn254>();
    std::vector<msm::MsmTimeline> timelines;
    for (const Msm &m : msms)
        timelines.push_back(msm::estimateDistMsmWithPlan(
            curve, m.points->size(), cluster, opts, m.engine->plan()));
    for (const auto &t : timelines)
        run.out.modeledMs += t.totalMs();
    if (!run.traced())
        return;

    // Per-layer replay of the four MSMs, each first through its
    // engine (for the counters and the op time the replay explains).
    const std::uint64_t op = run.out.attempted;
    EngineCounters counters;
    StageNs ns;
    double engine_ns = 0.0;
    {
        SpanScope root(&run.spans, "op", op, -1);
        for (const Msm &m : msms) {
            ScalarVec<Bn254> raw;
            for (const F &f : *m.scalars)
                raw.push_back(f.toRaw());
            std::optional<support::StatusOr<msm::MsmResult<Bn254>>> r;
            {
                SpanScope call(&run.spans, "engine.tryCompute", op,
                               root.id());
                const Clock::time_point t0 = Clock::now();
                r = m.engine->tryCompute(raw);
                engine_ns += nsBetween(t0, Clock::now());
            }
            if (!r->isOk()) {
                run.fail("replay engine: " + r->status().toString());
                continue;
            }
            counters.add(**r);
            SpanScope replay(&run.spans, "replay", op, root.id());
            double unused_s = 0.0, unused_mb = 0.0;
            if (!replayMsm<Bn254>(*m.points, raw, m.engine->plan(), opts,
                                  cluster, args.threads, (*r)->value,
                                  run.spans, op, replay.id(), ns,
                                  &unused_s, &unused_mb))
                run.fail("replay: stage-by-stage result differs from "
                         "the engine's");
        }
    }
    measureArithmetic<Bn254>(run.out);
    double one_thread_ms = 0.0;
    {
        msm::MsmOptions one = opts;
        one.hostThreads = 1;
        const zksnark::ProverEngines<Bn254> single(keys.pk, cluster, one);
        SpanScope root(&run.spans, "op", op + 1, -1);
        SpanScope call(&run.spans, "prover.tryProve.1thread", op + 1,
                       root.id());
        const Clock::time_point t0 = Clock::now();
        const auto proof = zksnark::tryProve<Bn254>(
            keys.pk, r1cs, wires, blind, nullptr, nullptr, &single);
        one_thread_ms = nsBetween(t0, Clock::now()) / 1e6;
        if (!proof.isOk() ||
            !zksnark::verify(keys.vk, *proof, publics[0]))
            run.fail("one-thread proof does not verify");
    }
    recordEngineLayers(counters, ns, engine_ns / 1e6, args.threads,
                       run.out);
    // Thread efficiency of the whole proof (the op users wait for).
    run.out.layers["engine.thread_efficiency"] =
        one_thread_ms / (args.threads * median(run.out.opMs));
    recordModel(timelines, ns, run.out);
    run.out.layers["collectives.merge_bytes_per_gpu"] =
        double(engines->a->plan().mergeBytesPerGpu);
    std::vector<double> ntt, msm_s, other;
    for (const auto &t : timings) {
        ntt.push_back(t.nttSeconds * 1e3);
        msm_s.push_back(t.msmSeconds * 1e3);
        other.push_back(t.otherSeconds * 1e3);
    }
    auto &l = run.out.layers;
    l["prover.ntt_ms"] = median(ntt);
    l["prover.msm_ms"] = median(msm_s);
    l["prover.other_ms"] = median(other);
    const double all = l["prover.ntt_ms"] + l["prover.msm_ms"] +
                       l["prover.other_ms"];
    l["prover.msm_share"] = all > 0 ? l["prover.msm_ms"] / all : 0.0;
    std::vector<std::size_t> sizes;
    for (const Msm &m : msms)
        sizes.push_back(m.points->size());
    recordPlanner(curve, sizes, cluster, opts, run.spans, op + 2,
                  run.out);
}

void
runPlanPaperScale(Run &run)
{
    struct Entry
    {
        gpusim::CurveProfile curve;
        std::uint64_t n;
        const gpusim::Cluster *cluster;
    };
    // Setup: the two simulated fleets the grid plans against. One
    // build takes well under a microsecond, so each sample is the
    // mean over a batch.
    constexpr int kBatch = 2000;
    std::unique_ptr<gpusim::Cluster> flat, dgx;
    for (int r = 0; r < 9; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (int b = 0; b < kBatch; ++b) {
            flat = std::make_unique<gpusim::Cluster>(
                gpusim::DeviceSpec::a100(), kGpus);
            dgx = std::make_unique<gpusim::Cluster>(
                gpusim::DeviceSpec::a100(),
                gpusim::Topology::dgx(32, 8));
        }
        run.out.setupS.push_back(nsBetween(t0, Clock::now()) / 1e9 /
                                 kBatch);
    }
    std::vector<Entry> grid;
    for (const auto &curve :
         {gpusim::CurveProfile::bn254(), gpusim::CurveProfile::bls377(),
          gpusim::CurveProfile::bls381(), gpusim::CurveProfile::mnt4753()})
        for (unsigned logn : {22u, 24u, 26u, 28u})
            grid.push_back({curve, std::uint64_t{1} << logn, flat.get()});
    grid.push_back({gpusim::CurveProfile::bn254(), std::uint64_t{1} << 24,
                    dgx.get()});
    // The seed fixes the order the grid is visited in.
    Prng prng(run.args.seed);
    for (std::size_t i = grid.size(); i-- > 1;)
        std::swap(grid[i], grid[prng() % (i + 1)]);

    msm::MsmOptions opts;
    opts.hostThreads = run.args.threads;
    std::vector<double> first_ns;
    std::vector<msm::MsmTimeline> last;
    double points = 0.0;
    for (const Entry &e : grid)
        points += double(e.n);
    run.out.pointsPerOp = points;
    run.closedLoop([&](std::uint64_t i, bool with_trace) {
        SpanLog *log = with_trace ? &run.spans : nullptr;
        std::vector<msm::MsmTimeline> timelines;
        timelines.reserve(grid.size());
        const Clock::time_point t0 = Clock::now();
        {
            SpanScope root(log, "op", i, -1);
            for (const Entry &e : grid) {
                msm::MsmPlan plan;
                {
                    SpanScope span(log, "planner", i, root.id());
                    plan = msm::planMsm(e.curve, e.n, *e.cluster, opts);
                }
                SpanScope span(log, "model", i, root.id());
                timelines.push_back(msm::estimateDistMsmWithPlan(
                    e.curve, e.n, *e.cluster, opts, plan));
            }
        }
        const double ms = nsBetween(t0, Clock::now()) / 1e6;
        // The plans are deterministic: every pass must price the
        // grid exactly as the first did.
        std::vector<double> ns;
        for (const auto &t : timelines)
            ns.push_back(t.totalNs());
        const bool sane = std::all_of(ns.begin(), ns.end(), [](double v) {
            return std::isfinite(v) && v > 0.0;
        });
        if (first_ns.empty())
            first_ns = ns;
        if (!sane || ns != first_ns)
            run.fail("pass " + std::to_string(i) +
                     ": grid estimate changed or is not positive");
        last = std::move(timelines);
        return ms;
    }, RssRead::AfterWarmup);
    double log_sum = 0.0;
    for (const double v : first_ns)
        log_sum += std::log(v / 1e6);
    run.out.modeledMs =
        first_ns.empty() ? 0.0 : std::exp(log_sum / first_ns.size());
    if (!run.traced())
        return;

    const std::uint64_t op = run.out.attempted;
    StageNs none;
    recordModel(last, none, run.out);
    auto &l = run.out.layers;
    for (const char *k :
         {"model.scatter_ms", "model.bucket_sum_ms",
          "model.bucket_reduce_ms", "model.window_reduce_ms",
          "model.transfer_ms", "model.verify_ms", "model.straggler_ms",
          "model.backoff_ms"})
        l[k] /= double(grid.size());
    l["model.total_ms"] = run.out.modeledMs;
    l["model.rank_inversions"] = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g)
        if (grid[g].cluster == dgx.get()) {
            l["collectives.merge_ms"] =
                last[g].mergeCosts.ns(last[g].collective) / 1e6;
            l["collectives.merge_bytes_per_gpu"] = double(
                msm::planMsm(grid[g].curve, grid[g].n, *dgx, opts)
                    .mergeBytesPerGpu);
        }
    // Planner layer: the whole grid once more from outside, with the
    // estimator's simulated timeline spans attached this time (per
    // pass they would grow the recorder without bound).
    SpanScope root(&run.spans, "op", op, -1);
    msm::MsmOptions traced_opts = opts;
    traced_opts.trace = &run.engineTrace;
    const std::uint64_t evals0 = gpusim::CostModel::evaluations();
    double plan_ns = 0.0;
    for (const Entry &e : grid) {
        msm::MsmPlan plan;
        {
            SpanScope span(&run.spans, "planner", op, root.id());
            const Clock::time_point t0 = Clock::now();
            plan = msm::planMsm(e.curve, e.n, *e.cluster, opts);
            plan_ns += nsBetween(t0, Clock::now());
        }
        SpanScope span(&run.spans, "model", op, root.id());
        msm::estimateDistMsmWithPlan(e.curve, e.n, *e.cluster,
                                     traced_opts, plan);
    }
    l["planner.host_ms"] = plan_ns / 1e6;
    l["planner.candidates"] = double(grid.size());
    l["planner.cost_model_evals"] =
        double(gpusim::CostModel::evaluations() - evals0);
}

// ---------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/**
 * Median, and the highest of p99.9 / p99 / p90 / p75 that has at
 * least ten samples above it (nearest rank). With fewer than 40
 * samples no percentile qualifies and the tail is the maximum,
 * reported as percentile 100. p50 is left out on purpose: it is the
 * median, not a tail, and with it a workload fitting about 20 ops in
 * a run would flip between the maximum and the median from run to
 * run.
 */
std::string
summaryJson(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    double tail = n ? v.back() : 0.0, tail_pct = 100.0, sum = 0.0;
    for (const double pct : {99.9, 99.0, 90.0, 75.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * double(n)));
        if (rank >= 1 && n - rank >= 10) {
            tail = v[rank - 1];
            tail_pct = pct;
            break;
        }
    }
    for (const double x : v)
        sum += x;
    std::ostringstream os;
    os.precision(17);
    os << "{\"n\":" << n << ",\"p50\":" << median(v)
       << ",\"tail\":" << tail << ",\"tail_pct\":" << tail_pct
       << ",\"sum\":" << sum << "}";
    return os.str();
}

void
printOutput(const Run &run)
{
    const Output &o = run.out;
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":" << jsonString(run.args.workload)
       << ",\"seed\":" << run.args.seed
       << ",\"threads\":" << run.args.threads
       << ",\"op_ms\":" << summaryJson(o.opMs)
       << ",\"traced_op_ms\":" << summaryJson(o.tracedOpMs)
       << ",\"setup_s\":" << summaryJson(o.setupS)
       << ",\"points_per_op\":" << o.pointsPerOp
       << ",\"modeled_ms\":" << o.modeledMs
       << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
       << ",\"peak_rss_kb\":" << o.peakRssKb
       << ",\"spans_dropped\":" << run.spans.dropped()
       << ",\"build\":{\"type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"flags\":" << jsonString(PERFBENCH_CXX_FLAGS)
       << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER) << "}"
       << ",\"errors\":[";
    for (std::size_t i = 0; i < o.errors.size(); ++i)
        os << (i ? "," : "") << jsonString(o.errors[i]);
    os << "],\"layers\":{";
    if (run.traced()) {
        bool first = true;
        for (const auto &[name, value] : o.layers) {
            os << (first ? "" : ",") << jsonString(name) << ":" << value;
            first = false;
        }
    }
    os << "},\"self_ms\":{";
    if (run.traced()) {
        // Host self time per span name, summed over the run.
        bool first = true;
        for (const auto &[name, ns] : run.spans.selfNs()) {
            os << (first ? "" : ",") << jsonString(name) << ":"
               << ns / 1e6;
            first = false;
        }
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "{msm_steady|groth16_prove|msm_faulty_precompute|"
                 "plan_paper_scale} --seed N --seconds S --threads T "
                 "[--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized "
                         "build (need -O2 or higher and NDEBUG)\n");
    return 3;
#endif
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(value);
        else if (key == "--threads")
            args.threads = std::atoi(value);
        else if (key == "--trace-out")
            args.traceOut = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || args.seconds <= 0 || args.threads < 1)
        return usage();

    perfbench_alloc::counting = !args.traceOut.empty();
    Run run{args, {}, {}, {}};
    if (args.workload == "msm_steady")
        runMsmSteady(run);
    else if (args.workload == "groth16_prove")
        runGroth16Prove(run);
    else if (args.workload == "msm_faulty_precompute")
        runMsmFaultyPrecompute(run);
    else if (args.workload == "plan_paper_scale")
        runPlanPaperScale(run);
    else
        return usage();

    if (run.traced()) {
        std::ofstream spans(args.traceOut + ".spans.json");
        run.spans.write(spans);
        std::ofstream engine(args.traceOut + ".engine.json");
        run.engineTrace.writeChromeJson(engine);
    }
    printOutput(run);
    return 0;
}
