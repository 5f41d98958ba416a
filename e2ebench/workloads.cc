#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/rng.hh"
#include "common/stats.hh"
#include "experiments/allxy.hh"
#include "experiments/rb.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "net/wire.hh"
#include "replay.hh"
#include "runtime/service.hh"

namespace e2e {

using namespace quma;

namespace {

/** Set-ups per run; set-up time is their median. */
constexpr int kSetupRepeats = 11;
/**
 * Slices of an untraced window. Every end-to-end figure but set-up and
 * memory is the median over slices of that slice's own figure, so a
 * burst of load from a neighbour on a shared host moves one slice,
 * not the result.
 */
constexpr unsigned kSlices = 20;

/** Zero-error AllXY, all rounds pooled: mean |fidelity - ideal| must
 *  stay under this (the miscalibrated configs sit far above it). */
constexpr double kAllxyDeviationTol = 0.05;
/** RB error per Clifford must land in this band. */
constexpr double kRbEpcMin = 1e-5;
constexpr double kRbEpcMax = 0.02;

/**
 * Assembly bytes of whole specs (ones not stamped from a template) a
 * recorder keeps for the output check. The bound keeps the
 * benchmark's own memory from growing with the program's throughput,
 * which would show up in peak_rss_mb; jobs past it are still counted,
 * digested and physics-checked.
 */
constexpr std::size_t kKeptSpecBytes = 1u << 20;
/** Jobs per recorder kept for the output check; the rest are only
 *  counted and timed, for the same reason as kKeptSpecBytes. */
constexpr std::size_t kKeptRecords = 256;
/** Results kept whole per recorder (wire codec timing sample). */
constexpr std::size_t kSampleResults = 64;
/** Jobs, in submission order, the printed result digest covers. */
constexpr std::size_t kDigestJobs = 64;

double
msBetween(std::uint64_t a, std::uint64_t b)
{
    return static_cast<double>(b - a) / 1e6;
}

std::uint64_t
digestOf(const runtime::JobResult &r)
{
    Digest d;
    d.addResult(r);
    return d.value();
}

/** Stamp a job seed onto a template, as allxyJob would have. */
runtime::JobSpec
seeded(const runtime::JobSpec &tmpl, std::uint64_t seed)
{
    runtime::JobSpec spec = tmpl;
    spec.seed = seed;
    spec.machine.exec.seed = seed;
    spec.machine.chipSeed = seed ^ 0x517e;
    return spec;
}

using SpecPtr = std::shared_ptr<const runtime::JobSpec>;

/** One finished job as the benchmark saw it, kept compact. */
struct JobRecord
{
    /** The job's spec, or its template when `stamped`; null when the
     *  spec was past the retention bound. */
    SpecPtr base;
    std::uint64_t seed = 0;
    bool stamped = false;
    /** Digest of the result (bit-exact comparison). */
    std::uint64_t digest = 0;
    /** The whole result, for the first kSampleResults jobs only. */
    std::shared_ptr<const runtime::JobResult> sample;
    /** Deterministic submission key: (recorder lane, sequence). */
    std::uint64_t key = 0;
    std::uint64_t submitNanos = 0;
    std::uint64_t ackNanos = 0;
    std::uint64_t doneNanos = 0;
    /** Averaging rounds the job completed. */
    std::size_t rounds = 0;

    runtime::JobSpec
    spec() const
    {
        return stamped ? seeded(*base, seed) : *base;
    }
    double latencyMs() const { return msBetween(submitNanos, doneNanos); }
    double ackMs() const { return msBetween(submitNanos, ackNanos); }
};

/**
 * Forwards to a backend and records every job's latency, and the
 * spec and result digest of the first kKeptRecords: what the output
 * check replays and the latency metrics read. One instance per
 * client connection.
 */
class RecordingBackend final : public runtime::IExperimentBackend
{
  public:
    RecordingBackend(runtime::IExperimentBackend &backend,
                     std::size_t opaque_rounds, std::uint64_t lane,
                     SpanRecorder &spans)
        : inner(backend), opaqueRounds(opaque_rounds), laneKey(lane << 40),
          rec(spans)
    {}

    /** Submit `tmpl` with a job seed stamped on (kept as template +
     *  seed, so recording costs no spec copy). */
    runtime::JobId
    submitStamped(const SpecPtr &tmpl, std::uint64_t seed)
    {
        ScopedSpan span(rec, "submit", parentSpan, request);
        std::uint64_t t0 = nowNanos();
        runtime::JobSpec spec = seeded(*tmpl, seed);
        std::size_t rounds = spec.rounds ? spec.rounds : opaqueRounds;
        runtime::JobId id = inner.submit(std::move(spec));
        JobRecord r;
        r.base = tmpl;
        r.seed = seed;
        r.stamped = true;
        r.rounds = rounds;
        remember(id, std::move(r), t0);
        return id;
    }

    runtime::JobId
    submit(runtime::JobSpec spec) override
    {
        ScopedSpan span(rec, "submit", parentSpan, request);
        std::uint64_t t0 = nowNanos();
        runtime::JobId id = inner.submit(spec);
        return submitted(id, std::move(spec), t0);
    }

    /** A refusal counts as a failed attempt. */
    std::optional<runtime::JobId>
    trySubmit(runtime::JobSpec spec) override
    {
        std::optional<runtime::JobId> id = inner.trySubmit(spec);
        if (id)
            return submitted(*id, std::move(spec), nowNanos());
        ++refused;
        return id;
    }

    runtime::JobStatus
    status(runtime::JobId id) const override
    {
        return inner.status(id);
    }
    std::optional<runtime::JobResult>
    poll(runtime::JobId id) const override
    {
        return inner.poll(id);
    }

    runtime::JobResult
    await(runtime::JobId id) override
    {
        ScopedSpan span(rec, "await", parentSpan, request);
        runtime::JobResult r = inner.await(id);
        std::uint64_t t = nowNanos();
        auto it = pending.find(id);
        if (it == pending.end())
            return r;
        JobRecord done = std::move(it->second);
        pending.erase(it);
        done.doneNanos = t;
        latencyMs[traced].push_back(done.latencyMs());
        if (traced)
            tracedAckMs.push_back(done.ackMs());
        rounds[traced] += static_cast<double>(done.rounds);
        ++completed;
        if (r.failed())
            ++failedJobs;
        if (records.size() < kKeptRecords) {
            done.digest = digestOf(r);
            if (records.size() < kSampleResults)
                done.sample = std::make_shared<const runtime::JobResult>(r);
            records.push_back(std::move(done));
        }
        return r;
    }

    /** The first kKeptRecords completed jobs, in completion order. */
    std::vector<JobRecord> records;
    /** Every completed job's latency (ms) and the rounds completed,
     *  indexed by the traced flag; submit-ack times of traced jobs. */
    std::vector<double> latencyMs[2], tracedAckMs;
    double rounds[2] = {0, 0};
    std::size_t completed = 0, failedJobs = 0, refused = 0;
    /** Whole specs of the first `captureFirst` submissions (the layer
     *  replay's sample). */
    std::size_t captureFirst = 0;
    std::vector<runtime::JobSpec> firstSpecs;
    bool traced = false;
    /** Span the next submit/await spans hang under. */
    std::uint64_t parentSpan = 0;
    std::uint64_t request = 0;

  private:
    /** Record a whole spec (kept while under kKeptSpecBytes). */
    runtime::JobId
    submitted(runtime::JobId id, runtime::JobSpec spec, std::uint64_t t0)
    {
        JobRecord r;
        r.rounds = spec.rounds ? spec.rounds : opaqueRounds;
        if (firstSpecs.size() < captureFirst)
            firstSpecs.push_back(spec);
        if (keptBytes + spec.assembly.size() <= kKeptSpecBytes) {
            keptBytes += spec.assembly.size();
            r.base = std::make_shared<const runtime::JobSpec>(
                std::move(spec));
        }
        remember(id, std::move(r), t0);
        return id;
    }

    void
    remember(runtime::JobId id, JobRecord r, std::uint64_t t0)
    {
        r.submitNanos = t0;
        r.ackNanos = nowNanos();
        r.key = laneKey | sequence++;
        pending.emplace(id, std::move(r));
    }

    runtime::IExperimentBackend &inner;
    std::size_t opaqueRounds;
    std::uint64_t laneKey;
    SpanRecorder &rec;
    std::unordered_map<runtime::JobId, JobRecord> pending;
    std::uint64_t sequence = 0;
    std::size_t keptBytes = 0;
};

/** Runtime counters a traced chunk accumulates (ServiceStats deltas). */
struct RuntimeCounters
{
    double programHits = 0, programMisses = 0;
    double acquisitions = 0, reuseHits = 0;
    double completed = 0, shardsExecuted = 0, roundsStolen = 0;

    static RuntimeCounters
    of(const runtime::ServiceStats &s)
    {
        RuntimeCounters c;
        c.programHits = static_cast<double>(s.cache.programHits);
        c.programMisses = static_cast<double>(s.cache.programMisses);
        c.acquisitions = static_cast<double>(s.pool.acquisitions);
        c.reuseHits = static_cast<double>(s.pool.reuseHits);
        c.completed = static_cast<double>(s.scheduler.completed);
        c.shardsExecuted = static_cast<double>(s.scheduler.shardsExecuted);
        c.roundsStolen = static_cast<double>(s.scheduler.roundsStolen);
        return c;
    }
    void
    add(const RuntimeCounters &after, const RuntimeCounters &before)
    {
        programHits += after.programHits - before.programHits;
        programMisses += after.programMisses - before.programMisses;
        acquisitions += after.acquisitions - before.acquisitions;
        reuseHits += after.reuseHits - before.reuseHits;
        completed += after.completed - before.completed;
        shardsExecuted += after.shardsExecuted - before.shardsExecuted;
        roundsStolen += after.roundsStolen - before.roundsStolen;
    }
};

/** What the representative job of the layer replay is. */
struct ReplayPlan
{
    runtime::JobSpec spec;
    std::size_t programRounds = 1;
    std::vector<std::string> programs;
    std::size_t maxRuns = 1;
    unsigned passes = 3;
};

/** Verdict of the output check. */
struct Verdict
{
    std::size_t failedJobs = 0;
    std::vector<std::string> problems;
};

/** Wire-side metrics of the traced chunks. */
struct WireMetrics
{
    double bytesPerJob = 0;
    double framesPerJob = 0;
    double maxBackendShare = 0;
    double submitAckMsP50 = 0;
};

/**
 * Element-wise sum of zero-error AllXY results: pooling every job's
 * rounds is what makes the staircase gate sharp even for one-round
 * jobs.
 */
struct StaircaseSum
{
    std::vector<double> sum = std::vector<double>(42, 0.0);
    std::size_t jobs = 0;

    void
    add(const runtime::JobResult &r)
    {
        if (r.averages.size() != sum.size())
            return;
        for (std::size_t i = 0; i < sum.size(); ++i)
            sum[i] += r.averages[i];
        ++jobs;
    }
    void
    merge(const StaircaseSum &o)
    {
        for (std::size_t i = 0; i < sum.size(); ++i)
            sum[i] += o.sum[i];
        jobs += o.jobs;
    }
};

/** The pooled zero-error staircase must trace the ideal one. */
void
allxyGate(const StaircaseSum &s, Verdict &v, const char *what)
{
    if (s.jobs == 0) {
        v.problems.push_back(std::string(what) +
                             ": no zero-error AllXY job completed");
        return;
    }
    std::vector<double> mean = s.sum;
    for (double &x : mean)
        x /= static_cast<double>(s.jobs);
    double dev = meanAbsDeviation(experiments::rescaleAllxy(mean),
                                  experiments::idealAllxySignature());
    std::fprintf(stderr,
                 "[e2e] physics: zero-error AllXY deviation %.4f over "
                 "%zu job(s) (tolerance %.2f)\n",
                 dev, s.jobs, kAllxyDeviationTol);
    if (!(dev < kAllxyDeviationTol)) {
        v.problems.push_back(std::string(what) +
                             ": zero-error AllXY deviation " +
                             std::to_string(dev) + " over tolerance");
        v.failedJobs += s.jobs;
    }
}

/** One AllXY job template per amplitude error (shared program). */
std::vector<SpecPtr>
allxyTemplates(const std::vector<double> &amplitudeErrors,
               std::size_t rounds)
{
    std::vector<SpecPtr> out;
    for (double amp : amplitudeErrors) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        cfg.shards = 1;
        cfg.amplitudeError = amp;
        out.push_back(std::make_shared<const runtime::JobSpec>(
            experiments::allxyJob(cfg)));
    }
    return out;
}

/** Everything a run's recorders saw, merged. */
struct Recorded
{
    std::vector<JobRecord> records;
    std::vector<double> latencyMs[2], tracedAckMs;
    double rounds[2] = {0, 0};
    std::size_t completed = 0, failedJobs = 0, refused = 0;

    void
    add(RecordingBackend &b)
    {
        for (JobRecord &r : b.records)
            records.push_back(std::move(r));
        b.records.clear();
        for (int t = 0; t < 2; ++t) {
            latencyMs[t].insert(latencyMs[t].end(), b.latencyMs[t].begin(),
                                b.latencyMs[t].end());
            rounds[t] += b.rounds[t];
        }
        tracedAckMs.insert(tracedAckMs.end(), b.tracedAckMs.begin(),
                           b.tracedAckMs.end());
        completed += b.completed;
        failedJobs += b.failedJobs;
        refused += b.refused;
    }
};

/**
 * Service sizing shared by the workloads: result retention and the
 * program cache are bounded well below what a window fills, so memory
 * reaches its steady state early and peak_rss_mb measures the working
 * set, not how many jobs fit in the window.
 */
runtime::ServiceConfig
serviceConfig(unsigned workers)
{
    runtime::ServiceConfig sc;
    sc.workers = workers;
    sc.maxRetainedResults = 4096;
    sc.cachedPrograms = 8;
    sc.traceCapacity = 1 << 20;
    return sc;
}

// ---------------------------------------------------------------------

class Workload
{
  public:
    explicit Workload(SpanRecorder &s) : spans(s) {}
    virtual ~Workload() = default;

    /** Build the service or fleet and finish the warm-up jobs. */
    virtual void setup() = 0;
    virtual void teardown() = 0;
    /** Closed loop until `deadline` (steady nanos); completes the
     *  wave in flight. */
    virtual void runUntil(std::uint64_t deadline, bool traced) = 0;
    /** One recorder per client connection. */
    virtual std::vector<RecordingBackend *> recorders() = 0;
    virtual std::vector<runtime::ExperimentService *> services() = 0;
    virtual unsigned totalWorkers() const = 0;
    virtual void physicsGate(Verdict &v) const = 0;
    /** The layer replay's representative job, a function of the seed. */
    virtual ReplayPlan replayPlan() const = 0;

    /** Wire-side chunk hooks (the fleet snapshots link and gateway
     *  counters; in-process workloads have no wire). */
    virtual void beginTracedChunk() {}
    virtual void endTracedChunk() {}
    /** Wire metrics of the traced chunks; nullopt = no wire. */
    virtual std::optional<WireMetrics>
    wireMetrics(std::size_t /*tracedJobs*/)
    {
        return std::nullopt;
    }

    std::uint64_t seed = 1;

  protected:
    SpanRecorder &spans;
};

// --- allxy_batch -------------------------------------------------------

/**
 * allxy_batch: the paper's own experiment (§8, Fig. 9) on an
 * in-process ExperimentService with 2 workers, closed loop of waves.
 * Each wave submits 6 opaque AllXY jobs (shards=1, 32 rounds; 2 each
 * of 3 amplitude-error configs sharing one program) and awaits them.
 *
 * Why: 42 readouts per round make readout synthesis the largest layer
 * (gprof of the 1-worker AllXY batch: Rng::standardNormal 28%,
 * simulateReadout 26%, Mdu::integrate 2%; about 55% of CPU). No wire,
 * the program cache always hits and the pool stays warm, so this is
 * the workload on which readout and MDU work shows end to end.
 */
class AllxyBatch final : public Workload
{
  public:
    static constexpr std::size_t kRounds = 32;
    static constexpr std::size_t kJobsPerConfig = 2;

    using Workload::Workload;

    void
    setup() override
    {
        templates = allxyTemplates({0.0, 0.03, -0.03}, kRounds);
        service = std::make_unique<runtime::ExperimentService>(
            serviceConfig(2));
        backend = std::make_unique<RecordingBackend>(*service, kRounds, 0,
                                                     spans);
        // Warm-up: one job per distinct machine config, one at a time
        // so set-up time does not depend on how they share workers.
        for (const SpecPtr &t : templates)
            service->runSync(seeded(*t, seed));
    }

    void
    teardown() override
    {
        backend.reset();
        service.reset();
    }

    void
    runUntil(std::uint64_t deadline, bool traced) override
    {
        backend->traced = traced;
        while (nowNanos() < deadline) {
            ScopedSpan wave(spans, "wave", 0, waves);
            backend->parentSpan = wave.id();
            backend->request = waves;
            std::vector<runtime::JobId> ids;
            for (std::size_t k = 0; k < kJobsPerConfig; ++k)
                for (const SpecPtr &t : templates)
                    ids.push_back(backend->submitStamped(
                        t, Rng::derive(seed, jobs++)));
            std::vector<runtime::JobResult> results =
                backend->awaitAll(ids);
            // templates[0] is the zero-error config.
            for (std::size_t i = 0; i < results.size();
                 i += templates.size())
                zeroError.add(results[i]);
            ++waves;
        }
    }

    std::vector<RecordingBackend *>
    recorders() override
    {
        return {backend.get()};
    }
    std::vector<runtime::ExperimentService *>
    services() override
    {
        return {service.get()};
    }
    unsigned totalWorkers() const override { return 2; }

    void
    physicsGate(Verdict &v) const override
    {
        allxyGate(zeroError, v, "allxy_batch");
    }

    ReplayPlan
    replayPlan() const override
    {
        ReplayPlan p;
        p.spec = seeded(*templates[0], Rng::derive(seed, 0x7e91));
        p.programRounds = kRounds;
        p.programs = {p.spec.assembly};
        p.maxRuns = 1;
        p.passes = 5;
        return p;
    }

  private:
    std::vector<SpecPtr> templates;
    std::unique_ptr<runtime::ExperimentService> service;
    std::unique_ptr<RecordingBackend> backend;
    StaircaseSum zeroError;
    std::uint64_t waves = 0, jobs = 0;
};

// --- rb_sweep ----------------------------------------------------------

/**
 * rb_sweep: randomized benchmarking sweeps (experiments::runRb) on an
 * in-process service with 2 workers: lengths {64, 256, 512, 1024},
 * 4 sequences per length, 32 rounds, shards=0 (auto: every length
 * job is round-structured and split one shard per worker). Each sweep
 * draws fresh sequences from a seed derived from the workload seed.
 *
 * Why: gate-heavy with only 6 readouts per round, so readout is absent
 * from its profile top; applyDrive/apply1/applyIdle,
 * QControlStore::expand, pipeline dispatch and vector<Instruction>
 * reallocations dominate. It is the only workload on the
 * round-structured, sharded, work-stealing and merge path, and new
 * sequences each sweep mean program-cache misses and assembler work.
 */
class RbSweep final : public Workload
{
  public:
    using Workload::Workload;

    static experiments::RbConfig
    config(std::uint64_t sweepSeed)
    {
        experiments::RbConfig cfg;
        cfg.lengths = {64, 256, 512, 1024};
        cfg.seedsPerLength = 4;
        cfg.rounds = 32;
        cfg.shards = 0;
        cfg.seed = sweepSeed;
        return cfg;
    }

    void
    setup() override
    {
        service = std::make_unique<runtime::ExperimentService>(
            serviceConfig(2));
        backend = std::make_unique<RecordingBackend>(*service, 0, 0, spans);
        backend->captureFirst = config(0).lengths.size();
        // Warm-up: one short sweep on the workload's one config.
        experiments::RbConfig warm = config(seed);
        warm.lengths = {2, 4, 8};
        warm.seedsPerLength = 1;
        warm.rounds = 16;
        (void)experiments::runRb(warm, *service);
    }

    void
    teardown() override
    {
        backend.reset();
        service.reset();
    }

    void
    runUntil(std::uint64_t deadline, bool traced) override
    {
        backend->traced = traced;
        while (nowNanos() < deadline) {
            ScopedSpan sweep(spans, "sweep", 0, sweeps);
            backend->parentSpan = sweep.id();
            backend->request = sweeps;
            experiments::RbResult r = experiments::runRb(
                config(Rng::derive(seed, 0x5b00 + sweeps)), *backend);
            if (!std::isfinite(r.errorPerClifford))
                ++nonFinite;
            for (std::size_t i = 0; i < r.survival.size(); ++i)
                survivalSum.at(i) += r.survival[i];
            ++sweeps;
        }
    }

    std::vector<RecordingBackend *>
    recorders() override
    {
        return {backend.get()};
    }
    std::vector<runtime::ExperimentService *>
    services() override
    {
        return {service.get()};
    }
    unsigned totalWorkers() const override { return 2; }

    /**
     * Every sweep's error per Clifford must be finite, and the fit of
     * the survival pooled over all sweeps must land in the band (one
     * 32-round sweep alone is too noisy to bound).
     */
    void
    physicsGate(Verdict &v) const override
    {
        if (sweeps == 0) {
            v.problems.push_back("rb_sweep: no sweep completed");
            return;
        }
        if (nonFinite) {
            v.problems.push_back("rb_sweep: " + std::to_string(nonFinite) +
                                 " sweep(s) fit a non-finite error per "
                                 "Clifford");
            v.failedJobs += nonFinite * config(0).lengths.size();
        }
        std::vector<double> x, y;
        for (std::size_t i = 0; i < survivalSum.size(); ++i) {
            x.push_back(config(0).lengths[i]);
            y.push_back(survivalSum[i] / static_cast<double>(sweeps));
        }
        double epc = (1.0 - std::exp(-1.0 / expDecayFit(x, y).tau)) / 2.0;
        std::fprintf(stderr,
                     "[e2e] physics: RB error per Clifford %.3e pooled "
                     "over %llu sweeps (band %.0e .. %.0e)\n",
                     epc, static_cast<unsigned long long>(sweeps),
                     kRbEpcMin, kRbEpcMax);
        if (!std::isfinite(epc) || epc < kRbEpcMin || epc > kRbEpcMax) {
            v.problems.push_back("rb_sweep: pooled error per Clifford " +
                                 std::to_string(epc) + " outside the band");
            v.failedJobs += sweeps * config(0).lengths.size();
        }
    }

    ReplayPlan
    replayPlan() const override
    {
        // The first sweep: its longest sequence is the representative
        // job, its programs the assembly sample.
        ReplayPlan p;
        for (const runtime::JobSpec &spec : backend->firstSpecs) {
            p.programs.push_back(spec.assembly);
            if (spec.assembly.size() >= p.spec.assembly.size())
                p.spec = spec;
        }
        if (p.programs.empty())
            throw std::runtime_error("rb_sweep: no sweep ran");
        p.maxRuns = 2;
        p.passes = 3;
        return p;
    }

  private:
    std::unique_ptr<runtime::ExperimentService> service;
    std::unique_ptr<RecordingBackend> backend;
    std::vector<double> survivalSum =
        std::vector<double>(config(0).lengths.size(), 0.0);
    std::size_t nonFinite = 0;
    std::uint64_t sweeps = 0;
};

// --- fleet_serve -------------------------------------------------------

/**
 * fleet_serve: 2 backends (QumaServer over an ExperimentService with
 * 1 worker each) behind a QumaGateway on TCP loopback. Two client
 * connections on two threads each run a closed loop of submit then
 * await, over one-round AllXY jobs of 4 configs.
 *
 * Why: physics is about a third of the ~1 CPU-ms per job, so the rest
 * of each job's time is wire codecs, connection threads, the gateway
 * hop and scheduler queueing (measured on a shared 4-vCPU x86 VM: p50
 * about 0.7-1.0 ms, ~4.5 KB of wire traffic per job). This is the
 * workload on which the serving layers show.
 */
class FleetServe final : public Workload
{
  public:
    static constexpr unsigned kBackends = 2;
    static constexpr unsigned kClients = 2;

    using Workload::Workload;

    void
    setup() override
    {
        templates = allxyTemplates({0.0, 0.01, 0.02, 0.03}, 1);
        const runtime::ServiceConfig sc = serviceConfig(1);
        std::vector<net::GatewayBackend> links;
        for (unsigned b = 0; b < kBackends; ++b) {
            auto be = std::make_unique<Backend>();
            be->service = std::make_unique<runtime::ExperimentService>(sc);
            auto listener = std::make_unique<net::TcpListener>(0);
            std::uint16_t port = listener->port();
            be->server = std::make_unique<net::QumaServer>(
                *be->service, std::move(listener));
            net::GatewayBackend link = net::tcpBackend("127.0.0.1", port);
            link.name = "be-" + std::to_string(b);
            links.push_back(std::move(link));
            fleet.push_back(std::move(be));
        }
        auto listener = std::make_unique<net::TcpListener>(0);
        std::uint16_t port = listener->port();
        gateway = std::make_unique<net::QumaGateway>(std::move(links),
                                                     std::move(listener));
        // Two connections for plain chunks, two with client spans on
        // for traced chunks (client spans cannot be switched off).
        for (unsigned c = 0; c < 2 * kClients; ++c) {
            auto cl = std::make_unique<Client>();
            cl->client = std::make_unique<net::QumaClient>("127.0.0.1",
                                                           port);
            if (c >= kClients)
                cl->client->enableSpans();
            cl->backend = std::make_unique<RecordingBackend>(
                *cl->client, 1, c, spans);
            clients.push_back(std::move(cl));
        }
        // Warm-up: one job per distinct machine config, one at a time.
        for (const SpecPtr &t : templates)
            clients[0]->client->runSync(seeded(*t, seed));
    }

    void
    teardown() override
    {
        clients.clear();
        if (gateway)
            gateway->stop();
        gateway.reset();
        for (auto &be : fleet)
            be->server->stop();
        fleet.clear();
    }

    void
    runUntil(std::uint64_t deadline, bool traced) override
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            unsigned lane = traced ? kClients + c : c;
            Client &cl = *clients[lane];
            threads.emplace_back([this, &cl, lane, deadline, traced] {
                RecordingBackend &b = *cl.backend;
                b.traced = traced;
                while (nowNanos() < deadline) {
                    std::uint64_t n = cl.jobs++;
                    std::uint64_t request =
                        (std::uint64_t{lane} << 32) | n;
                    ScopedSpan job(spans, "job", 0, request);
                    b.parentSpan = job.id();
                    b.request = request;
                    std::size_t t = n % templates.size();
                    runtime::JobResult r = b.await(b.submitStamped(
                        templates[t], Rng::derive(seed, request)));
                    if (t == 0) // the zero-error config
                        cl.zeroError.add(r);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    std::vector<RecordingBackend *>
    recorders() override
    {
        std::vector<RecordingBackend *> out;
        for (auto &cl : clients)
            out.push_back(cl->backend.get());
        return out;
    }
    std::vector<runtime::ExperimentService *>
    services() override
    {
        std::vector<runtime::ExperimentService *> out;
        for (auto &be : fleet)
            out.push_back(be->service.get());
        return out;
    }
    unsigned totalWorkers() const override { return kBackends; }

    void
    physicsGate(Verdict &v) const override
    {
        StaircaseSum all;
        for (const auto &cl : clients)
            all.merge(cl->zeroError);
        allxyGate(all, v, "fleet_serve");
    }

    ReplayPlan
    replayPlan() const override
    {
        ReplayPlan p;
        p.spec = seeded(*templates[0], Rng::derive(seed, 0x7e91));
        p.programRounds = 1;
        p.programs = {p.spec.assembly};
        p.maxRuns = 1;
        p.passes = 15;
        return p;
    }

    void
    beginTracedChunk() override
    {
        chunkStart = snapshot();
    }
    void
    endTracedChunk() override
    {
        Snapshot now = snapshot();
        wireBytes += now.wireBytes - chunkStart.wireBytes;
        frames += now.frames - chunkStart.frames;
        for (std::size_t b = 0; b < routed.size(); ++b)
            routed[b] += now.routed[b] - chunkStart.routed[b];
    }

    std::optional<WireMetrics>
    wireMetrics(std::size_t tracedJobs) override
    {
        WireMetrics m;
        double jobs =
            static_cast<double>(std::max<std::size_t>(tracedJobs, 1));
        m.bytesPerJob = wireBytes / jobs;
        m.framesPerJob = frames / jobs;
        double total = 0, top = 0;
        for (double r : routed) {
            total += r;
            top = std::max(top, r);
        }
        m.maxBackendShare = total > 0 ? top / total : 0.0;
        // Submit -> SubmitReply as the client's own spans saw it.
        std::vector<double> ack;
        for (unsigned c = kClients; c < 2 * kClients; ++c)
            for (const auto &s : clients[c]->client->spans())
                if (s.ackNanos > s.submitNanos)
                    ack.push_back(msBetween(s.submitNanos, s.ackNanos));
        m.submitAckMsP50 = ack.empty() ? 0.0 : percentile(ack, 0.5);
        return m;
    }

  private:
    struct Backend
    {
        std::unique_ptr<runtime::ExperimentService> service;
        std::unique_ptr<net::QumaServer> server;
    };
    struct Client
    {
        std::unique_ptr<net::QumaClient> client;
        std::unique_ptr<RecordingBackend> backend;
        std::uint64_t jobs = 0;
        StaircaseSum zeroError;
    };
    struct Snapshot
    {
        double wireBytes = 0;
        double frames = 0;
        std::vector<double> routed;
    };

    Snapshot
    snapshot() const
    {
        Snapshot s;
        for (unsigned c = kClients; c < 2 * kClients; ++c) {
            core::LinkStats ls = clients[c]->client->linkStats();
            s.wireBytes += static_cast<double>(ls.bytesUp + ls.bytesDown);
        }
        net::QumaGateway::Stats gs = gateway->stats();
        s.frames = static_cast<double>(gs.requestsForwarded +
                                       gs.resultsForwarded +
                                       gs.progressForwarded);
        for (const auto &b : gs.backends)
            s.routed.push_back(static_cast<double>(b.jobsRouted));
        return s;
    }

    std::vector<SpecPtr> templates;
    std::vector<std::unique_ptr<Backend>> fleet;
    std::unique_ptr<net::QumaGateway> gateway;
    std::vector<std::unique_ptr<Client>> clients;
    Snapshot chunkStart;
    double wireBytes = 0, frames = 0;
    std::vector<double> routed = std::vector<double>(kBackends, 0.0);
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, SpanRecorder &spans)
{
    if (name == "allxy_batch")
        return std::make_unique<AllxyBatch>(spans);
    if (name == "rb_sweep")
        return std::make_unique<RbSweep>(spans);
    if (name == "fleet_serve")
        return std::make_unique<FleetServe>(spans);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- the output check --------------------------------------------------

/**
 * Re-run every kept spec on in-process 1-worker services and compare
 * the results bit for bit (by digest). Two such services run side by
 * side, each on every other record, to halve the wall time. Returns
 * how many jobs were compared.
 */
std::size_t
referenceCheck(const std::vector<JobRecord> &records, Verdict &v)
{
    std::vector<const JobRecord *> kept;
    for (const JobRecord &r : records)
        if (r.base)
            kept.push_back(&r);
    constexpr std::size_t kLanes = 2, kBatch = 32;
    std::vector<std::size_t> mismatch(kLanes, 0);
    std::vector<std::thread> lanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        lanes.emplace_back([&, lane] {
            runtime::ServiceConfig sc;
            sc.workers = 1;
            sc.queueCapacity = 2 * kBatch;
            runtime::ExperimentService ref(sc);
            // Pipelined in bounded batches so the queue never blocks.
            for (std::size_t base = lane; base < kept.size();
                 base += kLanes * kBatch) {
                std::vector<const JobRecord *> batch;
                std::vector<runtime::JobId> ids;
                for (std::size_t i = base;
                     i < kept.size() && batch.size() < kBatch;
                     i += kLanes) {
                    batch.push_back(kept[i]);
                    ids.push_back(ref.submit(kept[i]->spec()));
                }
                std::vector<runtime::JobResult> got = ref.awaitAll(ids);
                for (std::size_t k = 0; k < batch.size(); ++k)
                    if (digestOf(got[k]) != batch[k]->digest)
                        ++mismatch[lane];
            }
        });
    }
    for (std::thread &t : lanes)
        t.join();
    std::size_t bad = 0;
    for (std::size_t m : mismatch)
        bad += m;
    if (bad) {
        v.failedJobs += bad;
        v.problems.push_back(std::to_string(bad) +
                             " result(s) differ from the 1-worker "
                             "in-process reference");
    }
    return kept.size();
}

/** Digest of the first kDigestJobs jobs in submission order. */
std::string
resultDigest(std::vector<JobRecord> &records, std::size_t &covered)
{
    std::sort(records.begin(), records.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.key < b.key;
              });
    Digest d;
    covered = std::min(records.size(), kDigestJobs);
    for (std::size_t i = 0; i < covered; ++i)
        d.addU64(records[i].digest);
    return d.hex();
}

// --- per-layer analysis of the traced chunks ---------------------------

struct JobTimes
{
    std::uint64_t submitted = 0, queued = 0, leased = 0, finished = 0,
                  pushed = 0, lastShardFinish = 0;
    std::map<std::uint32_t, std::uint64_t> shardStart;
    std::uint64_t busy = 0;
};

/** Per-job lifecycle timestamps from one service's trace recorder. */
std::unordered_map<runtime::JobId, JobTimes>
jobTimes(const std::vector<runtime::TraceEvent> &events)
{
    using runtime::TracePhase;
    std::unordered_map<runtime::JobId, JobTimes> out;
    for (const runtime::TraceEvent &e : events) {
        JobTimes &j = out[e.job];
        switch (e.phase) {
          case TracePhase::Submitted: j.submitted = e.nanos; break;
          case TracePhase::Queued: j.queued = e.nanos; break;
          case TracePhase::Leased:
            if (!j.leased)
                j.leased = e.nanos;
            break;
          case TracePhase::ShardStart:
            j.shardStart[e.shard] = e.nanos;
            break;
          case TracePhase::ShardFinish:
            if (auto it = j.shardStart.find(e.shard);
                it != j.shardStart.end()) {
                j.busy += e.nanos - it->second;
                j.shardStart.erase(it);
            }
            j.lastShardFinish = std::max(j.lastShardFinish, e.nanos);
            break;
          case TracePhase::Finished: j.finished = e.nanos; break;
          case TracePhase::ResultPushed: j.pushed = e.nanos; break;
          default: break;
        }
    }
    return out;
}

/**
 * wire.hh encode + decode time of the sampled jobs' specs and
 * results (microseconds per job); `bytes` gets their encoded size.
 */
double
codecUsPerJob(const std::vector<JobRecord> &records, double &bytes)
{
    std::vector<std::pair<runtime::JobSpec, const runtime::JobResult *>>
        jobs;
    for (const JobRecord &r : records)
        if (r.sample && r.base)
            jobs.emplace_back(r.spec(), r.sample.get());
    bytes = 0;
    if (jobs.empty())
        return 0.0;
    std::vector<double> us;
    std::size_t total = 0;
    for (int pass = 0; pass < 5; ++pass) {
        total = 0;
        std::uint64_t t0 = nowNanos();
        for (const auto &[spec, result] : jobs) {
            net::Writer ws;
            net::encodeJobSpec(ws, spec);
            net::Reader rs(ws.bytes());
            runtime::JobSpec back = net::decodeJobSpec(rs);
            net::Writer wr;
            net::encodeJobResult(wr, *result);
            net::Reader rr(wr.bytes());
            runtime::JobResult got = net::decodeJobResult(rr);
            total += ws.bytes().size() + wr.bytes().size();
            if (back.assembly != spec.assembly || !(got == *result))
                throw std::runtime_error(
                    "wire codec round trip changed a job");
        }
        us.push_back(static_cast<double>(nowNanos() - t0) / 1e3 /
                     static_cast<double>(jobs.size()));
    }
    bytes = static_cast<double>(total) / static_cast<double>(jobs.size());
    return percentile(us, 0.5);
}

/** What the measured window produced. */
struct Window
{
    double wallS[2] = {0, 0};
    double cpuS[2] = {0, 0};
    RuntimeCounters counters;
    std::vector<std::unordered_map<runtime::JobId, JobTimes>> svcTimes;
};

/** The per-layer metrics of a traced run (see README.md). */
std::vector<Metric>
layerMetrics(Workload &w, const Window &win, const Recorded &rec,
             SpanRecorder &spans, Verdict &verdict)
{
    const std::size_t tracedJobs = rec.latencyMs[1].size();
    if (tracedJobs == 0)
        throw std::runtime_error("no job completed in a traced chunk");

    // runtime: scheduler lifecycle of the traced jobs.
    std::vector<double> queueWait, serviceMs;
    double busyNs = 0, mergeUs = 0, merged = 0;
    for (const auto &times : win.svcTimes) {
        for (const auto &[id, j] : times) {
            busyNs += static_cast<double>(j.busy);
            if (!j.submitted || !j.finished)
                continue; // straddled a chunk edge
            if (j.leased && j.queued)
                queueWait.push_back(msBetween(j.queued, j.leased));
            if (j.lastShardFinish) {
                mergeUs +=
                    static_cast<double>(j.finished - j.lastShardFinish) /
                    1e3;
                merged += 1;
            }
            std::uint64_t end = j.pushed ? j.pushed : j.finished;
            serviceMs.push_back(msBetween(j.submitted, end));
        }
    }
    const RuntimeCounters &c = win.counters;
    double tracedRounds = rec.rounds[1];
    LatencySummary lat = summarize(rec.latencyMs[1]);
    LatencySummary qw = summarize(queueWait);

    // net: wire size and codec cost; the wire hop where there is one,
    // the in-process await hand-off where there is not.
    double encodedBytes = 0;
    double codecUs = codecUsPerJob(rec.records, encodedBytes);
    WireMetrics wire;
    if (auto m = w.wireMetrics(tracedJobs)) {
        wire = *m;
    } else {
        wire.bytesPerJob = encodedBytes;
        wire.submitAckMsP50 = percentile(rec.tracedAckMs, 0.5);
    }
    double hopP50 =
        lat.p50 - (serviceMs.empty() ? 0.0 : percentile(serviceMs, 0.5));

    // The layer split inside QumaMachine::run.
    LayerSplit split;
    {
        spans.setEnabled(true);
        ScopedSpan rs(spans, "replay");
        ReplayPlan plan = w.replayPlan();
        split = replayLayers(plan.spec, plan.programRounds, plan.programs,
                             plan.maxRuns, plan.passes);
        spans.setEnabled(false);
    }
    for (const std::string &p : split.problems)
        verdict.problems.push_back("layer replay: " + p);

    double run = std::max(split.runMsPerRound, 1e-12);
    double readoutShare =
        (split.readoutUsPerRound + split.integrateUsPerRound) / 1e3 / run;
    std::printf("layer split of QumaMachine::run, %.3f ms/round: "
                "readout+MDU %.1f%%, drive %.1f%%, microcode %.1f%%, "
                "quma self %.1f%%\n",
                split.runMsPerRound, 100 * readoutShare,
                100 * split.driveUsPerRound / 1e3 / run,
                100 * split.expandUsPerRound / 1e3 / run,
                100 * split.selfMsPerRound() / run);
    {
        const std::pair<const char *, double> shares[] = {
            {"readout+MDU", readoutShare},
            {"drive", split.driveUsPerRound / 1e3 / run},
            {"microcode", split.expandUsPerRound / 1e3 / run},
            {"quma self", split.selfMsPerRound() / run},
        };
        const auto *top = &shares[0];
        for (const auto &sh : shares)
            if (sh.second > top->second)
                top = &sh;
        std::printf("largest share of QumaMachine::run: %s\n", top->first);
    }
    std::printf("job latency (traced chunks): p50 %.3f ms, p99 %.3f ms "
                "over %zu samples; queue wait over %zu samples\n",
                lat.p50, lat.p99, lat.samples, qw.samples);

    double cpuOff = win.cpuS[0] * 1e3 / std::max(rec.rounds[0], 1.0);
    double cpuOn = win.cpuS[1] * 1e3 / std::max(tracedRounds, 1.0);
    double completed = std::max(c.completed, 1.0);
    double workers = static_cast<double>(w.totalWorkers());
    return {
        {"qsim.readout_us_per_round", "us", split.readoutUsPerRound},
        {"qsim.drive_us_per_round", "us", split.driveUsPerRound},
        {"qsim.readouts_per_round", "count", split.readoutsPerRound},
        {"qsim.drives_per_round", "count", split.drivesPerRound},
        {"qsim.gaussian_draws_per_readout", "count",
         split.gaussianDrawsPerReadout},
        {"measure.integrate_us_per_round", "us", split.integrateUsPerRound},
        {"microcode.expand_us_per_round", "us", split.expandUsPerRound},
        {"microcode.expansions_per_round", "count",
         split.expansionsPerRound},
        {"quma.run_ms_per_round", "ms", split.runMsPerRound},
        {"quma.self_ms_per_round", "ms", split.selfMsPerRound()},
        {"quma.events_per_round", "count", split.eventsPerRound},
        {"quma.host_ns_per_event", "ns", split.hostNsPerEvent},
        {"quma.sim_cycles_per_round", "cycles", split.simCyclesPerRound},
        {"quma.reset_load_us_per_round", "us", split.resetLoadUsPerRound},
        {"quma.readout_share", "ratio", readoutShare},
        {"isa.assemble_ms_per_program", "ms", split.assembleMsPerProgram},
        {"awg.lut_render_ms", "ms", split.lutRenderMs},
        {"runtime.cache.program_hit_ratio", "ratio",
         c.programHits / std::max(c.programHits + c.programMisses, 1.0)},
        {"runtime.scheduler.shards_per_job", "count",
         c.shardsExecuted / completed},
        {"runtime.scheduler.rounds_stolen_frac", "ratio",
         c.roundsStolen / std::max(tracedRounds, 1.0)},
        {"runtime.scheduler.merge_us_per_job", "us",
         merged ? mergeUs / merged : 0.0},
        {"runtime.scheduler.queue_wait_ms_p50", "ms", qw.p50},
        {"runtime.scheduler.queue_wait_ms_p99", "ms", qw.p99},
        {"runtime.scheduler.worker_busy_frac", "ratio",
         busyNs / 1e9 / std::max(win.wallS[1] * workers, 1e-9)},
        {"runtime.pool.reuse_ratio", "ratio",
         c.reuseHits / std::max(c.acquisitions, 1.0)},
        {"runtime.pool.machine_build_ms", "ms", split.machineBuildMs},
        {"net.wire_bytes_per_job", "bytes", wire.bytesPerJob},
        {"net.codec_us_per_job", "us", codecUs},
        {"net.submit_ack_ms_p50", "ms", wire.submitAckMsP50},
        {"net.hop_ms_p50", "ms", hopP50},
        {"net.gateway.frames_per_job", "count", wire.framesPerJob},
        {"net.gateway.max_backend_share", "ratio", wire.maxBackendShare},
        {"trace.cpu_ms_per_round_off", "ms", cpuOff},
        {"trace.cpu_ms_per_round_on", "ms", cpuOn},
        {"trace.overhead_frac", "ratio", cpuOn / cpuOff - 1.0},
        {"trace.job_latency_p50_ms", "ms", lat.p50},
        {"trace.job_latency_p99_ms", "ms", lat.p99},
        {"trace.job_latency_samples", "count",
         static_cast<double>(lat.samples)},
        {"trace.queue_wait_samples", "count",
         static_cast<double>(qw.samples)},
    };
}

/** Spans and the layer table go to disk only now, at the end. */
void
writeTraceFiles(const Options &opt, Workload &w, const SpanRecorder &spans,
                const Outcome &out)
{
    std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                       std::to_string(opt.seed);
    std::string chrome = "{\"traceEvents\":[\n" + spans.chromeEvents(1);
    auto svcs = w.services();
    for (std::size_t i = 0; i < svcs.size(); ++i) {
        std::string body = runtime::renderChromeEvents(
            svcs[i]->trace().events(), {}, 0, static_cast<int>(2 + i));
        if (!body.empty())
            chrome += ",\n" + body;
    }
    chrome += "\n]}\n";
    writeFile(stem + ".trace.json", chrome);
    std::string layers = "{\"workload\": \"" + opt.workload +
                         "\", \"seed\": " + std::to_string(opt.seed) +
                         ", \"span_self_ns\": {";
    bool first = true;
    for (const auto &[name, ns] : spans.selfNanosByName()) {
        layers += (first ? "\"" : ", \"") + jsonEscape(name) +
                  "\": " + std::to_string(ns);
        first = false;
    }
    layers += "}, \"result\": " +
              resultJson(out.correct, out.attempted, out.failed,
                         out.metrics) +
              "}\n";
    writeFile(stem + ".layers.json", layers);
    std::fprintf(stderr, "[e2e] wrote %s.{trace,layers}.json\n",
                 stem.c_str());
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"allxy_batch", "rb_sweep",
                                                "fleet_serve"};
    return names;
}

Outcome
runBenchmark(const Options &opt)
{
    SpanRecorder spans;
    std::unique_ptr<Workload> w = makeWorkload(opt.workload, spans);
    w->seed = opt.seed;

    // --- set-up, several times; the last one stays up ---------------
    std::vector<double> setupS;
    for (int i = 0; i < kSetupRepeats; ++i) {
        std::uint64_t t0 = nowNanos();
        w->setup();
        setupS.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
        if (i + 1 < kSetupRepeats)
            w->teardown();
    }

    // --- the measured window -----------------------------------------
    // Traced runs alternate plain and traced chunks, so the tracing
    // overhead is measured without run-order bias.
    const unsigned chunks = opt.trace ? 4 : kSlices;
    const auto chunkNanos =
        static_cast<std::uint64_t>(opt.seconds * 1e9 / chunks);
    auto roundsDone = [&w] {
        double n = 0;
        for (RecordingBackend *r : w->recorders())
            n += r->rounds[0] + r->rounds[1];
        return n;
    };
    auto latenciesSince = [&w](std::vector<std::size_t> &from) {
        std::vector<double> out;
        auto recs = w->recorders();
        from.resize(recs.size(), 0);
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const std::vector<double> &v = recs[i]->latencyMs[0];
            out.insert(out.end(), v.begin() + from[i], v.end());
            from[i] = v.size();
        }
        return out;
    };
    Window win;
    std::vector<double> sliceRate, sliceCpuMs, sliceP50, sliceP90;
    std::vector<std::size_t> latencyMark;
    // Chunk deadlines are fixed up front: a chunk that overran (it
    // completes its wave) shortens the next, not the window.
    const std::uint64_t windowStart = nowNanos();
    for (unsigned c = 0; c < chunks; ++c) {
        const bool traced = opt.trace && (c % 2 == 1);
        std::vector<RuntimeCounters> before;
        if (traced) {
            spans.setEnabled(true);
            for (auto *s : w->services()) {
                before.push_back(RuntimeCounters::of(s->stats()));
                s->trace().enable();
            }
            w->beginTracedChunk();
        }
        std::uint64_t t0 = nowNanos();
        double cpu0 = processCpuSeconds();
        double rounds0 = roundsDone();
        w->runUntil(windowStart + (c + 1) * chunkNanos, traced);
        double cpu = processCpuSeconds() - cpu0;
        double wall = static_cast<double>(nowNanos() - t0) / 1e9;
        double rounds = roundsDone() - rounds0;
        win.cpuS[traced] += cpu;
        win.wallS[traced] += wall;
        std::vector<double> lat = latenciesSince(latencyMark);
        if (!traced && rounds > 0 && !lat.empty()) {
            sliceRate.push_back(rounds / wall);
            sliceCpuMs.push_back(cpu * 1e3 / rounds);
            sliceP50.push_back(percentile(lat, 0.50));
            sliceP90.push_back(percentile(lat, 0.90));
        }
        if (traced) {
            spans.setEnabled(false);
            w->endTracedChunk();
            auto svcs = w->services();
            for (std::size_t i = 0; i < svcs.size(); ++i) {
                svcs[i]->trace().disable();
                win.counters.add(RuntimeCounters::of(svcs[i]->stats()),
                                 before[i]);
            }
        }
    }
    const double peakRss = peakRssMb();
    Recorded rec;
    for (RecordingBackend *r : w->recorders())
        rec.add(*r);
    for (auto *s : w->services())
        win.svcTimes.push_back(jobTimes(s->trace().events()));

    // --- the output check -------------------------------------------
    Verdict verdict;
    std::uint64_t checkStart = nowNanos();
    std::size_t compared = referenceCheck(rec.records, verdict);
    std::fprintf(stderr,
                 "[e2e] set-up %.3f s (median of %d), window %.2f s, "
                 "reference check of %zu jobs %.2f s\n",
                 percentile(setupS, 0.5), kSetupRepeats,
                 win.wallS[0] + win.wallS[1], compared,
                 static_cast<double>(nowNanos() - checkStart) / 1e9);
    verdict.failedJobs += rec.failedJobs;
    if (rec.completed == 0)
        verdict.problems.push_back("no job completed in the window");
    w->physicsGate(verdict);
    const std::size_t attempted = rec.completed + rec.refused;
    const std::size_t failed =
        std::min(attempted, verdict.failedJobs + rec.refused);

    std::size_t covered = 0;
    std::string digest = resultDigest(rec.records, covered);
    std::printf("workload %s seed %llu: %zu jobs, %zu compared bit for "
                "bit with a 1-worker run; digest of the first %zu by "
                "submission %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), rec.completed,
                compared, covered, digest.c_str());
    std::printf("failed_frac %.6f (%zu of %zu)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 1.0,
                failed, attempted);

    Outcome out;
    out.attempted = std::max<std::size_t>(attempted, 1);
    out.failed = attempted ? failed : 1;
    if (!opt.trace && !sliceRate.empty()) {
        auto show = [](const char *what, const std::vector<double> &v) {
            std::fprintf(stderr, "[e2e] %s by slice:", what);
            for (double x : v)
                std::fprintf(stderr, " %.4g", x);
            std::fprintf(stderr, "\n");
        };
        show("rounds/s", sliceRate);
        show("cpu ms/round", sliceCpuMs);
        show("latency p50 ms", sliceP50);
        show("latency p90 ms", sliceP90);
        LatencySummary lat = summarize(rec.latencyMs[0]);
        std::printf("whole window: %.1f rounds/s, %.4f CPU-ms/round, job "
                    "latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over "
                    "%zu samples (%zu beyond p99)\n",
                    rec.rounds[0] / win.wallS[0],
                    win.cpuS[0] * 1e3 / rec.rounds[0], lat.p50,
                    percentile(rec.latencyMs[0], 0.90), lat.p99,
                    lat.samples, lat.beyondP99);
        out.metrics = {
            {"rounds_per_s", "1/s", percentile(sliceRate, 0.5)},
            {"cpu_ms_per_round", "ms", percentile(sliceCpuMs, 0.5)},
            {"job_latency_p50_ms", "ms", percentile(sliceP50, 0.5)},
            {"job_latency_p90_ms", "ms", percentile(sliceP90, 0.5)},
            {"setup_s", "s", percentile(setupS, 0.5)},
            {"peak_rss_mb", "MiB", peakRss},
        };
    } else if (opt.trace && rec.completed > 0) {
        out.metrics = layerMetrics(*w, win, rec, spans, verdict);
    }
    out.correct =
        verdict.problems.empty() && attempted > 0 && !out.metrics.empty();
    if (opt.trace && !out.metrics.empty())
        writeTraceFiles(opt, *w, spans, out);

    w->teardown();
    for (const std::string &p : verdict.problems)
        std::fprintf(stderr, "[e2e] CHECK FAILED: %s\n", p.c_str());
    return out;
}

} // namespace e2e
