/**
 * @file
 * ExperimentService: the facade of the concurrent experiment runtime.
 *
 * Owns the three layers -- ProgramCache (compilation/calibration
 * memoization), MachinePool (sharded reusable machines), JobScheduler
 * (bounded queue + workers) -- wired together, and exposes the small
 * submit / poll / await surface experiments and services program
 * against:
 *
 *     runtime::ExperimentService svc({.workers = 4});
 *     auto id = svc.submit({.assembly = src, .bins = 42, .seed = s});
 *     runtime::JobResult r = svc.await(id);
 */

#ifndef QUMA_RUNTIME_SERVICE_HH
#define QUMA_RUNTIME_SERVICE_HH

#include <memory>
#include <vector>

#include "common/metrics.hh"
#include "runtime/backend.hh"
#include "runtime/journal.hh"
#include "runtime/machine_pool.hh"
#include "runtime/program_cache.hh"
#include "runtime/scheduler.hh"
#include "runtime/trace.hh"

namespace quma::runtime {

struct ServiceConfig
{
    unsigned workers = 2;
    std::size_t queueCapacity = 256;
    /** Pool capacity; 0 = workers + 2 (one spare per config flip). */
    std::size_t poolCapacity = 0;
    std::size_t cachedPrograms = 256;
    std::size_t cachedLuts = 64;
    bool startPaused = false;
    std::size_t leaseBatchLimit = 8;
    std::size_t maxRetainedResults = 65536;
    /** Priority aging: one class step per this many newer
     *  submissions (0 = pure class order, no aging). */
    std::size_t agingQuantum = 64;
    /** Machine-stats-driven admission control for trySubmit (see
     *  SchedulerConfig for the saturation knobs). */
    bool adaptiveAdmission = true;
    double saturationThreshold = 0.5;
    double congestedQueueFraction = 0.25;
    double saturationAlpha = 0.25;
    /** Pool-wait admission signal (see SchedulerConfig). */
    double poolWaitThresholdSeconds = 0.02;
    double poolWaitAlpha = 0.25;
    /** Per-job progress-notification rate limit (see
     *  SchedulerConfig::progressInterval; 0 = every round). */
    std::chrono::milliseconds progressInterval{50};
    /** Completion-order ring kept by finishedIds(). */
    std::size_t finishedHistoryLimit = 1024;
    /** Job-lifecycle trace buffer bound (events, not jobs). */
    std::size_t traceCapacity = 1 << 16;
    /**
     * Write-ahead job journal file ("" = durability off). On
     * construction the service first RECOVERS the journal at this
     * path -- every submitted-but-never-completed job found there is
     * re-submitted (fresh ids; see recoveredIds()) -- and then
     * journals every accepted submission and completion, so queued
     * work survives a process crash. See docs/durability.md.
     */
    std::string journalPath = {};
    /** Journal durability/latency trade-off (see FsyncPolicy). */
    FsyncPolicy journalFsync = FsyncPolicy::Batch;
    /**
     * Recovery-time journal compaction trigger: when at least this
     * many RETIRED records (completions, cancellations, and the
     * submissions they closed -- everything but the live suffix)
     * are found, the journal is rewritten to just its pending jobs
     * before reopening (compactJournal). 0 disables compaction.
     */
    std::size_t journalCompactMinRetired = 1024;
    /**
     * Stable identity of this service instance in a fleet ("" =
     * anonymous). The gateway's per-backend metrics and the
     * /healthz//statusz pages surface it, so an operator can tell
     * WHICH backend a fleet-level symptom points at.
     */
    std::string instanceName = {};
};

/** One-call snapshot across all three runtime layers. */
struct ServiceStats
{
    JobScheduler::Stats scheduler;
    MachinePool::Stats pool;
    ProgramCache::Stats cache;
    std::size_t effectiveQueueCapacity = 0;
};

/**
 * The in-process IExperimentBackend: jobs run on this address
 * space's machine pool. net::QumaClient is the remote counterpart,
 * and experiment fan-outs accept either through the interface.
 */
class ExperimentService : public IExperimentBackend
{
  public:
    explicit ExperimentService(ServiceConfig config = {});
    /** Closes the journal FIRST (see JobJournal::close), so jobs the
     *  scheduler fails at shutdown stay pending on disk. */
    ~ExperimentService() override;

    JobId submit(JobSpec spec) override;
    std::optional<JobId> trySubmit(JobSpec spec) override;
    /**
     * JobScheduler::submitFor with journaling: the serving layer's
     * interruptible submit must journal exactly like submit() does,
     * or remote work would not survive a crash.
     */
    std::optional<JobId> submitFor(const JobSpec &spec,
                                   std::chrono::milliseconds timeout);

    JobStatus
    status(JobId id) const override
    {
        return sched.status(id);
    }
    std::optional<JobResult>
    poll(JobId id) const override
    {
        return sched.poll(id);
    }
    JobResult await(JobId id) override { return sched.await(id); }

    /** Await many jobs, results in argument order. */
    std::vector<JobResult>
    awaitAll(const std::vector<JobId> &ids) override;

    void start() { sched.start(); }
    void drain() { sched.drain(); }

    ProgramCache &cache() { return cacheStore; }
    MachinePool &pool() { return poolStore; }
    JobScheduler &scheduler() { return sched; }

    /**
     * Job-lifecycle trace recorder wired into the scheduler. Off by
     * default; trace().enable() starts capturing.
     */
    JobTraceRecorder &trace() { return traceStore; }
    const JobTraceRecorder &trace() const { return traceStore; }

    /** The write-ahead journal; null when journalPath was "". */
    JobJournal *journal() { return journalStore.get(); }
    /** What construction-time recovery found in the journal. */
    const RecoveryReport &recovery() const { return recoveryReport; }
    /** What recovery-time compaction did (performed=false when the
     *  retired-record count was under the trigger). */
    const CompactionReport &compaction() const
    {
        return compactionReport;
    }
    /** ServiceConfig::instanceName ("" = anonymous). */
    const std::string &instanceName() const
    {
        return instanceNameStore;
    }
    /**
     * Fresh ids of the jobs recovery re-submitted, in original
     * submission order (await these to finish the crashed queue).
     */
    const std::vector<JobId> &recoveredIds() const
    {
        return recoveredIdsStore;
    }

    /** Snapshot of all three layers (what StatsFrame serializes). */
    ServiceStats stats() const;

    /**
     * Register every layer's series with `registry`. The service
     * must outlive the registry's last render: gauge callbacks read
     * live component state.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    /** Journal the job's eventual completion (no-op without a
     *  journal). Registered AFTER the Submitted append, so the
     *  single-writer queue keeps the record order causal. */
    void subscribeJournal(JobId id);

    ProgramCache cacheStore;
    MachinePool poolStore;
    /** Before sched: SchedulerConfig::trace points here. */
    JobTraceRecorder traceStore;
    /** Recovery runs before the journal reopens for appending (both
     *  before sched: the ctor body re-submits into a live queue). */
    RecoveryReport recoveryReport;
    /** Compaction (if triggered) rewrites the file between recovery
     *  and the reopen below -- declaration order is the sequencing. */
    CompactionReport compactionReport;
    std::unique_ptr<JobJournal> journalStore;
    JobScheduler sched;
    std::vector<JobId> recoveredIdsStore;
    std::string instanceNameStore;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_SERVICE_HH
