/**
 * @file
 * The job scheduler: a prioritised task queue drained by worker
 * threads, with shot-level sharding and stats-driven admission.
 *
 * SCHEDULING. Each queued task carries its job's priority class and
 * submission sequence number. Workers always pop the task with the
 * highest EFFECTIVE priority -- the class plus one step per
 * `agingQuantum` newer submissions the task has waited through --
 * breaking ties oldest-first. High jobs therefore overtake a backlog
 * of Normal/Batch work, while aging guarantees the backlog is never
 * starved by a continuous stream of fresh High jobs.
 *
 * ONE TASK PATH. Every job is a set of contiguous round ranges, one
 * task per range, and every task runs the same round loop, partial
 * and merge. A round-structured job is split by partitionRounds()
 * into shards that run in parallel on pooled machines, each shard's
 * whole range on the worker that dequeued it; the worker finishing
 * the last shard merges the per-round collector sums in global round
 * order. An opaque job (JobSpec::rounds == 0) is the single range
 * {0, 1}: its one "round" is the whole program on the job-level RNG
 * streams. What a round computes differs between the two kinds only
 * in its stream selection (runtime/keys.hh); per-round streams plus
 * the order-preserving merge make the merged result bit-identical
 * for every shard count and worker count.
 *
 * BATCHING. After a task, while the worker still holds its machine
 * lease, it runs the next BEST task immediately if that task needs
 * the same machine configuration -- the common case when a sweep (or
 * a sharded job) fans out into many same-shaped tasks.
 *
 * NOTIFICATION. subscribe(id, cb) registers a one-shot completion
 * callback, delivered by a dedicated notifier thread in completion
 * order, outside the scheduler mutex. This is the push primitive the
 * network serving layer streams results with: a finished job's
 * JobResult frame leaves the server the moment the merge completes,
 * with no awaitFor polling loop holding a thread per pending job.
 *
 * ADMISSION. Executed jobs sample QumaMachine::stats(): a run whose
 * timing event queues rejected a push (producer backpressure; deep
 * queues alone are healthy) or silently dropped stale events counts
 * as saturated, and an EWMA of that
 * signal drives trySubmit's effective queue bound. While the machines report saturation the scheduler
 * stops accepting work it could only queue (adding depth would add
 * latency, not throughput); the configured queueCapacity remains the
 * hard ceiling, and blocking submit() always uses it.
 */

#ifndef QUMA_RUNTIME_SCHEDULER_HH
#define QUMA_RUNTIME_SCHEDULER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "runtime/job.hh"
#include "runtime/machine_pool.hh"
#include "runtime/program_cache.hh"
#include "runtime/trace.hh"

namespace quma::runtime {

/**
 * JobResult::error of a job cancelled while still queued. A named
 * constant because the journal layer (runtime/journal.hh) keys off
 * it: cancellations journal as Cancelled (must NOT be recovered).
 */
inline constexpr const char *kCancelledJobError =
    "cancelled before execution";
/**
 * JobResult::error of a queued job failed by scheduler shutdown. The
 * journal layer treats completions carrying this error as NOT
 * completed -- the work never ran, and recovery must bring it back.
 */
inline constexpr const char *kShutdownJobError =
    "scheduler shut down before the job ran";

struct SchedulerConfig
{
    unsigned workers = 2;
    /**
     * Hard queue bound, counted in TASKS (an S-way sharded job holds
     * S slots). submit blocks at the bound (a multi-shard job may
     * transiently overshoot it by shards-1 slots so its shards enter
     * atomically); trySubmit rejects at the stats-driven effective
     * bound, which never exceeds this.
     */
    std::size_t queueCapacity = 64;
    /**
     * Do not spawn workers yet; start() does. Lets tests (and staged
     * deployments) fill the bounded queue before draining begins.
     */
    bool startPaused = false;
    /** Max same-config tasks executed on one pool lease. */
    std::size_t leaseBatchLimit = 8;
    /**
     * Finished JobResults retained for poll/await. When exceeded the
     * oldest finished results age out and their ids report unknown.
     */
    std::size_t maxRetainedResults = 65536;
    /**
     * Aging: a waiting task gains one priority step per this many
     * newer submissions (0 disables aging). Keeps low classes from
     * starving under a continuous high-priority stream; large enough
     * by default that a burst-submitted backlog does not immediately
     * tie with fresh High work.
     */
    std::size_t agingQuantum = 64;
    /** Enable machine-stats-driven admission for trySubmit. */
    bool adaptiveAdmission = true;
    /** Saturation EWMA above this tightens the effective bound. */
    double saturationThreshold = 0.5;
    /** Effective bound while congested, as a queueCapacity fraction
     *  (floored at the worker count). */
    double congestedQueueFraction = 0.25;
    /** EWMA smoothing of the per-run saturation samples. */
    double saturationAlpha = 0.25;
    /**
     * Second admission signal: workers sample how long each pool
     * acquisition blocked waiting for a machine, and an EWMA of those
     * waits above this threshold (seconds) tightens trySubmit's
     * effective bound exactly like queue saturation does. Jobs
     * waiting on machines mean pool capacity -- not queue depth -- is
     * the bottleneck, so adding depth would add latency only.
     */
    double poolWaitThresholdSeconds = 0.02;
    /** EWMA smoothing of the per-acquisition pool-wait samples. */
    double poolWaitAlpha = 0.25;
    /**
     * Completions remembered by finishedIds(), newest-N ring. Bounds
     * the completion-order observable separately from result
     * retention so a long-lived server never grows it without limit.
     */
    std::size_t finishedHistoryLimit = 1024;
    /**
     * Job-lifecycle trace recorder (not owned; must outlive the
     * scheduler). Null disables tracing entirely; a non-null but
     * DISABLED recorder costs one relaxed load per lifecycle point
     * -- the default ExperimentService wiring.
     */
    JobTraceRecorder *trace = nullptr;
    /**
     * Minimum spacing between progress notifications per job (see
     * subscribeProgress). The first completed round after a
     * subscription notifies immediately; later rounds are coalesced
     * to at most one notification per interval, plus a final
     * unthrottled one when the job's last round completes. Zero
     * notifies on every completed round (tests).
     */
    std::chrono::milliseconds progressInterval{50};
};

class JobScheduler
{
  public:
    /**
     * Submit-to-finish latency summary of one priority class, over a
     * sliding window of the most recent completions (percentiles) and
     * the whole scheduler lifetime (count, max). All in seconds.
     */
    struct LatencyDigest
    {
        std::size_t count = 0;
        double p50 = 0.0;
        double p95 = 0.0;
        double max = 0.0;
    };

    struct Stats
    {
        std::size_t submitted = 0;
        std::size_t rejected = 0;
        std::size_t completed = 0;
        std::size_t failed = 0;
        /** Jobs cancelled while still queued (counted in failed). */
        std::size_t cancelled = 0;
        std::size_t queueHighWater = 0;
        /** Tasks that reused the previous task's lease (batching). */
        std::size_t batchedJobs = 0;
        /** Jobs split into more than one shard. */
        std::size_t shardedJobs = 0;
        /** Shard tasks executed (incl. single-shard round jobs;
         *  an opaque job's one-range task is not counted). */
        std::size_t shardsExecuted = 0;
        /** Runs whose machine reported queue saturation. */
        std::size_t saturatedRuns = 0;
        /** Always 0: shards are never split after planning. Kept
         *  only for the benchmark's rounds_stolen_frac reader. */
        std::size_t roundsStolen = 0;
        /** Event-source dispatches summed over executed runs. */
        std::size_t eventsDispatched = 0;
        /** Most event sources any run had registered at once. */
        std::size_t wheelHighWater = 0;
        /** Stale timing-queue drops summed over executed runs. */
        std::size_t staleEventDrops = 0;
        /** trySubmit rejections below the hard bound (admission). */
        std::size_t admissionSoftRejects = 0;
        /** Progress notifications queued to subscribers (not
         *  serialized into StatsFrame; a serving-side observable). */
        std::size_t progressNotifications = 0;
        /** Saturation EWMA at the time of the snapshot. */
        double machineSaturation = 0.0;
        /** Pool-acquisition wait EWMA (seconds) at the snapshot. */
        double poolWaitEwmaSeconds = 0.0;
        /** Submit->finish latency per priority class, indexed by
         *  the JobPriority value (Batch, Normal, High). */
        std::array<LatencyDigest, 3> latency{};
    };

    JobScheduler(SchedulerConfig config, MachinePool &pool,
                 ProgramCache &cache);
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Spawn the worker threads (idempotent). */
    void start();

    /** Enqueue a job; blocks while the queue is full. */
    JobId submit(JobSpec spec);
    /** Enqueue a job; nullopt when the (effective) bound is hit. */
    std::optional<JobId> trySubmit(JobSpec spec);
    /**
     * submit() that gives up after `timeout` if the queue stays at
     * the HARD bound (admission is not consulted, exactly like
     * submit). The serving layer loops on this so a shutdown can
     * interrupt a remote submit blocked behind a full queue; the
     * spec is only copied on a successful enqueue, so retries are
     * free.
     */
    std::optional<JobId> submitFor(const JobSpec &spec,
                                   std::chrono::milliseconds timeout);

    JobStatus status(JobId id) const;
    /** The result once the job finished, nullopt while in flight. */
    std::optional<JobResult> poll(JobId id) const;
    /** Block until the job finishes and return its result. */
    JobResult await(JobId id);
    /**
     * await() with a deadline: nullopt while the job is still in
     * flight after `timeout`. Unknown ids fatal like await(). The
     * serving layer loops on this so a shutdown can interrupt a
     * connection thread parked on a slow job.
     */
    std::optional<JobResult>
    awaitFor(JobId id, std::chrono::milliseconds timeout);
    /** Block until every submitted job has finished. */
    void drain();

    /**
     * Cancel a job that has not started running: its queued tasks are
     * removed and the job finishes as Failed with a "cancelled"
     * error, unblocking awaiters. Returns false (and does nothing)
     * once any part of the job is running or it already finished --
     * in-flight machine time is never interrupted. The serving layer
     * uses this to drop the queued work of a disconnected client.
     */
    bool cancel(JobId id);

    /**
     * One-shot completion callback: invoked with the job's id and
     * final result once the job finishes (Done or Failed, including
     * cancellation). Subscribing to an already-finished job delivers
     * immediately. The result arrives as a shared_ptr so a consumer
     * can hand it to another thread (e.g. a connection's writer, for
     * off-notifier-thread encoding) without copying the payload.
     * See subscribe() for the threading contract.
     */
    using CompletionCallback =
        std::function<void(JobId, std::shared_ptr<const JobResult>)>;

    /**
     * Register `callback` to fire on the job's completion -- the
     * push-notification primitive the serving layer builds result
     * streaming on, replacing awaitFor polling loops.
     *
     * Threading contract: callbacks run on the scheduler's dedicated
     * notifier thread, one at a time, in completion order (for an
     * already-finished job, in subscription order), never under the
     * scheduler mutex -- so a callback may call back into the
     * scheduler, but must not block for long (it would delay every
     * later notification; expensive per-result work belongs on the
     * consumer's own thread, which the shared_ptr makes cheap to
     * arrange). Multiple subscriptions per job are allowed. Unknown
     * ids fatal(), exactly like await(). Destruction of the
     * scheduler delivers every pending notification (shutdown-failed
     * jobs included) before the destructor returns.
     */
    void subscribe(JobId id, CompletionCallback callback);

    /**
     * Repeating progress callback: (job, roundsDone, roundsTotal)
     * snapshots taken under the scheduler mutex, so successive
     * deliveries for one job are monotonically non-decreasing.
     * roundsTotal is the spec's round count.
     */
    using ProgressCallback =
        std::function<void(JobId, std::size_t, std::size_t)>;

    /**
     * Register `callback` for round-completion progress, rate-limited
     * by SchedulerConfig::progressInterval. Unlike subscribe() this
     * is not one-shot: a job that completes successfully ends with a
     * done == total notification (an opaque job, which counts no
     * rounds, reports just that one, 0 of 0), and a subscriber that
     * arrives after a successful finish gets exactly that frame
     * immediately. A failed job stops notifying -- its completion
     * push is the terminal signal. Callbacks ride the same notifier
     * thread in queue order, so every progress notification for a
     * job is delivered before a completion notification subscribed
     * after it. Unknown ids are ignored rather than fatal: the
     * serving layer subscribes in a race with bounded retention.
     * Subscriptions end with the job.
     */
    void subscribeProgress(JobId id, ProgressCallback callback);

    Stats stats() const;

    /**
     * Register this scheduler's metric families with `registry`:
     * lifecycle counters (quma_jobs_*_total), point-in-time gauges
     * (queue depth, in-flight, effective capacity, admission EWMAs)
     * and the per-priority submit->finish latency histogram
     * quma_job_latency_seconds. Counter/histogram updates ride the
     * existing increment sites at a few relaxed atomics each; gauges
     * are callback series evaluated at scrape time. The scheduler
     * must outlive the registry's last render. Idempotent (handles
     * re-bind to the same cells).
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

    /** Tasks currently queued (the quma_queue_depth gauge). */
    std::size_t queueDepth() const;

    /**
     * Ids of finished jobs in completion order, oldest first -- a
     * ring of the last finishedHistoryLimit completions, bounded
     * independently of result retention. Diagnostics and tests: this
     * is how priority-ordering behaviour is observed.
     */
    std::vector<JobId> finishedIds() const;

    /**
     * The task bound trySubmit currently admits against: the full
     * queueCapacity while the pooled machines keep up, tightened to
     * congestedQueueFraction of it (floored at the worker count)
     * while their queue-saturation EWMA exceeds the threshold.
     */
    std::size_t effectiveQueueCapacity() const;

  private:
    /** Partial result of one shard: everything the deterministic
     *  merge needs, kept in round order. */
    struct ShardPartial
    {
        RoundRange range;
        /** Per-round per-bin collector sums, row-major. */
        std::vector<double> roundSums;
        std::vector<double> roundBitSums;
        /** Per-bin sample counts, summed over the shard's rounds. */
        std::vector<std::size_t> binCounts;
        std::vector<std::size_t> bitBinCounts;
        std::size_t samples = 0;
        core::RunResult run;
        std::string error;
    };

    struct Entry
    {
        std::shared_ptr<const JobSpec> spec;
        std::string key;
        JobStatus jobStatus = JobStatus::Queued;
        JobResult result;
        JobPriority priority = JobPriority::Normal;
        /** Submission sequence number (aging reference point). */
        std::size_t seq = 0;
        /** Submission instant (latency tracking reference point). */
        std::chrono::steady_clock::time_point submittedAt;
        /** Round ranges per shard ({0, 1} alone for an opaque
         *  job), in round order as partitionRounds planned them. */
        std::vector<RoundRange> shardRanges;
        std::vector<ShardPartial> partials;
        std::size_t shardsRemaining = 0;
        /** Rounds completed across every shard. Mutated under mu
         *  only, so progress snapshots are monotonic per job. */
        std::size_t roundsDone = 0;
        /** Last progress-notification instant (rate limiting);
         *  epoch = never notified, so the first round after a
         *  subscription notifies immediately. */
        std::chrono::steady_clock::time_point lastProgressAt{};
    };

    /** One queued unit of work: one round range of a job. */
    struct Task
    {
        JobId id = 0;
        std::uint32_t shard = 0;
    };

    /** One queued completion OR progress push: a completion carries
     *  the callback plus a private copy of the result (retention may
     *  evict the entry before the notifier thread gets to it); a
     *  progress push carries the progress callback and a
     *  (roundsDone, roundsTotal) snapshot instead. */
    struct Notification
    {
        JobId id = 0;
        std::shared_ptr<const JobResult> result;
        CompletionCallback callback;
        ProgressCallback progress;
        std::size_t roundsDone = 0;
        std::size_t roundsTotal = 0;
    };

    /** Machine-sampled signals aggregated over one task's runs. */
    struct RunSample
    {
        bool saturated = false;
        std::size_t eventsDispatched = 0;
        std::size_t wheelHighWater = 0;
        std::size_t staleDrops = 0;

        void
        absorb(const core::MachineStats &s, bool machine_saturated)
        {
            saturated = saturated || machine_saturated;
            eventsDispatched += s.wheel.dispatched;
            wheelHighWater = std::max(wheelHighWater, s.wheel.highWater);
            staleDrops += s.queues.totalStaleDropped();
        }
    };

    void workerLoop();
    void notifierLoop();
    /** Move the job's subscriptions into the notifier queue. */
    void queueNotificationsLocked(JobId id, const JobResult &result);
    /** Count one completed round and maybe queue progress pushes. */
    void noteRoundDoneLocked(JobId id, Entry &entry);
    /** Queue a progress snapshot for every subscriber (rate-limited
     *  unless `force` -- the final 100% push is forced). */
    void queueProgressLocked(JobId id, Entry &entry, bool force);
    /** Run `range` round by round on `machine`; stops early only
     *  when shutdown fails the job. */
    ShardPartial runShard(const JobSpec &spec,
                          core::QumaMachine &machine, JobId id,
                          RoundRange range, RunSample &sample);
    /** Dequeue queue[slot] and mark its job running. */
    Task takeTaskLocked(std::size_t slot);
    /** Fold one task's machine samples into counters and EWMAs. */
    void noteRunLocked(const RunSample &sample);
    JobId enqueueLocked(JobSpec &&spec);
    /** record_latency = false for jobs that never executed
     *  (cancellations must not pollute the latency digests). */
    void finishLocked(JobId id, JobResult &&result,
                      bool record_latency = true);
    void deliverShardLocked(JobId id, std::uint32_t shard,
                            ShardPartial &&partial);
    void mergeShardsLocked(JobId id);
    /** Index of the highest-effective-priority queued task. */
    std::size_t pickBestLocked() const;
    long effectivePriorityLocked(const Entry &entry) const;
    void noteSaturationLocked(bool saturated);
    void notePoolWaitLocked(double seconds);
    void noteLatencyLocked(const Entry &entry);
    LatencyDigest latencyDigestLocked(std::size_t cls) const;
    std::size_t effectiveCapacityLocked() const;

    /** Exported-metric handles, no-ops until bindMetrics(). The
     *  names mirror Stats; see docs/observability.md for the
     *  catalogue. */
    struct Instruments
    {
        metrics::Counter submitted;
        metrics::Counter rejected;
        metrics::Counter admissionSoftRejects;
        metrics::Counter completed;
        metrics::Counter failed;
        metrics::Counter cancelled;
        metrics::Counter batchedJobs;
        metrics::Counter shardedJobs;
        metrics::Counter shardsExecuted;
        metrics::Counter saturatedRuns;
        metrics::Counter eventsDispatched;
        /** Submit->finish latency, one series per priority class. */
        std::array<metrics::Histogram, 3> latency;
    };

    /** tracer->record guarded by the null check at every site. */
    void traceRecord(JobId id, TracePhase phase,
                     std::uint32_t shard = 0) const
    {
        if (tracer)
            tracer->record(id, phase, shard);
    }

    const SchedulerConfig cfg;
    MachinePool &pool;
    ProgramCache &cache;
    JobTraceRecorder *const tracer;
    Instruments ms;

    mutable std::mutex mu;
    std::condition_variable cvWork;
    std::condition_variable cvSpace;
    std::condition_variable cvDone;
    std::deque<Task> queue;
    std::unordered_map<JobId, Entry> entries;
    /** Finished ids, oldest first (drives bounded result retention). */
    std::deque<JobId> finishedOrder;
    /** Completion-order observable, a ring of the newest
     *  finishedHistoryLimit ids (independent of retention). */
    std::deque<JobId> finishedHistory;
    JobId nextId = 1;
    std::size_t inFlight = 0;
    bool stop = false;
    bool started = false;
    Stats counters;
    /** EWMA of machine queue saturation over recent runs. */
    double saturationEwma = 0.0;
    /** EWMA of pool-acquisition waits (seconds). */
    double poolWaitEwma = 0.0;
    /** Sliding windows of submit->finish latencies per class. */
    std::array<std::vector<double>, 3> latencyWindow;
    std::array<std::size_t, 3> latencyWindowNext{};
    std::array<std::size_t, 3> latencyCount{};
    std::array<double, 3> latencyMax{};
    /** Completion subscriptions still waiting for their job. */
    std::unordered_map<JobId, std::vector<CompletionCallback>>
        subscriptions;
    /** Progress subscriptions of still-running jobs (NOT one-shot;
     *  erased when the job finishes). */
    std::unordered_map<JobId, std::vector<ProgressCallback>>
        progressSubs;
    /** Fired-but-undelivered notifications, completion order. */
    std::deque<Notification> notifyQueue;
    std::condition_variable cvNotify;
    /** Set (after the workers are joined) to end the notifier. */
    bool notifierStop = false;
    std::vector<std::thread> workers;
    std::thread notifier;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_SCHEDULER_HH
