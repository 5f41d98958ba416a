#include "runtime/service.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace quma::runtime {

namespace {

/**
 * Open the journal for appending, with the recovery report in hand:
 *  - a foreign (wrong-magic) file is refused outright -- appending
 *    would neither clobber the operator's file nor ever be
 *    recoverable, so durability would silently not exist;
 *  - a damaged tail is truncated back to the valid prefix first, so
 *    new records extend readable data instead of hiding behind
 *    garbage (a second restart would otherwise re-run retired work).
 */
/**
 * Recovery-time compaction: once the retired records (everything
 * recovery did NOT return as pending) reach the configured trigger,
 * rewrite the journal to its live suffix before reopening it. A
 * compacted file also subsumes tail-truncation: the rewrite drops
 * the damage along with the retired records.
 */
CompactionReport
maybeCompact(const ServiceConfig &cfg, const RecoveryReport &rec)
{
    if (cfg.journalPath.empty() || cfg.journalCompactMinRetired == 0 ||
        !rec.magicValid)
        return {};
    const std::size_t retired =
        rec.recordsScanned - rec.pending.size();
    if (retired < cfg.journalCompactMinRetired)
        return {};
    return compactJournal(cfg.journalPath, rec);
}

std::unique_ptr<JobJournal>
openJournal(const ServiceConfig &cfg, const RecoveryReport &rec,
            const CompactionReport &compacted)
{
    if (cfg.journalPath.empty())
        return nullptr;
    if (rec.journalExisted && !rec.magicValid)
        fatal("journal: '" + cfg.journalPath +
              "' exists but is not a journal file; refusing to "
              "append to it");
    if (!compacted.performed && rec.corruptRecords > 0 &&
        rec.magicValid &&
        ::truncate(cfg.journalPath.c_str(),
                   static_cast<off_t>(rec.validPrefixBytes)) != 0)
        warn("journal: cannot truncate damaged tail of '" +
             cfg.journalPath + "': " + std::strerror(errno));
    return std::make_unique<JobJournal>(
        JournalConfig{cfg.journalPath, cfg.journalFsync});
}

SchedulerConfig
schedulerConfigOf(const ServiceConfig &cfg, JobTraceRecorder *trace)
{
    SchedulerConfig sc;
    sc.trace = trace;
    sc.workers = cfg.workers;
    sc.queueCapacity = cfg.queueCapacity;
    sc.startPaused = cfg.startPaused;
    sc.leaseBatchLimit = cfg.leaseBatchLimit;
    sc.maxRetainedResults = cfg.maxRetainedResults;
    sc.agingQuantum = cfg.agingQuantum;
    sc.adaptiveAdmission = cfg.adaptiveAdmission;
    sc.saturationThreshold = cfg.saturationThreshold;
    sc.congestedQueueFraction = cfg.congestedQueueFraction;
    sc.saturationAlpha = cfg.saturationAlpha;
    sc.poolWaitThresholdSeconds = cfg.poolWaitThresholdSeconds;
    sc.poolWaitAlpha = cfg.poolWaitAlpha;
    sc.progressInterval = cfg.progressInterval;
    sc.finishedHistoryLimit = cfg.finishedHistoryLimit;
    return sc;
}

} // namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : cacheStore(config.cachedPrograms, config.cachedLuts),
      poolStore(config.poolCapacity ? config.poolCapacity
                                    : config.workers + 2,
                &cacheStore),
      traceStore(config.traceCapacity),
      recoveryReport(config.journalPath.empty()
                         ? RecoveryReport{}
                         : recoverJournal(config.journalPath)),
      compactionReport(maybeCompact(config, recoveryReport)),
      journalStore(openJournal(config, recoveryReport,
                               compactionReport)),
      sched(schedulerConfigOf(config, &traceStore), poolStore,
            cacheStore),
      instanceNameStore(config.instanceName)
{
    // Re-drive what the crashed process never finished. One atomic
    // Resubmitted record per job retires the stale pending entry and
    // opens the fresh id, so a second crash recovers exactly once.
    for (const RecoveredJob &job : recoveryReport.pending) {
        auto encoded = JobJournal::encodeSpec(job.spec);
        const JobId id = sched.submit(job.spec);
        if (encoded)
            journalStore->appendResubmitted(job.journalId, id, *encoded);
        subscribeJournal(id);
        recoveredIdsStore.push_back(id);
    }
}

ExperimentService::~ExperimentService()
{
    // Close the journal BEFORE the scheduler destructor fails the
    // still-queued jobs: their shutdown notifications must not mark
    // pending work completed on disk. An undrained destruction
    // therefore journals exactly like a crash.
    if (journalStore)
        journalStore->close();
}

JobId
ExperimentService::submit(JobSpec spec)
{
    if (!journalStore)
        return sched.submit(std::move(spec));
    // Encode before submit consumes the spec; append after submit
    // assigns the id. With FsyncPolicy::Always the append blocks
    // until durable, so a returned id is a crash-safe promise.
    auto encoded = JobJournal::encodeSpec(spec);
    const JobId id = sched.submit(std::move(spec));
    if (encoded) {
        journalStore->appendSubmitted(id, *encoded);
        subscribeJournal(id);
    }
    return id;
}

std::optional<JobId>
ExperimentService::submitFor(const JobSpec &spec,
                             std::chrono::milliseconds timeout)
{
    std::optional<JobId> id = sched.submitFor(spec, timeout);
    if (id && journalStore) {
        if (auto encoded = JobJournal::encodeSpec(spec)) {
            journalStore->appendSubmitted(*id, *encoded);
            subscribeJournal(*id);
        }
    }
    return id;
}

std::optional<JobId>
ExperimentService::trySubmit(JobSpec spec)
{
    if (!journalStore)
        return sched.trySubmit(std::move(spec));
    auto encoded = JobJournal::encodeSpec(spec);
    std::optional<JobId> id = sched.trySubmit(std::move(spec));
    if (id && encoded) {
        journalStore->appendSubmitted(*id, *encoded);
        subscribeJournal(*id);
    }
    return id;
}

void
ExperimentService::subscribeJournal(JobId id)
{
    sched.subscribe(id, [this](JobId done,
                               std::shared_ptr<const JobResult> r) {
        // Shutdown failures mean the job never ran: leave it pending
        // on disk so the next process recovers it. (The journal is
        // already closed by then -- see ~ExperimentService -- this
        // check is belt and braces for callback/destructor races.)
        if (r->error == kShutdownJobError)
            return;
        if (r->error == kCancelledJobError)
            journalStore->appendCancelled(done);
        else
            journalStore->appendCompleted(done, r->failed());
    });
}

ServiceStats
ExperimentService::stats() const
{
    ServiceStats s;
    s.scheduler = sched.stats();
    s.pool = poolStore.stats();
    s.cache = cacheStore.stats();
    s.effectiveQueueCapacity = sched.effectiveQueueCapacity();
    return s;
}

void
ExperimentService::bindMetrics(metrics::MetricsRegistry &registry)
{
    cacheStore.bindMetrics(registry);
    poolStore.bindMetrics(registry);
    sched.bindMetrics(registry);
    registry.gaugeFn("quma_trace_events",
                     "Job-lifecycle trace events currently buffered.",
                     {}, [this] {
                         return static_cast<double>(
                             traceStore.eventCount());
                     });
    registry.counterFn(
        "quma_trace_events_dropped_total",
        "Trace events lost to the bounded capture buffer.", {},
        [this] { return static_cast<double>(traceStore.dropped()); });
    if (journalStore) {
        journalStore->bindMetrics(registry);
        // Recovery ran once, at construction: constant series that
        // let an operator see a restart recovered (or hit damage)
        // from the scrape alone.
        registry.counterFn("quma_journal_records_corrupt_total",
                           "Damaged journal records found by "
                           "recovery (valid prefix was kept).",
                           {}, [this] {
                               return static_cast<double>(
                                   recoveryReport.corruptRecords);
                           });
        registry.counterFn("quma_recovery_records_scanned_total",
                           "Journal records scanned by recovery at "
                           "startup.",
                           {}, [this] {
                               return static_cast<double>(
                                   recoveryReport.recordsScanned);
                           });
        registry.counterFn("quma_recovery_jobs_recovered_total",
                           "Un-completed jobs recovery re-submitted "
                           "at startup.",
                           {}, [this] {
                               return static_cast<double>(
                                   recoveredIdsStore.size());
                           });
    }
}

std::vector<JobResult>
ExperimentService::awaitAll(const std::vector<JobId> &ids)
{
    std::vector<JobResult> out;
    out.reserve(ids.size());
    for (JobId id : ids)
        out.push_back(await(id));
    return out;
}

} // namespace quma::runtime
