/**
 * @file
 * Measurement helpers of the repository benchmark: percentiles with
 * their sample counts, a bit-exact result digest, the one-line JSON
 * result the benchmark prints last, process CPU / RSS probes, and an
 * in-memory span recorder that is written out only when a run ends.
 */

#ifndef E2EBENCH_HELPERS_HH
#define E2EBENCH_HELPERS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/job.hh"

namespace e2e {

/** Steady-clock nanoseconds (the benchmark's one timebase). */
std::uint64_t nowNanos();

/** Process CPU time (user + system, all threads) in seconds. */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * The q-quantile (0 <= q <= 1) of `values` by linear interpolation
 * between closest ranks (the "R-7" rule numpy uses by default).
 * Throws std::invalid_argument on an empty sample.
 */
double percentile(std::vector<double> values, double q);

/**
 * How many samples of an n-sample set lie strictly beyond the
 * q-quantile's rank: the count that says whether that percentile is
 * backed by data (the benchmark wants at least ten).
 */
std::size_t samplesBeyond(std::size_t n, double q);

/** Median, p99 and the sample count they were taken over. */
struct LatencySummary
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t samples = 0;
    /** Samples beyond the p99 rank (see samplesBeyond). */
    std::size_t beyondP99 = 0;
};

LatencySummary summarize(const std::vector<double> &values);

/**
 * FNV-1a digest over the bit patterns of job results, fed in a fixed
 * order: equal digests mean bit-identical results.
 */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t n);
    void addU64(std::uint64_t v);
    void addDouble(double v);
    void addResult(const quma::runtime::JobResult &result);

    std::uint64_t value() const { return h; }
    /** 16 lower-case hex digits. */
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * The benchmark's result line: one JSON object with exactly the keys
 * correct, attempted, failed and metrics, each metric as
 * {"value": v, "unit": u}. Values are printed with every significant
 * digit. Throws std::invalid_argument when a value is not finite.
 */
std::string resultJson(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric> &metrics);

/** Escape a string for a JSON string literal (without the quotes). */
std::string jsonEscape(const std::string &s);

/** A benchmark-side span around one public call. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    /** Span that caused this one (0 = root). */
    std::uint64_t parent = 0;
    /** Request the span belongs to (job or wave); spans of one
     *  request share it. */
    std::uint64_t request = 0;
    std::uint64_t startNanos = 0;
    std::uint64_t endNanos = 0;
};

/**
 * Spans kept in memory while a traced run is going; nothing touches
 * the disk until chromeEvents() is written at the end. Disabled
 * recorders cost one branch per call.
 */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled = on; }

    /** Open a span; returns its id (0 while disabled). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent,
                        std::uint64_t request);
    /** Close a span opened by begin (no-op for id 0). */
    void end(std::uint64_t id);

    std::vector<Span> spans() const;

    /**
     * Self time of every span: duration minus the union of its
     * children's intervals, summed per span name (nanoseconds).
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    selfNanosByName() const;

    /** Chrome trace-event bodies ("X" slices) for pid `pid`. */
    std::string chromeEvents(int pid) const;

  private:
    bool enabled = false;
    mutable std::mutex mu;
    std::vector<Span> buf;
    std::uint64_t nextId = 1;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name,
               std::uint64_t parent = 0, std::uint64_t request = 0)
        : r(rec), spanId(rec.begin(name, parent, request))
    {}
    ~ScopedSpan() { r.end(spanId); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return spanId; }

  private:
    SpanRecorder &r;
    std::uint64_t spanId;
};

/** Write `text` to `path`, creating parent directories. */
void writeFile(const std::string &path, const std::string &text);

} // namespace e2e

#endif // E2EBENCH_HELPERS_HH
