#include "helpers.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace e2e {

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample");
    q = std::clamp(q, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    double h = static_cast<double>(values.size() - 1) * q;
    auto lo = static_cast<std::size_t>(std::floor(h));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (h - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    auto lo = static_cast<std::size_t>(
        std::floor(static_cast<double>(n - 1) * std::clamp(q, 0.0, 1.0)));
    return n - 1 - lo;
}

LatencySummary
summarize(const std::vector<double> &values)
{
    LatencySummary s;
    s.samples = values.size();
    if (values.empty())
        return s;
    s.p50 = percentile(values, 0.50);
    s.p99 = percentile(values, 0.99);
    s.beyondP99 = samplesBeyond(values.size(), 0.99);
    return s;
}

void
Digest::addBytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

void
Digest::addU64(std::uint64_t v)
{
    addBytes(&v, sizeof v);
}

void
Digest::addDouble(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    addU64(bits);
}

void
Digest::addResult(const quma::runtime::JobResult &r)
{
    addU64(r.run.cyclesRun);
    addU64(r.run.halted ? 1 : 0);
    addU64(r.run.violations.latePoints);
    addU64(r.run.violations.staleEvents);
    addU64(r.run.violations.totalLateCycles);
    addU64(r.averages.size());
    for (double v : r.averages)
        addDouble(v);
    addU64(r.bitAverages.size());
    for (double v : r.bitAverages)
        addDouble(v);
    addU64(r.sampleCount);
    addU64(r.error.size());
    addBytes(r.error.data(), r.error.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::invalid_argument("metric value is not finite");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            out += ", ";
        out += "\"" + jsonEscape(m.name) + "\": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": \"" +
               jsonEscape(m.unit) + "\"}";
    }
    out += "}}";
    return out;
}

std::uint64_t
SpanRecorder::begin(const std::string &name, std::uint64_t parent,
                    std::uint64_t request)
{
    if (!enabled)
        return 0;
    std::lock_guard<std::mutex> lock(mu);
    Span s;
    s.name = name;
    s.id = nextId++;
    s.parent = parent;
    s.request = request;
    s.startNanos = nowNanos();
    buf.push_back(std::move(s));
    return buf.back().id;
}

void
SpanRecorder::end(std::uint64_t id)
{
    if (id == 0)
        return;
    std::uint64_t t = nowNanos();
    std::lock_guard<std::mutex> lock(mu);
    // Ids are dense and assigned in push order.
    buf.at(id - 1).endNanos = t;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return buf;
}

std::vector<std::pair<std::string, std::uint64_t>>
SpanRecorder::selfNanosByName() const
{
    std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : all)
        if (s.parent != 0)
            kids[s.parent].push_back(&s);

    std::map<std::string, std::uint64_t> self;
    for (const Span &s : all) {
        if (s.endNanos < s.startNanos)
            continue; // never closed
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        if (auto it = kids.find(s.id); it != kids.end())
            for (const Span *c : it->second)
                if (c->endNanos >= c->startNanos)
                    iv.emplace_back(std::max(c->startNanos, s.startNanos),
                                    std::min(c->endNanos, s.endNanos));
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.startNanos;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[s.name] += (s.endNanos - s.startNanos) - covered;
    }
    return {self.begin(), self.end()};
}

std::string
SpanRecorder::chromeEvents(int pid) const
{
    std::vector<Span> all = spans();
    std::uint64_t t0 = all.empty() ? 0 : all.front().startNanos;
    std::string out;
    char buf[160];
    for (const Span &s : all) {
        if (s.endNanos < s.startNanos)
            continue;
        if (!out.empty())
            out += ",\n";
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      pid, static_cast<unsigned long long>(s.request),
                      static_cast<double>(s.startNanos - t0) / 1e3,
                      static_cast<double>(s.endNanos - s.startNanos) /
                          1e3);
        out += buf;
        out += "\"name\":\"" + jsonEscape(s.name) + "\",\"args\":{";
        std::snprintf(buf, sizeof buf,
                      "\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out += buf;
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    f << text;
}

} // namespace e2e
