#include "net/status_pages.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace quma::net {

namespace {

/** Append `s` as a JSON string (`"`, `\` and control characters
 *  escaped). */
void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    for (const unsigned char c : s) {
        if (c < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", unsigned{c});
            out += esc;
            continue;
        }
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<char>(c);
    }
    out += '"';
}

/** Start member `name` of the object `out` ends inside. */
std::string &
key(std::string &out, std::string_view name)
{
    if (out.back() != '{')
        out += ',';
    appendString(out, name);
    return out += ':';
}

void
num(std::string &out, std::string_view name, std::size_t v)
{
    key(out, name) += std::to_string(v);
}

void
flag(std::string &out, std::string_view name, bool v)
{
    key(out, name) += v ? "true" : "false";
}

/** One StatsReply field (a non-finite real, not JSON, as null). */
void
field(std::string &out, const StatsField &f, const StatsFrame &stats)
{
    if (f.at.count)
        return num(out, f.key, f.at.count(stats));
    char buf[32];
    const double v = f.at.real(stats);
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    key(out, f.key) += std::isfinite(v) && ec == std::errc()
                           ? std::string_view(buf, end - buf)
                           : "null";
}

/** Every StatsReply field, in its row's group object (a group's
 *  rows are adjacent in the table). */
void
appendStats(std::string &out, const StatsFrame &stats)
{
    std::string_view open;
    for (const StatsField &f : statsFields()) {
        if (f.at.group != open) {
            out += open.empty() ? "" : "}";
            open = f.at.group;
            if (!open.empty())
                key(out, open) += '{';
        }
        field(out, f, stats);
    }
    out += open.empty() ? "" : "}";
}

} // namespace

std::string
serveHealthzJson(runtime::ExperimentService &service, bool traced)
{
    std::string json = "{\"status\":\"ok\"";
    appendString(key(json, "instance"), service.instanceName());
    flag(json, "journal", service.journal() != nullptr);
    num(json, "recoveredJobs", service.recoveredIds().size());
    num(json, "corruptRecords", service.recovery().corruptRecords);
    flag(json, "journalCompacted", service.compaction().performed);
    flag(json, "traceEnabled", traced);
    return json += "}\n";
}

std::string
serveStatuszJson(const runtime::ExperimentService &service,
                 const QumaServer &server)
{
    const QumaServer::Stats sv = server.stats();
    std::string json = "{";
    appendString(key(json, "instance"), service.instanceName());
    appendStats(json, service.stats());
    key(json, "server") += '{';
    num(json, "connectionsAccepted", sv.connectionsAccepted);
    num(json, "connectionsActive", sv.connectionsActive);
    num(json, "requestsServed", sv.requestsServed);
    num(json, "errorsReturned", sv.errorsReturned);
    num(json, "resultsStreamed", sv.resultsStreamed);
    num(json, "progressFramesPushed", sv.progressFramesPushed);
    num(json, "bytesUp", sv.link.bytesUp);
    num(json, "bytesDown", sv.link.bytesDown);
    return json += "}}\n";
}

std::string
gatewayHealthzJson(const QumaGateway &gateway)
{
    const QumaGateway::Stats s = gateway.stats();
    std::size_t healthy = 0;
    for (const auto &b : s.backends)
        healthy += b.healthy;
    std::string json = "{";
    appendString(key(json, "status"), healthy ? "ok" : "degraded");
    num(json, "backendsHealthy", healthy);
    num(json, "backends", s.backends.size());
    return json += "}\n";
}

std::string
gatewayStatuszJson(const QumaGateway &gateway)
{
    const QumaGateway::Stats s = gateway.stats();
    std::string json = "{\"gateway\":{";
    num(json, "connectionsAccepted", s.connectionsAccepted);
    num(json, "connectionsActive", s.connectionsActive);
    num(json, "requestsForwarded", s.requestsForwarded);
    num(json, "resultsForwarded", s.resultsForwarded);
    num(json, "progressForwarded", s.progressForwarded);
    num(json, "errorsReturned", s.errorsReturned);
    num(json, "jobsShed", s.jobsShed);
    num(json, "jobsResubmitted", s.jobsResubmitted);
    num(json, "failovers", s.failovers);
    num(json, "inFlightHighWater", s.inFlightHighWater);
    num(json, "jobsInFlight", s.jobsInFlight);
    json += "},\"backends\":[";
    for (const auto &b : s.backends) {
        json += json.back() == '[' ? "{" : ",{";
        appendString(key(json, "name"), b.name);
        flag(json, "healthy", b.healthy);
        flag(json, "draining", b.draining);
        num(json, "jobsRouted", b.jobsRouted);
        num(json, "jobsResubmittedAway", b.jobsResubmittedAway);
        // Its last scheduler counters, flat in its entry.
        for (const StatsField &f : statsFields())
            if (b.haveStats && std::string_view(f.at.group) == "scheduler")
                field(json, f, b.lastStats);
        json += '}';
    }
    return json += "]}\n";
}

} // namespace quma::net
