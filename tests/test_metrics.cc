/**
 * @file
 * Tests of the observability layer: MetricsRegistry semantics, the
 * Prometheus text-exposition invariants (name/label grammar,
 * escaping, cumulative buckets, +Inf == _count, deterministic
 * ordering), the disabled zero-cost mode, the HTTP /metrics
 * endpoint, the metrics/trace wiring through the runtime, the
 * /healthz and /statusz page builders, and the metric catalogue in
 * docs/observability.md against what the serving stack registers.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/metrics_endpoint.hh"
#include "net/server.hh"
#include "net/status_pages.hh"
#include "net/transport.hh"
#include "runtime/service.hh"

namespace quma {
namespace {

using metrics::MetricsRegistry;

// --- grammar ----------------------------------------------------------------

TEST(MetricsGrammar, MetricNames)
{
    EXPECT_TRUE(MetricsRegistry::validMetricName("quma_jobs_total"));
    EXPECT_TRUE(MetricsRegistry::validMetricName("a:b:c"));
    EXPECT_TRUE(MetricsRegistry::validMetricName("_leading"));
    EXPECT_FALSE(MetricsRegistry::validMetricName(""));
    EXPECT_FALSE(MetricsRegistry::validMetricName("9starts_digit"));
    EXPECT_FALSE(MetricsRegistry::validMetricName("has-dash"));
    EXPECT_FALSE(MetricsRegistry::validMetricName("has space"));
}

TEST(MetricsGrammar, LabelNames)
{
    EXPECT_TRUE(MetricsRegistry::validLabelName("priority"));
    EXPECT_TRUE(MetricsRegistry::validLabelName("_x1"));
    EXPECT_FALSE(MetricsRegistry::validLabelName(""));
    EXPECT_FALSE(MetricsRegistry::validLabelName("9p"));
    EXPECT_FALSE(MetricsRegistry::validLabelName("a:b"));
    // "__" prefix is reserved by the Prometheus ecosystem.
    EXPECT_FALSE(MetricsRegistry::validLabelName("__reserved"));
}

TEST(MetricsGrammar, LabelValueEscaping)
{
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(MetricsRegistry::escapeLabelValue("a\nb"), "a\\nb");
}

TEST(MetricsGrammar, ValueFormatting)
{
    EXPECT_EQ(MetricsRegistry::formatValue(0.0), "0");
    EXPECT_EQ(MetricsRegistry::formatValue(42.0), "42");
    EXPECT_EQ(MetricsRegistry::formatValue(-3.0), "-3");
    EXPECT_EQ(MetricsRegistry::formatValue(0.25), "0.25");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  std::numeric_limits<double>::infinity()),
              "+Inf");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  -std::numeric_limits<double>::infinity()),
              "-Inf");
    EXPECT_EQ(MetricsRegistry::formatValue(
                  std::numeric_limits<double>::quiet_NaN()),
              "NaN");
}

// --- registration semantics -------------------------------------------------

TEST(MetricsRegistry, CounterAccumulates)
{
    MetricsRegistry reg;
    metrics::Counter c = reg.counter("quma_test_total", "help");
    EXPECT_TRUE(c.bound());
    c.inc();
    c.inc(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    // Re-registering the identical series returns the SAME cell.
    metrics::Counter again = reg.counter("quma_test_total", "help");
    again.inc();
    EXPECT_DOUBLE_EQ(c.value(), 4.5);
}

TEST(MetricsRegistry, GaugeSetsAndAdds)
{
    MetricsRegistry reg;
    metrics::Gauge g = reg.gauge("quma_test_depth", "help");
    g.set(7.0);
    g.add(-2.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("quma_twice", "help");
    EXPECT_THROW(reg.gauge("quma_twice", "help"), FatalError);
}

TEST(MetricsRegistry, LabelNameSetMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("quma_labeled", "help", {{"priority", "high"}});
    // Same name, different VALUE of the same label: fine (new series).
    reg.counter("quma_labeled", "help", {{"priority", "batch"}});
    // Different label-name set: a schema violation.
    EXPECT_THROW(reg.counter("quma_labeled", "help", {{"type", "x"}}),
                 FatalError);
}

TEST(MetricsRegistry, InvalidNamesAreFatal)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.counter("bad-name", "help"), FatalError);
    EXPECT_THROW(reg.counter("quma_x", "help", {{"bad-label", "v"}}),
                 FatalError);
    EXPECT_THROW(reg.counter("quma_x", "help", {{"le", "v"}}),
                 FatalError);
}

TEST(MetricsRegistry, HistogramBucketValidation)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.histogram("quma_h", "help", {1.0, 1.0}),
                 FatalError);
    EXPECT_THROW(reg.histogram("quma_h2", "help", {2.0, 1.0}),
                 FatalError);
    EXPECT_THROW(
        reg.histogram(
            "quma_h3", "help",
            {1.0, std::numeric_limits<double>::infinity()}),
        FatalError);
    // Every series of one family must share the family's bounds.
    reg.histogram("quma_h4", "help", {1.0, 2.0}, {{"k", "a"}});
    EXPECT_THROW(
        reg.histogram("quma_h4", "help", {1.0, 3.0}, {{"k", "b"}}),
        FatalError);
}

// --- exposition format ------------------------------------------------------

TEST(MetricsRender, HelpTypeAndSampleLines)
{
    MetricsRegistry reg;
    reg.counter("quma_events_total", "Things that\nhappened \\ here")
        .inc(3);
    std::string out = reg.renderPrometheus();
    // HELP escapes newline and backslash; TYPE names the kind.
    EXPECT_NE(out.find("# HELP quma_events_total Things "
                       "that\\nhappened \\\\ here\n"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE quma_events_total counter\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_events_total 3\n"), std::string::npos);
}

TEST(MetricsRender, LabelsRenderEscaped)
{
    MetricsRegistry reg;
    reg.gauge("quma_g", "help", {{"name", "a\"b\\c"}}).set(1.0);
    std::string out = reg.renderPrometheus();
    EXPECT_NE(out.find("quma_g{name=\"a\\\"b\\\\c\"} 1\n"),
              std::string::npos);
}

TEST(MetricsRender, DeterministicOrdering)
{
    // Families sorted by name, series by label values, regardless of
    // registration order.
    MetricsRegistry reg;
    reg.counter("quma_zzz_total", "z").inc();
    reg.counter("quma_aaa_total", "a").inc();
    reg.gauge("quma_mid", "m", {{"k", "beta"}}).set(1);
    reg.gauge("quma_mid", "m", {{"k", "alpha"}}).set(2);
    std::string out = reg.renderPrometheus();
    std::size_t aaa = out.find("quma_aaa_total");
    std::size_t mid = out.find("quma_mid");
    std::size_t zzz = out.find("quma_zzz_total");
    ASSERT_NE(aaa, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(zzz, std::string::npos);
    EXPECT_LT(aaa, mid);
    EXPECT_LT(mid, zzz);
    EXPECT_LT(out.find("k=\"alpha\""), out.find("k=\"beta\""));
    // Two renders are byte-identical.
    EXPECT_EQ(out, reg.renderPrometheus());
}

TEST(MetricsRender, HistogramInvariants)
{
    MetricsRegistry reg;
    metrics::Histogram h =
        reg.histogram("quma_lat_seconds", "help", {0.1, 1.0, 10.0});
    h.observe(0.05);  // bucket le=0.1
    h.observe(0.5);   // bucket le=1
    h.observe(0.5);
    h.observe(100.0); // +Inf overflow
    std::string out = reg.renderPrometheus();

    EXPECT_NE(out.find("# TYPE quma_lat_seconds histogram\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"0.1\"} 1\n"),
              std::string::npos);
    // Buckets are CUMULATIVE.
    EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"1\"} 3\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"10\"} 3\n"),
              std::string::npos);
    // +Inf bucket equals _count -- the scrape-consistency invariant.
    EXPECT_NE(out.find("quma_lat_seconds_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_count 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_lat_seconds_sum 101.05\n"),
              std::string::npos);
    EXPECT_EQ(h.count(), 4u);
}

TEST(MetricsRender, HistogramLabelsComposeWithLe)
{
    MetricsRegistry reg;
    reg.histogram("quma_hl_seconds", "help", {1.0},
                  {{"priority", "high"}})
        .observe(0.5);
    std::string out = reg.renderPrometheus();
    EXPECT_NE(out.find("quma_hl_seconds_bucket{priority=\"high\","
                       "le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_hl_seconds_count{priority=\"high\"} 1\n"),
              std::string::npos);
}

TEST(MetricsRender, CallbackSeries)
{
    MetricsRegistry reg;
    double depth = 12.0;
    reg.gaugeFn("quma_cb_depth", "help", {},
                [&depth] { return depth; });
    EXPECT_NE(reg.renderPrometheus().find("quma_cb_depth 12\n"),
              std::string::npos);
    depth = 3.0; // evaluated at render time, not registration time
    EXPECT_NE(reg.renderPrometheus().find("quma_cb_depth 3\n"),
              std::string::npos);
}

// --- disabled mode ----------------------------------------------------------

TEST(MetricsDisabled, EverythingIsANoOp)
{
    MetricsRegistry reg(/*enabled=*/false);
    metrics::Counter c = reg.counter("quma_x_total", "help");
    metrics::Gauge g = reg.gauge("quma_x", "help");
    metrics::Histogram h = reg.histogram("quma_x_s", "help", {1.0});
    EXPECT_FALSE(c.bound());
    EXPECT_FALSE(g.bound());
    EXPECT_FALSE(h.bound());
    c.inc();
    g.set(5);
    h.observe(0.5);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_EQ(reg.renderPrometheus(), "");
    EXPECT_EQ(reg.familyCount(), 0u);
}

TEST(MetricsDisabled, DefaultHandlesAreNoOps)
{
    metrics::Counter c;
    metrics::Histogram h;
    c.inc();
    h.observe(1.0);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

// --- HTTP endpoint ----------------------------------------------------------

namespace {

/** One HTTP exchange over an in-process loopback connection. */
std::string
httpExchange(net::LoopbackListener &listener,
             const std::string &request)
{
    std::unique_ptr<net::ByteStream> conn = listener.connect();
    conn->sendAll(
        reinterpret_cast<const std::uint8_t *>(request.data()),
        request.size());
    std::string response;
    std::uint8_t byte = 0;
    // The endpoint closes after one response: read to EOF.
    while (conn->recvAll(&byte, 1))
        response.push_back(static_cast<char>(byte));
    return response;
}

} // namespace

TEST(MetricsEndpoint, ServesPrometheusExposition)
{
    metrics::MetricsRegistry reg;
    reg.counter("quma_scraped_total", "help").inc(7);
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));

    std::string response = httpExchange(
        *lp, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
    EXPECT_NE(response.find(
                  "Content-Type: text/plain; version=0.0.4; "
                  "charset=utf-8\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("quma_scraped_total 7\n"),
              std::string::npos);
    // Content-Length matches the body exactly.
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string body = response.substr(split + 4);
    EXPECT_NE(response.find("Content-Length: " +
                            std::to_string(body.size()) + "\r\n"),
              std::string::npos);
    EXPECT_EQ(endpoint.scrapesServed(), 1u);
    endpoint.stop();
}

TEST(MetricsEndpoint, UnknownPathIs404)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "GET /other HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found\r\n"),
              std::string::npos);
    EXPECT_EQ(endpoint.scrapesServed(), 0u);
}

TEST(MetricsEndpoint, NonGetIs400)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 400 Bad Request\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, ServesScrapesSerially)
{
    metrics::MetricsRegistry reg;
    reg.counter("quma_serial_total", "help").inc();
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    for (int i = 0; i < 3; ++i) {
        std::string response =
            httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
        EXPECT_NE(response.find("quma_serial_total 1\n"),
                  std::string::npos);
    }
    EXPECT_EQ(endpoint.scrapesServed(), 3u);
}

TEST(MetricsEndpoint, NotFoundBodyAndLengthAreExact)
{
    // Regression pin: the 404 carries its hint body with an exact
    // Content-Length and an explicit Connection: close.
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    std::string response =
        httpExchange(*lp, "GET /nosuch HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("Connection: close\r\n"),
              std::string::npos);
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(response.substr(split + 4), "try GET /metrics\n");
    EXPECT_NE(response.find("Content-Length: 17\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, HeadAnswersHeadersOnly)
{
    metrics::MetricsRegistry reg;
    reg.counter("quma_head_total", "help").inc(3);
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));

    // The GET body's size is what HEAD must state...
    std::string get =
        httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    std::size_t split = get.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string body = get.substr(split + 4);

    // ...while sending zero body bytes itself.
    std::string head =
        httpExchange(*lp, "HEAD /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(head.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
    EXPECT_NE(head.find("Content-Length: " +
                        std::to_string(body.size()) + "\r\n"),
              std::string::npos);
    split = head.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(head.substr(split + 4), "");
    // HEAD routes like GET: both counted as served scrapes.
    EXPECT_EQ(endpoint.scrapesServed(), 2u);
}

TEST(MetricsEndpoint, RegisteredHandlerServesItsPath)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    int renders = 0;
    endpoint.addHandler("/healthz", "application/json",
                        [&renders] {
                            ++renders;
                            return std::string(
                                "{\"status\":\"ok\"}\n");
                        });

    std::string response =
        httpExchange(*lp, "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("{\"status\":\"ok\"}"),
              std::string::npos);
    EXPECT_EQ(renders, 1);

    // HEAD still renders (for the length) but ships no body.
    response = httpExchange(*lp, "HEAD /healthz HTTP/1.0\r\n\r\n");
    std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(response.substr(split + 4), "");
    EXPECT_EQ(renders, 2);

    // Unregistered paths still 404; /metrics still serves.
    response = httpExchange(*lp, "GET /statusz HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("404 Not Found"), std::string::npos);
    response = httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
}

TEST(MetricsEndpoint, ThrowingHandlerIs500AndEndpointSurvives)
{
    metrics::MetricsRegistry reg;
    auto listener = std::make_unique<net::LoopbackListener>();
    net::LoopbackListener *lp = listener.get();
    net::MetricsEndpoint endpoint(reg, std::move(listener));
    endpoint.addHandler("/boom", "text/plain",
                        []() -> std::string {
                            throw std::runtime_error("render died");
                        });
    std::string response =
        httpExchange(*lp, "GET /boom HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 500 Internal Server Error"),
              std::string::npos);
    EXPECT_NE(response.find("render died"), std::string::npos);
    // The endpoint keeps serving after the failed render.
    response = httpExchange(*lp, "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"),
              std::string::npos);
}

// --- runtime integration ----------------------------------------------------

namespace {

runtime::JobSpec
sweepJob(std::uint64_t seed)
{
    runtime::JobSpec job;
    job.name = "metrics-sweep";
    job.assembly = R"(
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        halt
    )";
    job.bins = 1;
    job.seed = seed;
    job.maxCycles = 2'000'000;
    return job;
}

} // namespace

TEST(MetricsIntegration, ServiceFamiliesCoverAllLayers)
{
    metrics::MetricsRegistry reg;
    runtime::ExperimentService service({.workers = 2});
    service.bindMetrics(reg);

    std::vector<runtime::JobId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(service.submit(sweepJob(0x5eed + i)));
    for (runtime::JobId id : ids)
        EXPECT_FALSE(service.await(id).failed());

    std::string out = reg.renderPrometheus();
    // One family per layer proves the whole binding chain.
    EXPECT_NE(out.find("quma_jobs_submitted_total 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_jobs_completed_total 4\n"),
              std::string::npos);
    EXPECT_NE(out.find("quma_pool_acquisitions_total"),
              std::string::npos);
    EXPECT_NE(out.find("quma_cache_program_hits_total"),
              std::string::npos);
    // Latency histogram: per-priority series with the le label, and
    // the normal class saw all four completions.
    EXPECT_NE(out.find("quma_job_latency_seconds_count"
                       "{priority=\"normal\"} 4\n"),
              std::string::npos);
    // Queue drained: depth gauge renders 0.
    EXPECT_NE(out.find("quma_queue_depth 0\n"), std::string::npos);

    runtime::ServiceStats s = service.stats();
    EXPECT_EQ(s.scheduler.completed, 4u);
    EXPECT_EQ(s.cache.programHits + s.cache.programMisses, 4u);
    EXPECT_GE(s.pool.acquisitions, 1u);
}

TEST(MetricsIntegration, DisabledRegistryBindsAsNoOps)
{
    metrics::MetricsRegistry reg(/*enabled=*/false);
    runtime::ExperimentService service({.workers = 1});
    service.bindMetrics(reg);
    EXPECT_FALSE(service.await(service.submit(sweepJob(1))).failed());
    EXPECT_EQ(reg.renderPrometheus(), "");
}


// --- introspection pages ----------------------------------------------------

namespace {

/** 300 characters, including each one a JSON string must escape. */
std::string
hostileName()
{
    return std::string(100, 'a') + "\"" + std::string(100, 'b') +
           "\\" + std::string(97, 'c') + "\n";
}

/** hostileName() as the body of a JSON string, escaped by hand. */
std::string
hostileNameEscaped()
{
    return std::string(100, 'a') + "\\\"" + std::string(100, 'b') +
           "\\\\" + std::string(97, 'c') + "\\u000a";
}

} // namespace

TEST(StatusPages, ServeHealthzEscapesALongInstanceName)
{
    runtime::ServiceConfig sc;
    sc.workers = 1;
    sc.instanceName = hostileName();
    ASSERT_EQ(sc.instanceName.size(), 300u);
    runtime::ExperimentService service(sc);
    EXPECT_EQ(net::serveHealthzJson(service, true),
              "{\"status\":\"ok\",\"instance\":\"" +
                  hostileNameEscaped() +
                  "\",\"journal\":false,\"recoveredJobs\":0,"
                  "\"corruptRecords\":0,\"journalCompacted\":false,"
                  "\"traceEnabled\":true}\n");
}

TEST(StatusPages, GatewayPagesEscapeABackendName)
{
    net::GatewayBackend down;
    down.name = hostileName();
    down.connect = []() -> std::unique_ptr<net::ByteStream> {
        throw net::WireError("backend is down");
    };
    std::vector<net::GatewayBackend> backends;
    backends.push_back(std::move(down));
    net::QumaGateway gateway(std::move(backends),
                             std::make_unique<net::LoopbackListener>());
    EXPECT_EQ(net::gatewayHealthzJson(gateway),
              "{\"status\":\"degraded\",\"backendsHealthy\":0,"
              "\"backends\":1}\n");
    EXPECT_EQ(net::gatewayStatuszJson(gateway),
              "{\"gateway\":{\"connectionsAccepted\":0,"
              "\"connectionsActive\":0,\"requestsForwarded\":0,"
              "\"resultsForwarded\":0,\"progressForwarded\":0,"
              "\"errorsReturned\":0,\"jobsShed\":0,"
              "\"jobsResubmitted\":0,\"failovers\":0,"
              "\"inFlightHighWater\":0,\"jobsInFlight\":0},"
              "\"backends\":[{\"name\":\"" +
                  hostileNameEscaped() +
                  "\",\"healthy\":false,\"draining\":false,"
                  "\"jobsRouted\":0,\"jobsResubmittedAway\":0}]}\n");
}

/**
 * /statusz carries every StatsReply field inside its group's object,
 * and the table keeps each group's rows adjacent (a group split in
 * two would repeat its key in the page).
 */
TEST(StatusPages, ServeStatuszNestsEveryStatsField)
{
    runtime::ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 64;
    runtime::ExperimentService service(sc);
    net::QumaServer server(service,
                           std::make_unique<net::LoopbackListener>());
    const std::string page = net::serveStatuszJson(service, server);

    std::set<std::string_view> closed;
    std::string_view open;
    for (const net::StatsField &f : net::statsFields()) {
        if (f.at.group != open) {
            if (!open.empty())
                closed.insert(open);
            open = f.at.group;
            EXPECT_FALSE(closed.count(open)) << "split group " << open;
        }
        std::size_t at = 0;
        if (!open.empty()) {
            at = page.find("\"" + std::string(open) + "\":{");
            ASSERT_NE(at, std::string::npos) << open;
        }
        EXPECT_NE(page.find("\"" + std::string(f.key) + "\":", at),
                  std::string::npos)
            << open << "." << f.key;
    }
    EXPECT_EQ(page.rfind("{\"instance\":\"\",\"scheduler\":{"
                         "\"submitted\":0,",
                         0),
              0u)
        << page;
    EXPECT_NE(page.find(",\"effectiveQueueCapacity\":64,\"server\":{"
                        "\"connectionsAccepted\":0,"),
              std::string::npos)
        << page;
}

// --- metric catalogue -------------------------------------------------------

namespace {

/** Family names from the `# TYPE` lines of one exposition render. */
std::set<std::string>
registeredFamilies(const std::string &exposition)
{
    std::set<std::string> out;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("# TYPE ", 0) == 0)
            out.insert(line.substr(7, line.find(' ', 7) - 7));
    return out;
}

/**
 * The family names one documented pattern stands for: a label
 * selector (`{direction=}`) is dropped, a brace list
 * (`_{hits,misses}_total`) expands to one name per alternative.
 */
void
expandPattern(const std::string &pattern, std::set<std::string> &out)
{
    const std::size_t open = pattern.find('{');
    const std::size_t close = pattern.find('}', open);
    if (open == std::string::npos || close == std::string::npos) {
        out.insert(pattern);
        return;
    }
    const std::string head = pattern.substr(0, open);
    const std::string tail = pattern.substr(close + 1);
    const std::string body = pattern.substr(open + 1, close - open - 1);
    if (body.find('=') != std::string::npos) {
        expandPattern(head + tail, out);
        return;
    }
    std::istringstream alternatives(body);
    std::string alt;
    while (std::getline(alternatives, alt, ','))
        expandPattern(head + alt + tail, out);
}

/** Families named in backticks under docs/observability.md's
 *  "Metric catalogue" heading. */
std::set<std::string>
documentedFamilies()
{
    std::ifstream in(QUMA_DOCS_DIR "/observability.md");
    EXPECT_TRUE(in.good()) << "cannot read the metric catalogue";
    std::set<std::string> out;
    bool inCatalogue = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            inCatalogue = line == "## Metric catalogue";
        if (!inCatalogue)
            continue;
        for (std::size_t a = line.find('`'); a != std::string::npos;) {
            const std::size_t b = line.find('`', a + 1);
            if (b == std::string::npos)
                break;
            const std::string span = line.substr(a + 1, b - a - 1);
            if (span.rfind("quma_", 0) == 0 &&
                span.find_first_not_of(
                    "abcdefghijklmnopqrstuvwxyz0123456789_{},=") ==
                    std::string::npos)
                expandPattern(span, out);
            a = line.find('`', b + 1);
        }
    }
    return out;
}

} // namespace

/**
 * The catalogue in docs/observability.md matches what the code
 * registers, both ways: every family a fully bound serving stack
 * (service with journal, server, client, gateway) exposes is
 * documented, and every documented family is registered.
 */
TEST(MetricsCatalogue, DocsAndRegistrationsAgree)
{
    const std::string journalPath =
        testing::TempDir() + "quma_catalogue_" +
        std::to_string(::getpid()) + ".wal";
    std::remove(journalPath.c_str());
    metrics::MetricsRegistry reg;
    runtime::ServiceConfig sc;
    sc.workers = 1;
    sc.journalPath = journalPath;
    std::set<std::string> registered;
    {
        runtime::ExperimentService service(sc);
        service.bindMetrics(reg);
        auto listener = std::make_unique<net::LoopbackListener>();
        net::LoopbackListener *lp = listener.get();
        net::QumaServer server(service, std::move(listener));
        server.bindMetrics(reg);

        net::GatewayBackend backend;
        backend.name = "be-0";
        backend.connect = [lp] { return lp->connect(); };
        std::vector<net::GatewayBackend> backends;
        backends.push_back(std::move(backend));
        auto glistener = std::make_unique<net::LoopbackListener>();
        net::LoopbackListener *glp = glistener.get();
        net::QumaGateway gateway(std::move(backends),
                                 std::move(glistener));
        gateway.bindMetrics(reg);

        net::QumaClient client(glp->connect());
        client.bindMetrics(reg);
        EXPECT_FALSE(client.await(client.submit(sweepJob(7))).failed());

        registered = registeredFamilies(reg.renderPrometheus());
    }
    std::remove(journalPath.c_str());

    const std::set<std::string> documented = documentedFamilies();
    for (const std::string &name : registered)
        EXPECT_TRUE(documented.count(name))
            << name << " is registered but not in the catalogue";
    for (const std::string &name : documented)
        EXPECT_TRUE(registered.count(name))
            << name << " is in the catalogue but never registered";
}

} // namespace
} // namespace quma
