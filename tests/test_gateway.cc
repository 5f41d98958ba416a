/**
 * @file
 * Tests of the fleet front door (net/gateway.hh): the acceptance
 * invariant -- a sharded AllXY sweep routed through the gateway
 * across two live backends returns results BIT-IDENTICAL to the
 * direct single-server path -- plus the contracts around it:
 * config-affinity routing keeps one configuration on one backend, a
 * backend that is down at connect time is routed around, losing a
 * backend mid-sweep fails its jobs over with no client-visible
 * difference, drain removes a backend from routing while in-flight
 * work finishes, a v3 client is served through a v4 gateway with
 * v3-stamped replies and no progress pushes, the per-connection
 * flow-control cap actually bounds in-flight requests, and a
 * StatsRequest answers with the merged fleet view.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "experiments/allxy.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "runtime/service.hh"

namespace quma::net {
namespace {

using runtime::ExperimentService;
using runtime::JobId;
using runtime::JobResult;
using runtime::JobSpec;
using runtime::ServiceConfig;

/** One fleet member: a real server on an ephemeral TCP port. */
struct Backend
{
    ExperimentService service;
    std::uint16_t port = 0;
    std::unique_ptr<QumaServer> server;

    explicit Backend(ServiceConfig sc) : service(sc)
    {
        auto listener = std::make_unique<TcpListener>(0);
        port = listener->port();
        server = std::make_unique<QumaServer>(service,
                                              std::move(listener));
    }
};

std::vector<std::unique_ptr<Backend>>
makeFleet(std::size_t n, ServiceConfig sc = {})
{
    std::vector<std::unique_ptr<Backend>> fleet;
    for (std::size_t i = 0; i < n; ++i)
        fleet.push_back(std::make_unique<Backend>(sc));
    return fleet;
}

std::vector<GatewayBackend>
backendsOf(const std::vector<std::unique_ptr<Backend>> &fleet)
{
    std::vector<GatewayBackend> out;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        GatewayBackend b = tcpBackend("127.0.0.1", fleet[i]->port);
        b.name = "be-" + std::to_string(i);
        out.push_back(std::move(b));
    }
    return out;
}

/** Gateway over `fleet` + its client-facing port. */
std::pair<std::unique_ptr<QumaGateway>, std::uint16_t>
makeGateway(const std::vector<std::unique_ptr<Backend>> &fleet,
            GatewayConfig gc = {})
{
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    auto gw = std::make_unique<QumaGateway>(
        backendsOf(fleet), std::move(listener), gc);
    return {std::move(gw), port};
}

/** The acceptance sweep: sharded AllXY, one spec per error point. */
std::vector<JobSpec>
sweepSpecs(std::size_t points, std::size_t rounds = 16)
{
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < points; ++i) {
        experiments::AllxyConfig cfg;
        cfg.rounds = rounds;
        cfg.shards = 2;
        cfg.amplitudeError =
            0.05 * static_cast<double>(i) /
            static_cast<double>(points > 1 ? points - 1 : 1);
        cfg.seed = 0x5eed + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    return specs;
}

/** Await `ids` and return results re-ordered to submission order. */
std::vector<JobResult>
awaitInOrder(QumaClient &client, const std::vector<JobId> &ids)
{
    std::vector<JobResult> byIndex(ids.size());
    for (const auto &[id, result] : client.awaitMany(ids)) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (ids[i] == id)
                byIndex[i] = result;
    }
    return byIndex;
}

// --- the acceptance invariant -----------------------------------------------

TEST(Gateway, ShardedSweepThroughTwoBackendsIsBitIdenticalToDirect)
{
    ServiceConfig sc;
    sc.workers = 2;
    std::vector<JobSpec> specs = sweepSpecs(8);

    // Direct: one server, no gateway.
    std::vector<JobResult> direct;
    {
        auto fleet = makeFleet(1, sc);
        QumaClient client("127.0.0.1", fleet[0]->port);
        std::vector<JobId> ids = client.submitAll(specs);
        direct = awaitInOrder(client, ids);
    }

    // Fleet: the same sweep through a gateway over two backends.
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(specs);
    std::vector<JobResult> routed = awaitInOrder(client, ids);

    ASSERT_EQ(routed.size(), direct.size());
    for (std::size_t i = 0; i < routed.size(); ++i) {
        ASSERT_FALSE(routed[i].failed()) << routed[i].error;
        EXPECT_EQ(routed[i], direct[i])
            << "point " << i << " diverged through the gateway";
    }

    // Both backends actually served the sweep (distinct machine
    // configs spread under affinity hashing with 8 points and 2
    // backends; all-on-one would be a (1/2)^7 fluke, excluded by
    // the fixed seeds).
    std::size_t served = 0;
    for (const auto &b : fleet)
        if (b->service.stats().scheduler.submitted > 0)
            ++served;
    EXPECT_EQ(served, 2u);
    EXPECT_EQ(gw->stats().resultsForwarded, specs.size());
    EXPECT_EQ(gw->stats().jobsInFlight, 0u);
}

// --- routing ----------------------------------------------------------------

TEST(Gateway, ConfigAffinityKeepsOneConfigOnOneBackend)
{
    ServiceConfig sc;
    sc.workers = 1;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    // Ten jobs, IDENTICAL machine config (seeds differ -- configKey
    // excludes them): affinity must land every one on the same
    // backend, where the program cache and pool shard are warm.
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 10; ++i) {
        cfg.seed = 0x900d + i;
        specs.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> ids = client.submitAll(specs);
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());

    std::vector<std::size_t> counts;
    for (const auto &b : fleet)
        counts.push_back(b->service.stats().scheduler.submitted);
    EXPECT_TRUE((counts[0] == 10 && counts[1] == 0) ||
                (counts[0] == 0 && counts[1] == 10))
        << "config affinity split one config across backends: "
        << counts[0] << "/" << counts[1];
}

TEST(Gateway, BackendDownAtConnectTimeIsRoutedAround)
{
    ServiceConfig sc;
    sc.workers = 1;
    auto fleet = makeFleet(1, sc);

    // One live backend plus one pointing at a port nothing listens
    // on (bound then immediately closed, so it is really dead).
    std::uint16_t deadPort;
    {
        TcpListener probe(0);
        deadPort = probe.port();
    }
    std::vector<GatewayBackend> backends = backendsOf(fleet);
    GatewayBackend dead = tcpBackend("127.0.0.1", deadPort);
    dead.name = "dead";
    backends.push_back(std::move(dead));

    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaGateway gw(std::move(backends), std::move(listener));

    QumaGateway::Stats boot = gw.stats();
    ASSERT_EQ(boot.backends.size(), 2u);
    EXPECT_TRUE(boot.backends[0].healthy);
    EXPECT_FALSE(boot.backends[1].healthy)
        << "a dead backend must be unhealthy before the first client";

    // Every job lands on the live backend, none error.
    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(sweepSpecs(6, 4));
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(fleet[0]->service.stats().scheduler.submitted, 6u);
}

TEST(Gateway, NoHealthyBackendAnswersCleanErrors)
{
    std::uint16_t deadPort;
    {
        TcpListener probe(0);
        deadPort = probe.port();
    }
    std::vector<GatewayBackend> backends;
    backends.push_back(tcpBackend("127.0.0.1", deadPort));
    auto listener = std::make_unique<TcpListener>(0);
    std::uint16_t port = listener->port();
    QumaGateway gw(std::move(backends), std::move(listener));

    // Raw v3 frames: a Submit gets ErrorReply{Internal}, a
    // TrySubmit gets a clean rejection -- and the connection stays
    // serviceable afterwards (a Stats round trip still answers).
    std::unique_ptr<ByteStream> raw = tcpConnect("127.0.0.1", port);
    Writer submit;
    encodeJobSpec(submit, sweepSpecs(1, 4)[0]);
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::SubmitRequest, 1, submit, 3);
    raw->sendAll(frame.data(), frame.size());
    {
        std::uint8_t header[kFrameHeaderBytes];
        ASSERT_TRUE(raw->recvAll(header, sizeof(header)));
        EXPECT_EQ(checkFramePrefixCompat(header), 3u);
        FrameHeader fh = decodeFrameHeaderUnchecked(header);
        ASSERT_EQ(fh.type, MsgType::ErrorReply);
        EXPECT_EQ(fh.requestId, 1u);
        std::vector<std::uint8_t> body(fh.length);
        ASSERT_TRUE(raw->recvAll(body.data(), body.size()));
        Reader r(body);
        ErrorFrame err = decodeErrorFrame(r);
        EXPECT_EQ(err.code, WireErrorCode::Internal);
    }
    // Counters lead the replies that reveal them.
    EXPECT_GE(gw.stats().errorsReturned, 1u);
    frame = sealFrame(MsgType::TrySubmitRequest, 2, submit, 3);
    raw->sendAll(frame.data(), frame.size());
    {
        std::uint8_t header[kFrameHeaderBytes];
        ASSERT_TRUE(raw->recvAll(header, sizeof(header)));
        FrameHeader fh = decodeFrameHeaderUnchecked(header);
        ASSERT_EQ(fh.type, MsgType::TrySubmitReply);
        std::vector<std::uint8_t> body(fh.length);
        ASSERT_TRUE(raw->recvAll(body.data(), body.size()));
        Reader r(body);
        EXPECT_FALSE(r.boolean());
        EXPECT_EQ(r.u64(), 0u);
        r.expectEnd();
    }
    EXPECT_GE(gw.stats().jobsShed, 1u);
}

// --- failover ---------------------------------------------------------------

TEST(Gateway, BackendLossMidSweepFailsOverBitIdentically)
{
    std::vector<JobSpec> specs = sweepSpecs(8);

    // The reference run, direct against one server.
    ServiceConfig direct_sc;
    direct_sc.workers = 2;
    std::vector<JobResult> direct;
    {
        auto ref = makeFleet(1, direct_sc);
        QumaClient client("127.0.0.1", ref[0]->port);
        direct = awaitInOrder(client, client.submitAll(specs));
    }

    // The chaos run: two PAUSED backends, so every job is acked and
    // queued but none has completed when the victim dies.
    ServiceConfig sc;
    sc.workers = 2;
    sc.startPaused = true;
    auto fleet = makeFleet(2, sc);
    GatewayConfig gc;
    gc.healthInterval = std::chrono::milliseconds(100);
    auto [gw, port] = makeGateway(fleet, gc);

    QumaClient client("127.0.0.1", port);
    std::vector<JobId> ids = client.submitAll(specs);

    // Awaits must be in flight when the backend dies: the failover
    // has to re-issue them against the resubmitted jobs.
    std::vector<JobResult> routed;
    std::thread waiter(
        [&] { routed = awaitInOrder(client, ids); });
    // Both backends hold queued jobs (affinity spread, as in the
    // acceptance test); wait until every submit was acked.
    for (int i = 0; i < 2000 && gw->stats().jobsInFlight < specs.size();
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(gw->stats().jobsInFlight, specs.size());

    // Kill the backend holding the larger share (its listener and
    // every connection drop, like a kill -9 of the process).
    std::size_t victim =
        fleet[0]->service.stats().scheduler.submitted >=
                fleet[1]->service.stats().scheduler.submitted
            ? 0
            : 1;
    const std::size_t victimJobs =
        fleet[victim]->service.stats().scheduler.submitted;
    ASSERT_GT(victimJobs, 0u);
    fleet[victim]->server->stop();

    // Unpause the survivor; failover resubmission + re-issued awaits
    // must deliver EVERY result.
    fleet[1 - victim]->service.start();
    waiter.join();

    ASSERT_EQ(routed.size(), direct.size());
    for (std::size_t i = 0; i < routed.size(); ++i) {
        ASSERT_FALSE(routed[i].failed())
            << "point " << i << ": " << routed[i].error;
        EXPECT_EQ(routed[i], direct[i])
            << "failover changed point " << i;
    }
    QumaGateway::Stats s = gw->stats();
    EXPECT_GE(s.jobsResubmitted, victimJobs)
        << "every victim job must have been re-homed";
    EXPECT_GE(s.failovers, 1u);
    EXPECT_EQ(s.jobsInFlight, 0u);
    EXPECT_EQ(
        fleet[1 - victim]->service.stats().scheduler.completed,
        specs.size())
        << "the survivor must have run the whole sweep";
}

// --- drain ------------------------------------------------------------------

TEST(Gateway, DrainRemovesFromRoutingWhileInFlightFinishes)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.startPaused = true;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    // One config -> one backend; the whole first batch is queued
    // (paused) on the affinity winner.
    experiments::AllxyConfig cfg;
    cfg.rounds = 4;
    std::vector<JobSpec> first;
    for (std::size_t i = 0; i < 4; ++i) {
        cfg.seed = 0xaaa + i;
        first.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> firstIds = client.submitAll(first);
    std::size_t winner =
        fleet[0]->service.stats().scheduler.submitted > 0 ? 0 : 1;
    ASSERT_EQ(fleet[winner]->service.stats().scheduler.submitted, 4u);

    // Drain the winner: the SAME config must now route elsewhere,
    // while its queued jobs stay put.
    ASSERT_TRUE(gw->drain("be-" + std::to_string(winner)));
    EXPECT_FALSE(gw->drain("no-such-backend"));
    std::vector<JobSpec> second;
    for (std::size_t i = 0; i < 4; ++i) {
        cfg.seed = 0xbbb + i;
        second.push_back(experiments::allxyJob(cfg));
    }
    std::vector<JobId> secondIds = client.submitAll(second);
    EXPECT_EQ(fleet[1 - winner]->service.stats().scheduler.submitted,
              4u)
        << "a drained backend must not receive new jobs";

    // Unpause both: the drained backend finishes its in-flight work
    // -- drain is not failover, nothing is resubmitted.
    fleet[0]->service.start();
    fleet[1]->service.start();
    for (JobResult &r : awaitInOrder(client, firstIds))
        ASSERT_FALSE(r.failed());
    for (JobResult &r : awaitInOrder(client, secondIds))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(gw->stats().jobsResubmitted, 0u);

    // Undrain: the config flows back to its affinity winner.
    ASSERT_TRUE(gw->undrain("be-" + std::to_string(winner)));
    cfg.seed = 0xccc;
    std::vector<JobId> third =
        client.submitAll({experiments::allxyJob(cfg)});
    for (JobResult &r : awaitInOrder(client, third))
        ASSERT_FALSE(r.failed());
    EXPECT_EQ(fleet[winner]->service.stats().scheduler.submitted, 5u);
}

// --- wire compatibility -----------------------------------------------------

TEST(Gateway, V3ClientIsServedThroughV4Gateway)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.progressInterval = std::chrono::milliseconds(0);
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);

    std::unique_ptr<ByteStream> raw = tcpConnect("127.0.0.1", port);
    // A v3 submit: JobSpec only, no appended trace context. The
    // sweep spec is SHARDED, so a v4 peer would see progress pushes
    // -- the v3 peer must not.
    Writer submit;
    encodeJobSpec(submit, sweepSpecs(1, 8)[0]);
    std::vector<std::uint8_t> frame =
        sealFrame(MsgType::SubmitRequest, 7, submit, 3);
    raw->sendAll(frame.data(), frame.size());
    auto [sfh, sver, sbody] = readFrame(*raw).value();
    EXPECT_EQ(sver, 3u) << "reply to a v3 peer must be v3-stamped";
    ASSERT_EQ(sfh.type, MsgType::SubmitReply);
    EXPECT_EQ(sfh.requestId, 7u);
    Reader sr(sbody);
    JobId id = sr.u64();
    sr.expectEnd();

    Writer await;
    await.u64(id);
    frame = sealFrame(MsgType::AwaitRequest, 8, await, 3);
    raw->sendAll(frame.data(), frame.size());
    auto [afh, aver, abody] = readFrame(*raw).value();
    EXPECT_EQ(aver, 3u);
    ASSERT_EQ(afh.type, MsgType::AwaitReply)
        << "the first push after a v3 await must be the result, "
           "never a ProgressFrame";
    EXPECT_EQ(afh.requestId, 8u);
    Reader ar(abody);
    JobResult result = decodeJobResult(ar);
    EXPECT_FALSE(result.failed());

    // Stats through the gateway at v3: the merged fleet frame.
    frame = sealFrame(MsgType::StatsRequest, 9, Writer{}, 3);
    raw->sendAll(frame.data(), frame.size());
    auto [tfh, tver, tbody] = readFrame(*raw).value();
    EXPECT_EQ(tver, 3u);
    ASSERT_EQ(tfh.type, MsgType::StatsReply);
    Reader tr(tbody);
    StatsFrame stats = decodeStatsFrame(tr);
    EXPECT_EQ(stats.scheduler.submitted, 1u);
    EXPECT_EQ(gw->stats().progressForwarded, 0u);
}

// --- flow control -----------------------------------------------------------

TEST(Gateway, FlowControlCapBoundsInFlightRequests)
{
    ServiceConfig sc;
    sc.workers = 2;
    sc.startPaused = true;
    auto fleet = makeFleet(2, sc);
    GatewayConfig gc;
    gc.maxInFlightPerClient = 4;
    auto [gw, port] = makeGateway(fleet, gc);
    QumaClient client("127.0.0.1", port);

    // 16 submits then 16 awaits against paused backends: awaits
    // cannot complete until start(), so without the cap the
    // connection would have 16 requests in flight at once.
    std::vector<JobSpec> specs = sweepSpecs(16, 4);
    std::vector<JobId> ids = client.submitAll(specs);
    std::vector<JobResult> results;
    std::thread waiter(
        [&] { results = awaitInOrder(client, ids); });
    // Let the client push every await it can; the gateway's reader
    // must stop reading at 4 in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LE(gw->stats().inFlightHighWater, 4u)
        << "the flow-control cap did not bound in-flight requests";

    fleet[0]->service.start();
    fleet[1]->service.start();
    waiter.join();
    for (JobResult &r : results)
        ASSERT_FALSE(r.failed());
    EXPECT_LE(gw->stats().inFlightHighWater, 4u);
}

// --- aggregation ------------------------------------------------------------

TEST(Gateway, StatsRequestAnswersWithMergedFleetView)
{
    ServiceConfig sc;
    sc.workers = 1;
    sc.queueCapacity = 64;
    auto fleet = makeFleet(2, sc);
    auto [gw, port] = makeGateway(fleet);
    QumaClient client("127.0.0.1", port);

    std::vector<JobId> ids = client.submitAll(sweepSpecs(8, 4));
    for (JobResult &r : awaitInOrder(client, ids))
        ASSERT_FALSE(r.failed());

    StatsFrame fleetView = client.stats();
    EXPECT_EQ(fleetView.scheduler.submitted, 8u)
        << "fleet submitted must be the sum over backends";
    EXPECT_EQ(fleetView.scheduler.completed, 8u);
    // Capacities sum; each backend contributes its own queue.
    std::size_t capacity = 0;
    for (const auto &b : fleet)
        capacity += b->service.stats().effectiveQueueCapacity;
    EXPECT_EQ(fleetView.effectiveQueueCapacity, capacity);

    // And the gateway's own metrics bind/render cleanly, with the
    // per-backend identity labels.
    metrics::MetricsRegistry registry(true);
    gw->bindMetrics(registry);
    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("quma_gateway_results_forwarded_total 8"),
              std::string::npos)
        << text.substr(0, 512);
    EXPECT_NE(text.find("quma_fleet_jobs_completed_total 8"),
              std::string::npos);
    EXPECT_NE(
        text.find("quma_gateway_backend_healthy{backend=\"be-0\"} 1"),
        std::string::npos);
}

} // namespace
} // namespace quma::net
