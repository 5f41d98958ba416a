/**
 * @file
 * QumaGateway: the fleet front door -- a mostly-stateless frame
 * forwarder that multiplexes wire v3/v4 client connections across N
 * QumaServer backends (docs/fleet.md is the operator contract).
 *
 * ROUTING. Every Submit/TrySubmit is routed by CONFIG AFFINITY: the
 * gateway hashes runtime::configKey(spec.machine) -- the canonical,
 * seed-free identity of a MachineConfig -- and picks a backend by
 * rendezvous (highest-random-weight) hashing over the healthy,
 * non-draining set. Jobs for one machine configuration therefore
 * land on the backend whose ProgramCache and MachinePool shard are
 * already warm for it, and adding or draining a backend only remaps
 * the keys that touched it (no global reshuffle). The spec is
 * decoded for routing only; the original payload bytes are forwarded
 * unmodified, so the backend journals and executes exactly what the
 * client sent.
 *
 * MULTIPLEXING. One client connection fans out over per-backend
 * links opened lazily by that connection. The gateway mints fresh
 * backend-side requestIds (a pending map routes each backend reply
 * to the client requestId that caused it) and fresh GATEWAY JOB IDS
 * (backend job ids are per-process sequences and would collide
 * across the fleet): SubmitReply/TrySubmitReply ids, the id operand
 * of Status/Poll/Await/Cancel requests, and the job field of pushed
 * ProgressFrames are rewritten at the boundary. AwaitReply and
 * PollReply payloads carry no job id, so results pass through
 * BYTE-IDENTICAL -- the fleet preserves the runtime's bit-identity
 * contract end to end (pinned by tests/test_gateway.cc).
 *
 * LIFECYCLE. A health thread probes every backend each
 * healthInterval through a per-backend control QumaClient (a wire
 * stats round trip; an optional healthProbe hook adds an HTTP
 * /healthz check). drain()/undrain() remove a backend from routing
 * while in-flight jobs finish. When a backend dies mid-flight (link
 * EOF or wire error), the gateway FAILS OVER: every job of that
 * connection acked-but-undelivered on the dead backend is
 * resubmitted -- from the stored submit payload, under a fresh
 * internal requestId -- to the next backend its affinity hash
 * selects, and pending awaits are re-issued once the resubmission is
 * acked. Client-visible ids never change; the client just sees its
 * results arrive. (Re-running a job on another backend returns the
 * bit-identical result by the determinism contract, so failover is
 * invisible, not merely survivable.)
 *
 * PROTECTION. Per-connection flow control caps the client-origin
 * requests a connection may have in flight (the reader simply stops
 * reading at the cap -- TCP backpressure does the rest), so one
 * greedy pipeliner cannot monopolize a backend queue. Overload
 * shedding consults the chosen backend's admission EWMAs from its
 * last StatsFrame (machine saturation, pool wait) and answers
 * TrySubmit locally with a rejection when the backend is saturated
 * -- the cheap no before the expensive round trip. Blocking Submits
 * are never shed (their backpressure is the contract).
 *
 * AGGREGATION. StatsRequests are answered locally with the merged
 * fleet view (each field summed or max-combined by its row of
 * statsFields()), and bindMetrics() exposes both the gateway's own
 * counters (quma_gateway_*) and the merged per-backend runtime stats
 * (quma_fleet_*, the exported rows of the same table). ClockSync is answered with the gateway's clock;
 * TraceDump returns an empty dump (per-backend traces stay on the
 * backends; see docs/fleet.md).
 */

#ifndef QUMA_NET_GATEWAY_HH
#define QUMA_NET_GATEWAY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"
#include "net/client.hh"
#include "net/frame_host.hh"
#include "net/transport.hh"
#include "net/wire.hh"

namespace quma::net {

/** One routable backend: a name (stable identity for metrics and
 *  drain commands) plus how to reach it. */
struct GatewayBackend
{
    std::string name;
    /** Open a fresh wire connection (throws WireError when the
     *  backend is unreachable -- that IS the health signal). */
    std::function<std::unique_ptr<ByteStream>()> connect;
    /**
     * Optional extra liveness check run by the health thread after
     * the wire probe succeeds (e.g. an HTTP GET /healthz against the
     * backend's metrics port). Empty = wire probe only.
     */
    std::function<bool()> healthProbe;
};

/** Convenience: a TCP backend named "host:port". */
GatewayBackend tcpBackend(const std::string &host, std::uint16_t port);

struct GatewayConfig
{
    /** Health-probe cadence (also the staleness bound metric
     *  callbacks accept before refreshing backend stats). */
    std::chrono::milliseconds healthInterval{500};
    /**
     * Per-connection cap on client-origin requests in flight through
     * the gateway. At the cap the connection's reader stops reading
     * -- the client feels ordinary TCP backpressure -- until a
     * reply frees a slot. Internal failover traffic is exempt (it
     * must drain even through a saturated connection).
     */
    std::size_t maxInFlightPerClient = 256;
    /** Shed TrySubmit locally when the routed backend's machine
     *  saturation EWMA is at/over this (its scheduler would soft-
     *  reject anyway; the gateway saves the round trip). */
    double shedSaturation = 0.9;
    /** Same, for the pool-wait EWMA (seconds). */
    double shedPoolWaitSeconds = 0.5;
    /** Per-connection outbox bound (slow-consumer teardown),
     *  mirroring ServerConfig::maxQueuedReplyFrames. */
    std::size_t maxQueuedReplyFrames = 8192;
};

class QumaGateway
{
  public:
    /** Point-in-time view of one backend, inside Stats. */
    struct BackendSnapshot
    {
        std::string name;
        bool healthy = false;
        bool draining = false;
        /** lastStats holds a real (possibly stale) snapshot. */
        bool haveStats = false;
        StatsFrame lastStats;
        /** Submit/TrySubmit frames routed here. */
        std::size_t jobsRouted = 0;
        /** Jobs moved OFF this backend by failover. */
        std::size_t jobsResubmittedAway = 0;
    };

    struct Stats
    {
        std::size_t connectionsAccepted = 0;
        std::size_t connectionsActive = 0;
        /** Client request frames forwarded to a backend. */
        std::size_t requestsForwarded = 0;
        /** AwaitReply frames forwarded back to clients. */
        std::size_t resultsForwarded = 0;
        /** ProgressFrame pushes forwarded back to clients. */
        std::size_t progressForwarded = 0;
        /** Requests answered with an ErrorReply (locally or
         *  forwarded from a backend). */
        std::size_t errorsReturned = 0;
        /** TrySubmits answered locally with a rejection because the
         *  routed backend's admission EWMAs were over threshold. */
        std::size_t jobsShed = 0;
        /** Jobs resubmitted to another backend by failover. */
        std::size_t jobsResubmitted = 0;
        /** Dead-backend-link events that triggered failover. */
        std::size_t failovers = 0;
        /** StatsRequests answered with the merged fleet view. */
        std::size_t statsServed = 0;
        /** Highest per-connection in-flight count ever reached
         *  (pins the flow-control cap in tests). */
        std::size_t inFlightHighWater = 0;
        /** Tracked jobs not yet delivered, across connections. */
        std::size_t jobsInFlight = 0;
        std::vector<BackendSnapshot> backends;
    };

    /**
     * Start the front door: probes every backend once (so routing
     * has a health picture before the first client), then accepts
     * until stop(). At least one backend is required.
     */
    QumaGateway(std::vector<GatewayBackend> backend_list,
                std::unique_ptr<Listener> listener,
                GatewayConfig config = {});
    ~QumaGateway();

    QumaGateway(const QumaGateway &) = delete;
    QumaGateway &operator=(const QumaGateway &) = delete;

    /** Stop accepting, close every connection and link, join all
     *  threads (idempotent). */
    void stop();

    /**
     * Take a backend out of routing (new jobs avoid it; in-flight
     * jobs keep running and their results still flow back). False
     * when no backend has that name.
     */
    bool drain(const std::string &name);
    /** Put a drained backend back into routing. */
    bool undrain(const std::string &name);

    Stats stats() const;

    /**
     * The merged fleet view (what a client's StatsRequest gets):
     * per-backend StatsFrames no older than `max_age`, folded by
     * mergeStatsFrame. Stale backends are refreshed synchronously
     * through their control client; an unreachable backend
     * contributes its last known snapshot (or nothing).
     */
    StatsFrame fleetStats(std::chrono::milliseconds max_age);

    /**
     * Register the gateway's own series (quma_gateway_*) and the
     * merged backend runtime series (quma_fleet_*) with `registry`.
     * The gateway must outlive the registry's last render.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    /** One backend link opened by one client connection. */
    struct BackendLink
    {
        std::size_t index = 0;
        std::unique_ptr<ByteStream> stream;
        /** Serializes frame writes onto the link. */
        std::mutex sendMu;
        std::thread reader;
    };

    /** One request in flight toward a backend. */
    struct Pending
    {
        /** The client requestId awaiting the reply (for internal
         *  resubmits: the await rid to answer, or 0). */
        std::uint64_t clientRid = 0;
        MsgType reqType = MsgType::SubmitRequest;
        /** Wire version the client frame carried (replies are
         *  sealed at it; internal traffic runs at it too so the
         *  backend's trace-context gating matches the original). */
        std::uint16_t version = kWireVersion;
        std::size_t backendIndex = 0;
        /** Gateway job id this request concerns (0 = none yet). */
        std::uint64_t gwJobId = 0;
        /** Routing hash of the spec (submits only). */
        std::uint64_t affinity = 0;
        /** Gateway-originated failover resubmit: its SubmitReply
         *  updates the job entry instead of answering a client. */
        bool internal = false;
        /** Occupies a flow-control slot. */
        bool countsInFlight = false;
        /** Submit payload bytes, kept until acked (failover replays
         *  them verbatim). */
        std::vector<std::uint8_t> payload;
    };

    /** One client-visible job and where it currently lives. */
    struct JobEntry
    {
        std::size_t backendIndex = 0;
        /** Backend-side id; 0 while a failover resubmit is in
         *  flight (requests against it are answered locally). */
        runtime::JobId backendId = 0;
        std::uint64_t affinity = 0;
        std::uint16_t version = kWireVersion;
        /** Kept until the result is delivered: failover resubmits
         *  these exact bytes. */
        std::vector<std::uint8_t> submitPayload;
        bool awaited = false;
        /** Client rid whose AwaitReply delivers the result. */
        std::uint64_t awaitRid = 0;
        /** Result delivered; retained so Status/Poll still route. */
        bool delivered = false;
    };

    /** One accepted client connection: the host's FrameConn plus
     *  the routing state. */
    struct Conn : FrameConn
    {
        Conn(QumaGateway &gateway, std::unique_ptr<ByteStream> stream);

        QumaGateway &gateway;
        std::mutex mu;
        std::condition_variable cvFlow;
        std::uint64_t nextBackendRid = 1;
        std::unordered_map<std::uint64_t, Pending> pending;
        std::unordered_map<std::uint64_t, JobEntry> jobs;
        std::size_t inFlight = 0;
        bool closing = false;

        /** Guards links/retired; held across link connect (only
         *  the client reader and failover create links). */
        std::mutex linkMu;
        std::map<std::size_t, std::shared_ptr<BackendLink>> links;
        /** Dead links awaiting join at teardown. */
        std::vector<std::shared_ptr<BackendLink>> retired;

        /** Also wakes a reader parked on the flow-control cap. */
        void close() override;
        bool serve(Frame frame) override;
        void refuse(const WireVersionError &ex) override;
        /** Close every backend link and join its reader. */
        void onClosed() override;
    };

    /** Gateway-side view of one configured backend. */
    struct BackendState
    {
        GatewayBackend cfg;
        std::uint64_t nameHash = 0;
        std::atomic<bool> healthy{false};
        std::atomic<bool> draining{false};
        std::atomic<std::size_t> jobsRouted{0};
        std::atomic<std::size_t> resubmittedAway{0};

        /** Guards the control client and the stats cache. */
        std::mutex controlMu;
        std::unique_ptr<QumaClient> control;
        bool haveStats = false;
        StatsFrame lastStats;
        std::chrono::steady_clock::time_point statsAt{};
    };

    /** A frame to push on a backend link outside the conn mutex. */
    struct LinkSend
    {
        std::shared_ptr<BackendLink> link;
        std::vector<std::uint8_t> frame;
    };

    void healthLoop();
    /** Probe one backend (wire stats + optional healthProbe);
     *  updates healthy/lastStats. */
    void refreshBackend(BackendState &b);

    /** Decode and route one client frame; false ends the conn. */
    bool serveClientFrame(Conn &conn, Frame frame);
    /** Route a Submit/TrySubmit (flow slot already held). False =
     *  nothing healthy; the caller answered the client. */
    void forwardSubmit(Conn &conn, std::uint16_t version,
                       std::uint64_t client_rid, MsgType type,
                       std::vector<std::uint8_t> payload,
                       std::uint64_t affinity);
    /** Route an id-carrying request (Status/Poll/Await/Cancel). */
    void forwardJobRequest(Conn &conn, std::uint16_t version,
                           std::uint64_t client_rid, MsgType type,
                           std::uint64_t gw_job_id);
    /** Answer a request locally for a job with no live backend id
     *  (failover window): Queued / no-result / not-cancelled. */
    void answerLocally(Conn &conn, std::uint16_t version,
                       std::uint64_t client_rid, MsgType type);

    void linkReaderLoop(Conn &conn, std::shared_ptr<BackendLink> link);
    /** Route one backend frame back to the client (rewriting ids). */
    void handleBackendFrame(Conn &conn, BackendLink &link,
                            const FrameHeader &header,
                            std::vector<std::uint8_t> payload);
    /** A link died: re-home every pending request and undelivered
     *  job of `conn` on that backend. */
    void failoverLink(Conn &conn, std::size_t dead_index);

    /** Lazily open (or return) `conn`'s link to backend `index`;
     *  throws WireError when the backend is unreachable. */
    std::shared_ptr<BackendLink> ensureLink(Conn &conn,
                                            std::size_t index);
    /** Seal and send on the link; closes the link stream on failure
     *  (its reader then runs failover) and rethrows. */
    void sendOnLink(BackendLink &link,
                    const std::vector<std::uint8_t> &frame);

    /** Rendezvous-hash a backend for `affinity` over the healthy,
     *  non-draining set (minus `exclude`); nullopt when empty. */
    std::optional<std::size_t>
    chooseBackend(std::uint64_t affinity,
                  std::size_t exclude = SIZE_MAX) const;
    /** Admission EWMAs of backend `index` over threshold? */
    bool backendSaturated(std::size_t index);

    /** Block until the connection has a free flow-control slot and
     *  take it; false when the connection is closing. */
    bool acquireFlowSlot(Conn &conn);
    void releaseFlowSlot(Conn &conn);

    void queueFrame(Conn &conn, MsgType type, std::uint64_t rid,
                    std::uint16_t version, const Writer &payload);
    void queueError(Conn &conn, std::uint64_t rid,
                    std::uint16_t version, WireErrorCode code,
                    const std::string &message);
    /** Raise the gateway-wide in-flight high-water mark. */
    void noteInFlight(std::size_t in_flight);


    const GatewayConfig cfg;
    std::vector<std::unique_ptr<BackendState>> backends;

    std::atomic<std::uint64_t> nextGwJobId{1};
    std::atomic<std::size_t> requestsForwarded{0};
    std::atomic<std::size_t> resultsForwarded{0};
    std::atomic<std::size_t> progressForwarded{0};
    std::atomic<std::size_t> errorsReturned{0};
    std::atomic<std::size_t> jobsShed{0};
    std::atomic<std::size_t> jobsResubmitted{0};
    std::atomic<std::size_t> failovers{0};
    std::atomic<std::size_t> statsServed{0};
    std::atomic<std::size_t> inFlightHighWater{0};

    /** Declared after everything its connection threads use. */
    FrameHost host;

    std::mutex healthMu;
    std::condition_variable cvHealth;
    std::thread health;
};

} // namespace quma::net

#endif // QUMA_NET_GATEWAY_HH
