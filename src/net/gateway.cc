#include "net/gateway.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "runtime/job.hh"

namespace quma::net {

namespace {

/** splitmix64 finalizer: the rendezvous-score mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** FNV-1a over a string, mixed: the affinity/name hash. */
std::uint64_t
hashKey(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return mix64(h);
}

/** The gateway's ClockSync timebase (steady, epoch = first use). */
std::uint64_t
gatewayNowNanos()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

/**
 * Fold one backend's StatsFrame into the fleet view: counters and
 * capacities SUM (fleet totals), load signals and percentiles MAX
 * (the fleet is as saturated as its worst member -- summing EWMAs
 * would manufacture load no backend reports).
 */
void
mergeStatsFrame(StatsFrame &acc, const StatsFrame &s)
{
    auto &a = acc.scheduler;
    const auto &x = s.scheduler;
    a.submitted += x.submitted;
    a.rejected += x.rejected;
    a.completed += x.completed;
    a.failed += x.failed;
    a.cancelled += x.cancelled;
    a.queueHighWater += x.queueHighWater;
    a.batchedJobs += x.batchedJobs;
    a.shardedJobs += x.shardedJobs;
    a.shardsExecuted += x.shardsExecuted;
    a.saturatedRuns += x.saturatedRuns;
    a.admissionSoftRejects += x.admissionSoftRejects;
    a.machineSaturation =
        std::max(a.machineSaturation, x.machineSaturation);
    a.poolWaitEwmaSeconds =
        std::max(a.poolWaitEwmaSeconds, x.poolWaitEwmaSeconds);
    for (std::size_t i = 0; i < a.latency.size(); ++i) {
        a.latency[i].count += x.latency[i].count;
        a.latency[i].p50 = std::max(a.latency[i].p50, x.latency[i].p50);
        a.latency[i].p95 = std::max(a.latency[i].p95, x.latency[i].p95);
        a.latency[i].max = std::max(a.latency[i].max, x.latency[i].max);
    }
    auto &ap = acc.pool;
    const auto &xp = s.pool;
    ap.machinesCreated += xp.machinesCreated;
    ap.acquisitions += xp.acquisitions;
    ap.reuseHits += xp.reuseHits;
    ap.evictions += xp.evictions;
    ap.machineResets += xp.machineResets;
    ap.idleMachines += xp.idleMachines;
    ap.leasedMachines += xp.leasedMachines;
    auto &ac = acc.cache;
    const auto &xc = s.cache;
    ac.programHits += xc.programHits;
    ac.programMisses += xc.programMisses;
    ac.programEvictions += xc.programEvictions;
    ac.lutHits += xc.lutHits;
    ac.lutMisses += xc.lutMisses;
    ac.lutEvictions += xc.lutEvictions;
    acc.effectiveQueueCapacity += s.effectiveQueueCapacity;
}

} // namespace

GatewayBackend
tcpBackend(const std::string &host, std::uint16_t port)
{
    GatewayBackend b;
    b.name = host + ":" + std::to_string(port);
    b.connect = [host, port] { return tcpConnect(host, port); };
    return b;
}

// --- construction / lifecycle -----------------------------------------------

QumaGateway::QumaGateway(std::vector<GatewayBackend> backend_list,
                         std::unique_ptr<Listener> listener_in,
                         GatewayConfig config)
    : cfg(config),
      host(std::move(listener_in),
           [this](std::unique_ptr<ByteStream> stream, std::size_t) {
               return std::make_shared<Conn>(*this, std::move(stream));
           })
{
    if (backend_list.empty())
        fatal("QumaGateway needs at least one backend");
    for (auto &gb : backend_list) {
        auto b = std::make_unique<BackendState>();
        b->cfg = std::move(gb);
        b->nameHash = hashKey(b->cfg.name);
        backends.push_back(std::move(b));
    }
    // Probe everything once BEFORE accepting: routing needs a health
    // picture, and a backend that is down at connect time must be
    // out of the rotation from the first client frame.
    for (auto &b : backends)
        refreshBackend(*b);
    host.start();
    health = std::thread([this] { healthLoop(); });
}

QumaGateway::~QumaGateway() { stop(); }

void
QumaGateway::stop()
{
    host.stop();
    {
        // Taken so the health loop cannot miss this wakeup between
        // its stop check and its wait.
        std::lock_guard<std::mutex> lock(healthMu);
    }
    cvHealth.notify_all();
    if (health.joinable())
        health.join();
    for (auto &b : backends) {
        std::lock_guard<std::mutex> lock(b->controlMu);
        b->control.reset();
    }
}

bool
QumaGateway::drain(const std::string &name)
{
    for (auto &b : backends)
        if (b->cfg.name == name) {
            b->draining.store(true);
            return true;
        }
    return false;
}

bool
QumaGateway::undrain(const std::string &name)
{
    for (auto &b : backends)
        if (b->cfg.name == name) {
            b->draining.store(false);
            return true;
        }
    return false;
}

// --- health -----------------------------------------------------------------

void
QumaGateway::refreshBackend(BackendState &b)
{
    bool ok = false;
    {
        std::lock_guard<std::mutex> lock(b.controlMu);
        try {
            if (!b.control)
                b.control =
                    std::make_unique<QumaClient>(b.cfg.connect());
            b.lastStats = b.control->stats();
            b.haveStats = true;
            b.statsAt = std::chrono::steady_clock::now();
            ok = true;
        } catch (const std::exception &) {
            // Unreachable or mid-restart: drop the control client
            // (a fresh connect next round) and mark unhealthy.
            b.control.reset();
        }
    }
    if (ok && b.cfg.healthProbe) {
        try {
            ok = b.cfg.healthProbe();
        } catch (const std::exception &) {
            ok = false;
        }
    }
    b.healthy.store(ok, std::memory_order_relaxed);
}

void
QumaGateway::healthLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(healthMu);
            cvHealth.wait_for(lock, cfg.healthInterval,
                              [this] { return host.stopping(); });
        }
        if (host.stopping())
            return;
        for (auto &b : backends)
            refreshBackend(*b);
    }
}

StatsFrame
QumaGateway::fleetStats(std::chrono::milliseconds max_age)
{
    const auto now = std::chrono::steady_clock::now();
    StatsFrame merged;
    for (auto &bp : backends) {
        BackendState &b = *bp;
        bool fresh;
        {
            std::lock_guard<std::mutex> lock(b.controlMu);
            fresh = b.haveStats && now - b.statsAt <= max_age;
        }
        if (!fresh)
            refreshBackend(b);
        std::lock_guard<std::mutex> lock(b.controlMu);
        // A dead backend contributes its last known snapshot: fleet
        // counters must not dip when a member goes away.
        if (b.haveStats)
            mergeStatsFrame(merged, b.lastStats);
    }
    return merged;
}

// --- routing ----------------------------------------------------------------

std::optional<std::size_t>
QumaGateway::chooseBackend(std::uint64_t affinity,
                           std::size_t exclude) const
{
    std::optional<std::size_t> best;
    std::uint64_t bestScore = 0;
    for (std::size_t i = 0; i < backends.size(); ++i) {
        const BackendState &b = *backends[i];
        if (i == exclude ||
            !b.healthy.load(std::memory_order_relaxed) ||
            b.draining.load(std::memory_order_relaxed))
            continue;
        // Rendezvous (highest-random-weight) hashing: stable under
        // membership change -- only keys whose winner left remap.
        std::uint64_t score = mix64(affinity ^ b.nameHash);
        if (!best || score > bestScore) {
            best = i;
            bestScore = score;
        }
    }
    return best;
}

bool
QumaGateway::backendSaturated(std::size_t index)
{
    BackendState &b = *backends[index];
    std::lock_guard<std::mutex> lock(b.controlMu);
    if (!b.haveStats)
        return false;
    return b.lastStats.scheduler.machineSaturation >=
               cfg.shedSaturation ||
           b.lastStats.scheduler.poolWaitEwmaSeconds >=
               cfg.shedPoolWaitSeconds;
}

// --- client connections -----------------------------------------------------

QumaGateway::Conn::Conn(QumaGateway &gateway_,
                        std::unique_ptr<ByteStream> stream)
    : FrameConn(std::move(stream), gateway_.cfg.maxQueuedReplyFrames),
      gateway(gateway_)
{
}

void
QumaGateway::Conn::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closing = true;
    }
    cvFlow.notify_all();
    FrameConn::close();
}

bool
QumaGateway::Conn::serve(Frame frame)
{
    return gateway.serveClientFrame(*this, std::move(frame));
}

void
QumaGateway::Conn::refuse(const WireVersionError &ex)
{
    gateway.queueError(*this, kConnectionRequestId, kWireVersion,
                       WireErrorCode::VersionMismatch, ex.what());
}

void
QumaGateway::Conn::onClosed()
{
    // Readers retire themselves (links -> retired) on the way out,
    // and a reader mid-failover may still create a link after
    // `closing` was set in a narrow race -- hence the loop until
    // both sets are empty.
    for (;;) {
        bool liveLinks;
        std::vector<std::shared_ptr<BackendLink>> to_join;
        {
            std::lock_guard<std::mutex> lock(linkMu);
            for (auto &kv : links)
                kv.second->stream->close();
            liveLinks = !links.empty();
            to_join.swap(retired);
        }
        for (auto &l : to_join)
            if (l->reader.joinable())
                l->reader.join();
        if (!liveLinks && to_join.empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void
QumaGateway::queueFrame(Conn &conn, MsgType type, std::uint64_t rid,
                        std::uint16_t version, const Writer &payload)
{
    conn.push(sealFrame(type, rid, payload, version));
}

void
QumaGateway::queueError(Conn &conn, std::uint64_t rid,
                        std::uint16_t version, WireErrorCode code,
                        const std::string &message)
{
    // Counters lead the replies that reveal them: a client that has
    // read the error must find it counted.
    errorsReturned.fetch_add(1, std::memory_order_relaxed);
    Writer w;
    encodeErrorFrame(w, {code, message});
    conn.push(sealFrame(MsgType::ErrorReply, rid, w, version));
}

void
QumaGateway::noteInFlight(std::size_t in_flight)
{
    std::size_t seen =
        inFlightHighWater.load(std::memory_order_relaxed);
    while (in_flight > seen &&
           !inFlightHighWater.compare_exchange_weak(
               seen, in_flight, std::memory_order_relaxed))
        ;
}

bool
QumaGateway::acquireFlowSlot(Conn &conn)
{
    std::unique_lock<std::mutex> lock(conn.mu);
    conn.cvFlow.wait(lock, [&] {
        return conn.closing ||
               conn.inFlight < cfg.maxInFlightPerClient;
    });
    if (conn.closing)
        return false;
    ++conn.inFlight;
    noteInFlight(conn.inFlight);
    return true;
}

void
QumaGateway::releaseFlowSlot(Conn &conn)
{
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        --conn.inFlight;
    }
    conn.cvFlow.notify_all();
}

bool
QumaGateway::serveClientFrame(Conn &conn, Frame frame)
{
    const std::uint16_t version = frame.version;
    const FrameHeader &fh = frame.header;
    std::vector<std::uint8_t> &payload = frame.payload;
    const std::uint64_t rid = fh.requestId;
    try {
        switch (fh.type) {
        case MsgType::SubmitRequest:
        case MsgType::TrySubmitRequest: {
            // Decode for ROUTING only; the payload bytes forwarded
            // to the backend are exactly the client's.
            std::uint64_t affinity;
            {
                Reader r(payload);
                runtime::JobSpec spec = decodeJobSpec(r);
                if (version >= 4)
                    (void)decodeTraceContext(r);
                r.expectEnd();
                affinity =
                    hashKey(runtime::configKey(spec.machine));
            }
            if (!acquireFlowSlot(conn))
                return false;
            forwardSubmit(conn, version, rid, fh.type,
                          std::move(payload), affinity);
            return true;
        }
        case MsgType::StatusRequest:
        case MsgType::PollRequest:
        case MsgType::AwaitRequest:
        case MsgType::CancelRequest: {
            Reader r(payload);
            std::uint64_t gwId = r.u64();
            r.expectEnd();
            if (!acquireFlowSlot(conn))
                return false;
            forwardJobRequest(conn, version, rid, fh.type, gwId);
            return true;
        }
        case MsgType::StatsRequest: {
            Reader r(payload);
            r.expectEnd();
            // Answered locally with the merged fleet view: clients
            // asking "how loaded is the service" mean the fleet.
            // max_age 0 forces a synchronous refresh of every
            // backend -- an explicit StatsRequest earns accuracy,
            // not the health loop's cache (which serves shedding
            // and metrics callbacks).
            StatsFrame fleet = fleetStats(std::chrono::milliseconds(0));
            Writer w;
            encodeStatsFrame(w, fleet);
            statsServed.fetch_add(1, std::memory_order_relaxed);
            queueFrame(conn, MsgType::StatsReply, rid, version, w);
            return true;
        }
        case MsgType::ClockSyncRequest: {
            Reader r(payload);
            r.expectEnd();
            Writer w;
            encodeClockSyncFrame(w, {gatewayNowNanos()});
            queueFrame(conn, MsgType::ClockSyncReply, rid, version,
                       w);
            return true;
        }
        case MsgType::TraceDumpRequest: {
            Reader r(payload);
            r.expectEnd();
            // Per-backend traces stay on the backends (they carry
            // backend-local job ids); the gateway answers with an
            // empty dump rather than a misleading merge.
            Writer w;
            encodeTraceDumpFrame(w, {});
            queueFrame(conn, MsgType::TraceDumpReply, rid, version,
                       w);
            return true;
        }
        default:
            queueError(conn, rid, version, WireErrorCode::BadRequest,
                       "unsupported request frame type");
            return true;
        }
    } catch (const WireError &ex) {
        queueError(conn, rid, version, WireErrorCode::BadRequest,
                   ex.what());
        return true;
    }
}

// --- backend links ----------------------------------------------------------

std::shared_ptr<QumaGateway::BackendLink>
QumaGateway::ensureLink(Conn &conn, std::size_t index)
{
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        if (conn.closing)
            throw WireError("connection closing");
    }
    std::lock_guard<std::mutex> lock(conn.linkMu);
    auto it = conn.links.find(index);
    if (it != conn.links.end())
        return it->second;
    auto link = std::make_shared<BackendLink>();
    link->index = index;
    link->stream = backends[index]->cfg.connect(); // may throw
    conn.links.emplace(index, link);
    link->reader = std::thread(
        [this, &conn, link] { linkReaderLoop(conn, link); });
    return link;
}

void
QumaGateway::sendOnLink(BackendLink &link,
                        const std::vector<std::uint8_t> &frame)
{
    std::lock_guard<std::mutex> lock(link.sendMu);
    try {
        link.stream->sendAll(frame.data(), frame.size());
    } catch (const std::exception &) {
        // Dead link: close so its reader wakes up and fails over
        // everything pending there (including what this frame just
        // registered).
        link.stream->close();
        throw;
    }
}

void
QumaGateway::linkReaderLoop(Conn &conn,
                            std::shared_ptr<BackendLink> link)
{
    try {
        while (std::optional<Frame> frame = readFrame(*link->stream))
            handleBackendFrame(conn, *link, frame->header,
                               std::move(frame->payload));
    } catch (const std::exception &) {
        // A dead or misbehaving backend is the same event: fail
        // over whatever this link carried.
    }
    link->stream->close();
    {
        std::lock_guard<std::mutex> lock(conn.linkMu);
        auto it = conn.links.find(link->index);
        if (it != conn.links.end() && it->second == link)
            conn.links.erase(it);
        // Always self-retire exactly once: teardown joins retired
        // entries, never the live map.
        conn.retired.push_back(link);
    }
    failoverLink(conn, link->index);
}

// --- forwarding -------------------------------------------------------------

void
QumaGateway::forwardSubmit(Conn &conn, std::uint16_t version,
                           std::uint64_t client_rid, MsgType type,
                           std::vector<std::uint8_t> payload,
                           std::uint64_t affinity)
{
    for (std::size_t attempt = 0; attempt <= backends.size();
         ++attempt) {
        std::optional<std::size_t> pick = chooseBackend(affinity);
        if (!pick)
            break;
        if (type == MsgType::TrySubmitRequest &&
            backendSaturated(*pick)) {
            // The backend's own admission would soft-reject; shed
            // here and save the round trip.
            releaseFlowSlot(conn);
            jobsShed.fetch_add(1, std::memory_order_relaxed);
            Writer w;
            w.boolean(false);
            w.u64(0);
            queueFrame(conn, MsgType::TrySubmitReply, client_rid,
                       version, w);
            return;
        }
        std::shared_ptr<BackendLink> link;
        try {
            link = ensureLink(conn, *pick);
        } catch (const std::exception &) {
            backends[*pick]->healthy.store(
                false, std::memory_order_relaxed);
            continue; // next-best backend
        }
        std::uint64_t rid;
        {
            std::lock_guard<std::mutex> lock(conn.mu);
            rid = conn.nextBackendRid++;
            Pending p;
            p.clientRid = client_rid;
            p.reqType = type;
            p.version = version;
            p.backendIndex = *pick;
            p.affinity = affinity;
            p.countsInFlight = true;
            p.payload = payload; // kept for failover replay
            conn.pending.emplace(rid, std::move(p));
        }
        backends[*pick]->jobsRouted.fetch_add(
            1, std::memory_order_relaxed);
        requestsForwarded.fetch_add(1, std::memory_order_relaxed);
        try {
            sendOnLink(*link, sealFrame(type, rid, payload, version));
        } catch (const std::exception &) {
            // The link reader's failover re-homes the pending we
            // just registered; from here the request is in flight.
        }
        return;
    }
    // Nothing healthy to route to.
    releaseFlowSlot(conn);
    if (type == MsgType::TrySubmitRequest) {
        jobsShed.fetch_add(1, std::memory_order_relaxed);
        Writer w;
        w.boolean(false);
        w.u64(0);
        queueFrame(conn, MsgType::TrySubmitReply, client_rid, version,
                   w);
    } else {
        queueError(conn, client_rid, version, WireErrorCode::Internal,
                   "no healthy backend");
    }
}

void
QumaGateway::answerLocally(Conn &conn, std::uint16_t version,
                           std::uint64_t client_rid, MsgType type)
{
    Writer w;
    switch (type) {
    case MsgType::StatusRequest:
        // A job whose backend is mid-failover is queued again by
        // definition (its resubmission is on the way).
        w.u8(static_cast<std::uint8_t>(runtime::JobStatus::Queued));
        queueFrame(conn, MsgType::StatusReply, client_rid, version, w);
        return;
    case MsgType::PollRequest:
        w.boolean(false);
        queueFrame(conn, MsgType::PollReply, client_rid, version, w);
        return;
    case MsgType::CancelRequest:
        // Cancel during the failover window is declined: the
        // resubmission is already racing the request.
        w.boolean(false);
        queueFrame(conn, MsgType::CancelReply, client_rid, version, w);
        return;
    default:
        queueError(conn, client_rid, version, WireErrorCode::Internal,
                   "request not answerable during failover");
        return;
    }
}

void
QumaGateway::forwardJobRequest(Conn &conn, std::uint16_t version,
                               std::uint64_t client_rid, MsgType type,
                               std::uint64_t gw_job_id)
{
    std::size_t backendIndex = 0;
    runtime::JobId backendId = 0;
    enum class Action
    {
        Forward,
        Unknown,
        Local
    } action;
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        auto it = conn.jobs.find(gw_job_id);
        if (it == conn.jobs.end()) {
            action = Action::Unknown;
        } else if (it->second.backendId == 0) {
            // Failover window: no live backend id to forward to.
            if (type == MsgType::AwaitRequest) {
                it->second.awaited = true;
                it->second.awaitRid = client_rid;
            }
            action = Action::Local;
        } else {
            backendIndex = it->second.backendIndex;
            backendId = it->second.backendId;
            if (type == MsgType::AwaitRequest) {
                it->second.awaited = true;
                it->second.awaitRid = client_rid;
            }
            action = Action::Forward;
        }
    }
    if (action == Action::Unknown) {
        releaseFlowSlot(conn);
        // Mirror the server: unknown ids error, except Cancel which
        // answers false.
        if (type == MsgType::CancelRequest) {
            Writer w;
            w.boolean(false);
            queueFrame(conn, MsgType::CancelReply, client_rid,
                       version, w);
        } else {
            queueError(conn, client_rid, version,
                       WireErrorCode::UnknownJob,
                       "unknown job id at the gateway");
        }
        return;
    }
    if (action == Action::Local) {
        releaseFlowSlot(conn);
        if (type != MsgType::AwaitRequest)
            answerLocally(conn, version, client_rid, type);
        // A deferred await is re-issued (slot-free) once the
        // failover resubmission acks.
        return;
    }
    std::uint64_t rid;
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        rid = conn.nextBackendRid++;
        Pending p;
        p.clientRid = client_rid;
        p.reqType = type;
        p.version = version;
        p.backendIndex = backendIndex;
        p.gwJobId = gw_job_id;
        p.countsInFlight = true;
        conn.pending.emplace(rid, std::move(p));
    }
    requestsForwarded.fetch_add(1, std::memory_order_relaxed);
    Writer w;
    w.u64(backendId);
    std::shared_ptr<BackendLink> link;
    try {
        link = ensureLink(conn, backendIndex);
        sendOnLink(*link, sealFrame(type, rid, w, version));
    } catch (const std::exception &) {
        backends[backendIndex]->healthy.store(
            false, std::memory_order_relaxed);
        // With a live link its reader runs the failover; with no
        // link (connect failed) nobody else will -- run it here.
        if (!link)
            failoverLink(conn, backendIndex);
    }
}

// --- backend replies --------------------------------------------------------

void
QumaGateway::handleBackendFrame(Conn &conn, BackendLink &link,
                                const FrameHeader &fh,
                                std::vector<std::uint8_t> payload)
{
    std::vector<LinkSend> sends;
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        if (fh.type == MsgType::ProgressFrame) {
            // Push under the await's rid: rewrite the job id and
            // pass along. No pending = a late push after failover
            // re-homed the await; it evaporates.
            auto it = conn.pending.find(fh.requestId);
            if (it == conn.pending.end())
                return;
            const Pending &p = it->second;
            Reader r(payload);
            ProgressFrameData pf = decodeProgressFrame(r);
            r.expectEnd();
            pf.job = p.gwJobId;
            Writer w;
            encodeProgressFrame(w, pf);
            progressForwarded.fetch_add(1,
                                        std::memory_order_relaxed);
            conn.push(sealFrame(MsgType::ProgressFrame,
                                       p.clientRid, w, p.version));
            return;
        }
        auto node = conn.pending.extract(fh.requestId);
        if (node.empty())
            return; // reply to a request failover already re-homed
        Pending p = std::move(node.mapped());
        if (p.countsInFlight) {
            --conn.inFlight;
            conn.cvFlow.notify_all();
        }
        const bool isError = fh.type == MsgType::ErrorReply;

        switch (p.reqType) {
        case MsgType::SubmitRequest:
        case MsgType::TrySubmitRequest: {
            if (isError) {
                errorsReturned.fetch_add(1,
                                         std::memory_order_relaxed);
                if (p.internal) {
                    // The failover resubmission itself was refused:
                    // the job is lost; its awaiting client learns
                    // through the forwarded error.
                    auto jit = conn.jobs.find(p.gwJobId);
                    if (jit != conn.jobs.end()) {
                        if (jit->second.awaited)
                            conn.push(sealFrame(
                                MsgType::ErrorReply,
                                jit->second.awaitRid, payload,
                                jit->second.version));
                        conn.jobs.erase(jit);
                    }
                } else {
                    conn.push(sealFrame(MsgType::ErrorReply,
                                             p.clientRid, payload,
                                             p.version));
                }
                break;
            }
            bool accepted = true;
            runtime::JobId backendJob = 0;
            {
                Reader r(payload);
                if (p.reqType == MsgType::TrySubmitRequest)
                    accepted = r.boolean();
                backendJob = r.u64();
                r.expectEnd();
            }
            if (p.internal) {
                // Resubmission acked: the job lives again, on the
                // new backend. Re-issue its await if one waits.
                auto jit = conn.jobs.find(p.gwJobId);
                if (jit == conn.jobs.end())
                    break;
                JobEntry &e = jit->second;
                e.backendIndex = p.backendIndex;
                e.backendId = backendJob;
                if (e.awaited) {
                    std::uint64_t rid = conn.nextBackendRid++;
                    Pending ap;
                    ap.clientRid = e.awaitRid;
                    ap.reqType = MsgType::AwaitRequest;
                    ap.version = e.version;
                    ap.backendIndex = p.backendIndex;
                    ap.gwJobId = p.gwJobId;
                    conn.pending.emplace(rid, std::move(ap));
                    Writer w;
                    w.u64(backendJob);
                    sends.push_back(
                        {nullptr,
                         sealFrame(MsgType::AwaitRequest, rid, w,
                                   e.version)});
                }
                break;
            }
            if (!accepted) {
                // Backend-side admission rejection: forward as-is.
                conn.push(sealFrame(MsgType::TrySubmitReply,
                                         p.clientRid, payload,
                                         p.version));
                break;
            }
            const std::uint64_t gwId = nextGwJobId.fetch_add(
                1, std::memory_order_relaxed);
            JobEntry e;
            e.backendIndex = p.backendIndex;
            e.backendId = backendJob;
            e.affinity = p.affinity;
            e.version = p.version;
            e.submitPayload = std::move(p.payload);
            conn.jobs.emplace(gwId, std::move(e));
            Writer w;
            if (p.reqType == MsgType::TrySubmitRequest) {
                w.boolean(true);
                w.u64(gwId);
                conn.push(sealFrame(MsgType::TrySubmitReply,
                                           p.clientRid, w,
                                           p.version));
            } else {
                w.u64(gwId);
                conn.push(sealFrame(MsgType::SubmitReply,
                                           p.clientRid, w,
                                           p.version));
            }
            break;
        }
        case MsgType::AwaitRequest: {
            if (!isError) {
                auto jit = conn.jobs.find(p.gwJobId);
                if (jit != conn.jobs.end()) {
                    // Keep the entry (Status/Poll still route after
                    // delivery) but drop the replay payload.
                    jit->second.delivered = true;
                    jit->second.awaited = false;
                    jit->second.submitPayload.clear();
                    jit->second.submitPayload.shrink_to_fit();
                }
                resultsForwarded.fetch_add(
                    1, std::memory_order_relaxed);
            } else {
                errorsReturned.fetch_add(1,
                                         std::memory_order_relaxed);
            }
            // The JobResult payload passes through BYTE-IDENTICAL:
            // this is what makes fleet results bit-identical to the
            // direct path.
            conn.push(
                sealFrame(fh.type, p.clientRid, payload, p.version));
            break;
        }
        default: {
            // Status/Poll/Cancel replies (or errors): no ids inside,
            // forward unmodified.
            if (isError)
                errorsReturned.fetch_add(1,
                                         std::memory_order_relaxed);
            conn.push(
                sealFrame(fh.type, p.clientRid, payload, p.version));
            break;
        }
        }
    }
    // Deferred sends (re-issued awaits) go on the SAME link the
    // resubmission was acked on, outside the connection mutex.
    for (auto &s : sends) {
        try {
            sendOnLink(link, s.frame);
        } catch (const std::exception &) {
            // Link died under us; its reader fails over the pending.
        }
    }
}

// --- failover ---------------------------------------------------------------

void
QumaGateway::failoverLink(Conn &conn, std::size_t dead_index)
{
    // Link readers land here whenever their stream dies -- including
    // when the gateway itself closed the link during connection
    // teardown. Only a link lost while the connection is still live
    // is evidence against the backend; marking it unhealthy on a
    // normal client disconnect would yank it out of routing until the
    // next probe.
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        if (conn.closing)
            return;
    }
    backends[dead_index]->healthy.store(false,
                                        std::memory_order_relaxed);

    struct Resubmit
    {
        std::uint64_t gwJobId = 0;
        std::uint64_t clientRid = 0;
        MsgType reqType = MsgType::SubmitRequest;
        std::uint16_t version = kWireVersion;
        std::uint64_t affinity = 0;
        bool internal = false;
        bool countsInFlight = false;
        std::vector<std::uint8_t> payload;
    };
    struct LocalReply
    {
        std::uint64_t clientRid = 0;
        std::uint16_t version = kWireVersion;
        MsgType reqType = MsgType::StatusRequest;
    };
    std::vector<Resubmit> resubmits;
    std::vector<LocalReply> locals;
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        if (conn.closing)
            return;
        for (auto it = conn.pending.begin();
             it != conn.pending.end();) {
            if (it->second.backendIndex != dead_index) {
                ++it;
                continue;
            }
            Pending p = std::move(it->second);
            it = conn.pending.erase(it);
            if (p.countsInFlight) {
                --conn.inFlight;
                conn.cvFlow.notify_all();
            }
            switch (p.reqType) {
            case MsgType::SubmitRequest:
            case MsgType::TrySubmitRequest: {
                Resubmit rs;
                rs.gwJobId = p.gwJobId;
                rs.clientRid = p.clientRid;
                rs.reqType = p.reqType;
                rs.version = p.version;
                rs.affinity = p.affinity;
                rs.internal = p.internal;
                rs.countsInFlight = p.countsInFlight;
                rs.payload = std::move(p.payload);
                resubmits.push_back(std::move(rs));
                break;
            }
            case MsgType::AwaitRequest: {
                // Remember the await on the job; it is re-issued
                // when the job's resubmission acks.
                auto jit = conn.jobs.find(p.gwJobId);
                if (jit != conn.jobs.end()) {
                    jit->second.awaited = true;
                    jit->second.awaitRid = p.clientRid;
                }
                break;
            }
            default:
                locals.push_back(
                    {p.clientRid, p.version, p.reqType});
                break;
            }
        }
        // Acked-but-undelivered jobs living on the dead backend:
        // journal-acked work the client holds an id for. Resubmit
        // them from the stored payload bytes.
        for (auto &[gwId, e] : conn.jobs) {
            if (e.backendIndex != dead_index || e.delivered ||
                e.backendId == 0)
                continue;
            e.backendId = 0; // failover window opens
            Resubmit rs;
            rs.gwJobId = gwId;
            rs.reqType = MsgType::SubmitRequest;
            rs.version = e.version;
            rs.affinity = e.affinity;
            rs.internal = true;
            rs.payload = e.submitPayload;
            resubmits.push_back(std::move(rs));
        }
    }
    if (resubmits.empty() && locals.empty())
        return;
    failovers.fetch_add(1, std::memory_order_relaxed);

    for (auto &l : locals)
        answerLocally(conn, l.version, l.clientRid, l.reqType);

    for (auto &rs : resubmits) {
        bool placed = false;
        for (std::size_t attempt = 0;
             attempt <= backends.size() && !placed; ++attempt) {
            std::optional<std::size_t> pick =
                chooseBackend(rs.affinity, dead_index);
            if (!pick)
                break;
            std::shared_ptr<BackendLink> link;
            try {
                link = ensureLink(conn, *pick);
            } catch (const std::exception &) {
                backends[*pick]->healthy.store(
                    false, std::memory_order_relaxed);
                continue;
            }
            std::uint64_t rid;
            {
                std::lock_guard<std::mutex> lock(conn.mu);
                if (conn.closing)
                    return;
                rid = conn.nextBackendRid++;
                Pending p;
                p.clientRid = rs.clientRid;
                p.reqType = rs.reqType;
                p.version = rs.version;
                p.backendIndex = *pick;
                p.gwJobId = rs.gwJobId;
                p.affinity = rs.affinity;
                p.internal = rs.internal;
                p.countsInFlight = rs.countsInFlight;
                if (rs.countsInFlight) {
                    ++conn.inFlight;
                    noteInFlight(conn.inFlight);
                }
                p.payload = rs.payload;
                conn.pending.emplace(rid, std::move(p));
            }
            backends[*pick]->jobsRouted.fetch_add(
                1, std::memory_order_relaxed);
            backends[dead_index]->resubmittedAway.fetch_add(
                1, std::memory_order_relaxed);
            jobsResubmitted.fetch_add(1, std::memory_order_relaxed);
            try {
                sendOnLink(*link, sealFrame(rs.reqType, rid,
                                          rs.payload, rs.version));
            } catch (const std::exception &) {
                // That link died too; ITS reader re-homes the
                // pending we registered. Ownership transferred.
            }
            placed = true;
        }
        if (placed)
            continue;
        // No healthy backend anywhere: the job (or submit) fails.
        std::uint64_t awaitRid = 0;
        std::uint16_t awaitVersion = kWireVersion;
        bool answerAwait = false;
        if (rs.internal) {
            std::lock_guard<std::mutex> lock(conn.mu);
            auto jit = conn.jobs.find(rs.gwJobId);
            if (jit != conn.jobs.end()) {
                if (jit->second.awaited) {
                    answerAwait = true;
                    awaitRid = jit->second.awaitRid;
                    awaitVersion = jit->second.version;
                }
                conn.jobs.erase(jit);
            }
        }
        if (answerAwait)
            queueError(conn, awaitRid, awaitVersion,
                       WireErrorCode::Internal,
                       "backend lost and no healthy backend left "
                       "for failover");
        if (!rs.internal) {
            if (rs.reqType == MsgType::TrySubmitRequest) {
                Writer w;
                w.boolean(false);
                w.u64(0);
                queueFrame(conn, MsgType::TrySubmitReply,
                           rs.clientRid, rs.version, w);
            } else {
                queueError(conn, rs.clientRid, rs.version,
                           WireErrorCode::Internal,
                           "backend lost and no healthy backend "
                           "left for failover");
            }
        }
    }
}

// --- stats / metrics --------------------------------------------------------

QumaGateway::Stats
QumaGateway::stats() const
{
    Stats s;
    s.connectionsAccepted = host.accepted();
    s.requestsForwarded =
        requestsForwarded.load(std::memory_order_relaxed);
    s.resultsForwarded =
        resultsForwarded.load(std::memory_order_relaxed);
    s.progressForwarded =
        progressForwarded.load(std::memory_order_relaxed);
    s.errorsReturned = errorsReturned.load(std::memory_order_relaxed);
    s.jobsShed = jobsShed.load(std::memory_order_relaxed);
    s.jobsResubmitted =
        jobsResubmitted.load(std::memory_order_relaxed);
    s.failovers = failovers.load(std::memory_order_relaxed);
    s.statsServed = statsServed.load(std::memory_order_relaxed);
    s.inFlightHighWater =
        inFlightHighWater.load(std::memory_order_relaxed);
    host.forEach([&s](FrameConn &c, bool live) {
        if (!live)
            return;
        ++s.connectionsActive;
        auto &conn = static_cast<Conn &>(c);
        std::lock_guard<std::mutex> lock(conn.mu);
        for (const auto &kv : conn.jobs)
            if (!kv.second.delivered)
                ++s.jobsInFlight;
    });
    for (const auto &b : backends) {
        BackendSnapshot snap;
        snap.name = b->cfg.name;
        snap.healthy = b->healthy.load(std::memory_order_relaxed);
        snap.draining = b->draining.load(std::memory_order_relaxed);
        snap.jobsRouted =
            b->jobsRouted.load(std::memory_order_relaxed);
        snap.jobsResubmittedAway =
            b->resubmittedAway.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(b->controlMu);
        snap.haveStats = b->haveStats;
        if (b->haveStats)
            snap.lastStats = b->lastStats;
        s.backends.push_back(std::move(snap));
    }
    return s;
}

void
QumaGateway::bindMetrics(metrics::MetricsRegistry &registry)
{
    auto load = [](const std::atomic<std::size_t> &a) {
        return static_cast<double>(
            a.load(std::memory_order_relaxed));
    };
    registry.counterFn(
        "quma_gateway_connections_accepted_total",
        "Client connections accepted by the gateway.", {},
        [this] { return static_cast<double>(host.accepted()); });
    registry.gaugeFn(
        "quma_gateway_connections_active",
        "Client connections currently multiplexed.", {},
        [this] { return static_cast<double>(host.active()); });
    registry.counterFn(
        "quma_gateway_requests_forwarded_total",
        "Client request frames forwarded to a backend.", {},
        [this, load] { return load(requestsForwarded); });
    registry.counterFn(
        "quma_gateway_results_forwarded_total",
        "AwaitReply frames forwarded back to clients.", {},
        [this, load] { return load(resultsForwarded); });
    registry.counterFn(
        "quma_gateway_progress_forwarded_total",
        "ProgressFrame pushes forwarded back to clients.", {},
        [this, load] { return load(progressForwarded); });
    registry.counterFn(
        "quma_gateway_errors_returned_total",
        "Requests answered with an ErrorReply frame.", {},
        [this, load] { return load(errorsReturned); });
    registry.counterFn(
        "quma_gateway_jobs_shed_total",
        "TrySubmits rejected locally on backend saturation.", {},
        [this, load] { return load(jobsShed); });
    registry.counterFn(
        "quma_gateway_jobs_resubmitted_total",
        "Jobs re-homed to another backend by failover.", {},
        [this, load] { return load(jobsResubmitted); });
    registry.counterFn(
        "quma_gateway_failovers_total",
        "Dead-backend-link events that triggered failover.", {},
        [this, load] { return load(failovers); });
    registry.counterFn(
        "quma_gateway_stats_served_total",
        "StatsRequests answered with the merged fleet view.", {},
        [this, load] { return load(statsServed); });
    registry.gaugeFn(
        "quma_gateway_in_flight_high_water",
        "Highest per-connection in-flight request count seen.", {},
        [this, load] { return load(inFlightHighWater); });
    registry.gaugeFn(
        "quma_gateway_jobs_in_flight",
        "Tracked jobs whose results were not yet delivered.", {},
        [this] { return static_cast<double>(stats().jobsInFlight); });
    registry.gaugeFn(
        "quma_gateway_backends_healthy",
        "Backends currently passing health checks.", {}, [this] {
            std::size_t n = 0;
            for (const auto &b : backends)
                if (b->healthy.load(std::memory_order_relaxed))
                    ++n;
            return static_cast<double>(n);
        });
    for (std::size_t i = 0; i < backends.size(); ++i) {
        const metrics::Labels labels{
            {"backend", backends[i]->cfg.name}};
        registry.gaugeFn(
            "quma_gateway_backend_healthy",
            "1 while the backend passes health checks.", labels,
            [this, i] {
                return backends[i]->healthy.load(
                           std::memory_order_relaxed)
                           ? 1.0
                           : 0.0;
            });
        registry.gaugeFn(
            "quma_gateway_backend_draining",
            "1 while the backend is drained out of routing.", labels,
            [this, i] {
                return backends[i]->draining.load(
                           std::memory_order_relaxed)
                           ? 1.0
                           : 0.0;
            });
        registry.counterFn(
            "quma_gateway_backend_jobs_routed_total",
            "Submit frames routed to the backend.", labels,
            [this, i, load] {
                return load(backends[i]->jobsRouted);
            });
        registry.counterFn(
            "quma_gateway_backend_jobs_resubmitted_away_total",
            "Jobs failover moved OFF the backend.", labels,
            [this, i, load] {
                return load(backends[i]->resubmittedAway);
            });
    }
    // The merged fleet view: one scrape of the gateway answers the
    // capacity questions that used to need scraping every backend.
    auto fleet = [this](auto pick) {
        return [this, pick] {
            return pick(fleetStats(cfg.healthInterval));
        };
    };
    registry.counterFn(
        "quma_fleet_jobs_submitted_total",
        "Jobs accepted across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.scheduler.submitted);
        }));
    registry.counterFn(
        "quma_fleet_jobs_completed_total",
        "Jobs completed across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.scheduler.completed);
        }));
    registry.counterFn(
        "quma_fleet_jobs_failed_total",
        "Jobs failed across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.scheduler.failed);
        }));
    registry.counterFn(
        "quma_fleet_shards_executed_total",
        "Shard tasks executed across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.scheduler.shardsExecuted);
        }));
    registry.gaugeFn(
        "quma_fleet_machine_saturation",
        "Worst machine-saturation EWMA across the fleet.", {},
        fleet([](const StatsFrame &s) {
            return s.scheduler.machineSaturation;
        }));
    registry.gaugeFn(
        "quma_fleet_queue_capacity",
        "Summed effective queue capacity across the fleet.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.effectiveQueueCapacity);
        }));
    registry.counterFn(
        "quma_fleet_pool_machines_created_total",
        "Machines constructed across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.pool.machinesCreated);
        }));
    registry.counterFn(
        "quma_fleet_cache_program_hits_total",
        "Program-cache hits across all live backends.", {},
        fleet([](const StatsFrame &s) {
            return static_cast<double>(s.cache.programHits);
        }));
}

} // namespace quma::net
