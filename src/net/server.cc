#include "net/server.hh"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "common/logging.hh"

namespace quma::net {

namespace {

/**
 * Thrown when a liveness probe finds the client gone mid-request.
 * Deliberately NOT a std::exception: it must fly through the
 * per-request error-reply catches straight to serveRequest, which
 * ends the connection (there is nobody left to send a reply to).
 */
struct ConnectionLost
{
};

} // namespace

// --- ConnState --------------------------------------------------------------

QumaServer::ConnState::ConnState(QumaServer &server_,
                                 std::unique_ptr<ByteStream> stream)
    : FrameConn(std::move(stream), server_.cfg.maxQueuedReplyFrames),
      server(server_)
{
}

void
QumaServer::ConnState::noteSubmitted(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    submitted.insert(id);
}

void
QumaServer::ConnState::noteDelivered(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    submitted.erase(id);
}

bool
QumaServer::ConnState::owns(runtime::JobId id)
{
    std::lock_guard<std::mutex> lock(mu);
    return submitted.count(id) > 0;
}

std::vector<runtime::JobId>
QumaServer::ConnState::takeSubmitted()
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<runtime::JobId> ids(submitted.begin(),
                                    submitted.end());
    submitted.clear();
    return ids;
}

bool
QumaServer::ConnState::serve(Frame frame)
{
    return server.serveRequest(*this, std::move(frame));
}

void
QumaServer::ConnState::refuse(const WireVersionError &ex)
{
    // v1 frames have no requestId at all: answer on the
    // connection-level id.
    server.queueError(*this, kConnectionRequestId,
                      WireErrorCode::VersionMismatch, ex.what());
}

void
QumaServer::ConnState::onSent(const std::vector<std::uint8_t> &frame)
{
    if (capture)
        capture->record(CaptureRecordType::Outbound, frame.data(),
                        frame.size());
    std::lock_guard<std::mutex> lock(server.mu);
    server.meter.record(frame.size(), false);
}

void
QumaServer::ConnState::onClosed()
{
    // Cancel the connection's undelivered queued jobs: the only
    // party that could read their results just vanished. Running
    // work is never interrupted (cancel refuses it); a job whose
    // result was already streamed is no longer in the set.
    std::size_t cancelled = 0;
    for (runtime::JobId id : takeSubmitted())
        if (server.service.scheduler().cancel(id))
            ++cancelled;

    std::lock_guard<std::mutex> lock(server.mu);
    server.counters.jobsCancelledOnDisconnect += cancelled;
    // Absorb (and zero) the streamed counts so stats() -- which also
    // sums tracked connections -- never counts them twice.
    server.counters.resultsStreamed +=
        streamed.exchange(0, std::memory_order_relaxed);
    server.counters.progressFramesPushed +=
        progressPushed.exchange(0, std::memory_order_relaxed);
}

// --- QumaServer -------------------------------------------------------------

QumaServer::QumaServer(runtime::ExperimentService &service_,
                       std::unique_ptr<Listener> listener,
                       ServerConfig config)
    : service(service_), cfg(config), meter(cfg.linkBytesPerSecond),
      host(std::move(listener),
           [this](std::unique_ptr<ByteStream> stream, std::size_t seq) {
               return makeConnection(std::move(stream), seq);
           })
{
    if (!cfg.captureDir.empty() &&
        ::mkdir(cfg.captureDir.c_str(), 0755) != 0 &&
        errno != EEXIST)
        fatal("capture: cannot create directory '", cfg.captureDir,
              "': ", std::strerror(errno));
    host.start();
}

QumaServer::~QumaServer()
{
    stop();
}

void
QumaServer::stop()
{
    host.stop();
}

QumaServer::Stats
QumaServer::stats() const
{
    // ONE server-lock acquisition covers the whole snapshot: the
    // counters, the tracked connections' streamed counts (atomics,
    // absorbed into the counters under this same lock when a
    // connection closes) and the meter.
    std::lock_guard<std::mutex> lock(mu);
    Stats s = counters;
    host.forEach([&s](FrameConn &c, bool live) {
        const auto &state = static_cast<const ConnState &>(c);
        s.connectionsActive += live ? 1 : 0;
        s.resultsStreamed +=
            state.streamed.load(std::memory_order_relaxed);
        s.progressFramesPushed +=
            state.progressPushed.load(std::memory_order_relaxed);
    });
    s.connectionsAccepted = host.accepted();
    s.link = meter.stats();
    return s;
}

void
QumaServer::bindMetrics(metrics::MetricsRegistry &registry)
{
    registry.counterFn(
        "quma_server_connections_accepted_total",
        "Connections accepted by the serving listener.", {}, [this] {
            return static_cast<double>(host.accepted());
        });
    registry.gaugeFn(
        "quma_server_connections_active",
        "Connections currently being served.", {},
        [this] { return static_cast<double>(host.active()); });
    registry.counterFn(
        "quma_server_requests_served_total",
        "Request frames fully received and dispatched.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.requestsServed);
        });
    static constexpr const char *kTypeNames[10] = {
        "other", "submit",     "try_submit", "status", "poll",
        "await", "stats",      "cancel",     "clock_sync",
        "trace_dump"};
    for (std::size_t t = 0; t < std::size(kTypeNames); ++t)
        registry.counterFn(
            "quma_server_requests_total",
            "Requests served, by wire frame type.",
            {{"type", kTypeNames[t]}}, [this, t] {
                std::lock_guard<std::mutex> lock(mu);
                return static_cast<double>(counters.requestsByType[t]);
            });
    registry.counterFn(
        "quma_server_errors_returned_total",
        "Requests answered with an ErrorReply frame.", {}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.errorsReturned);
        });
    registry.counterFn(
        "quma_server_disconnect_cancelled_jobs_total",
        "Queued jobs cancelled because their client vanished.", {},
        [this] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(
                counters.jobsCancelledOnDisconnect);
        });
    registry.counterFn(
        "quma_server_results_streamed_total",
        "AwaitReply frames pushed by completion subscriptions.", {},
        [this] {
            return static_cast<double>(stats().resultsStreamed);
        });
    registry.counterFn(
        "quma_server_progress_frames_total",
        "ProgressFrame pushes delivered to v4 peers.", {}, [this] {
            return static_cast<double>(stats().progressFramesPushed);
        });
    registry.gaugeFn(
        "quma_server_outbox_frames",
        "Reply frames queued across live connections' outboxes.", {},
        [this] {
            std::size_t depth = 0;
            host.forEach([&depth](FrameConn &c, bool) {
                depth += c.outbox.depth();
            });
            return static_cast<double>(depth);
        });
    registry.counterFn("quma_link_bytes_total",
                       "Wire traffic through the serving link meter.",
                       {{"direction", "up"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesUp);
                       });
    registry.counterFn("quma_link_bytes_total",
                       "Wire traffic through the serving link meter.",
                       {{"direction", "down"}}, [this] {
                           std::lock_guard<std::mutex> lock(mu);
                           return static_cast<double>(
                               meter.stats().bytesDown);
                       });
    registry.counterFn(
        "quma_link_seconds_total",
        "Modeled transfer time at the configured link rate.",
        {{"direction", "up"}}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return meter.stats().secondsUp;
        });
    registry.counterFn(
        "quma_link_seconds_total",
        "Modeled transfer time at the configured link rate.",
        {{"direction", "down"}}, [this] {
            std::lock_guard<std::mutex> lock(mu);
            return meter.stats().secondsDown;
        });
}

std::shared_ptr<FrameConn>
QumaServer::makeConnection(std::unique_ptr<ByteStream> stream,
                           std::size_t seq)
{
    auto state = std::make_shared<ConnState>(*this, std::move(stream));
    if (!cfg.captureDir.empty()) {
        // Named by the accept sequence number: captures line up with
        // quma_server_connections_accepted_total and never collide
        // across a server's lifetime.
        const std::string path =
            cfg.captureDir + "/conn-" + std::to_string(seq) + ".qcap";
        try {
            state->capture = std::make_shared<CaptureWriter>(path);
        } catch (const FatalError &ex) {
            // Serve without the recording rather than refusing the
            // client: capture is a diagnostic aid.
            warn("capture disabled for connection: ", ex.what());
        }
    }
    return state;
}

void
QumaServer::queueFrame(ConnState &state, MsgType type,
                       std::uint64_t request_id, const Writer &payload)
{
    state.push(sealFrame(type, request_id, payload,
                         state.peerVersion.load(
                             std::memory_order_relaxed)));
}

void
QumaServer::queueError(ConnState &state, std::uint64_t request_id,
                       WireErrorCode code, const std::string &message)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.errorsReturned;
    }
    Writer w;
    encodeErrorFrame(w, ErrorFrame{code, message});
    queueFrame(state, MsgType::ErrorReply, request_id, w);
}

bool
QumaServer::serveRequest(ConnState &state, Frame frame)
{
    // v3 and v4 share the byte-identical header layout: the frame's
    // version tells this connection which dialect to speak back.
    state.peerVersion.store(frame.version, std::memory_order_relaxed);
    const FrameHeader &fh = frame.header;
    if (state.capture) {
        // Record only FULLY received frames (header + payload), so a
        // capture replays cleanly: a request torn by a dying client
        // was never served and must not be re-driven either.
        std::vector<std::uint8_t> bytes = sealFrame(
            fh.type, fh.requestId, frame.payload, frame.version);
        state.capture->record(CaptureRecordType::Inbound, bytes.data(),
                              bytes.size());
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        meter.record(kFrameHeaderBytes + frame.payload.size(), true);
        ++counters.requestsServed;
        auto type = static_cast<std::size_t>(fh.type);
        ++counters
              .requestsByType[type < counters.requestsByType.size()
                                  ? type
                                  : 0];
    }

    Reader r(frame.payload);
    try {
        return dispatchRequest(state, fh, r);
    } catch (const WireError &ex) {
        // The frame itself was fully received -- framing is intact,
        // only this payload was malformed. That is the client's bug:
        // answer it and keep the connection (tearing it down would
        // also cancel the client's other queued jobs).
        queueError(state, fh.requestId, WireErrorCode::BadRequest,
                   ex.what());
        return true;
    } catch (const ConnectionLost &) {
        // Liveness probe saw the client go: straight to teardown.
        return false;
    }
}

bool
QumaServer::dispatchRequest(ConnState &state, const FrameHeader &header,
                            Reader &r)
{
    // How long a blocking submit may hold the reader before it
    // rechecks stop(): bounds shutdown latency without polling hot.
    constexpr std::chrono::milliseconds kStopCheck{50};
    const std::uint64_t rid = header.requestId;

    switch (header.type) {
    case MsgType::SubmitRequest: {
        runtime::JobSpec spec = decodeJobSpec(r);
        // v4 appends the client's trace context AFTER the spec, so
        // decodeJobSpec (and with it the journal record format)
        // stays byte-identical to v3.
        TraceContext tc;
        if (state.peerVersion.load(std::memory_order_relaxed) >= 4)
            tc = decodeTraceContext(r);
        r.expectEnd();
        try {
            std::optional<runtime::JobId> id;
            // Interruptible submit: a queue that stays at the hard
            // bound must not wedge stop() -- or a vanished client's
            // disconnect handling -- behind this thread. This is the
            // one deliberately blocking request: backpressure from a
            // full queue is supposed to slow the pipelining client
            // down.
            while (!(id = service.submitFor(spec, kStopCheck))) {
                if (host.stopping()) {
                    queueError(state, rid, WireErrorCode::Shutdown,
                               "server stopping");
                    return false;
                }
                if (!state.stream().peerAlive())
                    throw ConnectionLost{};
            }
            state.noteSubmitted(*id);
            // Tie the server-side lifecycle events to the client's
            // trace, so one merged dump shows both sides. No-op
            // while tracing is off.
            if (tc.traceId != 0)
                service.trace().setTraceId(*id, tc.traceId);
            Writer w;
            w.u64(*id);
            queueFrame(state, MsgType::SubmitReply, rid, w);
            // (ConnectionLost is not a std::exception by design: it
            // flies past the handler below to the disconnect path.)
        } catch (const std::exception &ex) {
            queueError(state, rid, WireErrorCode::Internal,
                       ex.what());
        }
        return true;
    }
    case MsgType::TrySubmitRequest: {
        runtime::JobSpec spec = decodeJobSpec(r);
        TraceContext tc;
        if (state.peerVersion.load(std::memory_order_relaxed) >= 4)
            tc = decodeTraceContext(r);
        r.expectEnd();
        try {
            std::optional<runtime::JobId> id =
                service.trySubmit(std::move(spec));
            if (id) {
                state.noteSubmitted(*id);
                if (tc.traceId != 0)
                    service.trace().setTraceId(*id, tc.traceId);
            }
            Writer w;
            w.boolean(id.has_value());
            w.u64(id.value_or(0));
            queueFrame(state, MsgType::TrySubmitReply, rid, w);
        } catch (const std::exception &ex) {
            queueError(state, rid, WireErrorCode::Internal,
                       ex.what());
        }
        return true;
    }
    case MsgType::StatusRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            runtime::JobStatus st = service.status(id);
            Writer w;
            w.u8(static_cast<std::uint8_t>(st));
            queueFrame(state, MsgType::StatusReply, rid, w);
        } catch (const std::exception &ex) {
            queueError(state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::PollRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            std::optional<runtime::JobResult> result =
                service.poll(id);
            Writer w;
            w.boolean(result.has_value());
            if (result)
                encodeJobResult(w, *result);
            queueFrame(state, MsgType::PollReply, rid, w);
            // Result delivered: nothing left for disconnect-cancel
            // to protect, and the per-connection id tracking must
            // not grow for the lifetime of a busy connection.
            if (result)
                state.noteDelivered(id);
        } catch (const std::exception &ex) {
            // Unknown to the scheduler (likely aged out of result
            // retention): dead weight in the tracking set too.
            state.noteDelivered(id);
            queueError(state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::AwaitRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        try {
            // The streaming path: no blocking, no polling. The
            // completion callback runs on the scheduler's notifier
            // thread and holds the connection state WEAKLY -- if the
            // connection is gone by the time the job finishes, the
            // push finds a closed outbox (or nothing at all) and
            // evaporates without touching the server.
            std::weak_ptr<ConnState> weak =
                std::static_pointer_cast<ConnState>(
                    state.shared_from_this());
            if (state.peerVersion.load(std::memory_order_relaxed) >=
                4) {
                // v4 peers also get rate-limited progress pushes
                // under the await's requestId, ending at done ==
                // total (an already-finished job gets just that
                // frame), as sealed frames -- not deferred entries
                // -- because a progress payload is three u64s:
                // encoding on the notifier thread is cheaper than a
                // writer-side deferral round trip.
                service.scheduler().subscribeProgress(
                    id, [weak, rid](runtime::JobId job,
                                    std::size_t done,
                                    std::size_t total) {
                        std::shared_ptr<ConnState> st = weak.lock();
                        if (!st)
                            return;
                        Writer w;
                        encodeProgressFrame(
                            w, ProgressFrameData{job, done, total});
                        // A dead or overflowed connection drops
                        // the push (and push unwedges its threads).
                        st->push(sealFrame(MsgType::ProgressFrame,
                                           rid, w,
                                           st->peerVersion.load(
                                               std::memory_order_relaxed)),
                                 &st->progressPushed);
                    });
            }
            service.scheduler().subscribe(
                id,
                [weak, rid, id](
                    runtime::JobId,
                    std::shared_ptr<const runtime::JobResult>
                        result) {
                    std::shared_ptr<ConnState> st = weak.lock();
                    if (!st)
                        return;
                    // Hand the shared result straight to the
                    // connection's writer, which encodes it: the
                    // notifier thread stays cheap no matter how
                    // large the result or how many connections
                    // stream concurrently. (The entry lives in this
                    // connection's outbox, so `conn` outlives it.)
                    ConnState *conn = st.get();
                    auto seal = [conn, rid, result = std::move(result)] {
                        Writer w;
                        encodeJobResult(w, *result);
                        return sealFrame(MsgType::AwaitReply, rid, w,
                                         conn->peerVersion.load(
                                             std::memory_order_relaxed));
                    };
                    if (st->push(OutFrame{{}, std::move(seal)},
                                 &st->streamed))
                        st->noteDelivered(id);
                });
        } catch (const std::exception &ex) {
            state.noteDelivered(id); // unknown/aged out: dead weight
            queueError(state, rid, WireErrorCode::UnknownJob,
                       ex.what());
        }
        return true;
    }
    case MsgType::ClockSyncRequest: {
        r.expectEnd();
        // The clock-alignment handshake: the client brackets this
        // round trip with its own steady clock and maps the reply
        // onto the midpoint (docs/observability.md). Answered inline
        // on the reader, so queueing delay stays out of the sample.
        Writer w;
        encodeClockSyncFrame(
            w, ClockSyncFrame{service.trace().nowNanos()});
        queueFrame(state, MsgType::ClockSyncReply, rid, w);
        return true;
    }
    case MsgType::TraceDumpRequest: {
        r.expectEnd();
        // On-demand trace dump: raw events (server timebase), the
        // job->traceId associations, and the drop count. Raw rather
        // than rendered JSON so the client can clock-shift and merge
        // with its own spans.
        TraceDumpFrame dump;
        dump.events = service.trace().events();
        dump.traceIds = service.trace().traceIdPairs();
        dump.dropped = service.trace().dropped();
        Writer w;
        encodeTraceDumpFrame(w, dump);
        queueFrame(state, MsgType::TraceDumpReply, rid, w);
        return true;
    }
    case MsgType::StatsRequest: {
        r.expectEnd();
        Writer w;
        encodeStatsFrame(w, service.stats());
        queueFrame(state, MsgType::StatsReply, rid, w);
        return true;
    }
    case MsgType::CancelRequest: {
        runtime::JobId id = r.u64();
        r.expectEnd();
        // Ownership check: a connection may only cancel jobs it
        // submitted itself -- ids are a guessable global sequence,
        // and cancelling another client's queued work would corrupt
        // that client's awaits.
        bool ok = state.owns(id) && service.scheduler().cancel(id);
        if (ok)
            state.noteDelivered(id);
        Writer w;
        w.boolean(ok);
        queueFrame(state, MsgType::CancelReply, rid, w);
        return true;
    }
    default:
        // A reply type arriving as a request is a protocol
        // violation; tell the peer and keep the connection (the
        // framing is still intact).
        queueError(state, rid, WireErrorCode::BadRequest,
                   "frame type " +
                       std::to_string(static_cast<std::uint16_t>(
                           header.type)) +
                       " is not a request");
        return true;
    }
}

} // namespace quma::net
