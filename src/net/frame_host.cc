#include "net/frame_host.hh"

#include <algorithm>

#include "common/logging.hh"

namespace quma::net {

// --- Outbox -----------------------------------------------------------------

bool
Outbox::push(OutFrame entry, std::atomic<std::size_t> *accepted)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closed)
            return false;
        if (frames.size() >= limit) {
            // Slow-consumer overflow: the peer requests but never
            // reads. Close (dropping the backlog); the pusher closes
            // the stream.
            closed = true;
            frames.clear();
            cv.notify_all();
            return false;
        }
        if (accepted)
            accepted->fetch_add(1, std::memory_order_relaxed);
        frames.push_back(std::move(entry));
    }
    // notify_all: the cv is shared by the writer's pop AND a
    // teardown drainFor; waking only one could park the writer
    // behind a drain waiter and stall (then drop) this frame.
    cv.notify_all();
    return true;
}

std::optional<OutFrame>
Outbox::pop()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return closed || !frames.empty(); });
    if (closed)
        return std::nullopt;
    OutFrame entry = std::move(frames.front());
    frames.pop_front();
    sending = true;
    return entry;
}

void
Outbox::sent()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        sending = false;
    }
    // Wake a drainFor() waiter watching the queue empty out.
    cv.notify_all();
}

void
Outbox::drainFor(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, timeout, [this] {
        return closed || (frames.empty() && !sending);
    });
}

void
Outbox::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
        frames.clear();
    }
    cv.notify_all();
}

std::size_t
Outbox::depth() const
{
    std::lock_guard<std::mutex> lock(mu);
    return frames.size();
}

// --- FrameConn --------------------------------------------------------------

FrameConn::FrameConn(std::unique_ptr<ByteStream> stream,
                     std::size_t max_queued_frames)
    : outbox(max_queued_frames), stream_(std::move(stream))
{
}

bool
FrameConn::push(OutFrame entry, std::atomic<std::size_t> *accepted)
{
    if (outbox.push(std::move(entry), accepted))
        return true;
    // Closed -- normal teardown, or an overflow that just closed it.
    // Closing the stream (idempotent) unblocks a writer wedged in
    // sendAll against the dead peer and the reader alike.
    stream_->close();
    return false;
}

void
FrameConn::close()
{
    // Outbox first (ends the writer's pop), stream second (unblocks
    // a wedged sendAll and the reader's recv).
    outbox.close();
    stream_->close();
}

// --- FrameHost --------------------------------------------------------------

FrameHost::FrameHost(std::unique_ptr<Listener> listener_in,
                     Factory factory_in)
    : listener(std::move(listener_in)), factory(std::move(factory_in))
{
    if (!listener)
        fatal("a frame host needs a listener");
}

FrameHost::~FrameHost()
{
    stop();
}

void
FrameHost::start()
{
    acceptor = std::thread([this] { acceptLoop(); });
}

void
FrameHost::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (stopped)
            return;
        stopped = true;
        for (auto &conn : conns)
            conn->close();
    }
    listener->close();
    // Join the acceptor first: after it no new connection can start.
    if (acceptor.joinable())
        acceptor.join();
    // Deterministic teardown: every serving thread is joined before
    // stop() returns -- nothing detached survives the host.
    reap(/*join_all=*/true);
}

bool
FrameHost::stopping() const
{
    std::lock_guard<std::mutex> lock(mu);
    return stopped;
}

std::size_t
FrameHost::accepted() const
{
    std::lock_guard<std::mutex> lock(mu);
    return acceptedCount;
}

std::size_t
FrameHost::active() const
{
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(
        std::count_if(conns.begin(), conns.end(),
                      [](const auto &c) { return !c->finished; }));
}

void
FrameHost::forEach(
    const std::function<void(FrameConn &, bool)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &conn : conns)
        fn(*conn, !conn->finished);
}

void
FrameHost::reap(bool join_all)
{
    // Joining can briefly block (a finishing reader still in its
    // closed hook), so never join while holding mu: move the
    // candidates out first.
    std::vector<std::shared_ptr<FrameConn>> reaped;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto split = std::partition(
            conns.begin(), conns.end(), [join_all](const auto &c) {
                return !join_all && !c->finished;
            });
        reaped.assign(std::make_move_iterator(split),
                      std::make_move_iterator(conns.end()));
        conns.erase(split, conns.end());
    }
    for (auto &conn : reaped)
        if (conn->reader.joinable())
            conn->reader.join();
}

void
FrameHost::acceptLoop()
{
    for (;;) {
        std::unique_ptr<ByteStream> stream = listener->accept();
        if (!stream)
            return;
        reap(/*join_all=*/false);
        std::lock_guard<std::mutex> lock(mu);
        if (stopped) {
            stream->close();
            return;
        }
        std::shared_ptr<FrameConn> conn =
            factory(std::move(stream), ++acceptedCount);
        FrameConn *raw = conn.get();
        try {
            conn->reader =
                std::thread([this, raw] { serveConnection(*raw); });
        } catch (const std::exception &ex) {
            // Thread exhaustion must not terminate the acceptor;
            // drop just this connection and keep serving.
            warn("serving thread spawn failed: ", ex.what());
            conn->close();
            continue;
        }
        conns.push_back(std::move(conn));
    }
}

void
FrameHost::writerLoop(FrameConn &conn)
{
    while (std::optional<OutFrame> entry = conn.outbox.pop()) {
        try {
            if (entry->seal)
                entry->frame = entry->seal();
            conn.stream().sendAll(entry->frame.data(),
                                  entry->frame.size());
        } catch (const std::exception &) {
            // Dead peer: stop writing and wake the reader into
            // teardown.
            conn.outbox.sent();
            break;
        }
        conn.outbox.sent();
        conn.onSent(entry->frame);
    }
    // Closed outbox (teardown or overflow) or dead peer: make sure
    // the reader is not left parked on a connection nobody will
    // write to again. Idempotent on the normal teardown path.
    conn.close();
}

void
FrameHost::serveConnection(FrameConn &conn)
{
    // The writer is owned (and joined) by this reader thread; the
    // outbox is the only coupling between them.
    std::thread writer([this, &conn] { writerLoop(conn); });
    try {
        for (;;) {
            std::optional<Frame> frame;
            try {
                frame = readFrame(conn.stream());
            } catch (const WireVersionError &ex) {
                // A legacy (or future) peer: its framing is foreign,
                // but the prefix says WHY. Say so, then hang up.
                conn.refuse(ex);
                break;
            }
            if (!frame || !conn.serve(std::move(*frame)))
                break;
        }
    } catch (const std::exception &) {
        // Dead or misbehaving peer: the connection is gone either
        // way.
    }
    // Let the writer flush farewell frames (a VersionMismatch or
    // Shutdown error the peer should still see), then close.
    conn.outbox.drainFor(kFarewellDrain);
    conn.close();
    writer.join();
    {
        std::lock_guard<std::mutex> lock(mu);
        conn.finished = true;
    }
    conn.onClosed();
}

} // namespace quma::net
