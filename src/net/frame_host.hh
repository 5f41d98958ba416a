/**
 * @file
 * FrameHost: the frame-connection machinery QumaServer and
 * QumaGateway share (src/net/README.md, "Threads and shutdown").
 *
 * The host runs the accept loop. Each connection gets a READER thread
 * that reads whole frames and hands them to the connection's serve
 * hook; the reader owns and joins a WRITER thread that drains the
 * connection's capped Outbox onto the stream. When the reader stops
 * (EOF, wire error, serve returning false, or a foreign version
 * answered by the refuse hook) it lets the writer flush for up to
 * kFarewellDrain, closes the connection, joins the writer, marks the
 * connection finished and runs onClosed. The acceptor reaps finished
 * connections; stop() closes every connection and joins every
 * thread. What differs between the front doors lives in a FrameConn
 * subclass: the per-connection state plus its hooks.
 */

#ifndef QUMA_NET_FRAME_HOST_HH
#define QUMA_NET_FRAME_HOST_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/transport.hh"
#include "net/wire.hh"

namespace quma::net {

/** One frame queued for a connection's writer. */
struct OutFrame
{
    std::vector<std::uint8_t> frame;
    /** When set, the writer fills `frame` from it just before the
     *  send, so a pusher on a shared thread never pays the encoding. */
    std::function<std::vector<std::uint8_t>()> seal;
};

/**
 * Frames queued for one connection's writer, FIFO. A push over the
 * cap closes it and drops the backlog (slow-consumer teardown);
 * close() drops whatever is pending.
 */
class Outbox
{
  public:
    explicit Outbox(std::size_t limit) : limit(limit) {}

    /** False (entry dropped) once closed or over the cap. An accepted
     *  entry first bumps `accepted` (if given) under the outbox lock,
     *  so a peer never reads a frame its count does not include. */
    bool push(OutFrame entry,
              std::atomic<std::size_t> *accepted = nullptr);
    /** Block for the next entry (marks it in flight); nullopt once
     *  closed. */
    std::optional<OutFrame> pop();
    /** The in-flight entry left sendAll (either way). */
    void sent();
    /** Wait, at most `timeout`, until queue and in-flight entry are
     *  drained: lets a farewell frame out before close(). */
    void drainFor(std::chrono::milliseconds timeout);
    void close();
    /** Entries queued (not counting one in flight). */
    std::size_t depth() const;

  private:
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<OutFrame> frames;
    bool closed = false;
    bool sending = false;
    const std::size_t limit;
};

/**
 * One accepted connection. Held by shared_ptr, so a front door may
 * hand it (weakly) to threads outside the host; it owns the stream,
 * so closing the stream through it is always safe.
 */
class FrameConn : public std::enable_shared_from_this<FrameConn>
{
  public:
    FrameConn(std::unique_ptr<ByteStream> stream,
              std::size_t max_queued_frames);
    virtual ~FrameConn() = default;

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;

    ByteStream &stream() const { return *stream_; }

    /** Queue a frame for the writer. A closed or overflowing outbox
     *  drops it and closes the stream, so both threads unwedge into
     *  teardown; false then. */
    bool push(OutFrame entry,
              std::atomic<std::size_t> *accepted = nullptr);
    bool
    push(std::vector<std::uint8_t> frame,
         std::atomic<std::size_t> *accepted = nullptr)
    {
        return push(OutFrame{std::move(frame), {}}, accepted);
    }

    /** Close outbox and stream, unblocking reader and writer
     *  (idempotent, any thread). Extend it to wake other waits. */
    virtual void close();

    Outbox outbox;

  protected:
    /** Serve one inbound frame; false (or a throw) ends the
     *  connection. Reader thread. */
    virtual bool serve(Frame frame) = 0;
    /** Queue the farewell for a frame in a foreign wire version. */
    virtual void refuse(const WireVersionError &ex) = 0;
    /** `frame` went out on the stream. Writer thread. */
    virtual void onSent(const std::vector<std::uint8_t> &) {}
    /** Last cleanup, after the writer joined and the connection
     *  counts as finished. Reader thread. */
    virtual void onClosed() {}

  private:
    friend class FrameHost;

    std::unique_ptr<ByteStream> stream_;
    std::thread reader;
    /** Guarded by the host mutex. */
    bool finished = false;
};

class FrameHost
{
  public:
    /** How long a closing connection lets its writer flush. */
    static constexpr std::chrono::milliseconds kFarewellDrain{500};

    /** Builds the state for accepted connection number `seq` (from
     *  1). Runs under the host lock: must not call into the host. */
    using Factory = std::function<std::shared_ptr<FrameConn>(
        std::unique_ptr<ByteStream> stream, std::size_t seq)>;

    FrameHost(std::unique_ptr<Listener> listener, Factory factory);
    ~FrameHost();

    FrameHost(const FrameHost &) = delete;
    FrameHost &operator=(const FrameHost &) = delete;

    /** Start the accept loop on its own thread. */
    void start();
    /** Stop accepting, close every connection and join every thread
     *  (idempotent). */
    void stop();
    bool stopping() const;

    std::size_t accepted() const;
    /** Connections not yet finished. */
    std::size_t active() const;
    /** Visit every tracked connection under the host lock (`live`
     *  false once finished); must not call into the host. */
    void forEach(
        const std::function<void(FrameConn &conn, bool live)> &fn)
        const;

  private:
    void acceptLoop();
    void serveConnection(FrameConn &conn);
    void writerLoop(FrameConn &conn);
    /** Join and drop finished connections (all with `join_all`). */
    void reap(bool join_all);

    std::unique_ptr<Listener> listener;
    const Factory factory;

    mutable std::mutex mu;
    bool stopped = false;
    std::size_t acceptedCount = 0;
    std::vector<std::shared_ptr<FrameConn>> conns;
    std::thread acceptor;
};

} // namespace quma::net

#endif // QUMA_NET_FRAME_HOST_HH
