/**
 * @file
 * Deterministic capture replay: re-drive a recorded connection
 * against a fresh service and diff every result byte-for-byte.
 *
 * The determinism contract (a JobResult is a pure function of its
 * JobSpec -- runtime/job.hh) means a captured session is a complete
 * reproduction recipe: feed the same inbound frames to a fresh
 * ExperimentService and every job MUST produce the bit-identical
 * result the original server streamed. replayCapture() automates
 * exactly that, which turns any incident capture into an exact-repro
 * debugger and any checked-in capture into a standing regression
 * guard on the contract (tests/data/, tests/test_journal.cc).
 *
 * ID REMAPPING. The fresh service assigns its own JobIds, so the
 * replies to Submit/TrySubmit requests are the correlation points:
 * for each such requestId the CAPTURED reply names the old id and the
 * REPLAYED reply names the new one. Id-bearing requests
 * (Status/Poll/Await/Cancel, payload = one u64) are rewritten
 * old -> new before sending; the sender blocks until the mapping
 * exists (the original client did too -- it could not name an id
 * before reading it).
 *
 * WHAT IS COMPARED. Only AwaitReply payloads: they carry final
 * JobResults, which determinism pins exactly. Status/Poll replies are
 * snapshots of a race (Queued vs Running vs Done depends on timing)
 * and Stats replies aggregate load -- both are re-driven but not
 * diffed. Submit/TrySubmit replies feed the id map. Pushed
 * ProgressFrames ride the await's requestId ahead of its AwaitReply
 * and report rate-limited timing, so both sides drop them before
 * indexing: each requestId maps to its one reply. A request whose
 * captured reply was an ErrorReply expects an ErrorReply back (same
 * code class is not enforced -- error strings may differ).
 */

#ifndef QUMA_NET_REPLAY_HH
#define QUMA_NET_REPLAY_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/capture.hh"

namespace quma::net {

struct ReplayOptions
{
    /** Fresh-service worker count (determinism makes it free). */
    unsigned workers = 2;
    /** Fresh-service queue bound; generous so a capture recorded
     *  against a busy server is not throttled differently here. */
    std::size_t queueCapacity = 4096;
    /** Give up on missing replies after this long. */
    std::chrono::milliseconds timeout = std::chrono::minutes(2);
};

/** One reply whose byte-compare failed. */
struct ReplayMismatch
{
    std::uint64_t requestId = 0;
    std::string reason;
};

struct ReplayReport
{
    std::size_t framesSent = 0;
    /** Captured AwaitReply frames eligible for comparison. */
    std::size_t awaitedResults = 0;
    /** ... of which byte-matched the replayed reply. */
    std::size_t matchedResults = 0;
    std::vector<ReplayMismatch> mismatches;
    /** Replies still missing when ReplayOptions::timeout expired. */
    std::size_t timedOut = 0;
    /** Capture-side damage (torn tail) noted for the caller. */
    std::size_t corruptRecords = 0;

    bool
    ok() const
    {
        return awaitedResults == matchedResults &&
               mismatches.empty() && timedOut == 0;
    }
};

/**
 * Boot a fresh ExperimentService + QumaServer over an in-process
 * loopback, re-send `capture`'s inbound frames in order (ids
 * rewritten), and byte-compare every AwaitReply against the captured
 * one. Throws WireError only on an unusable capture (invalid file or
 * undecodable inbound frame); everything downstream is reported, not
 * thrown.
 */
ReplayReport replayCapture(const CaptureFile &capture,
                           const ReplayOptions &options = {});

} // namespace quma::net

#endif // QUMA_NET_REPLAY_HH
