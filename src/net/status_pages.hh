/**
 * @file
 * The JSON pages quma_serve and the gateway serve next to /metrics
 * (docs/observability.md). Strings are JSON-escaped, so any name
 * gives a valid page; /statusz walks statsFields() (net/wire.hh).
 */

#ifndef QUMA_NET_STATUS_PAGES_HH
#define QUMA_NET_STATUS_PAGES_HH

#include <string>

#include "net/gateway.hh"
#include "net/server.hh"

namespace quma::net {

/** quma_serve /healthz; `traced` = job-lifecycle tracing is on. */
std::string serveHealthzJson(runtime::ExperimentService &service,
                             bool traced);
/** quma_serve /statusz: every StatsReply field plus serving stats. */
std::string serveStatuszJson(const runtime::ExperimentService &service,
                             const QumaServer &server);
/** Gateway /healthz: "ok" while any backend is healthy. */
std::string gatewayHealthzJson(const QumaGateway &gateway);
/** Gateway /statusz: its counters plus, per backend, routing state
 *  and last scheduler stats. */
std::string gatewayStatuszJson(const QumaGateway &gateway);

} // namespace quma::net

#endif // QUMA_NET_STATUS_PAGES_HH
