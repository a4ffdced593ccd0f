#pragma once
// Line-framed JSON wire protocol, spoken by both daemons — the lease
// coordinator and gpudiff-serve — through net::Server (net/server.hpp),
// and by their clients through request_response below.
//
// Every message is one compact JSON object terminated by '\n' — trivially
// observable with netcat, trivially relayed (and corrupted on purpose) by
// the fault-injection proxy, and deterministic to serialize (sorted keys).
//
// Session shape: a client connects and sends a versioned hello; the
// server refuses mismatches at connect ("fatal": true — do not retry) and
// refuses any request sent before an accepted hello the same way.  The
// coordinator's hello carries the full campaign configuration fingerprint
// and lease geometry; the store daemon's carries its store version (see
// store/serve.hpp for that daemon's ops).  After the hello, each request
// carries a client-chosen monotonically increasing "seq"; the response
// echoes it, which is what keeps a duplicated or delayed frame (injected
// by the proxy, or a retry racing a slow response) from desynchronizing
// the request/response stream: a client simply discards responses whose
// seq is below the one it is waiting for.
//
// Coordinator requests (after hello):
//   {"op":"claim","lease":k,"seq":n}     -> {"ok":true,"acquired":b,"seq":n}
//                                           (false, no claim: lease done)
//   {"op":"age","lease":k,...}           -> {"ok":true,"age":s}   (-1: free)
//   {"op":"steal","lease":k,...}         -> {"ok":true,"stolen":b}
//                                           (false, no claim: lease done)
//   {"op":"heartbeat","lease":k,...}     -> {"ok":true,"beating":b}
//   {"op":"publish","block":{...},...}   -> {"ok":true}  (ends the claim)
//   {"op":"release","lease":k,...}       -> {"ok":true}
//   {"op":"reap","lease":k,...}          -> {"ok":true,"reaped":b}
//   {"op":"done","lease":k,...}          -> {"ok":true,"done":b}
//   {"op":"list_done",...}               -> {"ok":true,"done":[k,...]}
//                                           (one directory read, ascending)
// Errors: {"ok":false,"error":"...","fatal":b,"seq":n}.  Non-fatal errors
// are retryable (transient server conditions); fatal ones mean the client
// is wrong (bad hello, malformed op) and must not retry.
//
// At-least-once safety is the filesystem board's, because the coordinator
// answers each request with the matching FsLeaseTransport operation on
// its state directory: claim is idempotent for the claim's own worker and
// refuses a finished lease, publish writes a lease's done file once and
// then ends the publisher's claim (a duplicate block, identical by the
// determinism invariant, is acknowledged without a write), and
// release/steal on an unexpected state degrade to "lost the race", never
// to corruption.  Version 2 made claim refuse finished leases and publish
// end the claim.  A version-2 worker relies on both — it neither releases
// after a publish nor re-checks done under a claim — so against a
// version-1 coordinator it would leave claims behind; the hello refuses
// the mix.

#include <string>

#include "net/socket.hpp"
#include "support/json.hpp"

namespace gpudiff::net {

/// Wire protocol version, carried by every hello.  Bump on any change to
/// message shapes or to what an op means; both daemons refuse other
/// versions at connect.
inline constexpr int kWireVersion = 2;

/// Send one message as a compact JSON line.
IoStatus send_message(Socket& socket, const support::Json& message,
                      double timeout_seconds);

/// Receive one message line and parse it.  A line that is not valid JSON
/// returns Error (the connection is desynchronized beyond repair).
IoStatus recv_message(Socket& socket, support::Json* message,
                      double timeout_seconds);

/// Client side of one request/response exchange under the seq discipline:
/// stamp `request` with `seq`, send it, then read until the response
/// echoing `seq` arrives — frames with a lower seq are stale duplicates
/// and are discarded, a higher seq means the stream is desynchronized
/// (returned as Error).  Both the worker transport and the store query
/// clients speak this exchange; the caller owns seq monotonicity.
IoStatus request_response(Socket& socket, support::Json request,
                          std::int64_t seq, support::Json* response,
                          double timeout_seconds);

/// {"ok":true,"seq":seq}, echoing `request`'s seq as sent (0 when it has
/// none) — extend with op-specific fields.
support::Json ok_response(const support::Json& request);
/// {"ok":false,"error":error,"fatal":fatal,"seq":seq}, seq as above.
support::Json error_response(const support::Json& request,
                             const std::string& error, bool fatal);

}  // namespace gpudiff::net
