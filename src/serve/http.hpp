// Minimal embedded HTTP/1.0 responder for the serve daemon.
//
// Serves exactly what a production sidecar needs and nothing more:
//   GET /metrics        — Prometheus text exposition of the process registry
//   GET /healthz        — JSON liveness document
//   GET /debug/...      — live introspection (lanes, patterns, trace)
// Each request is answered on its own thread (serve/net's Listener), one
// request per connection, no keep-alive, no TLS; the socket binds to
// 127.0.0.1 only (scrape through a localhost agent, never exposed).
// Routing is injected as a callback so the responder stays testable without
// a Server instance.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "serve/net.hpp"

namespace seqrtg::serve {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a request target ("/metrics", "/debug/trace?ms=500" — the query
/// string is preserved) to a response; return status 404 for unknown paths.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

class HttpResponder {
 public:
  explicit HttpResponder(HttpHandler handler)
      : handler_(std::move(handler)) {}
  HttpResponder(const HttpResponder&) = delete;
  HttpResponder& operator=(const HttpResponder&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and starts the accept
  /// thread. Returns false when the socket cannot be bound.
  bool start(int port, std::string* error = nullptr);

  /// Port actually bound (useful with port 0); 0 when not running.
  int port() const { return listener_.port(); }

  /// Closes the listener and joins every request thread. Idempotent.
  void stop() { listener_.stop(); }

 private:
  void handle_connection(int fd);

  HttpHandler handler_;
  Listener listener_;
};

/// Parses the request line of `request` ("GET /metrics HTTP/1.1...") into
/// method and path (query string kept attached to the path). Returns false
/// on garbage. Exposed for tests.
bool parse_request_line(const std::string& request, std::string* method,
                        std::string* path);

/// Renders a full HTTP/1.0 response document.
std::string render_response(const HttpResponse& response);

/// Minimal blocking GET against 127.0.0.1:`port` (the router's shard
/// health/metrics aggregation path). Returns the response BODY on HTTP
/// 200, std::nullopt on connect/timeout/non-200. `timeout_ms` bounds
/// connect and read together.
std::optional<std::string> http_get(int port, const std::string& target,
                                    int timeout_ms = 2000);

}  // namespace seqrtg::serve
