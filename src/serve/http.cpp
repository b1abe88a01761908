#include "serve/http.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace seqrtg::serve {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

}  // namespace

bool parse_request_line(const std::string& request, std::string* method,
                        std::string* path) {
  const std::size_t eol = request.find("\r\n");
  const std::string line =
      request.substr(0, eol == std::string::npos ? request.size() : eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  *method = line.substr(0, sp1);
  // The query string stays attached; the handler splits it (the /debug
  // endpoints take parameters).
  *path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return !method->empty() && !path->empty();
}

std::string render_response(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

bool HttpResponder::start(int port, std::string* error) {
  stop();
  if (!listener_.bind(port, error)) return false;
  listener_.start([this](int fd) { handle_connection(fd); });
  return true;
}

std::optional<std::string> http_get(int port, const std::string& target,
                                    int timeout_ms) {
  const int fd = connect_loopback(port, timeout_ms);
  if (fd < 0) return std::nullopt;
  send_all(fd, "GET " + target + " HTTP/1.0\r\n\r\n");
  std::string response;
  // The responder speaks HTTP/1.0 with Connection: close — read to EOF.
  read_chunks(fd, [&](std::string_view bytes) {
    response.append(bytes);
    return response.size() < 8 * 1024 * 1024;
  });
  ::close(fd);
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0) {
    return std::nullopt;
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return std::nullopt;
  return response.substr(body + 4);
}

void HttpResponder::handle_connection(int fd) {
  // Scrapers send tiny requests; give up on a silent client after 2 s so
  // it cannot hold its thread.
  timeval tv = {2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string request;
  read_chunks(fd, [&](std::string_view bytes) {
    request.append(bytes);
    return request.size() < 16 * 1024 &&
           request.find("\r\n\r\n") == std::string::npos;
  });

  HttpResponse response;
  std::string method;
  std::string path;
  if (!parse_request_line(request, &method, &path)) {
    response.status = 400;
    response.body = "bad request\n";
  } else if (method != "GET") {
    response.status = 405;
    response.body = "method not allowed\n";
  } else {
    response = handler_(path);
  }
  send_all(fd, render_response(response));
}

}  // namespace seqrtg::serve
