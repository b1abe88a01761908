#include "core/ingest.hpp"

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/json_reader.hpp"
#include "util/strings.hpp"

namespace seqrtg::core {

namespace {

struct IngestMetrics {
  obs::Counter& accepted;
  obs::Counter& malformed;
};

IngestMetrics& ingest_metrics() {
  auto& reg = obs::default_registry();
  static IngestMetrics m{
      reg.counter("seqrtg_ingest_accepted_total",
                  "Stream lines parsed into a {service,message} record"),
      reg.counter("seqrtg_ingest_malformed_total",
                  "Stream lines rejected: not valid JSON or missing the "
                  "service/message fields")};
  return m;
}

/// Single-pass record decoder: one walk over the line with the shared
/// JSON reader, copying the `service` and `message` strings straight into
/// `out`. It gives util::json_parse's verdict on the trimmed line followed
/// by the field checks — any JSON object whose last "service" and last
/// "message" values are strings — without building a DOM.
bool decode_record(std::string_view line, LogRecord& out) {
  util::JsonReader in(line);
  bool service_ok = false;
  bool message_ok = false;
  in.skip_ws();
  if (!in.consume('{')) return false;
  in.skip_ws();
  if (!in.consume('}')) {
    while (true) {
      in.skip_ws();
      std::string_view key;
      if (!in.at('"') || !in.read_string(key)) return false;
      // Compared now: the key may live in the reader's buffer, which the
      // value read reuses.
      std::string* target = nullptr;
      bool* ok = nullptr;
      if (key == "service") {
        target = &out.service;
        ok = &service_ok;
      } else if (key == "message") {
        target = &out.message;
        ok = &message_ok;
      }
      in.skip_ws();
      if (!in.consume(':')) return false;
      in.skip_ws();
      if (target != nullptr && in.at('"')) {
        std::string_view value;
        if (!in.read_string(value)) return false;
        target->assign(value.data(), value.size());
        *ok = true;
      } else {
        // A later duplicate that is not a string voids the earlier one.
        if (ok != nullptr) *ok = false;
        if (!in.skip_value(1)) return false;
      }
      in.skip_ws();
      if (in.consume('}')) break;
      if (!in.consume(',')) return false;
    }
  }
  in.skip_ws();
  return in.at_end() && service_ok && message_ok;
}

}  // namespace

std::string record_to_json(const LogRecord& record) {
  std::string out = "{\"message\":\"";
  out += util::json_escape(record.message);
  out += "\",\"service\":\"";
  out += util::json_escape(record.service);
  out += "\"}";
  return out;
}

std::optional<LogRecord> JsonStreamIngester::parse_line(
    std::string_view line) {
  std::optional<LogRecord> record(std::in_place);
  if (!decode_record(line, *record)) record.reset();
  return record;
}

std::optional<LogRecord> JsonStreamIngester::parse_and_count_line(
    std::string_view line, IngestStats& stats) {
  auto record = parse_line(line);
  if (record.has_value()) {
    ++stats.accepted;
    if (obs::telemetry_enabled()) ingest_metrics().accepted.inc();
  } else if (!util::trim(line).empty()) {
    ++stats.malformed;
    if (obs::telemetry_enabled()) ingest_metrics().malformed.inc();
  }
  return record;
}

std::vector<LogRecord> JsonStreamIngester::read_batch(std::istream& in) {
  std::vector<LogRecord> batch;
  batch.reserve(batch_size_);
  std::string line;
  while (batch.size() < batch_size_ && std::getline(in, line)) {
    auto record = parse_and_count_line(line, stats_);
    if (record.has_value()) batch.push_back(std::move(*record));
  }
  return batch;
}

}  // namespace seqrtg::core
