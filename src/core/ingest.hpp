// Data stream ingester (RTG extension #1).
//
// Paper §III: "we added a listener for the command line that allows the data
// to be piped in directly from the log management system without any message
// pre-processing required and Sequence-RTG waits to execute until the batch
// size is reached. Each item in the stream is simply expected to be using a
// JSON format with only two fields: service (the source system) from where
// the message originated and the unaltered log message."
#pragma once

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seqrtg::core {

/// One log record from the composite stream.
struct LogRecord {
  std::string service;
  std::string message;

  bool operator==(const LogRecord& other) const = default;
};

/// Serialises a record to the wire format ({"service":...,"message":...}).
std::string record_to_json(const LogRecord& record);

struct IngestStats {
  std::size_t accepted = 0;
  /// Lines that were not valid JSON or lacked the two required fields.
  std::size_t malformed = 0;
};

/// JSON-lines reader with batch accumulation. The batch size "is
/// configurable and passed as a command line argument ... Ideally this
/// number represents a good balance between having enough data to perform
/// the comparison steps of the analysis and preventing a memory overload."
class JsonStreamIngester {
 public:
  explicit JsonStreamIngester(std::size_t batch_size)
      : batch_size_(batch_size == 0 ? 1 : batch_size) {}

  /// Parses one stream line into a record; std::nullopt when malformed.
  /// Accepts any JSON object (util::json_parse's grammar and nesting cap)
  /// whose last `service` and last `message` values are strings, decoded
  /// in one pass without a DOM.
  static std::optional<LogRecord> parse_line(std::string_view line);

  /// parse_line plus accounting: bumps `stats` and the process telemetry
  /// counters (seqrtg_ingest_accepted_total / seqrtg_ingest_malformed_total).
  /// Blank lines count as neither. Shared by read_batch and the serve
  /// socket readers so every ingest surface reports rejects the same way.
  static std::optional<LogRecord> parse_and_count_line(std::string_view line,
                                                       IngestStats& stats);

  /// Reads lines from `in` until a full batch is accumulated or EOF.
  /// Returns the batch (possibly smaller than batch_size at EOF; empty when
  /// the stream is exhausted). Malformed lines are counted and skipped.
  std::vector<LogRecord> read_batch(std::istream& in);

  std::size_t batch_size() const { return batch_size_; }
  const IngestStats& stats() const { return stats_; }

 private:
  std::size_t batch_size_;
  IngestStats stats_;
};

}  // namespace seqrtg::core
