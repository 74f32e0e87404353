// In-memory spans for the traced run.
//
// A span is one timed call into a layer: name, category (the layer), start
// and end on one steady clock, the span that caused it, the network it
// belongs to and the worker thread that ran it. Spans are kept in memory
// and written out only when the run ends, as Chrome trace-event JSON that
// chrome://tracing and Perfetto open offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  std::string name;
  std::string cat;            ///< layer, e.g. "core/context", "ga", "cost"
  std::int64_t start_ns = 0;  ///< since the log's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;  ///< index into the same log
  std::uint32_t network = 0;
  std::uint32_t worker = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds on the steady clock since `origin`.
std::int64_t ns_since(std::chrono::steady_clock::time_point origin);

/// Append-only span store. Single-threaded: worker threads record into
/// private vectors that the owner appends after joining them.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point origin() const { return origin_; }
  std::int64_t now() const { return ns_since(origin_); }

  /// Starts a span now; close() sets its end. Returns its index.
  std::int32_t open(std::string name, std::string cat, std::int32_t parent,
                    std::uint32_t network, std::uint32_t worker = 0);
  void close(std::int32_t index);

  /// Appends a finished span. Returns its index.
  std::int32_t add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-span self time: its duration minus the part of its interval that
/// its children's intervals cover (overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

/// Writes `spans` as a Chrome trace-event JSON object: one complete ("X")
/// event per span, one process per network and one thread per worker.
/// `network_names[k]` labels network k's process when present.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                        const std::vector<std::string>& network_names);

/// `s` as a JSON string literal (quotes included).
std::string json_string(const std::string& s);

}  // namespace perfbench
