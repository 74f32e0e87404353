#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t ns_since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::int32_t SpanLog::open(std::string name, std::string cat,
                           std::int32_t parent, std::uint32_t network,
                           std::uint32_t worker) {
  Span s;
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.start_ns = now();
  s.end_ns = s.start_ns;
  s.parent = parent;
  s.network = network;
  s.worker = worker;
  return add(std::move(s));
}

void SpanLog::close(std::int32_t index) {
  spans_.at(static_cast<std::size_t>(index)).end_ns = now();
}

std::int32_t SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = lo;
  std::int64_t cur_b = lo;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_b) {
      total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  return total + (cur_b - cur_a);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent out of range");
    children[p].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.duration_ns() -
              covered_ns(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

// Trace-event timestamps are microseconds; keep nanosecond resolution.
std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                        const std::vector<std::string>& network_names) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  std::set<std::pair<std::uint32_t, std::uint32_t>> threads;
  for (const Span& s : spans) threads.emplace(s.network, s.worker);
  std::set<std::uint32_t> networks;
  for (const auto& [net, worker] : threads) {
    if (networks.insert(net).second) {
      const std::string label = net < network_names.size()
                                    ? network_names[net]
                                    : "network " + std::to_string(net);
      sep();
      out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << net
          << ",\"tid\":0,\"args\":{\"name\":" << json_string(label) << "}}";
    }
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << net
        << ",\"tid\":" << worker << ",\"args\":{\"name\":"
        << json_string(worker == 0 ? "main (worker 0)"
                                   : "worker " + std::to_string(worker))
        << "}}";
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    sep();
    out << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.cat) << ",\"ph\":\"X\",\"ts\":"
        << micros(s.start_ns) << ",\"dur\":" << micros(s.duration_ns())
        << ",\"pid\":" << s.network << ",\"tid\":" << s.worker
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

}  // namespace perfbench
