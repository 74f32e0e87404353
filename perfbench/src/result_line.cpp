#include "result_line.h"

#include <cmath>
#include <cstdio>

#include "spans.h"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

void print_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    out << "  " << m.name << " = " << buf << ' ' << m.unit;
    if (!m.note.empty()) out << "  (" << m.note << ')';
    out << '\n';
  }
}

}  // namespace perfbench
