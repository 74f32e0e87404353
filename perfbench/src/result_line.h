// The benchmark's output: human-readable metric lines, then one JSON object
// on the last line of standard output.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  Metric(std::string name_, double value_, std::string unit_,
         std::string note_ = {})
      : name(std::move(name_)),
        value(value_),
        unit(std::move(unit_)),
        note(std::move(note_)) {}

  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< shown on the human-readable line only
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every value printed with all its significant digits. Non-finite
/// values are written as null.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics);

/// One "name = value unit  (note)" line per metric.
void print_metrics(std::ostream& out, const std::vector<Metric>& metrics);

}  // namespace perfbench
