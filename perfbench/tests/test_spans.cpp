// Span self time and the Chrome trace export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "spans.h"

namespace pb = perfbench;

namespace {

pb::Span span(std::int64_t a, std::int64_t b, std::int32_t parent,
              std::uint32_t worker = 0) {
  pb::Span s;
  s.name = "s";
  s.cat = "test";
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  s.worker = worker;
  return s;
}

}  // namespace

TEST(CoveredNs, UnionOfIntervalsClipped) {
  EXPECT_EQ(pb::covered_ns({}, 0, 100), 0);
  EXPECT_EQ(pb::covered_ns({{10, 20}, {30, 40}}, 0, 100), 20);
  EXPECT_EQ(pb::covered_ns({{10, 30}, {20, 40}}, 0, 100), 30);  // overlap
  EXPECT_EQ(pb::covered_ns({{10, 40}, {20, 30}}, 0, 100), 30);  // nested
  EXPECT_EQ(pb::covered_ns({{-10, 20}, {90, 150}}, 0, 100), 30);  // clipped
  EXPECT_EQ(pb::covered_ns({{20, 20}}, 0, 100), 0);  // empty interval
}

TEST(SelfTime, DurationMinusChildren) {
  // root [0,100) with children [10,30) and [50,60); grandchild [12,20).
  std::vector<pb::Span> spans = {span(0, 100, pb::kNoParent),
                                 span(10, 30, 0), span(50, 60, 0),
                                 span(12, 20, 1)};
  const std::vector<std::int64_t> self = pb::self_times_ns(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 8);
}

TEST(SelfTime, ParallelChildrenCountOnce) {
  // A scoring pass [0,100) whose four workers overlap: the pass's self time
  // is the part no worker covers, not duration minus summed work.
  std::vector<pb::Span> spans = {span(0, 100, pb::kNoParent),
                                 span(0, 80, 0, 0), span(5, 90, 0, 1),
                                 span(10, 60, 0, 2), span(20, 70, 0, 3)};
  const std::vector<std::int64_t> self = pb::self_times_ns(spans);
  EXPECT_EQ(self[0], 10);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(self[i], spans[i].duration_ns());
  }
}

TEST(SelfTime, RejectsDanglingParent) {
  std::vector<pb::Span> spans = {span(0, 10, 5)};
  EXPECT_THROW(pb::self_times_ns(spans), std::out_of_range);
}

TEST(SpanLog, OpenCloseAndParents) {
  pb::SpanLog log;
  const std::int32_t root = log.open("root", "test", pb::kNoParent, 3);
  const std::int32_t child = log.open("child", "test", root, 3, 2);
  log.close(child);
  log.close(root);
  ASSERT_EQ(log.spans().size(), 2u);
  const pb::Span& r = log.spans()[0];
  const pb::Span& c = log.spans()[1];
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.network, 3u);
  EXPECT_EQ(c.worker, 2u);
  EXPECT_LE(r.start_ns, c.start_ns);
  EXPECT_LE(c.end_ns, r.end_ns);
  EXPECT_GE(c.duration_ns(), 0);
}

TEST(ChromeTrace, CompleteEventsAndNames) {
  std::vector<pb::Span> spans = {span(0, 2000, pb::kNoParent),
                                 span(500, 1500, 0, 1)};
  spans[1].name = "cost \"x\"";
  std::ostringstream out;
  pb::write_chrome_trace(out, spans, {"net 0"});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":0.500,\"dur\":1.000,"
                      "\"pid\":0,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cost \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"net 0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(JsonString, Escapes) {
  EXPECT_EQ(pb::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(pb::json_string(std::string(1, '\x01')), "\"\\u0001\"");
}
