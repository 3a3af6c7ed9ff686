// Kernel-phase spans: a TraceBuilder driven by an external clock, ScopedSpan,
// and the folded "regions" tree (fold_span_tree). The RegionProfiler and
// ScopedRegion suites name the phase-profiling role these tests cover.
#include <gtest/gtest.h>

#include "obs/trace_span.hpp"

namespace kami::obs {
namespace {

/// Stand-in for a ThreadBlock's simulated clock.
struct FakeClock {
  double now = 0.0;
  double cycles() const { return now; }
};

const Json* find_child(const Json& node, std::string_view name) {
  const Json* children = node.find("children");
  if (children == nullptr) return nullptr;
  for (const auto& ch : children->as_array())
    if (ch.at("name").as_string() == name) return &ch;
  return nullptr;
}

double num(const Json& node, const char* key) { return node.at(key).as_number(); }

TEST(RegionProfiler, BuildsTreeAndAggregatesRepeats) {
  TraceBuilder tb("t", "kernel", 0.0);
  tb.advance_to(10.0);
  tb.open("stage");
  tb.advance_to(30.0);
  tb.close();  // stage: 20
  tb.advance_to(35.0);
  tb.open("stage");
  tb.advance_to(40.0);
  tb.close();  // stage again: +5 (same node)
  tb.advance_to(50.0);
  const Json tree = fold_span_tree(tb.finish());  // kernel: 50

  ASSERT_EQ(tree.size(), 1u);
  const Json& kernel = tree.at(std::size_t{0});
  EXPECT_EQ(kernel.at("name").as_string(), "kernel");
  EXPECT_DOUBLE_EQ(num(kernel, "total_cycles"), 50.0);
  EXPECT_DOUBLE_EQ(num(kernel, "count"), 1.0);
  ASSERT_EQ(kernel.at("children").size(), 1u);  // both entries folded into one node
  const Json* stage = find_child(kernel, "stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_DOUBLE_EQ(num(*stage, "total_cycles"), 25.0);
  EXPECT_DOUBLE_EQ(num(*stage, "count"), 2.0);
  EXPECT_DOUBLE_EQ(num(kernel, "self_cycles"), 25.0);
}

TEST(TraceSpan, FoldMergesRepeatedParentsInFirstOpenOrder) {
  // Two "stripe" occurrences, each with a "read" child, fold into one
  // stripe node whose read child sums both; "setup" opened after the first
  // stripe stays after it.
  TraceBuilder tb("t", "kernel", 0.0);
  for (double t0 : {0.0, 10.0}) {
    tb.advance_to(t0);
    tb.open("stripe");
    tb.open("read");
    tb.advance_to(t0 + 3.0);
    tb.close();
    tb.advance_to(t0 + 4.0);
    tb.close();
    if (t0 == 0.0) {
      tb.open("setup");
      tb.advance_to(5.0);
      tb.close();
    }
  }
  const Json tree = fold_span_tree(tb.finish());
  const Json& kernel = tree.at(std::size_t{0});
  ASSERT_EQ(kernel.at("children").size(), 2u);
  EXPECT_EQ(kernel.at("children").at(std::size_t{0}).at("name").as_string(), "stripe");
  EXPECT_EQ(kernel.at("children").at(std::size_t{1}).at("name").as_string(), "setup");
  const Json* stripe = find_child(kernel, "stripe");
  ASSERT_NE(stripe, nullptr);
  EXPECT_DOUBLE_EQ(num(*stripe, "count"), 2.0);
  EXPECT_DOUBLE_EQ(num(*stripe, "total_cycles"), 8.0);
  EXPECT_DOUBLE_EQ(num(*stripe, "self_cycles"), 2.0);
  const Json* read = find_child(*stripe, "read");
  ASSERT_NE(read, nullptr);
  EXPECT_DOUBLE_EQ(num(*read, "count"), 2.0);
  EXPECT_DOUBLE_EQ(num(*read, "total_cycles"), 6.0);
  EXPECT_DOUBLE_EQ(num(kernel, "total_cycles"), 14.0);
  EXPECT_DOUBLE_EQ(num(kernel, "self_cycles"), 5.0);  // 14 - 8 stripe - 1 setup
}

TEST(RegionProfiler, NestingInvariants) {
  // A parent's inclusive time always covers its children's inclusive time.
  TraceBuilder tb("t", "a", 0.0);
  tb.advance_to(1.0);
  tb.open("b");
  tb.advance_to(2.0);
  tb.open("c");
  tb.advance_to(5.0);
  tb.close();
  tb.advance_to(6.0);
  tb.close();
  tb.advance_to(9.0);
  const RequestTrace trace = tb.finish();
  const Json tree = fold_span_tree(trace);

  const Json& a = tree.at(std::size_t{0});
  const Json* b = find_child(a, "b");
  ASSERT_NE(b, nullptr);
  const Json* c = find_child(*b, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(num(a, "total_cycles"), num(*b, "total_cycles"));
  EXPECT_GE(num(*b, "total_cycles"), num(*c, "total_cycles"));
  EXPECT_GE(num(a, "self_cycles"), 0.0);
  EXPECT_GE(num(*b, "self_cycles"), 0.0);

  // The spans record every occurrence, the deepest included, in open order.
  ASSERT_EQ(trace.spans.size(), 3u);
  for (const auto& s : trace.spans) EXPECT_LE(s.begin_cycles, s.end_cycles);
  const Span* sc = trace.find_span("c");
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(trace.spans[static_cast<std::size_t>(sc->parent)].name, "b");
  EXPECT_EQ(trace.spans[static_cast<std::size_t>(trace.find_span("b")->parent)].name, "a");
  EXPECT_DOUBLE_EQ(sc->begin_cycles, 2.0);
  EXPECT_DOUBLE_EQ(sc->end_cycles, 5.0);
}

TEST(RegionProfiler, FreezeRequiresBalancedRegions) {
  // close() never closes the root, only finish() does; a finished builder
  // accepts no more spans.
  TraceBuilder tb("t", "kernel", 0.0);
  tb.open("open");
  tb.close();
  EXPECT_THROW(tb.close(), kami::PreconditionError);
  tb.open("left open");  // finish() closes it at the current clock
  tb.advance_to(3.0);
  const RequestTrace trace = tb.finish();
  EXPECT_DOUBLE_EQ(trace.find_span("left open")->end_cycles, 3.0);
  EXPECT_THROW(tb.open("late"), kami::PreconditionError);
  EXPECT_THROW(tb.finish(), kami::PreconditionError);
}

TEST(RegionProfiler, LeaveWithoutEnterThrows) {
  TraceBuilder tb("t", "kernel", 0.0);
  EXPECT_THROW(tb.close(), kami::PreconditionError);
}

TEST(TraceSpan, AdvanceToRejectsABackwardsClock) {
  TraceBuilder tb("t", "kernel", 5.0);
  tb.advance_to(5.0);  // standing still is fine
  EXPECT_THROW(tb.advance_to(4.0), kami::PreconditionError);
  EXPECT_DOUBLE_EQ(tb.clock(), 5.0);
}

TEST(ScopedRegion, NullProfilerIsNoOp) {
  FakeClock clock;
  {
    ScopedSpan r(nullptr, clock, "anything");  // must not crash
    r.close();
  }
  SUCCEED();
}

TEST(ScopedRegion, CloseLeavesEarlyExactlyOnce) {
  FakeClock clock;
  TraceBuilder tb("t", "kernel", 0.0);
  {
    ScopedSpan r(&tb, clock, "outer");
    clock.now = 4.0;
    r.close();  // destructor must not close() a second time
    EXPECT_EQ(tb.depth(), 1);
    clock.now = 9.0;
  }
  const RequestTrace trace = tb.finish();
  const Span* outer = trace.find_span("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_DOUBLE_EQ(outer->duration_cycles(), 4.0);
  EXPECT_DOUBLE_EQ(trace.root()->end_cycles, 4.0);  // the builder never read 9
}

TEST(RegionProfiler, ToJsonShape) {
  TraceBuilder tb("t", "k", 0.0);
  tb.advance_to(7.0);
  // fold_span_tree() is the schema's "regions" section: an array holding
  // the root's node.
  const Json doc = fold_span_tree(tb.finish());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.size(), 1u);
  EXPECT_EQ(doc.at(std::size_t{0}).at("name").as_string(), "k");
  EXPECT_DOUBLE_EQ(doc.at(std::size_t{0}).at("total_cycles").as_number(), 7.0);
  EXPECT_EQ(doc.at(std::size_t{0}).find("children"), nullptr);
}

}  // namespace
}  // namespace kami::obs
