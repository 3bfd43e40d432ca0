#include "ebs/metrics.h"

#include <gtest/gtest.h>

namespace repro::ebs {
namespace {

using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

IoRequest io_of(OpType op, std::uint32_t len) {
  IoRequest io;
  io.op = op;
  io.len = len;
  return io;
}

IoResult result_at(TimeNs completed, StorageStatus status = StorageStatus::kOk) {
  IoResult r;
  r.status = status;
  r.completed_at = completed;
  return r;
}

TEST(MetricSink, RecordsLatencyExcludingQosWait) {
  MetricSink sink;
  auto res = result_at(us(100));
  res.qos_wait_ns = us(40);
  sink.record(io_of(OpType::kWrite, 4096), res, /*issued_at=*/0);
  EXPECT_EQ(sink.ios(), 1u);
  // Recorded latency is 60us (100 wall - 40 qos), per Fig. 6's caption.
  EXPECT_NEAR(static_cast<double>(sink.total().percentile(0.5)),
              static_cast<double>(us(60)), us(3));
}

TEST(MetricSink, SeparatesReadAndWriteHistograms) {
  MetricSink sink;
  sink.record(io_of(OpType::kWrite, 4096), result_at(us(10)), 0);
  sink.record(io_of(OpType::kRead, 4096), result_at(us(200)), 0);
  EXPECT_EQ(sink.writes().count(), 1u);
  EXPECT_EQ(sink.reads().count(), 1u);
  EXPECT_GT(sink.reads().percentile(0.5), sink.writes().percentile(0.5));
}

TEST(MetricSink, HangDetectionAtOneSecond) {
  MetricSink sink;
  sink.record(io_of(OpType::kWrite, 4096), result_at(ms(999)), 0);
  EXPECT_EQ(sink.hangs(), 0u);
  sink.record(io_of(OpType::kWrite, 4096), result_at(seconds(1)), 0);
  EXPECT_EQ(sink.hangs(), 1u);
  // Hang threshold is wall time: QoS wait does NOT excuse a hang from the
  // guest's point of view... but the issued_at baseline does shift it.
  sink.record(io_of(OpType::kWrite, 4096), result_at(seconds(3)),
              seconds(2) + ms(500));
  EXPECT_EQ(sink.hangs(), 1u);
}

TEST(MetricSink, ErrorsCounted) {
  MetricSink sink;
  sink.record(io_of(OpType::kWrite, 4096),
              result_at(us(10), StorageStatus::kCrcMismatch), 0);
  EXPECT_EQ(sink.errors(), 1u);
}

TEST(MetricSink, ThroughputAndIops) {
  MetricSink sink;
  for (int i = 0; i < 1000; ++i) {
    sink.record(io_of(OpType::kWrite, 4096), result_at(us(10)), 0);
  }
  // 1000 x 4KB over 1 ms = 1M IOPS, ~32.8 Gbps, 4096 MB/s.
  EXPECT_NEAR(sink.iops(ms(1)), 1e6, 1e3);
  EXPECT_NEAR(sink.throughput_gbps(ms(1)), 32.768, 0.1);
  EXPECT_NEAR(sink.throughput_mbps(ms(1)), 4096.0, 1.0);
}

TEST(MetricSink, ClearResetsEverything) {
  MetricSink sink;
  sink.record(io_of(OpType::kWrite, 4096), result_at(seconds(2)), 0);
  sink.clear();
  EXPECT_EQ(sink.ios(), 0u);
  EXPECT_EQ(sink.hangs(), 0u);
  EXPECT_EQ(sink.bytes(), 0u);
  EXPECT_EQ(sink.total().count(), 0u);
}

// The span tree an SA-stack read leaves, as the agent records it: 3 us of
// SA CPU, one 95 us RPC whose response reports 15 us of block-server and
// 60 us of SSD time, then 2 us of SA post-processing.
TEST(MetricSink, ComponentBreakdownRecorded) {
  obs::Tracer t(true, 64);
  const std::uint64_t io = t.begin();
  t.span("sa.cpu", io, 0, us(3), 1);
  const std::uint64_t rpc = t.span("rpc.read", io, us(3), us(98), 1);
  const std::uint64_t bs = t.span("bs.read", rpc, us(83), us(98), 1);
  t.span("ssd.read", bs, us(38), us(98), 1);
  t.span("sa.post", io, us(98), us(100), 1);
  t.span_with_id(io, "io.read", 0, 0, us(100), 1);

  const Breakdown b = breakdown(t, io);
  EXPECT_EQ(b.sa, us(5));
  EXPECT_EQ(b.fn, us(20));
  EXPECT_EQ(b.bn, us(15));
  EXPECT_EQ(b.ssd, us(60));
  EXPECT_EQ(b.total(), us(100));
}

}  // namespace
}  // namespace repro::ebs
