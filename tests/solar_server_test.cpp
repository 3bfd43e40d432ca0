// Unit tests for the SOLAR server's per-packet, no-reassembly semantics:
// out-of-order application, duplicate suppression, lost-response replay,
// and the bounded per-RPC state with garbage collection (§4.4's "few
// maintained states").
#include "solar/server.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "net/topology.h"
#include "obs/obs.h"
#include "solar/client.h"

namespace repro::solar {
namespace {

using transport::DataBlock;

struct ServerRig {
  sim::Engine eng;
  net::Network net{eng, net::NetworkParams{}, 5};
  net::TwoHosts hosts = net::build_two_hosts(net, gbps(25), us(1));
  sim::CpuPool cpu{eng, "s", 4, sim::CpuPool::Dispatch::kByHash};
  storage::BlockServerParams bs_params;
  std::unique_ptr<storage::BlockServer> bs;
  std::unique_ptr<SolarServer> server;
  std::vector<Frame> client_rx;  // everything the "client" host receives

  ServerRig() {
    bs_params.store_payload = true;
    bs = std::make_unique<storage::BlockServer>(eng, bs_params, Rng(1));
    server = std::make_unique<SolarServer>(eng, *hosts.b, cpu, *bs,
                                           SolarServerParams{}, Rng(2));
    hosts.a->set_deliver([this](net::Packet& pkt) {
      if (auto f = net::app_as<Frame>(pkt)) client_rx.push_back(*f);
    });
  }

  Frame write_frame(std::uint64_t rpc_id, std::uint16_t pkt_id,
                    std::uint16_t pkt_count, std::uint64_t seg = 1) {
    Frame f;
    f.rpc.rpc_id = rpc_id;
    f.rpc.pkt_id = pkt_id;
    f.rpc.pkt_count = pkt_count;
    f.rpc.msg_type = RpcMsgType::kWriteRequest;
    f.rpc.path_id = 40000;
    f.ebs.segment_id = seg;
    f.ebs.lba = static_cast<std::uint64_t>(pkt_id) * 4096;
    f.ebs.block_len = 4096;
    f.block.lba = f.ebs.lba;
    f.block.len = 4096;
    f.block.data.assign(4096, static_cast<std::uint8_t>(pkt_id + 1));
    f.ebs.payload_crc = crc32_raw(f.block.data);
    f.block.crc = f.ebs.payload_crc;
    f.ts = eng.now();
    return f;
  }

  void send(Frame f, std::uint64_t span = 0) {
    net::Packet pkt;
    pkt.span = span;
    pkt.flow = net::FlowKey{hosts.a->ip(), hosts.b->ip(), 40000,
                            SolarClient::kServerPort, net::Proto::kUdp};
    pkt.size_bytes = frame_wire_bytes(f);
    net::emplace_app<Frame>(pkt, std::move(f));
    hosts.a->send_packet(std::move(pkt));
  }

  int count(RpcMsgType type) const {
    int n = 0;
    for (const auto& f : client_rx) n += (f.rpc.msg_type == type);
    return n;
  }
};

TEST(SolarServer, AcksEveryDataPacketImmediately) {
  ServerRig rig;
  rig.eng.at(0, [&] {
    rig.send(rig.write_frame(100, 0, 2));
    rig.send(rig.write_frame(100, 1, 2));
  });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kAck), 2);
  EXPECT_EQ(rig.count(RpcMsgType::kWriteResponse), 1);
}

TEST(SolarServer, AcceptsBlocksInAnyOrder) {
  // One-block-one-packet: arrival order is irrelevant (§4.4).
  ServerRig rig;
  rig.eng.at(0, [&] {
    rig.send(rig.write_frame(200, 3, 4));
    rig.send(rig.write_frame(200, 0, 4));
    rig.send(rig.write_frame(200, 2, 4));
    rig.send(rig.write_frame(200, 1, 4));
  });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kWriteResponse), 1);
  // All four blocks persisted at their own offsets.
  for (std::uint64_t off : {0u, 4096u, 8192u, 12288u}) {
    EXPECT_TRUE(rig.bs->store().get(1, off).has_value()) << off;
  }
}

TEST(SolarServer, DuplicateBlockOfInFlightRpcIgnored) {
  ServerRig rig;
  rig.eng.at(0, [&] {
    rig.send(rig.write_frame(300, 0, 2));
    rig.send(rig.write_frame(300, 0, 2));  // retransmit of the same block
    rig.send(rig.write_frame(300, 1, 2));
  });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kWriteResponse), 1);
  EXPECT_GE(rig.server->duplicate_blocks(), 1u);
  auto blk = rig.bs->store().get(1, 0);
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk->version, 1u);  // stored exactly once
}

TEST(SolarServer, DuplicateAfterCompletionResendsResponse) {
  // Lost-response recovery: the client's poke (a dup block) must trigger a
  // response resend, not a re-write.
  ServerRig rig;
  rig.eng.at(0, [&] { rig.send(rig.write_frame(400, 0, 1)); });
  rig.eng.run();
  ASSERT_EQ(rig.count(RpcMsgType::kWriteResponse), 1);

  rig.eng.at(rig.eng.now(), [&] { rig.send(rig.write_frame(400, 0, 1)); });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kWriteResponse), 2);
  EXPECT_EQ(rig.bs->store().get(1, 0)->version, 1u);
}

TEST(SolarServer, CorruptBlockRejectedWithCrcStatus) {
  ServerRig rig;
  rig.eng.at(0, [&] {
    auto f = rig.write_frame(500, 0, 1);
    f.block.data[7] ^= 0x80;  // corrupt after CRC
    rig.send(std::move(f));
  });
  rig.eng.run();
  ASSERT_EQ(rig.count(RpcMsgType::kWriteResponse), 1);
  for (const auto& f : rig.client_rx) {
    if (f.rpc.msg_type == RpcMsgType::kWriteResponse) {
      EXPECT_EQ(f.status, transport::StorageStatus::kCrcMismatch);
    }
  }
  EXPECT_EQ(rig.server->crc_rejects(), 1u);
}

TEST(SolarServer, ReadRequestAckedThenAnswered) {
  obs::Obs obs;
  ServerRig rig;
  rig.net.set_obs(&obs);
  const std::uint64_t request_span = obs.tracer().begin();
  rig.eng.at(0, [&] { rig.send(rig.write_frame(600, 0, 1)); });
  rig.eng.run();
  rig.client_rx.clear();

  rig.eng.at(rig.eng.now(), [&] {
    Frame req;
    req.rpc.rpc_id = 601;
    req.rpc.pkt_id = 0;
    req.rpc.pkt_count = 1;
    req.rpc.msg_type = RpcMsgType::kReadRequest;
    req.ebs.segment_id = 1;
    req.ebs.lba = 0;
    req.ebs.block_len = 4096;
    req.ts = rig.eng.now();
    rig.send(std::move(req), request_span);
  });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kAck), 1);
  ASSERT_EQ(rig.count(RpcMsgType::kReadResponse), 1);
  for (const auto& f : rig.client_rx) {
    if (f.rpc.msg_type == RpcMsgType::kReadResponse) {
      EXPECT_EQ(f.block.data,
                std::vector<std::uint8_t>(4096, 1));  // pkt_id 0 + 1
    }
  }
  // The server's stages hang under the request's span: bs.read > ssd.read.
  std::uint64_t bs_span = 0;
  obs.tracer().for_each([&](const obs::SpanRecord& r) {
    if (r.parent == request_span && std::string(r.name) == "bs.read") {
      EXPECT_GT(r.t1, r.t0);
      bs_span = r.id;
    }
  });
  ASSERT_NE(bs_span, 0u);
  int ssd_spans = 0;
  obs.tracer().for_each([&](const obs::SpanRecord& r) {
    if (r.parent == bs_span && std::string(r.name) == "ssd.read") {
      EXPECT_GT(r.t1, r.t0);
      ++ssd_spans;
    }
  });
  EXPECT_EQ(ssd_spans, 1);
}

TEST(SolarServer, AckEchoesTimestampAndInt) {
  ServerRig rig;
  rig.eng.at(us(5), [&] {
    auto f = rig.write_frame(700, 0, 1);
    f.ts = us(5);
    net::Packet pkt;
    pkt.flow = net::FlowKey{rig.hosts.a->ip(), rig.hosts.b->ip(), 40000,
                            SolarClient::kServerPort, net::Proto::kUdp};
    pkt.size_bytes = frame_wire_bytes(f);
    pkt.request_int = true;
    net::emplace_app<Frame>(pkt, std::move(f));
    rig.hosts.a->send_packet(std::move(pkt));
  });
  rig.eng.run();
  ASSERT_GE(rig.client_rx.size(), 1u);
  const Frame& ack = rig.client_rx.front();
  EXPECT_EQ(ack.rpc.msg_type, RpcMsgType::kAck);
  EXPECT_EQ(ack.echo_ts, us(5));
  EXPECT_EQ(ack.int_echo.size(), 1u);  // one switch hop collected INT
}

TEST(SolarServer, CompletedRpcStateIsGarbageCollected) {
  ServerRig rig;
  // Complete many RPCs, then advance time and trigger GC via a new packet.
  rig.eng.at(0, [&] {
    for (std::uint64_t r = 0; r < 50; ++r) {
      auto f = rig.write_frame(1000 + r, 0, 1);
      f.ebs.lba = r * 4096;
      f.block.lba = f.ebs.lba;
      rig.send(std::move(f));
    }
  });
  rig.eng.run();
  rig.eng.at(rig.eng.now() + ms(500), [&] {  // well past rpc_state_gc
    rig.send(rig.write_frame(2000, 0, 1));
  });
  rig.eng.run();
  // Only the newest RPC's record may remain.
  EXPECT_LE(rig.server->packets_rx(), 60u);
  // (GC is internal; observable effect: a dup of an old RPC is treated as
  // new work rather than a response replay.)
  rig.client_rx.clear();
  rig.eng.at(rig.eng.now(), [&] { rig.send(rig.write_frame(1000, 0, 1)); });
  rig.eng.run();
  EXPECT_EQ(rig.count(RpcMsgType::kAck), 1);
}

}  // namespace
}  // namespace repro::solar
