#include "solar/server.h"

#include <algorithm>

#include "common/crc32.h"
#include "obs/obs.h"

namespace repro::solar {

using transport::DataBlock;
using transport::StorageStatus;

namespace {
constexpr std::uint8_t kFlagEncrypted = 0x1;
}

SolarServer::SolarServer(sim::Engine& engine, net::Nic& nic,
                         sim::CpuPool& cpu,
                         storage::BlockServer& block_server,
                         SolarServerParams params, Rng rng)
    : engine_(engine),
      nic_(nic),
      cpu_(cpu),
      block_server_(block_server),
      params_(params),
      rng_(rng) {
  nic_.set_deliver([this](net::Packet& pkt) { on_packet(pkt); });
}

net::FlowKey SolarServer::reversed(const net::FlowKey& f) {
  return net::FlowKey{f.dst_ip, f.src_ip, f.dst_port, f.src_port, f.proto};
}

obs::Tracer* SolarServer::trc() const {
  obs::Obs* o = nic_.network().obs();
  return o != nullptr && o->tracer().enabled() ? &o->tracer() : nullptr;
}

void SolarServer::on_packet(net::Packet& pkt) {
  auto f = net::app_as<Frame>(pkt);
  if (!f) return;
  ++packets_rx_;
  gc(engine_.now());
  switch (f->rpc.msg_type) {
    case RpcMsgType::kWriteRequest:
      handle_write(*f, pkt);
      break;
    case RpcMsgType::kReadRequest:
      handle_read(*f, pkt);
      break;
    case RpcMsgType::kProbe:
      send_ack(*f, pkt);  // INT probing (§4.5 future work)
      break;
    default:
      break;
  }
}

void SolarServer::send_ack(const Frame& f, const net::Packet& pkt) {
  Frame ack;
  ack.rpc = f.rpc;
  ack.rpc.msg_type = RpcMsgType::kAck;
  ack.echo_ts = f.ts;
  ack.ts = engine_.now();
  // Echo the INT trail the packet collected on its way here so the sender
  // can run per-path HPCC (§4.8).
  ack.int_echo = pkt.int_records;
  net::PacketPtr out = nic_.make_packet();
  out->flow = reversed(pkt.flow);
  out->size_bytes = 64 + static_cast<std::uint32_t>(
                             ack.int_echo.size() * 12);
  out->priority = 0;
  out->span = pkt.span;  // return-path hops fold into the same block span
  net::emplace_app<Frame>(*out, std::move(ack));
  nic_.send_packet(std::move(out));
}

void SolarServer::send_write_response(std::uint64_t rpc_id,
                                      const WriteRpc& rpc) {
  Frame resp;
  resp.rpc.rpc_id = rpc_id;
  resp.rpc.pkt_count = static_cast<std::uint16_t>(rpc.expected);
  resp.rpc.msg_type = RpcMsgType::kWriteResponse;
  resp.status = rpc.status;
  resp.server_bn = rpc.max_bn;
  resp.server_ssd = rpc.max_ssd;
  resp.ts = engine_.now();
  net::PacketPtr out = nic_.make_packet();
  out->flow = rpc.reply_flow;
  out->size_bytes = 96;
  out->priority = 0;
  out->span = rpc.reply_span;
  net::emplace_app<Frame>(*out, std::move(resp));
  nic_.send_packet(std::move(out));
}

void SolarServer::handle_write(const Frame& f, const net::Packet& pkt) {
  // Transport-level ACK goes out immediately: loss detection and CC must
  // not wait for storage.
  send_ack(f, pkt);

  const std::uint64_t rpc_id = f.rpc.rpc_id;
  auto [it, created] = writes_.try_emplace(rpc_id);
  WriteRpc& rpc = it->second;
  if (created) {
    rpc.expected = f.rpc.pkt_count;
    rpc.progress.assign(f.rpc.pkt_count, BlockProgress::kNone);
    gc_queue_.emplace_back(engine_.now(), rpc_id);
  }
  rpc.reply_flow = reversed(pkt.flow);
  rpc.reply_span = pkt.span;
  if (rpc.response_sent) {
    // Duplicate block of a completed RPC: the response must have been
    // lost; resend it.
    ++duplicate_blocks_;
    send_write_response(rpc_id, rpc);
    return;
  }
  if (f.rpc.pkt_id >= rpc.progress.size() ||
      rpc.progress[f.rpc.pkt_id] != BlockProgress::kNone) {
    ++duplicate_blocks_;
    return;
  }
  rpc.progress[f.rpc.pkt_id] = BlockProgress::kInFlight;

  const bool encrypted = (f.rpc.flags & kFlagEncrypted) != 0;
  TimeNs cpu = params_.cpu_per_packet;
  if (params_.verify_crc && !encrypted && f.block.has_payload()) {
    cpu += params_.cpu_per_block_crc;
  }
  cpu_.submit(rpc_id, cpu, [this, f, rpc_id, encrypted,
                            span = pkt.span, cpu_t0 = engine_.now()] {
    auto wit = writes_.find(rpc_id);
    if (wit == writes_.end()) return;
    WriteRpc& w = wit->second;
    if (obs::Tracer* t = trc()) {
      t->span("server.cpu", span, cpu_t0, engine_.now(), nic_.id(), 0,
              "pkt", f.rpc.pkt_id);
    }
    // Software CRC verification of the plaintext (skipped when the block
    // is ciphertext — the client-side aggregation covers that case).
    if (params_.verify_crc && !encrypted && f.block.has_payload() &&
        crc32_raw(f.block.data) != f.ebs.payload_crc) {
      ++crc_rejects_;
      w.status = StorageStatus::kCrcMismatch;
      w.response_sent = true;
      send_write_response(rpc_id, w);
      writes_.erase(wit);  // client repairs with a fresh set of blocks
      return;
    }
    DataBlock block = f.block;
    block.crc = f.ebs.payload_crc;
    block_server_.write_block(
        f.ebs.segment_id, f.ebs.lba, std::move(block),
        /*done=*/
        [this, rpc_id, pkt_id = f.rpc.pkt_id, span](StorageStatus status,
                                                    TimeNs bn, TimeNs ssd) {
          auto it2 = writes_.find(rpc_id);
          if (it2 == writes_.end()) return;
          WriteRpc& w2 = it2->second;
          if (pkt_id >= w2.progress.size() || w2.response_sent) return;
          if (obs::Tracer* t = trc()) {
            // bn covers the whole block-server stage, ssd the SSD service
            // tail inside it — reconstruct both from the completion time.
            const TimeNs done_at = engine_.now();
            const std::uint64_t bs_span =
                t->span("bs.write", span, done_at - bn, done_at, nic_.id(),
                        0, "pkt", pkt_id);
            t->span("ssd.write", bs_span, done_at - ssd, done_at, nic_.id());
          }
          w2.progress[pkt_id] = BlockProgress::kDone;
          ++w2.done_count;
          w2.max_bn = std::max(w2.max_bn, bn);
          w2.max_ssd = std::max(w2.max_ssd, ssd);
          if (status != StorageStatus::kOk) w2.status = status;
          if (w2.done_count == w2.expected) {
            w2.response_sent = true;
            send_write_response(rpc_id, w2);
            gc_queue_.emplace_back(engine_.now(), rpc_id);
          }
        },
        /*verify_crc=*/false);  // verified above (plaintext frames only)
  });
}

void SolarServer::handle_read(const Frame& f, const net::Packet& pkt) {
  send_ack(f, pkt);
  const net::FlowKey reply = reversed(pkt.flow);
  cpu_.submit(f.rpc.rpc_id, params_.cpu_per_packet,
              [this, f, reply, span = pkt.span, cpu_t0 = engine_.now()] {
    if (obs::Tracer* t = trc()) {
      t->span("server.cpu", span, cpu_t0, engine_.now(), nic_.id(), 0,
              "pkt", f.rpc.pkt_id);
    }
    block_server_.read_block(
        f.ebs.segment_id, f.ebs.lba, f.ebs.block_len,
        [this, f, reply, span](StorageStatus status, DataBlock block,
                               TimeNs bn, TimeNs ssd) {
          if (obs::Tracer* t = trc()) {
            const TimeNs done_at = engine_.now();
            const std::uint64_t bs_span =
                t->span("bs.read", span, done_at - bn, done_at, nic_.id(),
                        0, "pkt", f.rpc.pkt_id);
            t->span("ssd.read", bs_span, done_at - ssd, done_at, nic_.id());
          }
          Frame resp;
          resp.rpc = f.rpc;
          resp.rpc.msg_type = RpcMsgType::kReadResponse;
          resp.ebs = f.ebs;
          resp.ebs.payload_crc = block.crc;
          resp.status = status;
          resp.server_bn = bn;
          resp.server_ssd = ssd;
          resp.echo_ts = f.ts;
          resp.ts = engine_.now();
          resp.block = std::move(block);
          net::PacketPtr out = nic_.make_packet();
          out->flow = reply;
          out->size_bytes = frame_wire_bytes(resp);
          out->priority = 0;
          out->request_int = true;  // CC signal for the data direction
          out->span = span;
          net::emplace_app<Frame>(*out, std::move(resp));
          nic_.send_packet(std::move(out));
        });
  });
}

void SolarServer::gc(TimeNs now) {
  while (!gc_queue_.empty() &&
         now - gc_queue_.front().first > params_.rpc_state_gc) {
    const std::uint64_t rpc_id = gc_queue_.front().second;
    gc_queue_.pop_front();
    auto it = writes_.find(rpc_id);
    if (it != writes_.end() && it->second.response_sent) {
      writes_.erase(it);
    }
  }
}

}  // namespace repro::solar
