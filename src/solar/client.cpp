#include "solar/client.h"

#include <algorithm>

#include "common/crc32.h"
#include "obs/obs.h"
#include "qos/scheduler.h"
#include "qos/slo.h"

namespace repro::solar {

using transport::DataBlock;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

/// QoS tenant key of an I/O: background maintenance traffic is keyed under
/// the reserved best-effort tenant so it never rides a VD's guarantee.
static std::uint64_t tenant_of(const IoRequest& io) {
  return io.background ? qos::kBackgroundTenant : io.vd_id;
}

namespace {
constexpr std::uint8_t kFlagEncrypted = 0x1;
}

struct SolarClient::IoCtx {
  IoRequest io;
  transport::IoCompleteFn done;
  int remaining_rpcs = 0;
  StorageStatus status = StorageStatus::kOk;
  std::uint64_t span = 0;  // root trace span (0 = untraced)
  TimeNs submitted_at = 0;
  TimeNs admitted_at = 0;
  TimeNs qos_wait = 0;
  TimeNs first_tx_at = -1;
  TimeNs last_net_at = 0;
  TimeNs fn_max = 0;
  TimeNs bn_max = 0;
  TimeNs ssd_max = 0;
  std::vector<DataBlock> read_data;
};

struct SolarClient::RpcCtx {
  std::uint64_t rpc_id = 0;
  std::uint64_t span = 0;  // trace span (0 = untraced)
  net::IpAddr dst = 0;
  OpType op = OpType::kWrite;
  sa::Extent ext;
  std::shared_ptr<IoCtx> io;
  /// Guest plaintext slices — the reference for the aggregation check.
  std::vector<DataBlock> original;
  /// Write: hardware-processed blocks as sent on the wire. Read: arrived
  /// (decrypted) blocks, indexed by pkt_id.
  std::vector<DataBlock> wire;
  std::vector<BlockState> st;
  int outstanding = 0;
  bool response_received = false;
  bool completed = false;
  StorageStatus status = StorageStatus::kOk;
  TimeNs started_at = 0;
  TimeNs server_bn = 0;
  TimeNs server_ssd = 0;
  TimeNs fn_elapsed = 0;
  sim::TimerId response_timer = 0;
  int repair_rounds = 0;
};

SolarClient::SolarClient(sim::Engine& engine, dpu::AliDpu& dpu, net::Nic& nic,
                         sa::SegmentTable& segments, sa::QosTable& qos,
                         SolarParams params, Rng rng)
    : engine_(engine),
      dpu_(dpu),
      nic_(nic),
      segments_(segments),
      qos_(qos),
      params_(params),
      rng_(rng) {
  nic_.set_deliver([this](net::Packet& pkt) { on_packet(pkt); });
}

obs::Tracer* SolarClient::trc() const {
  obs::Obs* o = nic_.network().obs();
  return o != nullptr && o->tracer().enabled() ? &o->tracer() : nullptr;
}

SolarClient::PathAggregates SolarClient::path_aggregates() const {
  PathAggregates agg;
  double cwnd_sum = 0.0;
  std::int64_t srtt_sum = 0;
  for (const auto& [peer, ps] : paths_) {
    for (const auto& p : ps->paths()) {
      ++agg.paths;
      agg.total_inflight += p.inflight;
      cwnd_sum += p.cwnd;
      srtt_sum += p.srtt;
    }
  }
  if (agg.paths > 0) {
    agg.avg_cwnd =
        static_cast<std::int64_t>(cwnd_sum / static_cast<double>(agg.paths));
    agg.avg_srtt_ns = srtt_sum / agg.paths;
  }
  return agg;
}

void SolarClient::register_metrics(obs::Registry& reg) {
  const obs::Labels node = obs::label("node", nic_.name());
  reg.expose_counter("solar.ios", node, &stats_.ios);
  reg.expose_counter("solar.rpcs", node, &stats_.rpcs);
  reg.expose_counter("solar.data_pkts_tx", node, &stats_.data_pkts_tx);
  reg.expose_counter("solar.retransmits", node, &stats_.retransmits);
  reg.expose_counter("solar.pkt_timeouts", node, &stats_.pkt_timeouts);
  reg.expose_counter("solar.agg_check_failures", node,
                     &stats_.agg_check_failures);
  reg.expose_counter("solar.blocks_repaired", node, &stats_.blocks_repaired);
  reg.expose_counter("solar.read_hw_crc_rejects", node,
                     &stats_.read_hw_crc_rejects);
  reg.expose_counter("solar.path_redraws", node, &stats_.path_redraws);
  reg.expose_gauge(
      "solar.path.inflight", node,
      [this]() -> std::int64_t { return path_aggregates().total_inflight; },
      /*sampled=*/true);
  reg.expose_gauge(
      "solar.path.avg_cwnd", node,
      [this]() -> std::int64_t { return path_aggregates().avg_cwnd; },
      /*sampled=*/true);
  reg.expose_gauge(
      "solar.path.avg_srtt_ns", node,
      [this]() -> std::int64_t { return path_aggregates().avg_srtt_ns; },
      /*sampled=*/true);
}

PathSet& SolarClient::pathset(net::IpAddr peer) {
  auto it = paths_.find(peer);
  if (it == paths_.end()) {
    // Each peer gets a disjoint source-port range so redraws never collide.
    const auto base = static_cast<std::uint16_t>(
        40000 + 1024 * (next_peer_index_++ % 24));
    it = paths_
             .emplace(peer, std::make_unique<PathSet>(params_.path, base))
             .first;
    if (params_.probe_paths) schedule_probes(peer);
  }
  return *it->second;
}

void SolarClient::cpu_submit(std::uint64_t vd_id, std::uint64_t affinity,
                             TimeNs cost, sim::Callback done) {
  if (sched_ != nullptr) {
    sched_->submit(vd_id, affinity, cost, std::move(done));
    return;
  }
  dpu_.cpu().submit(affinity, cost, std::move(done));
}

void SolarClient::submit_io(IoRequest io, transport::IoCompleteFn done) {
  const TimeNs now = engine_.now();
  // QoS is a hardware match-action stage (Figure 12); admission control
  // happens before anything else and its wait is accounted separately.
  const auto admission = qos_.admit(io.vd_id, io.len, now);
  auto ctx = std::make_shared<IoCtx>();
  ctx->io = std::move(io);
  ctx->done = std::move(done);
  ctx->submitted_at = now;
  ctx->qos_wait = admission.admit_at - now;
  ctx->admitted_at = admission.admit_at;
  if (obs::Tracer* t = trc()) ctx->span = t->begin();
  if (ctx->qos_wait == 0) {
    start_io(std::move(ctx));
  } else {
    engine_.at(admission.admit_at,
               [this, ctx = std::move(ctx)]() mutable { start_io(ctx); });
  }
}

void SolarClient::start_io(std::shared_ptr<IoCtx> io) {
  ++stats_.ios;
  auto extents =
      segments_.split(io->io.vd_id, io->io.offset, io->io.len);
  if (extents.empty()) {
    // Admission consumed QoS tokens for an I/O that does no work: refund
    // them so a misaddressed burst doesn't also burn the tenant's budget.
    qos_.refund(io->io.vd_id, io->io.len);
    IoResult res;
    res.status = StorageStatus::kOutOfRange;
    res.completed_at = engine_.now();
    res.trace.qos_wait_ns = io->qos_wait;
    io->done(std::move(res));
    return;
  }
  if (io->qos_wait > 0) {
    if (obs::Tracer* t = trc()) {
      t->span("qos.wait", io->span, io->submitted_at, io->admitted_at,
              nic_.id());
    }
  }
  io->remaining_rpcs = static_cast<int>(extents.size());
  for (const auto& ext : extents) start_rpc(io, ext);
}

void SolarClient::start_rpc(const std::shared_ptr<IoCtx>& io,
                            const sa::Extent& ext) {
  ++stats_.rpcs;
  auto rpc = std::make_shared<RpcCtx>();
  rpc->rpc_id = (static_cast<std::uint64_t>(nic_.ip()) << 40) | next_rpc_seq_++;
  rpc->dst = ext.loc.block_server;
  rpc->op = io->io.op;
  rpc->ext = ext;
  rpc->io = io;
  rpc->started_at = engine_.now();
  if (rpc->op == OpType::kWrite) {
    for (const auto& blk : io->io.payload) {
      if (blk.lba >= ext.vd_offset && blk.lba < ext.vd_offset + ext.len) {
        rpc->original.push_back(blk);
      }
    }
  } else {
    rpc->original = transport::make_placeholder_blocks(ext.segment_offset,
                                                       ext.len,
                                                       params_.block_size);
    // For reads `original` only carries the per-packet geometry.
  }
  const auto nblocks = rpc->original.size();
  rpc->wire.resize(nblocks);
  rpc->st.resize(nblocks);
  rpc->outstanding = static_cast<int>(nblocks);
  rpcs_[rpc->rpc_id] = rpc;
  if (obs::Tracer* t = trc()) rpc->span = t->begin();

  // RPC issue cost on the DPU CPU (§4.5: the CPU polls the I/O to issue an
  // RPC), then the Block-table lookup in the FPGA.
  const TimeNs cpu_t0 = engine_.now();
  cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, params_.cpu_per_rpc,
             [this, rpc, cpu_t0] {
    const TimeNs cpu_t1 = engine_.now();
    if (obs::Tracer* t = trc()) {
      t->span("dpu.cpu", rpc->span, cpu_t0, cpu_t1, nic_.id(), 0, "rpc_issue",
              1);
    }
    engine_.after(dpu_.fpga().lookup_latency() * 2 /*QoS + Block*/,
                  [this, rpc, cpu_t1] {
      if (obs::Tracer* t = trc()) {
        t->span("fpga.lookup", rpc->span, cpu_t1, engine_.now(), nic_.id());
      }
      for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
        if (rpc->op == OpType::kWrite) {
          send_write_block(rpc, i, /*software_path=*/!params_.offload);
        } else {
          send_read_request(rpc, i);
        }
      }
    });
  });
}

void SolarClient::send_write_block(const std::shared_ptr<RpcCtx>& rpc,
                                   std::uint16_t pkt_id, bool software_path) {
  PathSet& ps = pathset(rpc->dst);
  PathState* path = rpc->st[pkt_id].retries == 0
                        ? ps.pick()
                        : &ps.force_pick(rpc->st[pkt_id].port);
  if (path == nullptr) {
    sendq_[rpc->dst].emplace_back(rpc->rpc_id, pkt_id);
    return;
  }
  path->inflight++;
  rpc->st[pkt_id].port = path->port;
  const std::uint16_t port = path->port;
  ++stats_.data_pkts_tx;

  // Prepare the wire block on first send (FPGA or software data path);
  // retransmits resend the already-processed block.
  const bool first_processing = rpc->wire[pkt_id].len == 0;
  TimeNs cpu_cost = params_.cpu_per_packet;
  TimeNs fpga_lat = 0;
  if (first_processing) {
    rpc->wire[pkt_id] = rpc->original[pkt_id];
    // Translate to the on-wire (segment-relative) address *before* the
    // pipeline runs: the SEC tweak is (vd, lba) and the read path decrypts
    // with the address from the EBS header — they must be the same space.
    rpc->wire[pkt_id].lba = rpc->ext.segment_offset +
                            (rpc->original[pkt_id].lba - rpc->ext.vd_offset);
    if (software_path) {
      // SOLAR*: CRC (and SEC) burn DPU CPU cycles.
      cpu_cost += params_.sw_crc_per_block;
      if (params_.encrypt) cpu_cost += params_.sw_sec_per_block;
      DataBlock& blk = rpc->wire[pkt_id];
      blk.crc = blk.has_payload()
                    ? crc32_raw(blk.data)
                    : static_cast<std::uint32_t>(blk.lba * 2654435761u);
      if (params_.encrypt && blk.has_payload()) {
        dpu_.fpga().cipher().apply(rpc->io->io.vd_id, blk.lba, blk.data);
      }
    } else {
      fpga_lat = dpu_.fpga().process_write_block(rpc->io->io.vd_id,
                                                 rpc->wire[pkt_id],
                                                 params_.encrypt);
    }
  }

  rpc->st[pkt_id].stage_t0 = engine_.now();
  cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, cpu_cost,
             [this, rpc, pkt_id, port, software_path, fpga_lat] {
    const DataBlock& blk = rpc->wire[pkt_id];
    if (obs::Tracer* t = trc()) {
      t->span("dpu.cpu", rpc->span, rpc->st[pkt_id].stage_t0, engine_.now(),
              nic_.id(), 0, "pkt", pkt_id);
    }
    rpc->st[pkt_id].stage_t0 = engine_.now();
    auto send_frame = [this, rpc, pkt_id, port, software_path] {
      if (obs::Tracer* t = trc()) {
        const BlockState& bst = rpc->st[pkt_id];
        if (software_path) {
          // Two internal-PCIe crossings (DPU memory in and out, Fig. 10).
          t->span("pcie.internal", rpc->span, bst.stage_t0, engine_.now(),
                  nic_.id(), 0, "crossings", 2, "pkt", pkt_id);
        } else {
          t->span("pcie.guest_dma", rpc->span, bst.stage_t0, bst.stage_t1,
                  nic_.id(), 0, "pkt", pkt_id);
          t->span("fpga.pipeline", rpc->span, bst.stage_t1, engine_.now(),
                  nic_.id(), 0, "pkt", pkt_id);
        }
      }
      PathSet& ps2 = pathset(rpc->dst);
      PathState* p2 = ps2.by_port(port);
      Frame f;
      f.rpc.rpc_id = rpc->rpc_id;
      f.rpc.pkt_id = pkt_id;
      f.rpc.pkt_count = static_cast<std::uint16_t>(rpc->st.size());
      f.rpc.msg_type = RpcMsgType::kWriteRequest;
      f.rpc.path_id = port;
      if (params_.encrypt) f.rpc.flags |= kFlagEncrypted;
      f.ebs.vd_id = rpc->io->io.vd_id;
      f.ebs.segment_id = rpc->ext.loc.segment_id;
      f.ebs.lba = rpc->wire[pkt_id].lba;  // already segment-relative
      f.ebs.block_len = rpc->wire[pkt_id].len;
      f.ebs.payload_crc = rpc->wire[pkt_id].crc;
      f.ebs.op = EbsOp::kWrite;
      f.block = rpc->wire[pkt_id];
      f.block.lba = f.ebs.lba;
      emit(rpc, pkt_id, std::move(f),
           p2 != nullptr ? *p2 : pathset(rpc->dst).force_pick(0));
    };
    if (software_path) {
      // SOLAR*: DPU memory -> internal PCIe -> NIC (the guest fetch
      // crossed it already on the way in: two crossings total).
      dpu_.internal_pcie().transfer(blk.len, [this, blk, send_frame] {
        dpu_.internal_pcie().transfer(blk.len, send_frame);
      });
    } else {
      // Offloaded path: DMA from guest memory straight into the FPGA,
      // through the pipeline, out of PktGen. No DPU CPU, no internal PCIe.
      rpc->st[pkt_id].stage_t1 =
          dpu_.guest_dma().transfer(blk.len, [this, fpga_lat, send_frame] {
            engine_.after(fpga_lat, send_frame);
          });
    }
  });
}

void SolarClient::send_read_request(const std::shared_ptr<RpcCtx>& rpc,
                                    std::uint16_t pkt_id) {
  PathSet& ps = pathset(rpc->dst);
  PathState* path = rpc->st[pkt_id].retries == 0
                        ? ps.pick()
                        : &ps.force_pick(rpc->st[pkt_id].port);
  if (path == nullptr) {
    sendq_[rpc->dst].emplace_back(rpc->rpc_id, pkt_id);
    return;
  }
  path->inflight++;
  rpc->st[pkt_id].port = path->port;
  rpc->st[pkt_id].request_acked = false;
  const std::uint16_t port = path->port;
  rpc->st[pkt_id].stage_t0 = engine_.now();
  cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, params_.cpu_per_packet,
             [this, rpc, pkt_id, port] {
    rpc->st[pkt_id].stage_t1 = engine_.now();
    if (obs::Tracer* t = trc()) {
      t->span("dpu.cpu", rpc->span, rpc->st[pkt_id].stage_t0, engine_.now(),
              nic_.id(), 0, "pkt", pkt_id);
    }
    // Addr-table insert + request PktGen in the FPGA.
    engine_.after(dpu_.fpga().lookup_latency() + dpu_.fpga().pktgen_latency(),
                  [this, rpc, pkt_id, port] {
                    if (obs::Tracer* t = trc()) {
                      t->span("fpga.pktgen", rpc->span,
                              rpc->st[pkt_id].stage_t1, engine_.now(),
                              nic_.id(), 0, "pkt", pkt_id);
                    }
                    PathSet& ps2 = pathset(rpc->dst);
                    PathState* p2 = ps2.by_port(port);
                    Frame f;
                    f.rpc.rpc_id = rpc->rpc_id;
                    f.rpc.pkt_id = pkt_id;
                    f.rpc.pkt_count =
                        static_cast<std::uint16_t>(rpc->st.size());
                    f.rpc.msg_type = RpcMsgType::kReadRequest;
                    f.rpc.path_id = port;
                    if (params_.encrypt) f.rpc.flags |= kFlagEncrypted;
                    f.ebs.vd_id = rpc->io->io.vd_id;
                    f.ebs.segment_id = rpc->ext.loc.segment_id;
                    f.ebs.lba = rpc->original[pkt_id].lba;
                    f.ebs.block_len = rpc->original[pkt_id].len;
                    f.ebs.op = EbsOp::kRead;
                    emit(rpc, pkt_id, std::move(f),
                         p2 != nullptr ? *p2
                                       : pathset(rpc->dst).force_pick(0));
                  });
  });
}

void SolarClient::emit(const std::shared_ptr<RpcCtx>& rpc,
                       std::uint16_t pkt_id, Frame frame, PathState& path) {
  frame.ts = engine_.now();
  rpc->st[pkt_id].sent_at = frame.ts;
  if (obs::Tracer* t = trc()) rpc->st[pkt_id].span = t->begin();
  if (rpc->io->first_tx_at < 0) rpc->io->first_tx_at = frame.ts;
  if (rpc->st[pkt_id].timer != 0) engine_.cancel(rpc->st[pkt_id].timer);
  rpc->st[pkt_id].timer = engine_.schedule_after(
      path.rto(params_.path),
      [this, rpc_id = rpc->rpc_id, pkt_id] { on_block_timeout(rpc_id, pkt_id); });

  net::PacketPtr pkt = nic_.make_packet();
  pkt->flow = net::FlowKey{nic_.ip(), rpc->dst, frame.rpc.path_id, kServerPort,
                           net::Proto::kUdp};
  pkt->size_bytes = frame_wire_bytes(frame);
  pkt->priority = 0;  // SOLAR's dedicated switch queue (§4.8)
  pkt->request_int = params_.use_int;
  pkt->span = rpc->st[pkt_id].span;
  net::emplace_app<Frame>(*pkt, std::move(frame));
  nic_.send_packet(std::move(pkt));
}

void SolarClient::drain_queue(net::IpAddr peer) {
  auto it = sendq_.find(peer);
  if (it == sendq_.end()) return;
  auto& q = it->second;
  while (!q.empty()) {
    if (pathset(peer).pick() == nullptr) return;  // still no window
    auto [rpc_id, pkt_id] = q.front();
    q.pop_front();
    auto rit = rpcs_.find(rpc_id);
    if (rit == rpcs_.end() || rit->second->completed) continue;
    auto& rpc = rit->second;
    if (rpc->op == OpType::kWrite) {
      if (!rpc->st[pkt_id].acked) {
        send_write_block(rpc, pkt_id, !params_.offload);
      }
    } else if (!rpc->st[pkt_id].arrived) {
      send_read_request(rpc, pkt_id);
    }
  }
}

void SolarClient::on_packet(net::Packet& pkt) {
  auto f = net::app_as<Frame>(pkt);
  if (!f) return;
  switch (f->rpc.msg_type) {
    case RpcMsgType::kAck:
      if (f->rpc.rpc_id == 0) {
        handle_probe_ack(pkt.flow.src_ip, *f);
      } else {
        handle_ack(*f, f->int_echo);
      }
      break;
    case RpcMsgType::kWriteResponse:
      handle_write_response(*f);
      break;
    case RpcMsgType::kReadResponse:
      handle_read_response(*f, pkt.int_records);
      break;
    default:
      break;
  }
}

void SolarClient::handle_ack(const Frame& f, const net::IntTrail& int_recs) {
  auto it = rpcs_.find(f.rpc.rpc_id);
  if (it == rpcs_.end() || it->second->completed) return;
  auto rpc = it->second;
  if (f.rpc.pkt_id >= rpc->st.size()) return;
  BlockState& st = rpc->st[f.rpc.pkt_id];
  rpc->io->last_net_at = engine_.now();
  PathSet& ps = pathset(rpc->dst);
  PathState* path = ps.by_port(st.port);
  const TimeNs rtt = f.echo_ts > 0 ? engine_.now() - f.echo_ts : 0;

  if (rpc->op == OpType::kWrite) {
    if (st.acked) return;  // duplicate ACK
    // Window/CC update per data ACK (§4.7). Read request-ACKs cost nothing
    // here — they carry no CC signal; the read side pays per data response.
    cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, params_.cpu_per_ack, [] {});
    st.acked = true;
    if (obs::Tracer* t = trc()) {
      t->span_with_id(st.span, "blk.net", rpc->span, st.sent_at,
                      engine_.now(), nic_.id(), st.port, "pkt", f.rpc.pkt_id,
                      "rtt_ns", static_cast<std::uint64_t>(rtt));
    }
    if (st.timer != 0) {
      engine_.cancel(st.timer);
      st.timer = 0;
    }
    if (path != nullptr) {
      path->inflight = std::max(0, path->inflight - 1);
      ps.on_ack(*path, rtt, int_recs);
    }
    rpc->outstanding--;
    drain_queue(rpc->dst);
    if (rpc->outstanding == 0 && !rpc->response_received) {
      arm_response_timer(rpc);
    }
  } else {
    // ACK of a read request: the data is now a storage-side matter; widen
    // the timer to cover the SSD. The request-ACK's INT describes the
    // *request* direction — do not feed it to the congestion estimator,
    // which tracks the data (response) direction for reads; mixing the two
    // directions' tx counters would corrupt the per-hop rate samples.
    if (st.arrived || st.request_acked) return;
    st.request_acked = true;
    if (path != nullptr) ps.on_ack(*path, rtt, {});
    if (st.timer != 0) engine_.cancel(st.timer);
    const TimeNs allowance =
        (path != nullptr ? path->rto(params_.path) : params_.path.timeout_min) +
        params_.response_timeout_extra;
    st.timer = engine_.schedule_after(
        allowance, [this, rpc_id = rpc->rpc_id, pkt_id = f.rpc.pkt_id] {
          on_block_timeout(rpc_id, pkt_id);
        });
  }
}

void SolarClient::handle_write_response(const Frame& f) {
  auto it = rpcs_.find(f.rpc.rpc_id);
  if (it == rpcs_.end() || it->second->completed) return;
  auto rpc = it->second;
  if (rpc->response_received) return;
  rpc->response_received = true;
  rpc->io->last_net_at = engine_.now();
  rpc->server_bn = std::max(rpc->server_bn, f.server_bn);
  rpc->server_ssd = std::max(rpc->server_ssd, f.server_ssd);
  rpc->fn_elapsed = engine_.now() - rpc->started_at - rpc->server_bn -
                    rpc->server_ssd;
  if (rpc->response_timer != 0) {
    engine_.cancel(rpc->response_timer);
    rpc->response_timer = 0;
  }

  if (f.status == StorageStatus::kCrcMismatch &&
      rpc->repair_rounds < params_.max_repair_rounds) {
    // The server saw a payload/CRC mismatch (e.g. post-CRC FPGA bit flip
    // on the wire side). Resend everything through the software path.
    ++rpc->repair_rounds;
    ++stats_.agg_check_failures;
    rpc->response_received = false;
    for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
      if (rpc->st[i].timer != 0) engine_.cancel(rpc->st[i].timer);
      if (!rpc->st[i].acked) release_path(rpc->st[i].port, rpc->dst);
      rpc->st[i] = BlockState{};
      rpc->wire[i] = DataBlock{};  // force re-processing
      ++stats_.blocks_repaired;
    }
    rpc->outstanding = static_cast<int>(rpc->st.size());
    for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
      send_write_block(rpc, i, /*software_path=*/true);
    }
    return;
  }
  if (f.status != StorageStatus::kOk) {
    complete_rpc(rpc, f.status);
    return;
  }

  // Software CRC-aggregation check (§4.5): one CRC pass over the XOR of
  // the RPC's blocks versus the XOR of the hardware-computed CRCs.
  const bool all_payloads =
      !rpc->original.empty() &&
      std::all_of(rpc->original.begin(), rpc->original.end(),
                  [](const DataBlock& b) { return b.has_payload(); });
  cpu_submit(
      tenant_of(rpc->io->io), rpc->io->io.vd_id, params_.cpu_agg_crc_per_rpc,
      [this, rpc, all_payloads] {
        if (params_.aggregate_check && all_payloads) {
          std::vector<std::vector<std::uint8_t>> blocks;
          std::vector<std::uint32_t> crcs;
          blocks.reserve(rpc->original.size());
          for (std::size_t i = 0; i < rpc->original.size(); ++i) {
            blocks.push_back(rpc->original[i].data);
            crcs.push_back(rpc->wire[i].crc);
          }
          if (!crc_aggregate_check(blocks, crcs) &&
              rpc->repair_rounds < params_.max_repair_rounds) {
            ++rpc->repair_rounds;
            ++stats_.agg_check_failures;
            // Fall back to software per-block CRCs to find the culprits.
            TimeNs sw_cost = params_.sw_crc_per_block *
                             static_cast<TimeNs>(rpc->original.size());
            cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, sw_cost,
                       [this, rpc] {
              rpc->response_received = false;
              int resent = 0;
              for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
                if (crc32_raw(rpc->original[i].data) != rpc->wire[i].crc) {
                  rpc->st[i] = BlockState{};
                  rpc->wire[i] = DataBlock{};
                  ++rpc->outstanding;
                  ++stats_.blocks_repaired;
                  ++resent;
                  send_write_block(rpc, i, /*software_path=*/true);
                }
              }
              if (resent == 0) {
                // Aggregate failed but every block checks out against the
                // hardware CRCs: the corruption is inside the data (a
                // pre-CRC flip). Resend everything via software.
                for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
                  rpc->st[i] = BlockState{};
                  rpc->wire[i] = DataBlock{};
                  ++rpc->outstanding;
                  ++stats_.blocks_repaired;
                  send_write_block(rpc, i, /*software_path=*/true);
                }
              }
            });
            return;
          }
        }
        complete_rpc(rpc, StorageStatus::kOk);
      });
}

void SolarClient::handle_read_response(const Frame& f,
                                       const net::IntTrail& int_recs) {
  auto it = rpcs_.find(f.rpc.rpc_id);
  if (it == rpcs_.end() || it->second->completed) return;
  auto rpc = it->second;
  if (f.rpc.pkt_id >= rpc->st.size()) return;
  BlockState& st = rpc->st[f.rpc.pkt_id];
  if (st.arrived) return;  // duplicate response
  rpc->io->last_net_at = engine_.now();

  DataBlock block = f.block;
  const std::uint16_t pkt_id = f.rpc.pkt_id;
  auto deliver = [this, rpc, pkt_id, block = std::move(block), f,
                  int_recs]() mutable {
    BlockState& stt = rpc->st[pkt_id];
    if (stt.arrived || rpc->completed) return;
    bool hw_ok = true;
    TimeNs fpga_lat = 0;
    if (params_.offload) {
      fpga_lat = dpu_.fpga().process_read_block(rpc->io->io.vd_id, block,
                                                params_.encrypt, hw_ok);
    } else if (params_.encrypt && block.has_payload()) {
      dpu_.fpga().cipher().apply(rpc->io->io.vd_id, block.lba, block.data);
      hw_ok = !block.has_payload() || crc32_raw(block.data) == block.crc;
    }
    auto finish = [this, rpc, pkt_id, block = std::move(block), f,
                   int_recs, hw_ok]() mutable {
      BlockState& stt = rpc->st[pkt_id];
      if (stt.arrived || rpc->completed) return;
      if (!hw_ok) {
        // Hardware CRC check failed on the inbound block: treat as loss —
        // but a block that *persistently* fails integrity is a storage
        // error, not congestion; give up after a bounded number of tries.
        ++stats_.read_hw_crc_rejects;
        ++stt.retries;
        if (stt.retries > 16) {
          complete_rpc(rpc, StorageStatus::kCrcMismatch);
          return;
        }
        ++stats_.retransmits;
        if (stt.timer != 0) engine_.cancel(stt.timer);
        release_path(stt.port, rpc->dst);
        send_read_request(rpc, pkt_id);
        return;
      }
      stt.arrived = true;
      if (obs::Tracer* t = trc()) {
        t->span_with_id(stt.span, "blk.net", rpc->span, stt.sent_at,
                        engine_.now(), nic_.id(), stt.port, "pkt", pkt_id);
      }
      if (stt.timer != 0) {
        engine_.cancel(stt.timer);
        stt.timer = 0;
      }
      PathSet& ps = pathset(rpc->dst);
      PathState* path = ps.by_port(stt.port);
      if (path != nullptr) {
        path->inflight = std::max(0, path->inflight - 1);
        ps.on_ack(*path, 0, int_recs);
      }
      rpc->server_bn = std::max(rpc->server_bn, f.server_bn);
      rpc->server_ssd = std::max(rpc->server_ssd, f.server_ssd);
      rpc->fn_elapsed = std::max(
          rpc->fn_elapsed, engine_.now() - stt.sent_at - f.server_bn -
                               f.server_ssd);
      rpc->wire[pkt_id] = std::move(block);
      rpc->outstanding--;
      cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, params_.cpu_per_ack,
                 [] {});
      drain_queue(rpc->dst);
      if (rpc->outstanding == 0) maybe_complete_read(rpc);
    };
    // The block only "lands" once it has traversed the data path: FPGA
    // pipeline + guest DMA when offloaded; CPU + *two* internal-PCIe
    // crossings for SOLAR* (Fig. 10) — the latter is the goodput ceiling.
    const std::uint32_t len = rpc->original[pkt_id].len;
    if (params_.offload) {
      dpu_.guest_dma().transfer(len, [this, fpga_lat,
                                      finish = std::move(finish)]() mutable {
        engine_.after(fpga_lat, std::move(finish));
      });
    } else {
      const std::uint64_t vd = tenant_of(rpc->io->io);
      dpu_.internal_pcie().transfer(len, [this, len, vd,
                                          finish = std::move(finish)]() mutable {
        dpu_.internal_pcie().transfer(len, [this, vd,
                                            finish = std::move(finish)]() mutable {
          cpu_submit(vd, 0, params_.sw_crc_per_block, std::move(finish));
        });
      });
    }
  };
  deliver();
}

void SolarClient::maybe_complete_read(const std::shared_ptr<RpcCtx>& rpc) {
  const bool all_payloads =
      !rpc->wire.empty() &&
      std::all_of(rpc->wire.begin(), rpc->wire.end(),
                  [](const DataBlock& b) { return b.has_payload(); });
  cpu_submit(
      tenant_of(rpc->io->io), rpc->io->io.vd_id, params_.cpu_agg_crc_per_rpc,
      [this, rpc, all_payloads] {
        if (params_.aggregate_check && all_payloads) {
          std::vector<std::vector<std::uint8_t>> blocks;
          std::vector<std::uint32_t> crcs;
          for (const auto& b : rpc->wire) {
            blocks.push_back(b.data);
            crcs.push_back(b.crc);
          }
          if (!crc_aggregate_check(blocks, crcs) &&
              rpc->repair_rounds < params_.max_repair_rounds) {
            ++rpc->repair_rounds;
            ++stats_.agg_check_failures;
            const TimeNs sw_cost = params_.sw_crc_per_block *
                                   static_cast<TimeNs>(rpc->wire.size());
            cpu_submit(tenant_of(rpc->io->io), rpc->rpc_id, sw_cost,
                       [this, rpc] {
              for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
                if (crc32_raw(rpc->wire[i].data) != rpc->wire[i].crc) {
                  rpc->st[i] = BlockState{};
                  rpc->wire[i] = DataBlock{};
                  ++rpc->outstanding;
                  ++stats_.blocks_repaired;
                  send_read_request(rpc, i);
                }
              }
              if (rpc->outstanding == 0) {
                complete_rpc(rpc, StorageStatus::kOk);  // false alarm
              }
            });
            return;
          }
        }
        complete_rpc(rpc, rpc->status);
      });
}

void SolarClient::on_block_timeout(std::uint64_t rpc_id,
                                   std::uint16_t pkt_id) {
  auto it = rpcs_.find(rpc_id);
  if (it == rpcs_.end() || it->second->completed) return;
  auto rpc = it->second;
  BlockState& st = rpc->st[pkt_id];
  st.timer = 0;
  if (rpc->op == OpType::kWrite ? st.acked : st.arrived) return;
  ++stats_.pkt_timeouts;
  if (obs::Tracer* t = trc()) {
    t->span_with_id(st.span, "blk.net.timeout", rpc->span, st.sent_at,
                    engine_.now(), nic_.id(), st.port, "pkt", pkt_id,
                    "retries", static_cast<std::uint64_t>(st.retries));
  }
  PathSet& ps = pathset(rpc->dst);
  if (PathState* path = ps.by_port(st.port)) {
    path->inflight = std::max(0, path->inflight - 1);
    if (ps.on_timeout(*path)) ++stats_.path_redraws;
  }
  ++st.retries;
  ++stats_.retransmits;
  rpc->io->last_net_at = engine_.now();
  if (rpc->op == OpType::kWrite) {
    send_write_block(rpc, pkt_id, !params_.offload);
  } else {
    send_read_request(rpc, pkt_id);
  }
}

void SolarClient::arm_response_timer(const std::shared_ptr<RpcCtx>& rpc) {
  if (rpc->response_timer != 0) engine_.cancel(rpc->response_timer);
  PathSet& ps = pathset(rpc->dst);
  TimeNs min_rto = params_.path.timeout_min * 2;
  for (auto& p : ps.paths()) {
    if (p.srtt > 0) min_rto = std::max(min_rto, p.rto(params_.path));
  }
  rpc->response_timer = engine_.schedule_after(
      min_rto + params_.response_timeout_extra,
      [this, rpc_id = rpc->rpc_id] {
        auto it = rpcs_.find(rpc_id);
        if (it == rpcs_.end()) return;
        auto rpc2 = it->second;
        rpc2->response_timer = 0;
        if (rpc2->completed || rpc2->response_received) return;
        // Poke the server with a duplicate of block 0: a completed RPC
        // answers with a (re)sent response.
        PathState& path = pathset(rpc2->dst).force_pick(0);
        Frame f;
        f.rpc.rpc_id = rpc2->rpc_id;
        f.rpc.pkt_id = 0;
        f.rpc.pkt_count = static_cast<std::uint16_t>(rpc2->st.size());
        f.rpc.msg_type = RpcMsgType::kWriteRequest;
        f.rpc.path_id = path.port;
        if (params_.encrypt) f.rpc.flags |= kFlagEncrypted;
        f.ebs.vd_id = rpc2->io->io.vd_id;
        f.ebs.segment_id = rpc2->ext.loc.segment_id;
        f.ebs.lba = rpc2->ext.segment_offset;
        f.ebs.block_len = rpc2->wire[0].len;
        f.ebs.payload_crc = rpc2->wire[0].crc;
        f.ebs.op = EbsOp::kWrite;
        f.block = rpc2->wire[0];
        f.block.lba = f.ebs.lba;
        f.ts = engine_.now();
        net::PacketPtr pkt = nic_.make_packet();
        pkt->flow = net::FlowKey{nic_.ip(), rpc2->dst, path.port, kServerPort,
                                 net::Proto::kUdp};
        pkt->size_bytes = frame_wire_bytes(f);
        pkt->priority = 0;
        net::emplace_app<Frame>(*pkt, std::move(f));
        nic_.send_packet(std::move(pkt));
        ++stats_.retransmits;
        arm_response_timer(rpc2);
      });
}

void SolarClient::schedule_probes(net::IpAddr peer) {
  engine_.after(params_.probe_interval, [this, peer] {
    auto it = paths_.find(peer);
    if (it == paths_.end()) return;
    // One probe per path per interval: a tiny kProbe frame whose ACK
    // refreshes the path's RTT and INT view (and clears its timeout
    // counter) without waiting for application traffic.
    for (auto& p : it->second->paths()) {
      Frame f;
      f.rpc.rpc_id = 0;  // probe marker
      f.rpc.msg_type = RpcMsgType::kProbe;
      f.rpc.path_id = p.port;
      f.ts = engine_.now();
      net::PacketPtr pkt = nic_.make_packet();
      pkt->flow = net::FlowKey{nic_.ip(), peer, p.port, kServerPort,
                               net::Proto::kUdp};
      pkt->size_bytes = 64;
      pkt->priority = 0;
      pkt->request_int = params_.use_int;
      net::emplace_app<Frame>(*pkt, std::move(f));
      nic_.send_packet(std::move(pkt));
      ++probes_sent_;
    }
    schedule_probes(peer);
  });
}

void SolarClient::handle_probe_ack(net::IpAddr peer, const Frame& f) {
  auto it = paths_.find(peer);
  if (it == paths_.end()) return;
  PathState* path = it->second->by_port(f.rpc.path_id);
  if (path == nullptr) return;  // path was redrawn since the probe
  const TimeNs rtt = f.echo_ts > 0 ? engine_.now() - f.echo_ts : 0;
  it->second->on_ack(*path, rtt, f.int_echo);
  cpu_submit(0, f.rpc.path_id, params_.cpu_per_ack, [] {});
}

void SolarClient::release_path(std::uint16_t port, net::IpAddr peer) {
  if (port == 0) return;
  if (PathState* p = pathset(peer).by_port(port)) {
    p->inflight = std::max(0, p->inflight - 1);
  }
}

void SolarClient::complete_rpc(const std::shared_ptr<RpcCtx>& rpc,
                               StorageStatus status) {
  if (rpc->completed) return;
  rpc->completed = true;
  if (obs::Tracer* t = trc()) {
    t->span_with_id(rpc->span,
                    rpc->op == OpType::kWrite ? "rpc.write" : "rpc.read",
                    rpc->io->span, rpc->started_at, engine_.now(), nic_.id(),
                    0, "blocks", rpc->st.size(), "status",
                    static_cast<std::uint64_t>(status));
  }
  if (rpc->response_timer != 0) {
    engine_.cancel(rpc->response_timer);
    rpc->response_timer = 0;
  }
  for (std::uint16_t i = 0; i < rpc->st.size(); ++i) {
    BlockState& st = rpc->st[i];
    if (st.timer != 0) {
      engine_.cancel(st.timer);
      st.timer = 0;
    }
    const bool settled = rpc->op == OpType::kWrite ? st.acked : st.arrived;
    if (!settled) release_path(st.port, rpc->dst);
  }
  auto io = rpc->io;
  if (status != StorageStatus::kOk) io->status = status;
  io->fn_max = std::max(io->fn_max, rpc->fn_elapsed);
  io->bn_max = std::max(io->bn_max, rpc->server_bn);
  io->ssd_max = std::max(io->ssd_max, rpc->server_ssd);
  if (rpc->op == OpType::kRead) {
    for (std::size_t i = 0; i < rpc->wire.size(); ++i) {
      DataBlock out = std::move(rpc->wire[i]);
      out.lba = rpc->ext.vd_offset +
                (rpc->original[i].lba - rpc->ext.segment_offset);
      out.len = rpc->original[i].len;
      io->read_data.push_back(std::move(out));
    }
  }
  rpcs_.erase(rpc->rpc_id);
  drain_queue(rpc->dst);
  if (--io->remaining_rpcs == 0) finish_io(io);
}

void SolarClient::finish_io(const std::shared_ptr<IoCtx>& io) {
  if (obs::Tracer* t = trc()) {
    t->span_with_id(io->span,
                    io->io.op == OpType::kWrite ? "io.write" : "io.read", 0,
                    io->submitted_at, engine_.now(), nic_.id(), 0, "bytes",
                    io->io.len, "vd", io->io.vd_id);
  }
  IoResult res;
  res.status = io->status;
  res.completed_at = engine_.now();
  res.read_data = std::move(io->read_data);
  std::sort(res.read_data.begin(), res.read_data.end(),
            [](const DataBlock& a, const DataBlock& b) {
              return a.lba < b.lba;
            });
  const TimeNs first_tx = io->first_tx_at < 0 ? io->admitted_at
                                              : io->first_tx_at;
  res.trace.sa_ns = (first_tx - io->admitted_at) +
                    std::max<TimeNs>(0, engine_.now() - io->last_net_at);
  res.trace.fn_ns = io->fn_max;
  res.trace.bn_ns = io->bn_max;
  res.trace.ssd_ns = io->ssd_max;
  res.trace.qos_wait_ns = io->qos_wait;
  io->done(std::move(res));
}

}  // namespace repro::solar
