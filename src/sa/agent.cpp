#include "sa/agent.h"

#include <algorithm>

#include "common/crc32.h"
#include "obs/obs.h"

namespace repro::sa {

using transport::DataBlock;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageRequest;
using transport::StorageResponse;
using transport::StorageStatus;

struct StorageAgent::Gather {
  int remaining = 0;
  std::uint64_t span = 0;   ///< root trace span of the I/O (0 = untraced)
  TimeNs submitted_at = 0;
  StorageStatus status = StorageStatus::kOk;
  TimeNs qos_wait = 0;
  IoRequest io;
  std::vector<std::pair<Extent, StorageResponse>> responses;
  transport::IoCompleteFn done;
};

StorageAgent::StorageAgent(sim::Engine& engine, sim::CpuPool& cpu,
                           SegmentTable& segments, QosTable& qos,
                           transport::RpcTransport& rpc,
                           const BlockCipher* cipher, SaParams params)
    : engine_(engine),
      cpu_(cpu),
      segments_(segments),
      qos_(qos),
      rpc_(rpc),
      cipher_(cipher),
      params_(params) {}

void StorageAgent::set_obs(obs::Obs* obs, std::uint32_t pid) {
  obs_ = obs;
  pid_ = pid;
}

obs::Tracer* StorageAgent::trc() const {
  return obs_ != nullptr && obs_->tracer().enabled() ? &obs_->tracer()
                                                     : nullptr;
}

void StorageAgent::register_metrics(obs::Registry& reg,
                                    const std::string& node) {
  const obs::Labels labels = obs::label("node", node);
  reg.expose_counter("sa.ios", labels, &stats_.ios);
  reg.expose_counter("sa.rpcs", labels, &stats_.rpcs);
  reg.expose_counter("sa.split_ios", labels, &stats_.split_ios);
  reg.expose_counter("sa.crc_mismatches", labels, &stats_.crc_mismatches);
  reg.expose_counter("sa.qos_throttled_ns", labels,
                     &stats_.qos_throttled_ns);
}

void StorageAgent::submit_io(IoRequest io, transport::IoCompleteFn done) {
  const TimeNs now = engine_.now();
  const auto admission = qos_.admit(io.vd_id, io.len, now);
  const TimeNs qos_wait = admission.admit_at - now;
  stats_.qos_throttled_ns += static_cast<std::uint64_t>(qos_wait);
  if (qos_wait == 0) {
    run_io(std::move(io), std::move(done), now, 0);
  } else {
    engine_.at(admission.admit_at,
               [this, io = std::move(io), done = std::move(done), qos_wait,
                at = admission.admit_at]() mutable {
                 run_io(std::move(io), std::move(done), at, qos_wait);
               });
  }
}

void StorageAgent::run_io(IoRequest io, transport::IoCompleteFn done,
                          TimeNs admitted_at, TimeNs qos_wait) {
  ++stats_.ios;
  std::uint64_t io_span = 0;
  if (obs::Tracer* t = trc()) {
    io_span = t->begin();
    if (qos_wait > 0) {
      t->span("qos.wait", io_span, admitted_at - qos_wait, admitted_at,
              pid_);
    }
  }
  const std::size_t nblocks = std::max<std::size_t>(
      io.payload.size(), (io.len + 4095) / 4096);
  TimeNs cpu_cost = params_.per_io_cost;
  if (io.op == OpType::kWrite) {
    cpu_cost += params_.per_block_crc * static_cast<TimeNs>(nblocks);
    if (params_.encrypt) {
      cpu_cost += params_.per_block_crypto * static_cast<TimeNs>(nblocks);
    }
  }

  cpu_.submit(io.vd_id, cpu_cost, [this, io = std::move(io),
                                   done = std::move(done), admitted_at,
                                   qos_wait, io_span]() mutable {
    if (obs::Tracer* t = trc()) {
      t->span("sa.cpu", io_span, admitted_at, engine_.now(), pid_, 0,
              "blocks", io.payload.size());
    }
    // Real byte work for blocks that carry payloads: encrypt then CRC the
    // ciphertext (the wire/storage CRC covers exactly what is stored).
    if (io.op == OpType::kWrite) {
      for (auto& blk : io.payload) {
        if (!blk.has_payload()) {
          blk.crc = static_cast<std::uint32_t>(blk.lba * 2654435761u);
          continue;
        }
        if (params_.encrypt && cipher_ != nullptr) {
          cipher_->apply(io.vd_id, blk.lba, blk.data);
        }
        blk.crc = crc32_raw(blk.data);
      }
    }

    auto extents = segments_.split(io.vd_id, io.offset, io.len);
    if (extents.empty()) {
      // The I/O consumed QoS tokens at submit but does no work: return
      // them so a misaddressed burst doesn't also burn the tenant's budget.
      qos_.refund(io.vd_id, io.len);
      IoResult res;
      res.status = StorageStatus::kOutOfRange;
      res.completed_at = engine_.now();
      done(std::move(res));
      return;
    }
    if (extents.size() > 1) ++stats_.split_ios;

    auto g = std::make_shared<Gather>();
    g->remaining = static_cast<int>(extents.size());
    g->span = io_span;
    g->submitted_at = admitted_at - qos_wait;
    g->qos_wait = qos_wait;
    g->io = std::move(io);
    g->done = std::move(done);
    g->responses.reserve(extents.size());

    for (const Extent& ext : extents) {
      StorageRequest req;
      req.op = g->io.op;
      req.vd_id = g->io.vd_id;
      req.segment_id = ext.loc.segment_id;
      req.segment_offset = ext.segment_offset;
      req.len = ext.len;
      req.encrypted = params_.encrypt;
      if (g->io.op == OpType::kWrite) {
        for (auto& blk : g->io.payload) {
          if (blk.lba >= ext.vd_offset && blk.lba < ext.vd_offset + ext.len) {
            DataBlock copy = blk;
            copy.lba = ext.segment_offset + (blk.lba - ext.vd_offset);
            req.blocks.push_back(std::move(copy));
          }
        }
      }
      ++stats_.rpcs;
      const TimeNs call_at = engine_.now();
      rpc_.call(ext.loc.block_server, std::move(req),
                [this, g, ext, call_at](StorageResponse resp) {
                  if (obs::Tracer* t = trc()) {
                    // Server-side stage durations come back in the response
                    // metadata; anchor them at the response arrival, nested
                    // bs > ssd — the §2.3 breakdown as a span tree.
                    const TimeNs now = engine_.now();
                    const bool wr = g->io.op == OpType::kWrite;
                    const std::uint64_t rpc_span =
                        t->span(wr ? "rpc.write" : "rpc.read", g->span,
                                call_at, now, pid_, 0, "len", ext.len);
                    const std::uint64_t bs_span =
                        t->span(wr ? "bs.write" : "bs.read", rpc_span,
                                now - resp.server_bn_ns, now, pid_);
                    t->span(wr ? "ssd.write" : "ssd.read", bs_span,
                            now - resp.server_ssd_ns, now, pid_);
                  }
                  if (resp.status != StorageStatus::kOk) {
                    g->status = resp.status;
                  }
                  g->responses.emplace_back(ext, std::move(resp));
                  if (--g->remaining == 0) finish_io(g);
                });
    }
  });
}

void StorageAgent::finish_io(const std::shared_ptr<Gather>& g) {
  // Post-processing on CPU: for reads, per-block CRC verify and decrypt.
  TimeNs cpu_cost = 0;
  std::size_t read_blocks = 0;
  if (g->io.op == OpType::kRead) {
    for (const auto& [ext, resp] : g->responses) read_blocks += resp.blocks.size();
    cpu_cost += params_.per_block_crc * static_cast<TimeNs>(read_blocks);
    if (params_.encrypt) {
      cpu_cost += params_.per_block_crypto * static_cast<TimeNs>(read_blocks);
    }
  }
  cpu_.submit(g->io.vd_id, cpu_cost, [this, g, post_t0 = engine_.now()] {
    if (obs::Tracer* t = trc()) {
      const TimeNs now = engine_.now();
      t->span("sa.post", g->span, post_t0, now, pid_);
      t->span_with_id(g->span,
                      g->io.op == OpType::kWrite ? "io.write" : "io.read",
                      0, g->submitted_at, now, pid_, 0, "bytes", g->io.len,
                      "vd", g->io.vd_id);
    }
    IoResult res;
    res.status = g->status;
    if (g->io.op == OpType::kRead && g->status == StorageStatus::kOk) {
      for (auto& [ext, resp] : g->responses) {
        for (auto& blk : resp.blocks) {
          DataBlock out = std::move(blk);
          // Map the segment-relative address back into VD space.
          out.lba = ext.vd_offset + (out.lba - ext.segment_offset);
          if (out.has_payload()) {
            if (crc32_raw(out.data) != out.crc) {
              ++stats_.crc_mismatches;
              res.status = StorageStatus::kCrcMismatch;
            }
            if (params_.encrypt && cipher_ != nullptr) {
              cipher_->apply(g->io.vd_id, out.lba, out.data);
            }
          }
          res.read_data.push_back(std::move(out));
        }
      }
      std::sort(res.read_data.begin(), res.read_data.end(),
                [](const DataBlock& a, const DataBlock& b) {
                  return a.lba < b.lba;
                });
    }
    res.completed_at = engine_.now();
    res.qos_wait_ns = g->qos_wait;
    res.span = g->span;
    g->done(std::move(res));
  });
}

}  // namespace repro::sa
