#include "storage/block_server.h"

#include <algorithm>

namespace repro::storage {

using transport::DataBlock;
using transport::StorageRequest;
using transport::StorageResponse;
using transport::StorageStatus;

BlockServer::BlockServer(sim::Engine& engine, BlockServerParams params,
                         Rng rng)
    : engine_(engine),
      params_(params),
      rng_(rng),
      store_(params.store_payload) {
  for (int r = 0; r < params_.backend.replicas; ++r) {
    replica_ssds_.push_back(
        std::make_unique<SsdModel>(engine, params_.ssd, rng_.fork(100 + r)));
  }
}

TimeNs BlockServer::backend_delay() {
  return static_cast<TimeNs>(rng_.lognormal_median(
      static_cast<double>(params_.backend.rtt_median),
      params_.backend.rtt_sigma));
}

void BlockServer::handle(StorageRequest request,
                         std::function<void(StorageResponse)> reply) {
  const std::size_t block_estimate = std::max<std::size_t>(
      request.blocks.size(), (request.len + 4095) / 4096);
  const TimeNs cpu = params_.per_request_cpu +
                     params_.per_block_cpu *
                         static_cast<TimeNs>(block_estimate);
  // Block-server CPU is modelled as a fixed service delay: the paper's FN
  // experiments never bottleneck on storage-server cores.
  engine_.after(cpu, [this, req = std::move(request),
                      cb = std::move(reply)]() mutable {
    if (req.op == transport::OpType::kWrite) {
      handle_write(std::move(req), std::move(cb));
    } else {
      handle_read(std::move(req), std::move(cb));
    }
  });
}

void BlockServer::handle_write(StorageRequest request,
                               std::function<void(StorageResponse)> reply) {
  // CRC verification of real payloads (placeholders carry no bytes to
  // verify; their CRC is trusted — the latency cost is already charged).
  // crc32_raw dispatches through src/kernels (CLMUL-folded on vector
  // tiers), so verifying every simulated block stays cheap and the
  // pass/fail outcome is identical on every host ISA.
  for (auto& blk : request.blocks) {
    if (blk.has_payload()) {
      if (crc32_raw(blk.data) != blk.crc) {
        ++crc_failures_;
        StorageResponse resp;
        resp.status = StorageStatus::kCrcMismatch;
        reply(std::move(resp));
        return;
      }
    }
  }
  // Store on the primary, then 3-way replicate to chunk servers over BN.
  std::uint64_t offset_in_segment = request.segment_offset;
  for (auto& blk : request.blocks) {
    if (!store_.put(request.segment_id, offset_in_segment, blk.len, blk.crc,
                    std::move(blk.data))) {
      StorageResponse resp;
      resp.status = StorageStatus::kOutOfRange;
      reply(std::move(resp));
      return;
    }
    offset_in_segment += blk.len;
  }

  // The reply reports the last replica's backend and SSD times: the two
  // add up to the stage's duration (maxima over different replicas would
  // overstate it).
  struct Fanout {
    int remaining;
    std::function<void(StorageResponse)> reply;
  };
  auto st = std::make_shared<Fanout>();
  st->remaining = params_.backend.replicas;
  st->reply = std::move(reply);
  const std::uint32_t len = request.len;

  for (int r = 0; r < params_.backend.replicas; ++r) {
    const TimeNs bn = backend_delay();
    SsdModel* ssd = replica_ssds_[static_cast<std::size_t>(r)].get();
    engine_.after(bn / 2, [this, st, ssd, len, bn] {
      const TimeNs ssd_start = engine_.now();
      ssd->write(len, [this, st, bn, ssd_start] {
        const TimeNs ssd_span = engine_.now() - ssd_start;
        engine_.after(bn / 2, [st, bn, ssd_span] {
          if (--st->remaining == 0) {
            StorageResponse resp;
            resp.status = StorageStatus::kOk;
            resp.server_bn_ns = bn;
            resp.server_ssd_ns = ssd_span;
            st->reply(std::move(resp));
          }
        });
      });
    });
  }
}

void BlockServer::write_block(std::uint64_t segment_id, std::uint64_t offset,
                              DataBlock block, BlockWriteFn done,
                              bool verify_crc) {
  if (verify_crc && block.has_payload() &&
      crc32_raw(block.data) != block.crc) {
    ++crc_failures_;
    done(StorageStatus::kCrcMismatch, 0, 0);
    return;
  }
  const std::uint32_t len = block.len;
  if (!store_.put(segment_id, offset, len, block.crc, std::move(block.data))) {
    done(StorageStatus::kOutOfRange, 0, 0);
    return;
  }
  struct Fanout {  // reports the last replica's times, as in handle()
    int remaining;
    BlockWriteFn done;
  };
  auto st = std::make_shared<Fanout>();
  st->remaining = params_.backend.replicas;
  st->done = std::move(done);
  for (int r = 0; r < params_.backend.replicas; ++r) {
    const TimeNs bn = backend_delay();
    SsdModel* ssd = replica_ssds_[static_cast<std::size_t>(r)].get();
    engine_.after(bn / 2, [this, st, ssd, len, bn] {
      const TimeNs ssd_start = engine_.now();
      ssd->write(len, [this, st, bn, ssd_start] {
        const TimeNs ssd_span = engine_.now() - ssd_start;
        engine_.after(bn / 2, [st, bn, ssd_span] {
          if (--st->remaining == 0) st->done(StorageStatus::kOk, bn, ssd_span);
        });
      });
    });
  }
}

void BlockServer::read_block(std::uint64_t segment_id, std::uint64_t offset,
                             std::uint32_t len, BlockReadFn done) {
  const TimeNs bn = backend_delay();
  SsdModel* ssd = replica_ssds_.front().get();
  engine_.after(bn / 2, [this, ssd, segment_id, offset, len, bn,
                         done = std::move(done)]() mutable {
    const TimeNs ssd_start = engine_.now();
    ssd->read(len, [this, segment_id, offset, len, bn, ssd_start,
                    done = std::move(done)]() mutable {
      const TimeNs ssd_span = engine_.now() - ssd_start;
      DataBlock out;
      out.lba = offset;
      if (auto blk = store_.get(segment_id, offset)) {
        out.len = blk->len;
        out.crc = blk->crc;
        out.data = blk->data;
      } else {
        out.len = len;
        out.crc = 0;
      }
      engine_.after(bn / 2, [out = std::move(out), bn, ssd_span,
                             done = std::move(done)]() mutable {
        done(StorageStatus::kOk, std::move(out), bn, ssd_span);
      });
    });
  });
}

void BlockServer::handle_read(StorageRequest request,
                              std::function<void(StorageResponse)> reply) {
  // Enumerate the 4K cells covered by [segment_offset, +len).
  auto cells = transport::make_placeholder_blocks(request.segment_offset,
                                                  request.len, 4096);
  struct Fanout {
    int remaining;
    TimeNs max_ssd = 0;
    TimeNs bn = 0;
    StorageResponse resp;
    std::function<void(StorageResponse)> reply;
  };
  auto st = std::make_shared<Fanout>();
  st->remaining = static_cast<int>(cells.size());
  st->reply = std::move(reply);
  st->resp.status = StorageStatus::kOk;
  st->resp.blocks.resize(cells.size());
  st->bn = backend_delay();

  SsdModel* ssd = replica_ssds_.front().get();  // read from the primary
  const std::uint64_t segment_id = request.segment_id;

  engine_.after(st->bn / 2, [this, st, ssd, segment_id,
                             cells = std::move(cells)] {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const TimeNs ssd_start = engine_.now();
      ssd->read(cells[i].len, [this, st, i, segment_id, cell = cells[i],
                               ssd_start] {
        st->max_ssd = std::max(st->max_ssd, engine_.now() - ssd_start);
        DataBlock out;
        out.lba = cell.lba;  // segment-relative; the SA maps it back
        if (auto blk = store_.get(segment_id, cell.lba)) {
          out.len = blk->len;
          out.crc = blk->crc;
          out.data = blk->data;
        } else {
          out.len = cell.len;  // unwritten space reads as zero placeholder
          out.crc = 0;
        }
        st->resp.blocks[i] = std::move(out);
        if (--st->remaining == 0) {
          engine_.after(st->bn / 2, [st] {
            st->resp.server_bn_ns = st->bn;
            st->resp.server_ssd_ns = st->max_ssd;
            st->reply(std::move(st->resp));
          });
        }
      });
    }
  });
}

}  // namespace repro::storage
