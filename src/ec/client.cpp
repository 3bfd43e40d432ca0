#include "ec/client.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/crc32.h"
#include "ec/maintenance.h"

namespace repro::ec {

using transport::DataBlock;
using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

EcClient::EcClient(sim::Engine& engine, sa::SegmentTable& segments,
                   const EcParams& params, SubmitFn inner)
    : engine_(engine),
      segments_(segments),
      params_(params),
      inner_(std::move(inner)),
      codec_(params.k, params.m) {}

std::uint64_t EcClient::frag_offset(const sa::EcInfo& info, const RowRef& r,
                                    int c) const {
  const auto k = static_cast<std::uint64_t>(info.k);
  const auto m = static_cast<std::uint64_t>(info.m);
  const std::uint64_t seg =
      c < info.k
          ? static_cast<std::uint64_t>(r.stripe) * k +
                static_cast<std::uint64_t>(c)
          : info.num_data_segments +
                static_cast<std::uint64_t>(r.stripe) * m +
                static_cast<std::uint64_t>(c - info.k);
  return seg * sa::SegmentTable::kSegmentBytes +
         static_cast<std::uint64_t>(r.row) * kCell;
}

void EcClient::run_locked(const RowRef& row,
                          RowOp op) {
  auto& q = locks_[row];
  q.push_back(std::move(op));
  if (q.size() > 1) return;  // an op holds the row; we run at its release
  // The closure only holds a weak ref to itself (every invocation comes
  // from a caller holding a strong one) — a strong self-capture would be a
  // shared_ptr cycle that leaks once the queue drains.
  auto run_front = std::make_shared<std::function<void()>>();
  *run_front = [this, row,
                weak = std::weak_ptr<std::function<void()>>(run_front)] {
    auto run_front = weak.lock();
    auto it = locks_.find(row);
    auto op = std::move(it->second.front());
    op([this, row, run_front] {
      auto lit = locks_.find(row);
      lit->second.pop_front();
      if (lit->second.empty()) {
        locks_.erase(lit);
        return;
      }
      // Next holder runs from a fresh event: completions that release a
      // row never re-enter another operation's call chain.
      engine_.after(0, [run_front] { (*run_front)(); });
    });
  };
  (*run_front)();
}

void EcClient::inner_submit(IoRequest io, IoCompleteFn done) {
  ++stats_.sub_ios;
  inner_(std::move(io), std::move(done));
}

IoRequest EcClient::cell_read(std::uint64_t vd, std::uint64_t offset,
                              bool background) const {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kRead;
  io.offset = offset;
  io.len = kCell;
  io.background = background;
  return io;
}

IoRequest EcClient::cell_write(std::uint64_t vd, std::uint64_t offset,
                               std::vector<std::uint8_t> bytes,
                               bool placeholder, bool background) const {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kWrite;
  io.offset = offset;
  io.len = kCell;
  io.background = background;
  DataBlock blk;
  blk.lba = offset;
  blk.len = kCell;
  if (!placeholder) {
    blk.data = std::move(bytes);
    blk.crc = crc32_raw(blk.data);
  }
  io.payload.push_back(std::move(blk));
  return io;
}

void EcClient::note_result(net::IpAddr server, const IoResult& res) {
  if (agent_ == nullptr) return;
  if (res.status == StorageStatus::kTimeout ||
      res.status == StorageStatus::kCrcMismatch) {
    agent_->on_fragment_failure(server);
  }
}

void EcClient::mark_dirty(const RowRef& row) {
  if (dirty_.insert(row).second && agent_ != nullptr) {
    agent_->on_row_damage(row.vd, row.stripe, row.row);
  }
}

void EcClient::mark_server(net::IpAddr ip, bool alive) {
  if (alive) {
    dead_.erase(ip);
  } else {
    dead_.insert(ip);
  }
}

void EcClient::set_segment_rebuilding(std::uint64_t vd,
                                      std::uint64_t seg_index,
                                      bool rebuilding) {
  if (rebuilding) {
    rebuilding_.insert({vd, seg_index});
  } else {
    rebuilding_.erase({vd, seg_index});
  }
}

bool EcClient::row_dirty(std::uint64_t vd, std::uint64_t offset) const {
  if (dirty_.empty()) return false;
  const auto info = segments_.ec_info(vd);
  if (!info) return false;
  const std::uint64_t seg = offset / sa::SegmentTable::kSegmentBytes;
  if (seg >= info->num_data_segments) return false;
  RowRef r;
  r.vd = vd;
  r.stripe = static_cast<std::uint32_t>(seg / info->k);
  r.row = static_cast<std::uint32_t>(
      (offset % sa::SegmentTable::kSegmentBytes) / kCell);
  return dirty_.find(r) != dirty_.end();
}

void EcClient::submit_io(IoRequest io, IoCompleteFn done) {
  const auto info = segments_.ec_info(io.vd_id);
  if (!info) {
    inner_(std::move(io), std::move(done));  // replication VD: pass through
    return;
  }
  if (io.len == 0 || io.offset % kCell != 0 || io.len % kCell != 0) {
    // The layer only stripes cell-aligned traffic (every workload in the
    // repo is). Passing sub-cell I/O through would mutate data fragments
    // behind the parity's back, so reject it rather than silently let
    // stripe consistency rot.
    IoResult res;
    res.status = StorageStatus::kRejected;
    res.completed_at = engine_.now();
    done(std::move(res));
    return;
  }
  if (agent_ != nullptr) agent_->on_activity(io.vd_id);

  const int cells = static_cast<int>(io.len / kCell);
  const sa::EcInfo geo = *info;

  if (io.op == OpType::kRead) {
    if (dead_.empty() && rebuilding_.empty()) {
      // Healthy fast path: one pass-through read (a single inner RPC per
      // segment extent, exactly like a replication VD). Failures fall back
      // to the per-cell degraded path below.
      const IoRequest retry = io;
      inner_(std::move(io),
             [this, retry, done](IoResult res) mutable {
               if (res.status == StorageStatus::kOk ||
                   res.status == StorageStatus::kOutOfRange ||
                   res.status == StorageStatus::kRejected) {
                 done(std::move(res));
                 return;
               }
               if (const auto loc = segments_.lookup(retry.vd_id,
                                                     retry.offset)) {
                 note_result(loc->block_server, res);
               }
               submit_per_cell_read(std::move(retry), std::move(done));
             });
      return;
    }
    submit_per_cell_read(std::move(io), std::move(done));
    return;
  }

  // Write: one row-locked read-modify-write chain per cell.
  struct Agg {
    IoResult result;
    int remaining = 0;
    IoCompleteFn done;
  };
  auto agg = std::make_shared<Agg>();
  // One sentinel on top of the per-cell counts, released after the issue
  // loop: completion can never fire (or double-fire) while cells are still
  // being issued, even if a write chain ever completed synchronously.
  agg->remaining = cells + 1;
  agg->done = std::move(done);
  for (int i = 0; i < cells; ++i) {
    const std::uint64_t off = io.offset + static_cast<std::uint64_t>(i) * kCell;
    const std::uint64_t seg = off / sa::SegmentTable::kSegmentBytes;
    if (seg >= geo.num_data_segments) {
      // Write beyond the data region (into parity space): reject like any
      // out-of-range guest I/O.
      --agg->remaining;
      agg->result.status = StorageStatus::kOutOfRange;
      continue;
    }
    RowRef row;
    row.vd = io.vd_id;
    row.stripe = static_cast<std::uint32_t>(seg / geo.k);
    const int p = static_cast<int>(seg % geo.k);
    row.row = static_cast<std::uint32_t>(
        (off % sa::SegmentTable::kSegmentBytes) / kCell);
    dir_[io.vd_id].rows[static_cast<std::uint64_t>(row.stripe) *
                            kRowsPerSegment +
                        row.row] |= 1u << p;

    DataBlock blk;
    if (i < static_cast<int>(io.payload.size())) {
      blk = io.payload[static_cast<std::size_t>(i)];
    }
    blk.lba = off;
    blk.len = kCell;

    write_cell(row, p, std::move(blk), io.background,
               [this, agg](IoResult res) {
                 if (res.status != StorageStatus::kOk &&
                     agg->result.status == StorageStatus::kOk) {
                   agg->result.status = res.status;
                 }
                 agg->result.trace.accumulate(res.trace);
                 if (--agg->remaining == 0) {
                   agg->result.completed_at = engine_.now();
                   agg->done(std::move(agg->result));
                 }
               });
  }
  if (--agg->remaining == 0) {  // release the sentinel
    agg->result.completed_at = engine_.now();
    agg->done(std::move(agg->result));
  }
}

void EcClient::submit_per_cell_read(IoRequest io, IoCompleteFn done) {
  const sa::EcInfo geo = *segments_.ec_info(io.vd_id);
  const int cells = static_cast<int>(io.len / kCell);
  struct Agg {
    IoResult result;
    std::vector<DataBlock> blocks;
    int remaining = 0;
    IoCompleteFn done;
  };
  auto agg = std::make_shared<Agg>();
  agg->remaining = cells;
  agg->blocks.resize(static_cast<std::size_t>(cells));
  agg->done = std::move(done);
  auto finish_cell = [this, agg](int idx, IoResult res) {
    if (res.status != StorageStatus::kOk &&
        agg->result.status == StorageStatus::kOk) {
      agg->result.status = res.status;
    }
    agg->result.trace.accumulate(res.trace);
    if (!res.read_data.empty()) {
      agg->blocks[static_cast<std::size_t>(idx)] =
          std::move(res.read_data.front());
    }
    if (--agg->remaining == 0) {
      agg->result.read_data = std::move(agg->blocks);
      agg->result.completed_at = engine_.now();
      agg->done(std::move(agg->result));
    }
  };
  for (int i = 0; i < cells; ++i) {
    const std::uint64_t off = io.offset + static_cast<std::uint64_t>(i) * kCell;
    const std::uint64_t seg = off / sa::SegmentTable::kSegmentBytes;
    if (seg >= geo.num_data_segments) {
      IoResult res;
      res.status = StorageStatus::kOutOfRange;
      finish_cell(i, std::move(res));
      continue;
    }
    RowRef row;
    row.vd = io.vd_id;
    row.stripe = static_cast<std::uint32_t>(seg / geo.k);
    const int p = static_cast<int>(seg % geo.k);
    row.row = static_cast<std::uint32_t>(
        (off % sa::SegmentTable::kSegmentBytes) / kCell);

    const auto loc = segments_.lookup(io.vd_id, off);
    const bool direct_ok =
        loc && server_alive(loc->block_server) &&
        rebuilding_.find({io.vd_id, seg}) == rebuilding_.end();
    if (direct_ok) {
      read_cell_direct(io.vd_id, off, io.background,
                       [this, row, p, i, finish_cell,
                        server = loc->block_server](IoResult res) {
                         if (res.status == StorageStatus::kOk) {
                           finish_cell(i, std::move(res));
                           return;
                         }
                         note_result(server, res);
                         read_cell_degraded(row, p, [finish_cell, i](
                                                        IoResult r) {
                           finish_cell(i, std::move(r));
                         });
                       });
    } else {
      read_cell_degraded(row, p, [finish_cell, i](IoResult r) {
        finish_cell(i, std::move(r));
      });
    }
  }
}

void EcClient::read_cell_direct(std::uint64_t vd, std::uint64_t offset,
                                bool background,
                                std::function<void(IoResult)> done) {
  inner_submit(cell_read(vd, offset, background), std::move(done));
}

void EcClient::read_cell_degraded(const RowRef& row, int p,
                                  std::function<void(IoResult)> done) {
  ++stats_.degraded_reads;
  const sa::EcInfo geo = *segments_.ec_info(row.vd);
  run_locked(row, [this, row, p, geo,
                   done = std::move(done)](std::function<void()> release) mutable {
    if (dirty_.find(row) != dirty_.end()) {
      // A torn parity update is pending repair: a decode would hand back
      // wrong bytes as kOk. Fail honestly; the row heals and a retry wins.
      IoResult res;
      res.status = StorageStatus::kTimeout;
      res.completed_at = engine_.now();
      release();
      done(std::move(res));
      return;
    }
    // Pick k sources among the surviving fragments, ascending fragment
    // order (data first, then parity) for determinism. Data fragments past
    // the tail stripe are implicit zero sources and cost no read.
    struct Src {
      int frag;
      bool implicit_zero;
      std::vector<std::uint8_t> bytes;
      bool ok = false;
    };
    auto st = std::make_shared<std::vector<Src>>();
    for (int c = 0; c < geo.k + geo.m && static_cast<int>(st->size()) < geo.k;
         ++c) {
      if (c == p) continue;
      const std::uint64_t seg =
          frag_offset(geo, row, c) / sa::SegmentTable::kSegmentBytes;
      if (c < geo.k && seg >= geo.num_data_segments) {
        st->push_back({c, true, {}, true});
        continue;
      }
      const auto loc = segments_.lookup(row.vd, frag_offset(geo, row, c));
      if (!loc || !server_alive(loc->block_server)) continue;
      if (rebuilding_.find({row.vd, seg}) != rebuilding_.end()) continue;
      st->push_back({c, false, {}, false});
    }
    if (static_cast<int>(st->size()) < geo.k) {
      IoResult res;
      res.status = StorageStatus::kTimeout;  // < k survivors: unavailable
      res.completed_at = engine_.now();
      release();
      done(std::move(res));
      return;
    }
    auto remaining = std::make_shared<int>(0);
    auto trace = std::make_shared<transport::IoTrace>();
    auto failed = std::make_shared<bool>(false);
    auto finish = [this, st, row, p, geo, release, done = std::move(done),
                   trace, failed]() mutable {
      IoResult res;
      res.trace = *trace;
      res.completed_at = engine_.now();
      if (*failed) {
        res.status = StorageStatus::kTimeout;
        release();
        done(std::move(res));
        return;
      }
      const bool real = std::any_of(
          st->begin(), st->end(), [](const Src& s) { return !s.bytes.empty(); });
      DataBlock blk;
      blk.lba = frag_offset(geo, row, p);
      blk.len = kCell;
      if (real) {
        std::vector<std::pair<int, const std::vector<std::uint8_t>*>> sources;
        sources.reserve(st->size());
        for (const Src& s : *st) sources.push_back({s.frag, &s.bytes});
        std::vector<std::uint8_t> out;
        if (!codec_.reconstruct(sources, p, kCell, &out)) {
          res.status = StorageStatus::kCrcMismatch;
          release();
          done(std::move(res));
          return;
        }
        blk.data = std::move(out);
        blk.crc = crc32_raw(blk.data);
      }
      res.status = StorageStatus::kOk;
      res.read_data.push_back(std::move(blk));
      release();
      done(std::move(res));
    };
    for (std::size_t i = 0; i < st->size(); ++i) {
      if ((*st)[i].implicit_zero) continue;
      ++*remaining;
    }
    if (*remaining == 0) {
      finish();
      return;
    }
    for (std::size_t i = 0; i < st->size(); ++i) {
      Src& s = (*st)[i];
      if (s.implicit_zero) continue;
      inner_submit(
          cell_read(row.vd, frag_offset(geo, row, s.frag), false),
          [st, i, remaining, trace, failed, finish](IoResult r) mutable {
            trace->accumulate(r.trace);
            if (r.status != StorageStatus::kOk) {
              *failed = true;
            } else if (!r.read_data.empty()) {
              (*st)[i].bytes = std::move(r.read_data.front().data);
              (*st)[i].ok = true;
            }
            if (--*remaining == 0) finish();
          });
    }
  });
}

void EcClient::write_cell(const RowRef& row, int p, DataBlock block,
                          bool background,
                          std::function<void(IoResult)> done) {
  const sa::EcInfo geo = *segments_.ec_info(row.vd);
  run_locked(row, [this, row, p, geo, block = std::move(block), background,
                   done = std::move(done)](std::function<void()> release) mutable {
    // Phase 1: read old data + old parity cells (the delta RMW inputs).
    // Index 0 = old data, 1..m = parities.
    struct St {
      std::vector<IoResult> old_reads;
      int remaining = 0;
    };
    auto st = std::make_shared<St>();
    st->old_reads.resize(static_cast<std::size_t>(geo.m) + 1);
    st->remaining = geo.m + 1;
    auto phase2 = [this, row, p, geo, block = std::move(block), background,
                   release, done = std::move(done), st]() mutable {
      const bool real = block.has_payload();
      std::vector<std::uint8_t> delta;
      const bool have_old_data =
          st->old_reads[0].status == StorageStatus::kOk;
      if (real && have_old_data) {
        delta.assign(block.data.begin(), block.data.end());
        delta.resize(kCell, 0);
        const auto& old = st->old_reads[0].read_data;
        if (!old.empty() && !old.front().data.empty()) {
          const auto& ob = old.front().data;
          for (std::size_t i = 0; i < delta.size() && i < ob.size(); ++i) {
            delta[i] ^= ob[i];
          }
        }
      }
      auto wr = std::make_shared<St>();
      wr->old_reads.resize(static_cast<std::size_t>(geo.m) + 1);
      wr->remaining = 1;
      bool torn = false;
      auto phase3 = [this, row, release, done = std::move(done), st,
                     wr]() mutable {
        IoResult res;
        res.status = wr->old_reads[0].status;
        for (const IoResult& r : st->old_reads) res.trace.accumulate(r.trace);
        bool parity_failed = false;
        for (std::size_t q = 1; q < wr->old_reads.size(); ++q) {
          res.trace.accumulate(wr->old_reads[q].trace);
          if (wr->old_reads[q].status != StorageStatus::kOk) {
            parity_failed = true;
          }
        }
        res.trace.accumulate(wr->old_reads[0].trace);
        res.completed_at = engine_.now();
        // A failed data write leaves the data cell's on-disk content
        // indeterminate while the delta parity writes may have landed —
        // the row is just as torn as when a parity write fails. Either
        // way, repair must recompute parity from the data fragments
        // before any degraded read may decode this row.
        if (parity_failed ||
            wr->old_reads[0].status != StorageStatus::kOk) {
          mark_dirty(row);
        }
        release();
        done(std::move(res));
      };
      // Data write.
      auto count_down = [wr, phase3](std::size_t slot) mutable {
        return [wr, phase3, slot](IoResult r) mutable {
          wr->old_reads[slot] = std::move(r);
          if (--wr->remaining == 0) phase3();
        };
      };
      IoRequest dw;
      dw.vd_id = row.vd;
      dw.op = OpType::kWrite;
      dw.offset = block.lba;
      dw.len = kCell;
      dw.background = background;
      dw.payload.push_back(block);
      // Parity writes: only those whose old value we hold (a failed old
      // read means the delta would corrupt the parity — leave it stale and
      // let row repair recompute it from the data fragments).
      std::vector<std::pair<std::size_t, IoRequest>> parity_writes;
      for (int q = 0; q < geo.m; ++q) {
        const auto slot = static_cast<std::size_t>(q) + 1;
        if (st->old_reads[slot].status != StorageStatus::kOk ||
            (real && !have_old_data)) {
          IoResult skipped;
          skipped.status = StorageStatus::kTimeout;
          wr->old_reads[slot] = std::move(skipped);
          torn = true;
          continue;
        }
        std::vector<std::uint8_t> pbytes;
        if (real) {
          std::vector<std::uint8_t> old_parity;
          if (!st->old_reads[slot].read_data.empty()) {
            old_parity = st->old_reads[slot].read_data.front().data;
          }
          pbytes = codec_.update_parity(q, p, old_parity, delta, kCell);
        }
        ++stats_.parity_updates;
        parity_writes.push_back(
            {slot, cell_write(row.vd, frag_offset(geo, row, geo.k + q),
                              std::move(pbytes), !real, background)});
        ++wr->remaining;
      }
      if (torn) mark_dirty(row);
      // Fail fast like the old-data read: once this client holds the data
      // holder dead, the agent may have remapped the segment, and a write
      // acked by the stale holder would be lost to the rebuild's decode.
      const auto data_loc = segments_.lookup(row.vd, block.lba);
      if (!data_loc || !server_alive(data_loc->block_server)) {
        IoResult failed;
        failed.status = StorageStatus::kTimeout;
        failed.completed_at = engine_.now();
        count_down(0)(std::move(failed));
      } else {
        inner_submit(std::move(dw), count_down(0));
      }
      for (auto& [slot, req] : parity_writes) {
        inner_submit(std::move(req), count_down(slot));
      }
    };
    const std::uint64_t data_off = block.lba;
    auto count_read = [this, st, phase2](std::size_t slot) mutable {
      return [st, phase2, slot](IoResult r) mutable {
        st->old_reads[slot] = std::move(r);
        if (--st->remaining == 0) phase2();
      };
    };
    auto read_or_fail = [this, &count_read](std::uint64_t vd,
                                            std::uint64_t off,
                                            bool background,
                                            std::size_t slot) {
      const auto loc = segments_.lookup(vd, off);
      if (!loc || !server_alive(loc->block_server)) {
        IoResult res;
        res.status = StorageStatus::kTimeout;
        res.completed_at = engine_.now();
        count_read(slot)(std::move(res));
        return;
      }
      inner_submit(cell_read(vd, off, background), count_read(slot));
    };
    read_or_fail(row.vd, data_off, background, 0);
    for (int q = 0; q < geo.m; ++q) {
      read_or_fail(row.vd, frag_offset(geo, row, geo.k + q), background,
                   static_cast<std::size_t>(q) + 1);
    }
  });
}

void EcClient::recompute_parity(const RowRef& row, std::vector<int> parities,
                                bool clear_dirty,
                                std::function<void(bool)> done) {
  const sa::EcInfo geo = *segments_.ec_info(row.vd);
  run_locked(row, [this, row, geo, parities = std::move(parities), clear_dirty,
                   done = std::move(done)](std::function<void()> release) mutable {
    struct St {
      std::vector<std::vector<std::uint8_t>> data;
      int remaining = 0;
      bool failed = false;
    };
    auto st = std::make_shared<St>();
    st->data.resize(static_cast<std::size_t>(geo.k));
    auto phase2 = [this, row, geo, parities, clear_dirty, release,
                   done = std::move(done), st]() mutable {
      if (st->failed) {
        release();
        done(false);
        return;
      }
      const bool real = std::any_of(
          st->data.begin(), st->data.end(),
          [](const std::vector<std::uint8_t>& d) { return !d.empty(); });
      auto remaining = std::make_shared<int>(
          static_cast<int>(parities.size()));
      auto ok = std::make_shared<bool>(true);
      auto finish = [this, row, clear_dirty, release, done = std::move(done),
                     ok]() mutable {
        if (*ok && clear_dirty) dirty_.erase(row);
        release();
        done(*ok);
      };
      if (*remaining == 0) {
        finish();
        return;
      }
      // Fused: all requested parity rows in one kernel pass over each data
      // fragment, instead of one full sweep per row.
      std::vector<std::vector<std::uint8_t>> pbytes_all;
      if (real) pbytes_all = codec_.encode_parity_rows(parities, st->data, kCell);
      for (std::size_t qi = 0; qi < parities.size(); ++qi) {
        const int q = parities[qi];
        std::vector<std::uint8_t> pbytes;
        if (real) pbytes = std::move(pbytes_all[qi]);
        inner_submit(
            cell_write(row.vd, frag_offset(geo, row, geo.k + q),
                       std::move(pbytes), !real, true),
            [remaining, ok, finish](IoResult r) mutable {
              if (r.status != StorageStatus::kOk) *ok = false;
              if (--*remaining == 0) finish();
            });
      }
    };
    for (int p = 0; p < geo.k; ++p) {
      const std::uint64_t off = frag_offset(geo, row, p);
      if (off / sa::SegmentTable::kSegmentBytes >= geo.num_data_segments) {
        continue;  // tail stripe: implicit zero fragment
      }
      ++st->remaining;
    }
    if (st->remaining == 0) {
      phase2();
      return;
    }
    for (int p = 0; p < geo.k; ++p) {
      const std::uint64_t off = frag_offset(geo, row, p);
      if (off / sa::SegmentTable::kSegmentBytes >= geo.num_data_segments) {
        continue;
      }
      const auto loc = segments_.lookup(row.vd, off);
      if (!loc || !server_alive(loc->block_server)) {
        st->failed = true;
        if (--st->remaining == 0) phase2();
        continue;
      }
      inner_submit(cell_read(row.vd, off, true),
                   [st, p, phase2](IoResult r) mutable {
                     if (r.status != StorageStatus::kOk) {
                       st->failed = true;
                     } else if (!r.read_data.empty()) {
                       st->data[static_cast<std::size_t>(p)] =
                           std::move(r.read_data.front().data);
                     }
                     if (--st->remaining == 0) phase2();
                   });
    }
  });
}

void EcClient::repair_row(std::uint64_t vd, std::uint32_t stripe,
                          std::uint32_t row, std::function<void(bool)> done) {
  ++stats_.row_repairs;
  RowRef r;
  r.vd = vd;
  r.stripe = stripe;
  r.row = row;
  const auto info = segments_.ec_info(vd);
  if (!info) {
    done(false);
    return;
  }
  std::vector<int> all;
  for (int q = 0; q < info->m; ++q) all.push_back(q);
  recompute_parity(r, std::move(all), /*clear_dirty=*/true, std::move(done));
}

void EcClient::reconstruct_cell(std::uint64_t vd, std::uint32_t stripe,
                                std::uint32_t row, int c,
                                std::function<void(bool)> done) {
  ++stats_.reconstructs;
  RowRef r;
  r.vd = vd;
  r.stripe = stripe;
  r.row = row;
  const auto info = segments_.ec_info(vd);
  if (!info) {
    done(false);
    return;
  }
  const sa::EcInfo geo = *info;
  if (c >= geo.k) {
    // Parity fragment: recompute from the data fragments.
    recompute_parity(r, {c - geo.k}, /*clear_dirty=*/false, std::move(done));
    return;
  }
  // Data fragment: decode from k survivors, then write to the fragment's
  // current (post-remap) location. The write needs no parity update — the
  // decoded value is exactly what the parity already encodes.
  run_locked(r, [this, r, c, geo,
                 done = std::move(done)](std::function<void()> release) mutable {
    if (dirty_.find(r) != dirty_.end()) {
      release();
      done(false);  // repair must run first; the agent retries
      return;
    }
    struct Src {
      int frag;
      bool implicit_zero;
      std::vector<std::uint8_t> bytes;
    };
    auto st = std::make_shared<std::vector<Src>>();
    for (int f = 0; f < geo.k + geo.m && static_cast<int>(st->size()) < geo.k;
         ++f) {
      if (f == c) continue;
      const std::uint64_t seg =
          frag_offset(geo, r, f) / sa::SegmentTable::kSegmentBytes;
      if (f < geo.k && seg >= geo.num_data_segments) {
        st->push_back({f, true, {}});
        continue;
      }
      const auto loc = segments_.lookup(r.vd, frag_offset(geo, r, f));
      if (!loc || !server_alive(loc->block_server)) continue;
      if (rebuilding_.find({r.vd, seg}) != rebuilding_.end() &&
          seg != frag_offset(geo, r, c) / sa::SegmentTable::kSegmentBytes) {
        continue;
      }
      st->push_back({f, false, {}});
    }
    if (static_cast<int>(st->size()) < geo.k) {
      release();
      done(false);
      return;
    }
    auto remaining = std::make_shared<int>(0);
    auto failed = std::make_shared<bool>(false);
    auto finish = [this, st, r, c, geo, release, done = std::move(done),
                   failed]() mutable {
      if (*failed) {
        release();
        done(false);
        return;
      }
      const bool real = std::any_of(
          st->begin(), st->end(), [](const Src& s) { return !s.bytes.empty(); });
      std::vector<std::uint8_t> out;
      if (real) {
        std::vector<std::pair<int, const std::vector<std::uint8_t>*>> sources;
        sources.reserve(st->size());
        for (const Src& s : *st) sources.push_back({s.frag, &s.bytes});
        if (!codec_.reconstruct(sources, c, kCell, &out)) {
          release();
          done(false);
          return;
        }
      }
      inner_submit(cell_write(r.vd, frag_offset(geo, r, c), std::move(out),
                              !real, true),
                   [release, done = std::move(done)](IoResult wres) mutable {
                     release();
                     done(wres.status == StorageStatus::kOk);
                   });
    };
    for (const Src& s : *st) {
      if (!s.implicit_zero) ++*remaining;
    }
    if (*remaining == 0) {
      finish();
      return;
    }
    for (std::size_t i = 0; i < st->size(); ++i) {
      if ((*st)[i].implicit_zero) continue;
      inner_submit(cell_read(r.vd, frag_offset(geo, r, (*st)[i].frag), true),
                   [st, i, remaining, failed, finish](IoResult res) mutable {
                     if (res.status != StorageStatus::kOk) {
                       *failed = true;
                     } else if (!res.read_data.empty()) {
                       (*st)[i].bytes = std::move(res.read_data.front().data);
                     }
                     if (--*remaining == 0) finish();
                   });
    }
  });
}

}  // namespace repro::ec
