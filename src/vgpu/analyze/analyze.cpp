#include "vgpu/analyze/analyze.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "metrics/metrics.hpp"
#include "support/error.hpp"

namespace gs::vgpu::analyze {

// ---- IntervalSet ---------------------------------------------------------

void IntervalSet::add(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) return;
  // Find the first interval ending at or after lo; merge everything that
  // touches [lo, hi).
  auto it = std::lower_bound(
      ivals_.begin(), ivals_.end(), lo,
      [](const auto& iv, std::uint64_t v) { return iv.second < v; });
  auto insert_at = it;
  while (it != ivals_.end() && it->first <= hi) {
    lo = std::min(lo, it->first);
    hi = std::max(hi, it->second);
    it = ivals_.erase(it);
  }
  ivals_.insert(insert_at, {lo, hi});
}

bool IntervalSet::covers(std::uint64_t lo, std::uint64_t hi) const {
  if (lo >= hi) return true;
  auto it = std::lower_bound(
      ivals_.begin(), ivals_.end(), lo,
      [](const auto& iv, std::uint64_t v) { return iv.second < v; });
  // Intervals are disjoint and sorted, so [lo, hi) is covered iff one
  // interval contains it entirely (it->second > lo by construction).
  return it != ivals_.end() && it->first <= lo && hi <= it->second;
}

std::pair<std::uint64_t, std::uint64_t> IntervalSet::first_gap(
    std::uint64_t lo, std::uint64_t hi) const {
  std::uint64_t at = lo;
  for (const auto& iv : ivals_) {
    if (iv.second <= at) continue;
    if (iv.first > at) break;  // gap starts at `at`
    at = iv.second;            // covered up to here
    if (at >= hi) return {hi, hi};
  }
  if (at >= hi) return {hi, hi};
  // Gap runs until the next interval begins (or hi).
  std::uint64_t gap_end = hi;
  for (const auto& iv : ivals_) {
    if (iv.first > at) {
      gap_end = std::min(gap_end, iv.first);
      break;
    }
  }
  return {at, gap_end};
}

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void merge_sorted(std::vector<std::pair<std::uint64_t, std::uint64_t>>& v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].first <= v[out].second) {
      v[out].second = std::max(v[out].second, v[i].second);
    } else {
      v[++out] = v[i];
    }
  }
  v.resize(out + 1);
}

}  // namespace

// ---- CaptureLog ----------------------------------------------------------

std::uint32_t CaptureLog::id_for_locked(const void* base,
                                        std::uint64_t min_bytes,
                                        std::size_t elem_size) {
  auto it = live_.find(base);
  if (it != live_.end()) {
    BufferInfo& info = buffers_[it->second];
    if (info.preexisting) info.bytes = std::max(info.bytes, min_bytes);
    if (info.elem_size == 0) info.elem_size = elem_size;
    return it->second;
  }
  // First sight of a buffer that was allocated before capture attached:
  // register it as pre-existing (contents assumed initialized — e.g. a
  // constraint matrix uploaded at engine construction).
  const auto id = static_cast<std::uint32_t>(buffers_.size());
  BufferInfo info;
  info.label = "#" + std::to_string(id);
  info.bytes = min_bytes;
  info.elem_size = elem_size;
  info.preexisting = true;
  info.alloc_seq = seq_;
  buffers_.push_back(std::move(info));
  live_.emplace(base, id);
  return id;
}

Node& CaptureLog::append_locked(NodeKind kind, std::string name) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.seq = seq_++;
  n.stream = stream_;
  nodes_.push_back(std::move(n));
  return nodes_.back();
}

void CaptureLog::set_checker(check::Checker* checker) {
  std::lock_guard<std::mutex> lock(mu_);
  checker_ = checker;
}

void CaptureLog::retire_pending_locked() {
  // Drop the block ids: the node keeps each buffer's merged byte ranges.
  // Buffers retire in id order.
  std::vector<const PendingAccess*> by_id;
  for (const auto& entry : pending_access_) by_id.push_back(&entry.second);
  std::sort(by_id.begin(), by_id.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  double traffic = 0.0;
  std::vector<const check::SpanLog*> logs;
  for (const PendingAccess* access : by_id) {
    const PendingAccess& pa = *access;
    const std::uint32_t id = pa.id;
    const std::uint64_t es = pa.log.elem_size;
    const auto ranges = [&](const std::vector<check::detail::Interval>& ivs) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      out.reserve(ivs.size());
      for (const check::detail::Interval& iv : ivs) {
        out.emplace_back(iv.lo, iv.hi);
        traffic += static_cast<double>((iv.hi - iv.lo) * es);
      }
      return out;
    };
    const auto emit = [&](auto elems, std::vector<Access>& out) {
      merge_sorted(elems);
      for (const auto& [lo, hi] : elems) out.push_back({id, lo * es, hi * es});
    };
    emit(ranges(pa.log.reads), pending_.reads);
    emit(ranges(pa.log.writes), pending_.writes);
    emit(pa.prior_reads, pending_.prior_reads);
    logs.push_back(&pa.log);
  }
  if (pending_.kind == NodeKind::kKernel) {
    if (checker_ != nullptr) checker_->check_launch(pending_.name, logs);
    lint_cost_locked(traffic);
  }
  pending_access_.clear();
  pending_.seq = seq_++;
  pending_.stream = stream_;
  nodes_.push_back(std::move(pending_));
  pending_ = Node{};
}

void CaptureLog::lint_cost_locked(double traffic) {
  const double declared = declared_bytes_;
  if (traffic <= 0.0 ||
      (traffic < kCostMinBytes && declared < kCostMinBytes) ||
      traffic <= declared * kCostRatioTol) {
    return;
  }
  const std::string& kernel = pending_.name;
  const double ratio = declared > 0.0 ? traffic / declared : 1e99;
  CostFinding& c = cost_[kernel];
  if (c.count == 0 || ratio > c.ratio) {
    c = {kernel, declared, traffic, ratio, c.count};
  }
  ++c.count;
  if (checker_ != nullptr) {
    std::ostringstream os;
    os << "observed " << traffic << " bytes of element traffic vs declared "
       << declared << " (tolerance x" << kCostRatioTol << ")";
    checker_->add_finding(check::FindingKind::kCostMismatch, kernel,
                          os.str());
  }
}

void CaptureLog::flush_host_locked() {
  if (!host_pending_) return;
  host_pending_ = false;
  retire_pending_locked();
}

void CaptureLog::begin_launch(std::string_view kernel, double declared_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  GS_CHECK_MSG(!in_launch_, "nested launch capture");
  flush_host_locked();
  pending_ = Node{};
  pending_.kind = NodeKind::kKernel;
  pending_.name = std::string(kernel);
  declared_bytes_ = declared_bytes;
  in_launch_ = true;
}

void CaptureLog::end_launch() {
  std::lock_guard<std::mutex> lock(mu_);
  in_launch_ = false;
  retire_pending_locked();
  ++launches_;
}

void CaptureLog::note_range(const void* base, std::size_t extent,
                            check::ElemKind kind, std::size_t elem_size,
                            std::size_t lo, std::size_t hi, bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_launch_ && !host_pending_) {
    // Span access between launches: scalar glue the engines run on the
    // host (e.g. reading the value at a just-found index). Accumulate
    // into one "<host>" node until the next stream event.
    pending_ = Node{};
    pending_.kind = NodeKind::kHost;
    pending_.name = "<host>";
    host_pending_ = true;
  }
  const auto [entry, fresh] = pending_access_.try_emplace(base);
  PendingAccess& pa = entry->second;
  // A buffer's id is fixed for the whole node: resolve it at the node's
  // first access to the base (and again for a span of another extent).
  if (fresh || pa.log.extent != extent) {
    pa.id = id_for_locked(
        base, static_cast<std::uint64_t>(extent) * elem_size, elem_size);
  }
  check::SpanLog& log = pa.log;
  if (log.base == nullptr) {
    log.base = static_cast<const std::byte*>(base);
    log.extent = extent;
    log.elem_size = elem_size;
    log.kind = kind;
  }
  // Host glue between launches is single-threaded: one shared block id.
  const std::uint32_t block = in_launch_ ? check::detail::tls_block : 0;
  if (pa.last_block != block) {
    const auto it = pa.block_writes.find(block);
    pa.last_block = block;
    pa.last_writes = it != pa.block_writes.end() ? &it->second : nullptr;
  }
  // A block's streaming loop extends its last interval; anything else
  // appends. Interleaved kernels interleave across *different* spans, so
  // the common case stays O(1).
  auto& side = is_write ? log.writes : log.reads;
  if (!side.empty() && side.back().block == block && side.back().hi == lo) {
    side.back().hi = hi;
  } else {
    side.push_back({lo, hi, block});
  }
  // Intra-launch ordering: a block's accesses run in program order, so a
  // read of elements the SAME block wrote earlier in this launch observes
  // those writes, not pre-launch state.
  if (is_write) {
    if (pa.last_writes == nullptr) pa.last_writes = &pa.block_writes[block];
    pa.last_writes->add(lo, hi);
    return;
  }
  std::uint64_t at = lo;
  while (at < hi) {
    std::uint64_t gap_lo = at, gap_hi = hi;
    if (pa.last_writes != nullptr) {
      std::tie(gap_lo, gap_hi) = pa.last_writes->first_gap(at, hi);
      if (gap_lo >= hi) break;  // remainder fully covered by own writes
    }
    auto& pr = pa.prior_reads;
    if (!pr.empty() && pr.back().first <= gap_lo &&
        gap_lo <= pr.back().second) {
      pr.back().second = std::max(pr.back().second, gap_hi);
    } else {
      pr.emplace_back(gap_lo, gap_hi);
    }
    at = gap_hi;
  }
}

void CaptureLog::note_oob(std::size_t index, std::size_t extent,
                          bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  if (checker_ == nullptr) return;
  std::ostringstream os;
  os << (is_write ? "write" : "read") << " at index " << index
     << " in span of size " << extent;
  checker_->add_finding(check::FindingKind::kOutOfBounds,
                        in_launch_ ? pending_.name : "<host>", os.str());
}

void CaptureLog::on_alloc(const void* base, std::size_t bytes,
                          std::size_t elem_size) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  if (base == nullptr) return;  // zero-sized buffers carry no dataflow
  const auto id = static_cast<std::uint32_t>(buffers_.size());
  BufferInfo info;
  info.label = "#" + std::to_string(id);
  info.bytes = bytes;
  info.elem_size = elem_size;
  info.alloc_seq = seq_;
  buffers_.push_back(std::move(info));
  live_[base] = id;  // overwrite any stale mapping for a reused address
  append_locked(NodeKind::kAlloc, "alloc").buffer = id;
}

void CaptureLog::on_free(const void* base) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  if (base == nullptr) return;
  const std::uint32_t id = id_for_locked(base, 0, 0);
  buffers_[id].free_seq = static_cast<std::int64_t>(seq_);
  append_locked(NodeKind::kFree, "free").buffer = id;
  live_.erase(base);
}

void CaptureLog::on_h2d(const void* base, std::size_t lo_byte,
                        std::size_t hi_byte, const void* host_data) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  const std::uint32_t id = id_for_locked(base, hi_byte, 0);
  Node& n = append_locked(NodeKind::kH2d, "h2d");
  n.buffer = id;
  n.writes.push_back({id, lo_byte, hi_byte});
  n.content_hash = fnv1a(host_data, hi_byte - lo_byte);
  BufferInfo& info = buffers_[id];
  if (info.preexisting) info.bytes = std::max(info.bytes, hi_byte);
}

void CaptureLog::on_d2h(const void* base, std::size_t lo_byte,
                        std::size_t hi_byte) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  const std::uint32_t id = id_for_locked(base, hi_byte, 0);
  Node& n = append_locked(NodeKind::kD2h, "d2h");
  n.buffer = id;
  n.reads.push_back({id, lo_byte, hi_byte});
}

void CaptureLog::set_stream(std::uint32_t stream) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  stream_ = stream;
  stream_count_ = std::max(stream_count_, stream + 1);
}

void CaptureLog::fence() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  append_locked(NodeKind::kFence, "fence");
}

void CaptureLog::set_label(const void* base, std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = id_for_locked(base, 0, 0);
  buffers_[id].label = std::move(label);
}

void CaptureLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.clear();
  buffers_.clear();
  live_.clear();
  pending_access_.clear();
  pending_ = Node{};
  cost_.clear();
  seq_ = 0;
  stream_ = 0;
  stream_count_ = 1;
  launches_ = 0;
  in_launch_ = false;
  host_pending_ = false;
}

const std::vector<Node>& CaptureLog::nodes() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_host_locked();
  return nodes_;
}

// ---- analyze() -----------------------------------------------------------

namespace {

/// Last-writer records per buffer, pruned as writes are superseded.
struct WriteRec {
  std::uint64_t lo, hi;
  std::size_t node;
  bool read = false;
};

bool overlaps(std::uint64_t alo, std::uint64_t ahi, std::uint64_t blo,
              std::uint64_t bhi) {
  return alo < bhi && blo < ahi;
}

/// First overlapping byte range between two footprint lists on the same
/// buffer, or false.
bool find_conflict(const std::vector<Access>& a, const std::vector<Access>& b,
                   Access* out) {
  for (const Access& x : a) {
    for (const Access& y : b) {
      if (x.buffer == y.buffer && overlaps(x.lo, x.hi, y.lo, y.hi)) {
        *out = {x.buffer, std::max(x.lo, y.lo), std::min(x.hi, y.hi)};
        return true;
      }
    }
  }
  return false;
}

std::string human_bytes(double b) {
  std::ostringstream os;
  os.precision(3);
  if (b >= 1024.0 * 1024.0) {
    os << b / (1024.0 * 1024.0) << " MiB";
  } else if (b >= 1024.0) {
    os << b / 1024.0 << " KiB";
  } else {
    os << b << " B";
  }
  return os.str();
}

}  // namespace

Report analyze(CaptureLog& log) {
  const std::vector<Node>& nodes = log.nodes();
  const std::vector<BufferInfo>& bufs = log.buffers();

  Report rep;
  rep.buffer_table = bufs;
  rep.node_count = nodes.size();

  // ---- Replay: initialized sets, last writers, redundancy, lifetime. ----
  std::vector<IntervalSet> initialized(bufs.size());
  std::vector<std::vector<WriteRec>> writers(bufs.size());
  // Redundancy state keyed by exact transfer range: engines re-issue the
  // same (buffer, range) shapes every iteration, so exact matching finds
  // real waste without interval algebra. A device write overlapping the
  // range invalidates the entry.
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>,
           std::pair<std::uint64_t, bool>>
      h2d_seen;  // -> (content hash, still valid)
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>, bool>
      d2h_clean;  // -> no device write since last download
  std::map<std::pair<std::string, std::uint32_t>, DeadStore> dead;
  std::map<std::pair<std::string, std::uint32_t>, RedundantTransfer> redundant;
  std::map<std::pair<std::string, std::uint32_t>, UninitRead> uninit;
  std::set<std::pair<std::size_t, std::size_t>> raw_edges;

  std::uint64_t live = 0;
  for (const BufferInfo& b : bufs) {
    if (b.preexisting) live += b.bytes;  // sized by the bytes ever touched
  }
  std::uint64_t peak = live;

  const auto mark_read = [&](const Access& a, std::size_t node_idx) {
    for (WriteRec& w : writers[a.buffer]) {
      if (overlaps(w.lo, w.hi, a.lo, a.hi)) {
        w.read = true;
        raw_edges.emplace(w.node, node_idx);
      }
    }
  };

  const auto record_dead = [&](const WriteRec& w, std::uint32_t buffer) {
    rep.dead_store_bytes += w.hi - w.lo;
    DeadStore& d = dead[{nodes[w.node].name, buffer}];
    if (d.count == 0) {
      d.kernel = nodes[w.node].name;
      d.buffer = buffer;
      d.first_seq = nodes[w.node].seq;
    }
    d.bytes += w.hi - w.lo;
    ++d.count;
  };

  const auto do_write = [&](const Access& a, std::size_t node_idx) {
    // Invalidate transfer-redundancy state the write overlaps.
    for (auto& [key, st] : h2d_seen) {
      if (std::get<0>(key) == a.buffer &&
          overlaps(std::get<1>(key), std::get<2>(key), a.lo, a.hi)) {
        st.second = false;
      }
    }
    for (auto& [key, clean] : d2h_clean) {
      if (std::get<0>(key) == a.buffer &&
          overlaps(std::get<1>(key), std::get<2>(key), a.lo, a.hi)) {
        clean = false;
      }
    }
    // Writes this one fully supersedes: unread ones are dead stores; all
    // of them leave the last-writer list (which keeps it short).
    std::vector<WriteRec>& ws = writers[a.buffer];
    for (std::size_t k = 0; k < ws.size();) {
      if (ws[k].lo >= a.lo && ws[k].hi <= a.hi) {
        if (!ws[k].read) record_dead(ws[k], a.buffer);
        ws[k] = ws.back();
        ws.pop_back();
      } else {
        ++k;
      }
    }
    ws.push_back({a.lo, a.hi, node_idx, false});
    initialized[a.buffer].add(a.lo, a.hi);
  };

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    switch (n.kind) {
      case NodeKind::kAlloc:
        ++rep.alloc_count;
        live += bufs[n.buffer].bytes;
        peak = std::max(peak, live);
        break;
      case NodeKind::kFree: {
        ++rep.free_count;
        live -= std::min(live, bufs[n.buffer].bytes);
        // Written-never-read at free time is a dead store per the
        // definition; final-result buffers are read (downloaded) first.
        for (const WriteRec& w : writers[n.buffer]) {
          if (!w.read) record_dead(w, n.buffer);
        }
        writers[n.buffer].clear();
        initialized[n.buffer] = IntervalSet{};
        break;
      }
      case NodeKind::kH2d: {
        const Access& a = n.writes.front();
        rep.h2d_bytes += a.hi - a.lo;
        const auto key = std::make_tuple(a.buffer, a.lo, a.hi);
        auto it = h2d_seen.find(key);
        if (it != h2d_seen.end() && it->second.second &&
            it->second.first == n.content_hash) {
          rep.redundant_h2d_bytes += a.hi - a.lo;
          RedundantTransfer& r = redundant[{"h2d", a.buffer}];
          if (r.count == 0) {
            r.dir = "h2d";
            r.buffer = a.buffer;
            r.first_seq = n.seq;
          }
          r.bytes += a.hi - a.lo;
          ++r.count;
        }
        do_write(a, i);
        h2d_seen[key] = {n.content_hash, true};
        break;
      }
      case NodeKind::kD2h: {
        const Access& a = n.reads.front();
        rep.d2h_bytes += a.hi - a.lo;
        const auto key = std::make_tuple(a.buffer, a.lo, a.hi);
        auto it = d2h_clean.find(key);
        if (it != d2h_clean.end() && it->second) {
          rep.redundant_d2h_bytes += a.hi - a.lo;
          RedundantTransfer& r = redundant[{"d2h", a.buffer}];
          if (r.count == 0) {
            r.dir = "d2h";
            r.buffer = a.buffer;
            r.first_seq = n.seq;
          }
          r.bytes += a.hi - a.lo;
          ++r.count;
        }
        mark_read(a, i);
        d2h_clean[key] = true;
        break;
      }
      case NodeKind::kKernel:
      case NodeKind::kHost: {
        if (n.kind == NodeKind::kKernel) ++rep.kernel_nodes;
        for (const Access& a : n.reads) mark_read(a, i);
        // Uninitialized reads are judged on prior_reads only: bytes a
        // block read before ITS OWN first write in the launch observe
        // pre-launch state (x[i] += c); bytes it wrote first (fill-then-
        // reduce scratch) do not. Pre-existing buffers are assumed
        // initialized.
        if (n.kind == NodeKind::kKernel) {
          for (const Access& a : n.prior_reads) {
            if (!bufs[a.buffer].preexisting &&
                !initialized[a.buffer].covers(a.lo, a.hi)) {
              UninitRead& u = uninit[{n.name, a.buffer}];
              if (u.hi == 0 && u.lo == 0) {
                const auto gap = initialized[a.buffer].first_gap(a.lo, a.hi);
                u = {n.name, a.buffer, gap.first, gap.second, n.seq};
              }
            }
          }
        }
        for (const Access& a : n.writes) do_write(a, i);
        break;
      }
      case NodeKind::kFence:
        break;
    }
  }
  rep.peak_live_bytes = peak;
  for (const BufferInfo& b : bufs) {
    if (b.preexisting) {
      ++rep.preexisting_count;
    } else if (b.free_seq < 0) {
      ++rep.live_at_end;
    }
  }
  rep.raw_edges = raw_edges.size();

  // ---- Hazard sweep: conflicting accesses with no ordering edge. ---------
  // A single-stream capture is totally ordered (every conflict has an
  // ordering edge by construction), so the pairwise sweep only runs when
  // more than one stream was used.
  if (log.stream_count() > 1) {
    std::vector<std::uint64_t> fence_seqs;
    for (const Node& n : nodes) {
      if (n.kind == NodeKind::kFence) fence_seqs.push_back(n.seq);
    }
    const auto ordered = [&](const Node& a, const Node& b) {
      if (a.stream == b.stream) return true;
      auto it = std::upper_bound(fence_seqs.begin(), fence_seqs.end(), a.seq);
      return it != fence_seqs.end() && *it < b.seq;
    };
    const auto add_hazard = [&](const char* kind, const Node& a,
                                const Node& b, const Access& where) {
      if (rep.hazards.size() >= check::kMaxFindings) return;
      rep.hazards.push_back({kind, a.seq, b.seq, a.name, b.name, where.buffer,
                             where.lo, where.hi});
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& a = nodes[i];
      if (a.reads.empty() && a.writes.empty()) continue;
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const Node& b = nodes[j];
        if (b.reads.empty() && b.writes.empty()) continue;
        if (ordered(a, b)) continue;
        Access where{};
        if (find_conflict(a.writes, b.reads, &where)) {
          add_hazard("RAW", a, b, where);
        }
        if (find_conflict(a.reads, b.writes, &where)) {
          add_hazard("WAR", a, b, where);
        }
        if (find_conflict(a.writes, b.writes, &where)) {
          add_hazard("WAW", a, b, where);
        }
      }
    }
  }

  const auto take = [](const auto& map_in, auto& vec_out) {
    for (const auto& [key, value] : map_in) {
      if (vec_out.size() >= check::kMaxFindings) break;
      vec_out.push_back(value);
    }
  };
  take(dead, rep.dead_stores);
  take(redundant, rep.redundant_transfers);
  take(uninit, rep.uninit_reads);
  take(log.cost_findings(), rep.cost_findings);
  return rep;
}

// ---- Report --------------------------------------------------------------

double Report::dead_transfer_fraction() const {
  const std::uint64_t total = h2d_bytes + d2h_bytes;
  if (total == 0) return 0.0;
  return static_cast<double>(redundant_h2d_bytes + redundant_d2h_bytes) /
         static_cast<double>(total);
}

bool Report::gate_clean(double dead_transfer_budget) const {
  return hazards.empty() && uninit_reads.empty() && cost_findings.empty() &&
         dead_transfer_fraction() <= dead_transfer_budget;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << "analyze: " << node_count << " nodes (" << kernel_nodes
     << " kernel launches), " << buffer_table.size() << " buffers, "
     << raw_edges << " dependency edges\n";
  os << "  hazards: " << hazards.size() << "\n";
  for (const Hazard& h : hazards) {
    os << "    " << h.kind << " " << h.first << " (#" << h.first_seq
       << ") vs " << h.second << " (#" << h.second_seq << ") on buffer "
       << buffer_table[h.buffer].label << " bytes [" << h.lo << ", " << h.hi
       << ")\n";
  }
  os << "  uninitialized reads: " << uninit_reads.size() << "\n";
  for (const UninitRead& u : uninit_reads) {
    os << "    " << u.kernel << " reads " << buffer_table[u.buffer].label
       << " bytes [" << u.lo << ", " << u.hi << ") never written (node #"
       << u.seq << ")\n";
  }
  os << "  dead stores: " << dead_stores.size() << " site(s), "
     << human_bytes(static_cast<double>(dead_store_bytes)) << "\n";
  for (const DeadStore& d : dead_stores) {
    os << "    " << d.kernel << " -> " << buffer_table[d.buffer].label << ": "
       << human_bytes(static_cast<double>(d.bytes)) << " over " << d.count
       << " write(s)\n";
  }
  os << "  redundant transfers: h2d "
     << human_bytes(static_cast<double>(redundant_h2d_bytes)) << " of "
     << human_bytes(static_cast<double>(h2d_bytes)) << ", d2h "
     << human_bytes(static_cast<double>(redundant_d2h_bytes)) << " of "
     << human_bytes(static_cast<double>(d2h_bytes)) << " ("
     << dead_transfer_fraction() * 100.0 << "% wasted)\n";
  for (const RedundantTransfer& r : redundant_transfers) {
    os << "    " << r.dir << " -> " << buffer_table[r.buffer].label << ": "
       << human_bytes(static_cast<double>(r.bytes)) << " over " << r.count
       << " transfer(s)\n";
  }
  os << "  lifetime: peak live "
     << human_bytes(static_cast<double>(peak_live_bytes)) << ", "
     << alloc_count << " alloc(s), " << free_count << " free(s), "
     << live_at_end << " live at end";
  if (preexisting_count > 0) {
    os << ", " << preexisting_count << " pre-existing";
  }
  os << "\n";
  os << "  cost declarations: " << cost_findings.size()
     << " kernel(s) over tolerance\n";
  for (const CostFinding& c : cost_findings) {
    os << "    " << c.kernel << ": footprint " << c.footprint_bytes
       << " B vs declared " << c.declared_bytes << " B (" << c.ratio
       << "x) over " << c.count << " launch(es)\n";
  }
  return os.str();
}

std::string Report::to_json() const {
  using metrics::json_write_number;
  using metrics::json_write_string;
  std::string out;
  out += "{\n  \"schema\": \"gs-analyze-v1\",\n";
  const auto kv = [&out](const char* key, double v, bool comma = true) {
    out += "  \"";
    out += key;
    out += "\": ";
    json_write_number(out, v);
    if (comma) out += ",";
    out += "\n";
  };
  kv("nodes", static_cast<double>(node_count));
  kv("kernel_nodes", static_cast<double>(kernel_nodes));
  kv("dependency_edges", static_cast<double>(raw_edges));
  kv("hazard_count", static_cast<double>(hazards.size()));
  kv("uninit_read_count", static_cast<double>(uninit_reads.size()));
  kv("dead_store_bytes", static_cast<double>(dead_store_bytes));
  kv("redundant_h2d_bytes", static_cast<double>(redundant_h2d_bytes));
  kv("redundant_d2h_bytes", static_cast<double>(redundant_d2h_bytes));
  kv("h2d_bytes", static_cast<double>(h2d_bytes));
  kv("d2h_bytes", static_cast<double>(d2h_bytes));
  kv("dead_transfer_fraction", dead_transfer_fraction());
  kv("peak_live_bytes", static_cast<double>(peak_live_bytes));
  kv("alloc_count", static_cast<double>(alloc_count));
  kv("free_count", static_cast<double>(free_count));
  kv("live_at_end", static_cast<double>(live_at_end));
  kv("cost_finding_count", static_cast<double>(cost_findings.size()));

  out += "  \"hazards\": [";
  for (std::size_t i = 0; i < hazards.size(); ++i) {
    const Hazard& h = hazards[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": ";
    json_write_string(out, h.kind);
    out += ", \"first\": ";
    json_write_string(out, h.first);
    out += ", \"second\": ";
    json_write_string(out, h.second);
    out += ", \"buffer\": ";
    json_write_string(out, buffer_table[h.buffer].label);
    out += ", \"lo\": ";
    json_write_number(out, static_cast<double>(h.lo));
    out += ", \"hi\": ";
    json_write_number(out, static_cast<double>(h.hi));
    out += "}";
  }
  out += hazards.empty() ? "],\n" : "\n  ],\n";

  out += "  \"uninit_reads\": [";
  for (std::size_t i = 0; i < uninit_reads.size(); ++i) {
    const UninitRead& u = uninit_reads[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kernel\": ";
    json_write_string(out, u.kernel);
    out += ", \"buffer\": ";
    json_write_string(out, buffer_table[u.buffer].label);
    out += ", \"lo\": ";
    json_write_number(out, static_cast<double>(u.lo));
    out += ", \"hi\": ";
    json_write_number(out, static_cast<double>(u.hi));
    out += "}";
  }
  out += uninit_reads.empty() ? "],\n" : "\n  ],\n";

  out += "  \"dead_stores\": [";
  for (std::size_t i = 0; i < dead_stores.size(); ++i) {
    const DeadStore& d = dead_stores[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kernel\": ";
    json_write_string(out, d.kernel);
    out += ", \"buffer\": ";
    json_write_string(out, buffer_table[d.buffer].label);
    out += ", \"bytes\": ";
    json_write_number(out, static_cast<double>(d.bytes));
    out += ", \"count\": ";
    json_write_number(out, static_cast<double>(d.count));
    out += "}";
  }
  out += dead_stores.empty() ? "],\n" : "\n  ],\n";

  out += "  \"redundant_transfers\": [";
  for (std::size_t i = 0; i < redundant_transfers.size(); ++i) {
    const RedundantTransfer& r = redundant_transfers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"dir\": ";
    json_write_string(out, r.dir);
    out += ", \"buffer\": ";
    json_write_string(out, buffer_table[r.buffer].label);
    out += ", \"bytes\": ";
    json_write_number(out, static_cast<double>(r.bytes));
    out += ", \"count\": ";
    json_write_number(out, static_cast<double>(r.count));
    out += "}";
  }
  out += redundant_transfers.empty() ? "],\n" : "\n  ],\n";

  out += "  \"cost_findings\": [";
  for (std::size_t i = 0; i < cost_findings.size(); ++i) {
    const CostFinding& c = cost_findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kernel\": ";
    json_write_string(out, c.kernel);
    out += ", \"declared_bytes\": ";
    json_write_number(out, c.declared_bytes);
    out += ", \"footprint_bytes\": ";
    json_write_number(out, c.footprint_bytes);
    out += ", \"ratio\": ";
    json_write_number(out, c.ratio);
    out += "}";
  }
  out += cost_findings.empty() ? "],\n" : "\n  ],\n";

  out += "  \"buffers\": [";
  for (std::size_t i = 0; i < buffer_table.size(); ++i) {
    const BufferInfo& b = buffer_table[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": ";
    json_write_string(out, b.label);
    out += ", \"bytes\": ";
    json_write_number(out, static_cast<double>(b.bytes));
    out += ", \"preexisting\": ";
    out += b.preexisting ? "true" : "false";
    out += ", \"freed\": ";
    out += b.free_seq >= 0 ? "true" : "false";
    out += "}";
  }
  out += buffer_table.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace gs::vgpu::analyze
