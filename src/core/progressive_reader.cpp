#include "core/progressive_reader.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "bitplane/bitplane.hpp"
#include "bitplane/predictive.hpp"
#include "coding/codec.hpp"
#include "util/huge_pages.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

void bitmap_set(Bytes& bm, std::size_t i) {
  bm[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
}

/// A fresh reader's first execute() hints transparent huge pages over a field
/// buffer this large and, in more than one block, fills it slab by slab beside
/// the block decode.  32 MiB is glibc's 64-bit mmap threshold ceiling: such a
/// buffer is a fresh mapping, unmapped on free.  A 134 MB f64 field then takes
/// 576 faults (63 huge pages, small ones at the unaligned ends), not 32,769;
/// its serial fill still costs about 30 ms, which the pipeline hides.  Smaller
/// buffers may come from malloc arena heaps, where a hint would leave huge
/// pages behind, and overlapping their fill raised serve-tcp's peak RSS 15-38%
/// through arena retention, so they keep the plain serial fill.
constexpr std::size_t kOverlapFillBytes = std::size_t{32} << 20;

/// Elements per 4 KiB, the smallest common page size: writing one element
/// this far apart faults in every page of a fresh buffer.
template <typename T>
constexpr std::size_t kPageElems = 4096 / sizeof(T);

/// Planes-from-top a block level `lh` uses at `axis` planes of a plan axis
/// `depth` planes deep.  The axis counts from the top of the deepest planned
/// block; a shallower block's missing high planes are all-zero, so "use u of
/// D" drops D − u of its lowest planes.
unsigned block_planes(const LevelHeader& lh, unsigned axis, unsigned depth) {
  const unsigned dropped = depth - std::min(axis, depth);
  return lh.n_planes - std::min(dropped, lh.n_planes);
}

}  // namespace

template <typename T>
ProgressiveReader<T>::ProgressiveReader(SegmentSource& src) : src_(src) {
  const std::size_t at_open = src_.stats().bytes_read;
  header_ = Header::parse(src_.header());
  unattributed_open_cost_ = src_.stats().bytes_read - at_open;
  if (header_.dtype != data_type_of<T>()) {
    throw std::runtime_error("ProgressiveReader: archive value type mismatch");
  }
  // Each container version carries exactly one header layout (v1 whole-field
  // interp, v2 block interp, v3 backend-tagged); a mismatch means a forged
  // or corrupted stream.
  const std::uint32_t container = src_.version();
  if (container != header_.format) {
    throw std::runtime_error(
        "ProgressiveReader: header/container version mismatch");
  }
  backend_ = &backend_for(header_.backend);
  backend_->validate_metadata(header_);
  if (container >= kArchiveV3) {
    // The backend defines which segment kinds may exist; anything else means
    // the header's backend id does not match the payload.
    for (const SegmentId& id : src_.segment_ids()) {
      const bool known = id.kind == kSegBase || id.kind == kSegPlane ||
                         (id.kind == kSegAux && backend_->has_aux_segment());
      if (!known) {
        throw std::runtime_error(
            "ProgressiveReader: segment kind not recognized by backend");
      }
    }
  }
  grid_ = BlockGrid::analyze(header_.dims, header_.block_side);
  if (header_.block_levels.size() != grid_.n_blocks) {
    throw std::runtime_error("ProgressiveReader: block table size mismatch");
  }

  blocks_.resize(grid_.n_blocks);
  for (std::size_t b = 0; b < grid_.n_blocks; ++b) {
    BlockState& bs = blocks_[b];
    bs.bc.dims = grid_.block_dims(b);
    bs.bc.origin = grid_.origin_linear(b);
    const auto counts = backend_->level_counts(bs.bc.dims);
    const auto& levels = header_.block_levels[b];
    if (counts.size() != levels.size()) {
      throw std::runtime_error("ProgressiveReader: level count mismatch");
    }
    for (unsigned li = 0; li < counts.size(); ++li) {
      if (counts[li] != levels[li].count) {
        throw std::runtime_error("ProgressiveReader: level size mismatch");
      }
    }
    const unsigned L = static_cast<unsigned>(levels.size());
    bs.bc.codes.resize(L);
    bs.planes_used.assign(L, 0);
    bs.bc.outlier_bitmap.resize(L);
    bs.bc.outlier_value.resize(L);
    n_levels_ = std::max(n_levels_, L);
  }
}

template <typename T>
void ProgressiveReader<T>::decode_base(std::size_t b, FetchedBlock& fetched) {
  BlockState& bs = blocks_[b];
  const auto& levels = header_.block_levels[b];
  for (unsigned li = 0; li < levels.size(); ++li) {
    const LevelHeader& lh = levels[li];
    bs.bc.codes[li].assign(lh.count, 0);
    const Bytes& seg = fetched.base[li];
    ByteReader r({seg.data(), seg.size()});
    std::size_t n_out = r.varint();
    if (n_out != lh.outlier_count) {
      throw std::runtime_error("reader: outlier count mismatch");
    }
    if (n_out > 0) {
      bs.bc.outlier_bitmap[li].assign(plane_bytes(lh.count), 0);
      std::size_t slot = 0;
      for (std::size_t i = 0; i < n_out; ++i) {
        slot += r.varint();
        double value = r.f64();
        if (slot >= lh.count) {
          throw std::runtime_error("reader: outlier slot out of range");
        }
        bitmap_set(bs.bc.outlier_bitmap[li], slot);
        bs.bc.outlier_value[li][slot] = value;
      }
    }
    if (!lh.progressive) {
      std::size_t packed_size = r.varint();
      auto packed = r.bytes(packed_size);
      Bytes raw = codec_decompress(packed, lh.count * 4);
      for (std::size_t i = 0; i < lh.count; ++i) {
        bs.bc.codes[li][i] = static_cast<std::uint32_t>(raw[4 * i]) |
                             static_cast<std::uint32_t>(raw[4 * i + 1]) << 8 |
                             static_cast<std::uint32_t>(raw[4 * i + 2]) << 16 |
                             static_cast<std::uint32_t>(raw[4 * i + 3]) << 24;
      }
    }
  }
  bs.bc.aux = std::move(fetched.aux);
  bs.base_loaded = true;
}

template <typename T>
void ProgressiveReader<T>::plan_block_base(std::size_t b,
                                           std::vector<SegmentId>& out) const {
  if (blocks_[b].base_loaded) return;
  const auto& levels = header_.block_levels[b];
  for (unsigned li = 0; li < levels.size(); ++li) {
    out.push_back({kSegBase, static_cast<std::uint16_t>(li + 1), 0,
                   static_cast<std::uint32_t>(b)});
  }
  if (backend_->has_aux_segment()) {
    out.push_back({kSegAux, 0, 0, static_cast<std::uint32_t>(b)});
  }
}

template <typename T>
void ProgressiveReader<T>::plan_block_planes(
    std::size_t b, const std::vector<unsigned>& axis,
    const std::vector<unsigned>& depths, std::vector<SegmentId>& out) const {
  const auto& levels = header_.block_levels[b];
  const BlockState& bs = blocks_[b];
  for (unsigned li = 0; li < levels.size(); ++li) {
    const LevelHeader& lh = levels[li];
    if (!lh.progressive || lh.n_planes == 0) continue;
    const unsigned target = block_planes(lh, axis[li], depths[li]);
    // Planes are indexed by absolute bit position: using `u` planes from the
    // top means planes [n_planes - u, n_planes), fetched MSB-first so the
    // predictive XOR prefix bits are always resident before a plane decodes.
    for (unsigned used = bs.planes_used[li] + 1; used <= target; ++used) {
      out.push_back({kSegPlane, static_cast<std::uint16_t>(li + 1),
                     lh.n_planes - used, static_cast<std::uint32_t>(b)});
    }
  }
}

template <typename T>
void ProgressiveReader<T>::decode_planes(std::size_t b, FetchedBlock& fetched) {
  BlockState& bs = blocks_[b];
  const auto& levels = header_.block_levels[b];

  // All newly fetched planes of a level go through one batch: decompress,
  // predictive-decode MSB-first on the packed buffers, then a single
  // multi-plane transpose deposit into the codes instead of one full pass
  // per plane.  Only the compressed segments are grouped up front;
  // decoded plane buffers live one level at a time.
  std::vector<std::vector<std::pair<unsigned, Bytes>>> by_level(levels.size());
  for (auto& [li, k, seg] : fetched.planes) {
    by_level[li].emplace_back(k, std::move(seg));
  }
  for (unsigned li = 0; li < levels.size(); ++li) {
    auto& newp = by_level[li];
    if (newp.empty()) continue;
    const LevelHeader& lh = levels[li];
    // Plans emit planes MSB-first; sort defensively so decode order (which
    // predictive decoding relies on) never depends on fetch-list layout.
    std::sort(newp.begin(), newp.end(),
              [](const auto& a, const auto& b2) { return a.first > b2.first; });
    for (auto& [k, seg] : newp) {
      seg = codec_decompress({seg.data(), seg.size()}, plane_bytes(lh.count));
    }
    if (header_.prefix_bits != 0) {
      std::vector<MutablePlane> mut(newp.size());
      for (std::size_t i = 0; i < newp.size(); ++i) {
        mut[i] = {newp[i].first, {newp[i].second.data(), newp[i].second.size()}};
      }
      predictive_decode_planes(bs.bc.codes[li], mut, header_.prefix_bits);
    }
    std::vector<PlaneSpan> spans(newp.size());
    for (std::size_t i = 0; i < newp.size(); ++i) {
      spans[i] = {newp[i].first, {newp[i].second.data(), newp[i].second.size()}};
    }
    deposit_planes(bs.bc.codes[li], spans);
    bs.planes_used[li] =
        std::max(bs.planes_used[li], lh.n_planes - newp.back().first);
    // Release this level's decoded plane buffers before the next level's
    // are inflated: transient memory stays one level deep.
    std::vector<std::pair<unsigned, Bytes>>().swap(newp);
  }
}

template <typename T>
void ProgressiveReader<T>::plan_axis(
    const std::vector<std::uint32_t>& blocks, std::vector<unsigned>& depths,
    std::vector<unsigned>& floor, std::vector<LevelPlanInput>& inputs) const {
  const double step = 2.0 * header_.eb;
  depths.assign(n_levels_, 0);
  floor.assign(n_levels_, 0);
  for (std::uint32_t b : blocks) {
    const auto& levels = header_.block_levels[b];
    for (unsigned li = 0; li < levels.size(); ++li) {
      if (levels[li].progressive) {
        depths[li] = std::max(depths[li], levels[li].n_planes);
      }
    }
  }
  inputs.assign(n_levels_, {});
  for (unsigned li = 0; li < n_levels_; ++li) {
    const unsigned D = depths[li];
    LevelPlanInput& in = inputs[li];
    if (D == 0) {
      in.err.assign(1, 0.0);
      in.already_loaded = 0;
      continue;
    }
    const double amp = backend_->amplification(header_, li + 1);
    in.plane_size.assign(D, 0);
    in.err.assign(D + 1, 0.0);
    // The axis aligns plane indices at the LSB of the deepest in-scope block
    // (axis plane k maps to block plane k; shallower blocks simply lack the
    // high ones), so per-block sizes sum and truncation losses max
    // slot-by-slot (the scope's L∞ error is its worst block's).  Residency is
    // per block: segments a block already holds — from any earlier request —
    // are sunk cost and priced at nothing, and the floor is the worst
    // (lowest) block's.
    unsigned fl = D;
    for (std::uint32_t b : blocks) {
      const auto& levels = header_.block_levels[b];
      if (li >= levels.size()) continue;
      const LevelHeader& lh = levels[li];
      if (!lh.progressive || lh.n_planes == 0) continue;
      const unsigned used = blocks_[b].planes_used[li];
      fl = std::min(fl, used + (D - lh.n_planes));
      for (unsigned k = 0; k < lh.n_planes; ++k) {
        const bool resident = k >= lh.n_planes - used;
        if (!resident) {
          in.plane_size[k] += src_.segment_size(
              {kSegPlane, static_cast<std::uint16_t>(li + 1), k, b});
        }
      }
      for (unsigned d = 0; d <= D; ++d) {
        const double e =
            amp * static_cast<double>(lh.loss[std::min(d, lh.n_planes)]) * step;
        in.err[d] = std::max(in.err[d], e);
      }
    }
    floor[li] = fl;
    in.already_loaded = fl;
  }
}

template <typename T>
RetrievalStats ProgressiveReader<T>::finish_stats(
    std::size_t before, const std::vector<std::uint32_t>& blocks) {
  RetrievalStats st;
  st.guaranteed_error = guarantee(blocks, nullptr, nullptr);
  st.bytes_total = src_.stats().bytes_read;
  st.bytes_new = st.bytes_total - before;
  st.bitrate = 8.0 * static_cast<double>(st.bytes_total) /
               static_cast<double>(header_.dims.count());
  return st;
}

template <typename T>
double ProgressiveReader<T>::current_guaranteed_error() const {
  std::vector<std::uint32_t> all(grid_.n_blocks);
  std::iota(all.begin(), all.end(), 0u);
  return guarantee(all, nullptr, nullptr);
}

template <typename T>
double ProgressiveReader<T>::guarantee(
    const std::vector<std::uint32_t>& blocks,
    const std::vector<unsigned>* axis_targets,
    const std::vector<unsigned>* depths) const {
  const double step = 2.0 * header_.eb;
  double err = header_.eb;
  for (unsigned li = 0; li < n_levels_; ++li) {
    const double amp = backend_->amplification(header_, li + 1);
    double worst = 0.0;
    bool any = false;
    for (std::uint32_t b : blocks) {
      const auto& levels = header_.block_levels[b];
      if (li >= levels.size()) continue;
      const LevelHeader& lh = levels[li];
      if (!lh.progressive || lh.n_planes == 0) continue;
      unsigned used = blocks_[b].planes_used[li];
      if (axis_targets) {
        used = std::max(
            used, block_planes(lh, (*axis_targets)[li], (*depths)[li]));
      }
      worst = std::max(worst,
                       static_cast<double>(lh.loss[lh.n_planes - used]));
      any = true;
    }
    if (any) err += amp * worst * step;
  }
  return err;
}

template <typename T>
RetrievalPlan ProgressiveReader<T>::plan(const Request& req) const {
  RetrievalPlan p;
  p.request = req;
  p.epoch = epoch_;
  if (req.region) {
    const RegionBox& box = *req.region;
    for (std::size_t i = 0; i < header_.dims.rank(); ++i) {
      if (box.lo[i] >= box.hi[i] || box.hi[i] > header_.dims[i]) {
        throw std::invalid_argument("plan: bad region bounds");
      }
    }
  }
  // A request without a region is the region over every block.
  for (std::size_t b = 0; b < grid_.n_blocks; ++b) {
    if (!req.region || grid_.intersects(b, req.region->lo, req.region->hi)) {
      p.blocks.push_back(static_cast<std::uint32_t>(b));
    }
  }

  // Base (+aux) segments are mandatory and lead the fetch list: their bytes
  // come off byte budgets before any plane is priced.
  for (std::uint32_t b : p.blocks) plan_block_base(b, p.segments);
  std::uint64_t base_bytes = 0;
  for (const SegmentId& id : p.segments) base_bytes += src_.segment_size(id);

  std::vector<unsigned> depths, floor;
  std::vector<LevelPlanInput> inputs;
  plan_axis(p.blocks, depths, floor, inputs);

  LoadPlan lp;
  if (std::holds_alternative<Request::Full>(req.target)) {
    lp.planes_to_use.assign(depths.begin(), depths.end());
  } else if (const auto* eb = std::get_if<Request::ErrorBound>(&req.target)) {
    lp = plan_error_bound(inputs, eb->target - header_.eb);
  } else {
    std::uint64_t budget = 0;
    if (const auto* bb = std::get_if<Request::ByteBudget>(&req.target)) {
      budget = bb->budget;
    } else {
      const auto& br = std::get<Request::Bitrate>(req.target);
      const double total_budget = br.bits_per_value *
                                  static_cast<double>(header_.dims.count()) /
                                  8.0;
      const double already = static_cast<double>(src_.stats().bytes_read);
      budget = total_budget > already
                   ? static_cast<std::uint64_t>(total_budget - already)
                   : 0;
    }
    const std::uint64_t remaining =
        budget > base_bytes ? budget - base_bytes : 0;
    lp = plan_byte_budget(inputs, remaining);
  }

  p.plane_targets.assign(n_levels_, 0);
  for (unsigned li = 0; li < n_levels_; ++li) {
    p.plane_targets[li] =
        std::min(std::max(lp.planes_to_use[li], floor[li]), depths[li]);
  }
  for (std::uint32_t b : p.blocks) {
    plan_block_planes(b, p.plane_targets, depths, p.segments);
  }

  p.bytes_new = unattributed_open_cost_;
  for (const SegmentId& id : p.segments) p.bytes_new += src_.segment_size(id);
  p.guaranteed_error = guarantee(p.blocks, &p.plane_targets, &depths);
  return p;
}

template <typename T>
RetrievalStats ProgressiveReader<T>::execute(const RetrievalPlan& p) {
  if (p.epoch != epoch_) {
    throw std::logic_error(
        "execute: stale plan (the reader advanced since plan() ran)");
  }
  const std::size_t entry = src_.stats().bytes_read;

  // One bulk fetch for everything the plan names — base, aux and plane
  // segments across all blocks.  Sources that batch (FileSource coalesces
  // adjacent ranges) see the whole request at once.  State transitions only
  // after the fetch succeeds: a failed read leaves the epoch (the plan stays
  // retryable) and the open-cost attribution untouched.
  std::vector<Bytes> payloads = src_.read_many(p.segments);
  ++epoch_;
  // The construction-time header read is attributed to the first executed
  // request — even an empty one — so Σ bytes_new == bytes_total always.
  const std::size_t before = entry - unattributed_open_cost_;
  unattributed_open_cost_ = 0;

  std::vector<FetchedBlock> fetched(grid_.n_blocks);
  for (std::size_t i = 0; i < p.segments.size(); ++i) {
    const SegmentId& id = p.segments[i];
    FetchedBlock& fb = fetched[id.block];
    if (id.kind == kSegBase) {
      if (fb.base.empty()) {
        fb.base.resize(header_.block_levels[id.block].size());
      }
      fb.base[id.level - 1] = std::move(payloads[i]);
      fb.has_base = true;
    } else if (id.kind == kSegAux) {
      fb.aux = std::move(payloads[i]);
    } else {
      fb.planes.emplace_back(id.level - 1, id.plane, std::move(payloads[i]));
    }
  }

  // Block passes run concurrently across blocks, each block's inner loops
  // serial (nested-parallelism guard), so output is deterministic.  A block's
  // base decodes before its planes (plane decoding reads the base codes).
  // A block is rebuilt from its codes on first touch and whenever it
  // received planes; the others keep their values.
  const std::size_t n = header_.dims.count();
  const bool large = xhat_.empty() && n * sizeof(T) >= kOverlapFillBytes;
  if (large) {
    xhat_.reserve(n);  // no page touched yet: hint before the first fault
    advise_huge_pages(xhat_.data(), n * sizeof(T));
  }
  const bool pipeline = large && grid_.n_blocks > 1;
  if (!pipeline && xhat_.empty()) xhat_.assign(n, T{});
  // Taken once: the pipeline's caller grows xhat_ while blocks rebuild, and
  // the reserved storage never moves.
  T* const out = xhat_.data();
  auto decode = [&](std::size_t i) {
    const std::size_t b = p.blocks[i];
    if (fetched[b].has_base) decode_base(b, fetched[b]);
    decode_planes(b, fetched[b]);
  };
  auto rebuild = [&](std::size_t i) {
    BlockState& bs = blocks_[p.blocks[i]];
    if (bs.have_recon && fetched[p.blocks[i]].planes.empty()) return;
    backend_->reconstruct(header_, bs.bc, out);
    bs.have_recon = true;
  };
  if (!pipeline) {
    parallel_for_ex(0, p.blocks.size(), [&](std::size_t i) {
      decode(i);
      rebuild(i);
    }, /*grain=*/2);
    return finish_stats(before, p.blocks);
  }
  // First execute on a large field: a slab is one row of blocks along
  // dimension 0.  The calling thread grows xhat_ slab by slab (resize
  // value-initializes just that slab) while the rest of the team
  // first-touches the pages of slabs the caller has not reached, decodes
  // every planned block, and rebuilds each block as soon as its slab is
  // filled; the caller then joins the rebuilds.  A touch writes one zero per
  // page past size() through `out`: double and float are implicit-lifetime
  // types, so the storage ::operator new handed to reserve() already holds
  // their objects (C++20 [intro.object]), and the caller's resize
  // value-initializes every element again before anything reads it.
  const std::size_t slab = grid_.block_side * header_.dims.strides()[0];
  auto slab_end = [&](std::size_t s) { return std::min(n, (s + 1) * slab); };
  parallel_slab_pipeline(
      grid_.grid[0], [&](std::size_t s) { xhat_.resize(slab_end(s)); },
      [&](std::size_t s) {
        for (std::size_t k = s * slab; k < slab_end(s); k += kPageElems<T>) {
          out[k] = T{};
        }
      },
      p.blocks.size(),
      [&](std::size_t i) { return grid_.block_coord(p.blocks[i])[0]; }, decode,
      rebuild);
  return finish_stats(before, p.blocks);
}

template class ProgressiveReader<float>;
template class ProgressiveReader<double>;

}  // namespace ipcomp
