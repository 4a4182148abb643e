// Block-decoded edge path (paper §IV-B; FlashGraph/Log(Graph)-style).
//
// The per-edge scan pays its decode (u16→u32 widening) and its compute
// interleaved, one edge at a time. for_each_block() instead expands a run of
// SNB tuples into structure-of-arrays vid_t blocks in one pass — a loop the
// compiler auto-vectorizes — and hands each block to the caller, so the
// compute kernel runs over flat vid_t arrays with its branches hoisted and
// its metadata gathers prefetched (EdgeBlock::prefetch_src/prefetch_dst).
// The built-in algorithms' process_tile() calls it with their block kernel;
// visit_edges() below remains the per-edge fallback and the correctness
// oracle for raw and fat tuples (tests assert both paths visit identical
// edge multisets).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "graph/types.h"
#include "tile/tile_file.h"
#include "util/dcheck.h"

namespace gstore::tile {

// Issues a read prefetch into all cache levels. Locality 3 (prefetcht0)
// measures best for the block pass: the line is gathered within a few
// hundred cycles of the prefetch, so parking it in L2/L3 (locality 1–2)
// just re-pays the L1 fill on the demand load
// (BM_VisitEdges_vs_ProcessBlock tracks this).
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// One decoded run of a tile's edges in SoA form. 512 edges keeps the block
// (4KB of vids) inside L1 while giving the prefetch pass enough depth to
// cover DRAM latency — the paper's 4-byte tuples make 512 tuples one 2KB
// read, so a block never spans more than a few cache lines of source data.
struct EdgeBlock {
  static constexpr std::size_t kMaxEdges = 512;

  graph::vid_t src[kMaxEdges];  // global ids: tuple first field, widened
  graph::vid_t dst[kMaxEdges];  // global ids: tuple second field, widened
  std::uint32_t size = 0;
  const TileView* view = nullptr;  // tile this block was decoded from
  std::size_t first = 0;           // index of src[0]/dst[0] within the view

  // Prefetches element `base[src[k]]` / `base[dst[k]]` for every edge of the
  // block — the per-vertex metadata the compute loop is about to gather.
  template <typename T>
  void prefetch_src(const T* base) const noexcept {
    for (std::uint32_t k = 0; k < size; ++k) prefetch_ro(base + src[k]);
  }
  template <typename T>
  void prefetch_dst(const T* base) const noexcept {
    for (std::uint32_t k = 0; k < size; ++k) prefetch_ro(base + dst[k]);
  }
};

// Decodes every edge of `v` into EdgeBlocks and invokes fn(const EdgeBlock&)
// for each, in storage order. Handles every tile representation — fat
// tuples, raw SNB, and the v3 codecs — so callers stay format-agnostic
// exactly as with visit_edges(). The representation branch is taken once per
// tile, hoisted out of the block loop; encoded tiles go through
// decode_blocks() (compress.h), which writes whole rows straight into the SoA
// arrays (global ids fused in) and pushes each filled block to fn, with no
// intermediate SnbEdge materialization. Raw and fat blocks hold kMaxEdges
// edges (the last one fewer); encoded blocks may end short at a row boundary.
template <typename Fn>
inline void for_each_block(const TileView& v, Fn&& fn) {
  EdgeBlock b;
  b.view = &v;
  if (!v.fat && v.codec != TileCodec::kRaw) {
    using F = std::remove_reference_t<Fn>;
    decode_blocks(
        v.codec_info(), v.src_base, v.dst_base, b,
        [](void* f, const EdgeBlock& blk) { (*static_cast<F*>(f))(blk); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
    return;
  }
  const std::size_t n = v.edge_count();
  for (std::size_t pos = 0; pos < n; pos += EdgeBlock::kMaxEdges) {
    const std::size_t len = std::min(EdgeBlock::kMaxEdges, n - pos);
    if (v.fat) {
      const graph::Edge* e = v.fat_edges.data() + pos;
      for (std::size_t k = 0; k < len; ++k) {
        b.src[k] = e[k].src;
        b.dst[k] = e[k].dst;
      }
    } else {
      const SnbEdge* e = v.edges.data() + pos;
      const graph::vid_t sb = v.src_base;
      const graph::vid_t db = v.dst_base;
      // u16→u32 widening over a contiguous tuple run: auto-vectorizes.
      for (std::size_t k = 0; k < len; ++k) {
        b.src[k] = sb + e[k].src16;
        b.dst[k] = db + e[k].dst16;
      }
    }
    b.first = pos;
    b.size = static_cast<std::uint32_t>(len);
    fn(static_cast<const EdgeBlock&>(b));
  }
}

// Invokes fn(src_vid, dst_vid) for every edge of the tile, whichever
// representation it is stored in. The per-edge fallback and, for raw and fat
// tuples, the correctness oracle; hot loops use for_each_block() instead.
// Encoded tiles decode through for_each_block (decompress_tile is their
// independent oracle).
template <typename Fn>
inline void visit_edges(const TileView& v, Fn&& fn) {
  if (v.fat) {
    for (const graph::Edge& e : v.fat_edges) fn(e.src, e.dst);
  } else if (v.codec == TileCodec::kRaw) {
    for (const SnbEdge& e : v.edges)
      fn(v.src_base + e.src16, v.dst_base + e.dst16);
  } else {
    for_each_block(v, [&](const EdgeBlock& b) {
      for (std::uint32_t k = 0; k < b.size; ++k) fn(b.src[k], b.dst[k]);
    });
  }
}

}  // namespace gstore::tile
