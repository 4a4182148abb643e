#include "algo/scc.h"

#include <algorithm>
#include <numeric>

#include "algo/atomics.h"
#include "graph/csr.h"
#include "util/status.h"

namespace gstore::algo {

// ---- TileReach ------------------------------------------------------------

void TileReach::init(const tile::TileStore& store) {
  GS_CHECK_MSG(!store.meta().symmetric(),
               "TileReach traverses directed tuples; use TileBfs for "
               "undirected stores");
  tile_bits_ = store.meta().tile_bits;
  GS_CHECK_MSG(root_ < store.vertex_count(), "reach root out of range");
  GS_CHECK_MSG(mask_ == nullptr || mask_->size() == store.vertex_count(),
               "mask size mismatch");

  reached_.assign(store.vertex_count(), 0);
  frontier_row_cur_.assign(store.grid().p(), 0);
  frontier_row_next_.assign(store.grid().p(), 0);
  reached_[root_] = 1;
  frontier_row_cur_[root_ >> tile_bits_] = 1;
}

void TileReach::begin_iteration(std::uint32_t, std::uint32_t) {
  new_reached_ = 0;
}

void TileReach::process_tile(const tile::TileView& view) {
  tile::for_each_block(view,
                       [this](const tile::EdgeBlock& b) { process_block(b); });
}

void TileReach::process_block(const tile::EdgeBlock& block) {
  const tile::TileCoord rows = block_rows(block, tile_bits_);
  std::uint8_t* reached = reached_.data();
  const std::uint8_t* mask = mask_ != nullptr ? mask_->data() : nullptr;
  block.prefetch_src(reached);
  block.prefetch_dst(reached);
  // Reaches in this block, all in tile row j: published once at block end.
  std::uint32_t hits = 0;
  for (std::uint32_t k = 0; k < block.size; ++k) {
    const graph::vid_t a = block.src[k];
    const graph::vid_t b = block.dst[k];
    // Tuples followed verbatim: a → b.
    if (!atomic_load(&reached[a]) || atomic_load(&reached[b])) continue;
    if (mask != nullptr && (!mask[a] || !mask[b])) continue;
    if (atomic_cas<std::uint8_t>(&reached[b], 0, 1)) ++hits;
  }
  if (hits == 0) return;
  atomic_fetch_add(&new_reached_, std::uint64_t{hits});
  mark_row(&frontier_row_next_[rows.j]);
}

bool TileReach::end_iteration(std::uint32_t) {
  frontier_row_cur_.swap(frontier_row_next_);
  std::fill(frontier_row_next_.begin(), frontier_row_next_.end(), 0);
  return new_reached_ > 0;
}

bool TileReach::tile_needed(std::uint32_t i, std::uint32_t) const {
  return frontier_row_cur_[i] != 0;
}

bool TileReach::tile_useful_next(std::uint32_t i, std::uint32_t) const {
  return frontier_row_next_[i] != 0;
}

// ---- tile_scc ---------------------------------------------------------------

std::vector<graph::vid_t> tile_scc(tile::TileStore& out_store,
                                   tile::TileStore& in_store,
                                   SccOptions options) {
  GS_CHECK_MSG(out_store.meta().directed() && !out_store.meta().in_edges(),
               "out_store must hold out-edges of a directed graph");
  GS_CHECK_MSG(in_store.meta().directed() && in_store.meta().in_edges(),
               "in_store must hold in-edges of a directed graph");
  GS_CHECK_MSG(out_store.vertex_count() == in_store.vertex_count(),
               "stores disagree on vertex count");
  const graph::vid_t n = out_store.vertex_count();

  std::vector<graph::vid_t> label(n, graph::kInvalidVid);
  std::vector<std::uint8_t> unassigned(n, 1);

  // Trim: vertices with no out-edges or no in-edges are singleton SCCs.
  // (Degrees come from the stores' degree files: out for out_store, and the
  // in_store was converted from the same edge list so its .deg file also
  // holds out-degrees — recompute in-degrees from the out-store instead.)
  {
    std::vector<std::uint8_t> has_out(n, 0), has_in(n, 0);
    std::vector<std::uint8_t> buf;
    for (std::uint64_t k = 0; k < out_store.grid().tile_count(); ++k) {
      const std::uint64_t bytes = out_store.tile_bytes(k);
      if (bytes == 0) continue;
      buf.resize(bytes);
      out_store.read_range(k, k + 1, buf.data());
      tile::visit_edges(out_store.view(k, buf.data()),
                        [&](graph::vid_t a, graph::vid_t b) {
                          has_out[a] = 1;
                          has_in[b] = 1;
                        });
    }
    for (graph::vid_t v = 0; v < n; ++v) {
      if (!has_out[v] || !has_in[v]) {
        label[v] = v;
        unassigned[v] = 0;
      }
    }
  }

  // Pivot loop.
  for (graph::vid_t pivot = 0; pivot < n; ++pivot) {
    if (!unassigned[pivot]) continue;

    TileReach fwd(pivot, &unassigned);
    store::ScrEngine(out_store, options.engine).run(fwd);
    TileReach bwd(pivot, &unassigned);
    store::ScrEngine(in_store, options.engine).run(bwd);

    // SCC = FW ∩ BW; its id is the smallest member.
    graph::vid_t min_id = pivot;
    for (graph::vid_t v = 0; v < n; ++v)
      if (fwd.reached()[v] && bwd.reached()[v]) min_id = std::min(min_id, v);
    for (graph::vid_t v = 0; v < n; ++v) {
      if (fwd.reached()[v] && bwd.reached()[v]) {
        label[v] = min_id;
        unassigned[v] = 0;
      }
    }
  }
  return label;
}

// ---- ref_scc (iterative Tarjan) --------------------------------------------

std::vector<graph::vid_t> ref_scc(const graph::EdgeList& el) {
  GS_CHECK_MSG(el.kind() == graph::GraphKind::kDirected,
               "SCC reference requires a directed graph");
  const graph::Csr csr = graph::Csr::build(el, /*out_edges=*/true);
  const graph::vid_t n = el.vertex_count();

  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  std::vector<std::uint32_t> index(n, kUnset), lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<graph::vid_t> stack;                 // Tarjan stack
  std::vector<graph::vid_t> label(n, graph::kInvalidVid);
  std::uint32_t next_index = 0;

  struct Frame {
    graph::vid_t v;
    std::size_t edge;  // position within neighbors(v)
  };
  std::vector<Frame> call;

  for (graph::vid_t start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    call.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = 1;

    while (!call.empty()) {
      Frame& f = call.back();
      const auto nbrs = csr.neighbors(f.v);
      if (f.edge < nbrs.size()) {
        const graph::vid_t w = nbrs[f.edge++];
        if (index[w] == kUnset) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        const graph::vid_t v = f.v;
        call.pop_back();
        if (!call.empty())
          lowlink[call.back().v] = std::min(lowlink[call.back().v], lowlink[v]);
        if (lowlink[v] == index[v]) {
          // Pop the component; label with its smallest vertex id.
          std::vector<graph::vid_t> comp;
          for (;;) {
            const graph::vid_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            comp.push_back(w);
            if (w == v) break;
          }
          const graph::vid_t min_id = *std::min_element(comp.begin(), comp.end());
          for (graph::vid_t w : comp) label[w] = min_id;
        }
      }
    }
  }
  return label;
}

}  // namespace gstore::algo
