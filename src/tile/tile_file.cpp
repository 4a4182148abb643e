#include "tile/tile_file.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "io/file.h"
#include "tile/overlay.h"
#include "util/checked.h"
#include "util/status.h"

namespace gstore::tile {

namespace {
struct TilesFileHeader {
  std::uint64_t magic = kTileFileMagic;
  std::uint32_t version = kTileStoreVersionCurrent;
  std::uint32_t pad = 0;
  std::uint64_t edge_count = 0;
  std::uint64_t reserved[5] = {0, 0, 0, 0, 0};
};
static_assert(sizeof(TilesFileHeader) == 64);

void check_version(std::uint32_t version, const std::string& path) {
  if (version < kTileStoreVersionMin || version > kTileStoreVersionCurrent)
    throw FormatError(
        path + " has format version " + std::to_string(version) +
        "; this reader understands versions " +
        std::to_string(kTileStoreVersionMin) + ".." +
        std::to_string(kTileStoreVersionCurrent) +
        (version > kTileStoreVersionCurrent
             ? " (written by a newer gstore?)"
             : ""));
}
}  // namespace

std::string TileStore::generation_base(const std::string& base,
                                       std::uint32_t gen) {
  return gen == 0 ? base : base + ".g" + std::to_string(gen);
}

std::string TileStore::resolve(const std::string& base) {
  const std::string cur = current_path(base);
  if (!io::File::exists(cur)) return base;
  io::File f(cur, io::OpenMode::kRead);
  const std::uint64_t n = f.size();
  if (n == 0 || n > 16)
    throw FormatError("generation manifest " + cur + " has implausible size " +
                      std::to_string(n));
  std::string text(n, '\0');
  f.pread_full(text.data(), n, 0);
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    throw FormatError("generation manifest " + cur +
                      " is garbled (expected a decimal generation)");
  // stoul parses into unsigned long (64-bit here); a manifest naming a value
  // past uint32 would otherwise truncate silently and open the wrong files.
  const unsigned long gen = std::stoul(text);
  if (gen > std::numeric_limits<std::uint32_t>::max())
    throw FormatError("generation manifest " + cur +
                      " names out-of-range generation " + text);
  return generation_base(base, static_cast<std::uint32_t>(gen));
}

TileStore TileStore::open(const std::string& base_path, io::DeviceConfig config) {
  TileStore store;
  store.base_path_ = resolve(base_path);

  // Start-edge file: metadata + index. Every size below is cross-checked
  // against the actual file size *before* it drives an allocation, so a
  // garbled header cannot make this reader allocate unbounded memory, wrap
  // `tile_count + 1` around zero, or index an empty vector.
  {
    io::File sei(sei_path(store.base_path_), io::OpenMode::kRead);
    const std::uint64_t sei_size = sei.size();
    if (sei_size < sizeof(store.meta_))
      throw FormatError(sei.path() + " is too small to hold a start-edge header");
    sei.pread_full(&store.meta_, sizeof(store.meta_), 0);
    if (store.meta_.magic != kSeiFileMagic)
      throw FormatError(sei.path() +
                        " is not a g-store start-edge file (magic mismatch)");
    check_version(store.meta_.version, sei.path());
    const std::uint64_t index_bytes = sei_size - sizeof(store.meta_);
    if (index_bytes % sizeof(std::uint64_t) != 0)
      throw FormatError(sei.path() +
                        " start-edge index is not a whole number of entries");
    const std::uint64_t entries = index_bytes / sizeof(std::uint64_t);
    // v3 appends a second index of payload byte offsets after the edge
    // index; earlier versions hold only the edge index.
    store.packed_payloads_ = store.meta_.version >= 3;
    const std::uint64_t index_count =
        checked_add(store.meta_.tile_count, 1, "start-edge index size");
    const std::uint64_t expect_entries = checked_mul(
        index_count, store.packed_payloads_ ? 2 : 1, "sei index entries");
    // The index holds tile_count + 1 offsets per sub-index; tying the claimed
    // tile count to the real file size bounds the resizes below by bytes that
    // exist on disk.
    if (entries != expect_entries)
      throw FormatError(sei.path() + " claims " +
                        std::to_string(store.meta_.tile_count) +
                        " tiles but holds " + std::to_string(entries) +
                        " index entries");
    store.start_edge_.resize(index_count);
    sei.pread_full(store.start_edge_.data(),
                   store.start_edge_.size() * sizeof(std::uint64_t),
                   sizeof(store.meta_));
    if (store.start_edge_.front() != 0 ||
        store.start_edge_.back() != store.meta_.edge_count)
      throw FormatError("inconsistent start-edge index in " + sei.path());
    for (std::size_t k = 0; k + 1 < store.start_edge_.size(); ++k)
      if (store.start_edge_[k] > store.start_edge_[k + 1])
        throw FormatError("non-monotone start-edge index in " + sei.path());
    if (store.packed_payloads_) {
      if (store.meta_.fat_tuples())
        throw FormatError(sei.path() +
                          " is v3 but carries the fat-tuple ablation flag "
                          "(v3 payloads are SNB codecs only)");
      store.start_byte_.resize(index_count);
      sei.pread_full(store.start_byte_.data(),
                     store.start_byte_.size() * sizeof(std::uint64_t),
                     sizeof(store.meta_) +
                         store.start_edge_.size() * sizeof(std::uint64_t));
      if (store.start_byte_.front() != 0)
        throw FormatError("inconsistent start-byte index in " + sei.path());
      for (std::size_t k = 0; k + 1 < store.start_byte_.size(); ++k) {
        if (store.start_byte_[k] > store.start_byte_[k + 1])
          throw FormatError("non-monotone start-byte index in " + sei.path());
        const std::uint64_t bytes =
            store.start_byte_[k + 1] - store.start_byte_[k];
        const std::uint64_t edges =
            store.start_edge_[k + 1] - store.start_edge_[k];
        // A payload is the 8-byte codec header plus at most the raw tuple
        // body (the writer picks the smallest codec, raw included), padded
        // to 4 bytes; empty tiles store nothing.
        const std::uint64_t cap =
            edges == 0 ? 0
                       : checked_add(kTilePayloadHeaderBytes,
                                     checked_mul(edges, sizeof(SnbEdge),
                                                 "tile payload cap"),
                                     "tile payload cap");
        if (bytes > cap || bytes % kTilePayloadAlign != 0 ||
            (edges > 0 && bytes < kTilePayloadHeaderBytes + kTilePayloadAlign))
          throw FormatError(sei.path() + ": tile " + std::to_string(k) +
                            " payload spans " + std::to_string(bytes) +
                            " bytes, implausible for " +
                            std::to_string(edges) + " edges");
      }
    }
  }

  if ((store.meta_.flags & ~0xFu) != 0)
    throw FormatError(sei_path(store.base_path_) +
                      " carries unknown flag bits (written by a newer gstore?)");
  if (store.meta_.vertex_count == 0 ||
      store.meta_.vertex_count > std::numeric_limits<graph::vid_t>::max())
    throw FormatError(sei_path(store.base_path_) + " names vertex count " +
                      std::to_string(store.meta_.vertex_count) +
                      ", outside this build's 32-bit vertex-id range");
  if (store.meta_.tile_bits < 1 || store.meta_.tile_bits > 16)
    throw FormatError(sei_path(store.base_path_) + " names tile_bits " +
                      std::to_string(store.meta_.tile_bits) +
                      " outside the supported range [1, 16]");
  if (store.meta_.group_side == 0)
    throw FormatError(sei_path(store.base_path_) + " names a zero group_side");

  // Check the geometry arithmetically before constructing the Grid: its
  // layout tables are O(p^2), so a vertex count inconsistent with the
  // (file-size-bounded) tile count must be rejected while it is still cheap.
  {
    const std::uint64_t width =
        checked_shl(1, store.meta_.tile_bits, "tile width");
    const std::uint64_t p =
        checked_add(store.meta_.vertex_count, width - 1, "rounded vertex count") /
        width;
    const std::uint64_t expected_tiles =
        store.meta_.symmetric()
            ? checked_mul(p, checked_add(p, 1, "tile grid side"),
                          "tile count") / 2
            : checked_mul(p, p, "tile count");
    if (expected_tiles != store.meta_.tile_count)
      throw FormatError(sei_path(store.base_path_) + ": vertex count " +
                        std::to_string(store.meta_.vertex_count) +
                        " implies " + std::to_string(expected_tiles) +
                        " tiles, index holds " +
                        std::to_string(store.meta_.tile_count));
  }

  store.grid_ = Grid(static_cast<graph::vid_t>(store.meta_.vertex_count),
                     store.meta_.symmetric(), store.meta_.tile_bits,
                     store.meta_.group_side);
  if (store.grid_.tile_count() != store.meta_.tile_count)
    throw FormatError("tile count mismatch between grid and index");

  for (std::uint64_t k = 0; k < store.meta_.tile_count; ++k)
    store.max_tile_bytes_ = std::max(store.max_tile_bytes_, store.tile_bytes(k));

  // Data file via the device model.
  store.device_ =
      std::make_unique<io::Device>(tiles_path(store.base_path_), config);
  if (store.device_->size() < sizeof(TilesFileHeader))
    throw FormatError(tiles_path(store.base_path_) +
                      " is too small to hold a tile-file header");
  TilesFileHeader th;
  // Through Device::read: it runs the async engine's per-request retry
  // routine, so opening a store survives the same faults the engine's
  // streaming reads do.
  store.device_->read(&th, sizeof(th), 0);
  if (th.magic != kTileFileMagic)
    throw FormatError(tiles_path(store.base_path_) +
                      " is not a g-store tile file (magic mismatch)");
  check_version(th.version, tiles_path(store.base_path_));
  if (th.edge_count != store.meta_.edge_count)
    throw FormatError("edge count mismatch between .tiles and .sei");
  store.data_offset_ = sizeof(TilesFileHeader);

  // Guard the expected-size arithmetic itself: an edge count near 2^64 would
  // wrap `edge_count * tuple_bytes` and could collide with the real size.
  if (store.meta_.edge_count >
      (std::numeric_limits<std::uint64_t>::max() - store.data_offset_) /
          store.meta_.tuple_bytes())
    throw FormatError(sei_path(store.base_path_) + " names edge count " +
                      std::to_string(store.meta_.edge_count) +
                      ", larger than any representable file");
  const std::uint64_t expect =
      store.packed_payloads_
          ? checked_add(store.data_offset_, store.start_byte_.back(),
                        "expected tile file size")
          : checked_add(store.data_offset_,
                        checked_mul(store.meta_.edge_count,
                                    store.meta_.tuple_bytes(),
                                    "tile data bytes"),
                        "expected tile file size");
  if (store.device_->size() != expect)
    throw FormatError(tiles_path(store.base_path_) + " truncated");
  return store;
}

TileStore TileStore::open_tiered(const std::string& base_path,
                                 io::DeviceConfig config, double hot_fraction,
                                 TierPolicy policy) {
  GS_CHECK_MSG(config.slow_tier_bw > 0,
               "tiered store needs a slow-tier bandwidth");
  GS_CHECK_MSG(hot_fraction >= 0.0 && hot_fraction <= 1.0,
               "hot_fraction must be in [0,1]");
  TileStore store = open(base_path, config);

  const std::uint64_t hot_budget =
      static_cast<std::uint64_t>(store.data_bytes() * hot_fraction);
  const std::uint64_t n = store.grid().tile_count();
  std::vector<std::uint8_t> hot(n, 0);

  if (policy == TierPolicy::kHotPrefix) {
    std::uint64_t used = 0;
    for (std::uint64_t k = 0; k < n && used < hot_budget; ++k) {
      hot[k] = 1;
      used += store.tile_bytes(k);
    }
  } else {  // kLargestTiles
    std::vector<std::uint64_t> order(n);
    for (std::uint64_t k = 0; k < n; ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
      return store.tile_bytes(a) > store.tile_bytes(b);
    });
    std::uint64_t used = 0;
    for (std::uint64_t k : order) {
      if (used >= hot_budget) break;
      hot[k] = 1;
      used += store.tile_bytes(k);
    }
  }

  io::TierMap map;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (store.tile_bytes(k) == 0) continue;
    map.add_range(store.tile_offset(k), store.tile_offset(k) + store.tile_bytes(k),
                  hot[k] ? 0u : 1u);
  }
  store.device_->set_tier_map(std::move(map));
  return store;
}

void TileStore::read_range(std::uint64_t first, std::uint64_t last,
                           std::uint8_t* buf) {
  GS_CHECK(first <= last && last <= meta_.tile_count);
  const std::uint64_t bytes = bytes_of_range(first, last);
  if (bytes == 0) return;
  device_->read(buf, bytes, tile_offset(first));
}

TileView TileStore::view(std::uint64_t layout_idx, const std::uint8_t* data) const {
  GSTORE_DCHECK_LT(layout_idx, meta_.tile_count);
  GSTORE_DCHECK(data != nullptr || tile_edge_count(layout_idx) == 0);
  const TileCoord c = grid_.coord_at(layout_idx);
  TileView v;
  v.coord = c;
  v.src_base = grid_.tile_base(c.i);
  v.dst_base = grid_.tile_base(c.j);
  v.fat = meta_.fat_tuples();
  const std::uint64_t n = tile_edge_count(layout_idx);
  if (v.fat) {
    v.fat_edges = std::span<const graph::Edge>(
        reinterpret_cast<const graph::Edge*>(data), n);
  } else if (!packed_payloads_) {
    v.edges = std::span<const SnbEdge>(reinterpret_cast<const SnbEdge*>(data),
                                       n);
  } else if (n > 0) {
    // v3: parse + sanitize the payload's codec header once per tile; raw
    // bodies alias the buffer directly (the v1/v2 zero-copy path), encoded
    // bodies keep the sanitized info for for_each_block's decode_blocks.
    const std::span<const std::uint8_t> payload(data, tile_bytes(layout_idx));
    v.set_payload(parse_tile_payload(payload, static_cast<std::int64_t>(n)));
  }
  return v;
}

graph::CompressedDegrees TileStore::load_degrees() const {
  io::File f(deg_path(base_path_), io::OpenMode::kRead);
  const std::uint64_t n = meta_.vertex_count;
  const std::uint64_t deg_bytes =
      checked_mul(n, sizeof(graph::degree_t), "degree file size");
  if (f.size() != deg_bytes)
    throw FormatError("degree file size mismatch for " + base_path_);
  std::vector<graph::degree_t> deg(n);
  if (n > 0) f.pread_full(deg.data(), deg_bytes, 0);
  if (overlay_ != nullptr) overlay_->apply_degree_deltas(deg);
  return graph::CompressedDegrees::build(deg);
}

std::uint64_t TileStore::storage_bytes() const {
  return io::File::file_size(tiles_path(base_path_)) +
         io::File::file_size(sei_path(base_path_));
}

}  // namespace gstore::tile
