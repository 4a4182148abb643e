// On-disk tile store (paper §IV "Implementation" + §V-A).
//
// Two files, exactly like the paper:
//   <base>.tiles — all tiles' payloads concatenated in physical-group layout
//                  order (one file; per-tile files would be millions). v1/v2
//                  payloads are raw SNB tuples; v3 payloads are per-tile
//                  codec-encoded (tile/compress.h, docs/FORMAT.md).
//   <base>.sei   — the "start-edge" file: grid metadata plus one uint64 per
//                  tile giving the starting edge number (CSR-of-tiles). v3
//                  appends a second uint64 index of per-tile payload byte
//                  offsets, since byte size no longer follows from edge count.
// Plus one auxiliary file the algorithms need:
//   <base>.deg   — uint32 degrees (out-degree for directed, total degree for
//                  undirected), loadable into CompressedDegrees.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/degree.h"
#include "graph/types.h"
#include "io/device.h"
#include "tile/compress.h"
#include "tile/grid.h"
#include "tile/snb.h"
#include "util/dcheck.h"

namespace gstore::tile {

inline constexpr std::uint64_t kTileFileMagic = 0x4753544f52453154ULL;  // "GSTORE1T"
inline constexpr std::uint64_t kSeiFileMagic = 0x4753544f52453153ULL;   // "GSTORE1S"

// On-disk format versions this reader understands. v2 added the
// `generation` field (carved out of bytes v1 wrote as zero, so v1 files read
// back exactly as generation 0). v3 made per-tile codecs (tile/compress.h)
// the production payload format: the .sei grows a second byte-offset index
// and every non-empty tile payload starts with an 8-byte codec header.
// Readers must reject anything newer than kTileStoreVersionCurrent: trusting
// an unknown layout silently misparses.
inline constexpr std::uint32_t kTileStoreVersionMin = 1;
inline constexpr std::uint32_t kTileStoreVersionCurrent = 3;

struct TileStoreMeta {
  std::uint64_t magic = kSeiFileMagic;
  std::uint32_t version = kTileStoreVersionCurrent;
  // bit0: symmetric, bit1: directed, bit2: in-edges, bit3: fat (8B) tuples
  std::uint32_t flags = 0;
  std::uint64_t vertex_count = 0;
  std::uint64_t edge_count = 0;
  std::uint32_t tile_bits = 16;
  std::uint32_t group_side = 256;
  std::uint64_t tile_count = 0;
  // Compaction generation: 0 for freshly converted stores, bumped each time
  // the ingest subsystem folds a WAL into a new set of files (docs/INGEST.md).
  std::uint32_t generation = 0;
  std::uint32_t reserved32 = 0;
  std::uint64_t reserved[3] = {0, 0, 0};

  bool symmetric() const noexcept { return flags & 1u; }
  bool directed() const noexcept { return (flags >> 1) & 1u; }
  // For directed stores: tuples are (dst, src) — the store holds in-edges.
  bool in_edges() const noexcept { return (flags >> 2) & 1u; }
  // Non-SNB ablation format: tuples are two full 4-byte vertex ids.
  bool fat_tuples() const noexcept { return (flags >> 3) & 1u; }
  std::uint32_t tuple_bytes() const noexcept { return fat_tuples() ? 8 : 4; }
};
static_assert(sizeof(TileStoreMeta) == 80);

// A decoded, read-only view over one tile's edges sitting in some buffer.
// Normal stores carry SNB tuples in `edges`; the non-SNB ablation format
// carries full-vid tuples in `fat_edges`; v3 stores with a non-raw codec
// carry the encoded body in `payload` (header already parsed and sanitized
// by TileStore::view()). Exactly one representation is populated — iterate
// with visit_edges()/for_each_block() (edge_block.h) to stay format-agnostic.
struct TileView {
  TileCoord coord;
  graph::vid_t src_base = 0;
  graph::vid_t dst_base = 0;
  bool fat = false;
  TileCodec codec = TileCodec::kRaw;
  std::uint8_t src_bits = 0;                 // kPacked only
  std::uint8_t dst_bits = 0;                 // kPacked/kHybrid
  std::uint64_t coded_edges = 0;             // when codec != kRaw
  std::span<const std::uint8_t> payload;     // encoded body, codec != kRaw
  std::span<const SnbEdge> edges;            // when !fat && codec == kRaw
  std::span<const graph::Edge> fat_edges;    // when fat

  std::size_t edge_count() const noexcept {
    if (fat) return fat_edges.size();
    if (codec != TileCodec::kRaw) return static_cast<std::size_t>(coded_edges);
    return edges.size();
  }

  // Decoder inputs for an encoded view; fields were sanitized at view() time.
  TileCodecInfo codec_info() const noexcept {
    return TileCodecInfo{codec, src_bits, dst_bits, coded_edges, payload};
  }

  // The inverse: points the view at a payload parse_tile_payload() accepted.
  // A raw body aliases as SNB tuples; an encoded body is kept for decoding.
  void set_payload(const TileCodecInfo& info) noexcept {
    if (info.codec == TileCodec::kRaw) {
      edges = std::span<const SnbEdge>(
          reinterpret_cast<const SnbEdge*>(info.body.data()),
          static_cast<std::size_t>(info.edge_count));
      return;
    }
    codec = info.codec;
    src_bits = static_cast<std::uint8_t>(info.src_bits);
    dst_bits = static_cast<std::uint8_t>(info.dst_bits);
    coded_edges = info.edge_count;
    payload = info.body;
  }
};

// Rebuilds `v` as a raw in-memory view over `extra` (the overlay-splice
// pattern): same tile coordinates and bases, but raw SNB tuples replace
// whatever representation the base tile used on disk.
inline TileView splice_view(const TileView& v, std::span<const SnbEdge> extra) {
  TileView ov = v;
  ov.fat = false;
  ov.fat_edges = {};
  ov.codec = TileCodec::kRaw;
  ov.src_bits = 0;
  ov.dst_bits = 0;
  ov.coded_edges = 0;
  ov.payload = {};
  ov.edges = extra;
  return ov;
}

// Read-side handle over a converted graph. Thread-compatible: concurrent
// reads are safe through the underlying Device.
// Placement policy for tiered stores (paper §IX future work: SSD + HDD).
enum class TierPolicy {
  kHotPrefix,     // first hot_fraction of the file (in layout order) on SSD
  kLargestTiles,  // biggest tiles on SSD — the power-law mass lives there
};

class TileOverlay;

class TileStore {
 public:
  // Opens the live generation of the store at `base_path`: if a
  // `<base>.current` manifest exists (written by compaction) the
  // generation it names is opened, otherwise the legacy `<base>.tiles/.sei`
  // files themselves.
  static TileStore open(const std::string& base_path, io::DeviceConfig config = {});

  // Opens with tiered storage: `hot_fraction` of the data bytes are placed
  // on the fast tier (config.devices × per_device_bw); the rest are charged
  // against config.slow_tier_bw (must be non-zero). See io/tiering.h.
  static TileStore open_tiered(const std::string& base_path,
                               io::DeviceConfig config, double hot_fraction,
                               TierPolicy policy = TierPolicy::kLargestTiles);

  const Grid& grid() const noexcept { return grid_; }
  const TileStoreMeta& meta() const noexcept { return meta_; }
  graph::vid_t vertex_count() const noexcept {
    return static_cast<graph::vid_t>(meta_.vertex_count);
  }
  std::uint64_t edge_count() const noexcept { return meta_.edge_count; }

  std::uint64_t tile_edge_count(std::uint64_t layout_idx) const {
    GSTORE_DCHECK_LT(layout_idx, meta_.tile_count);
    // Offset monotonicity: validated once at open(), must never decay.
    GSTORE_DCHECK_LE(start_edge_[layout_idx], start_edge_[layout_idx + 1]);
    return start_edge_[layout_idx + 1] - start_edge_[layout_idx];
  }
  // Physical payload bytes of a tile in the .tiles file. v1/v2 derive this
  // from the edge count; v3 reads the byte index (codecs break the
  // edges-to-bytes proportionality).
  std::uint64_t tile_bytes(std::uint64_t layout_idx) const {
    if (packed_payloads_)
      return start_byte_[layout_idx + 1] - start_byte_[layout_idx];
    return tile_edge_count(layout_idx) * meta_.tuple_bytes();
  }
  // Byte offset of a tile inside the .tiles file (after the header).
  std::uint64_t tile_offset(std::uint64_t layout_idx) const {
    GSTORE_DCHECK_LE(layout_idx, meta_.tile_count);
    if (packed_payloads_) return data_offset_ + start_byte_[layout_idx];
    GSTORE_DCHECK_LE(start_edge_[layout_idx], meta_.edge_count);
    return data_offset_ + start_edge_[layout_idx] * meta_.tuple_bytes();
  }
  std::uint64_t max_tile_bytes() const noexcept { return max_tile_bytes_; }
  // Logical (decoded) data bytes — the working-set proxy cache/memory
  // budgets size against; physical footprint is storage_bytes().
  std::uint64_t data_bytes() const noexcept {
    return meta_.edge_count * meta_.tuple_bytes();
  }
  // True for v3 stores whose payloads are codec-encoded.
  bool packed_payloads() const noexcept { return packed_payloads_; }

  const std::vector<std::uint64_t>& start_edge() const noexcept {
    return start_edge_;
  }

  // Synchronously reads the contiguous byte range covering layout tiles
  // [first, last) into `buf` (must hold bytes_of_range(first,last)).
  std::uint64_t bytes_of_range(std::uint64_t first, std::uint64_t last) const {
    return tile_offset(last) - tile_offset(first);
  }
  void read_range(std::uint64_t first, std::uint64_t last, std::uint8_t* buf);

  // Builds a view over tile `layout_idx` whose raw bytes start at `data`
  // (e.g. inside a segment buffer that holds a contiguous range).
  TileView view(std::uint64_t layout_idx, const std::uint8_t* data) const;

  // Loads the degree file (throws if it was not written). When an overlay is
  // attached, its degree deltas are folded in, so algorithms see degrees
  // consistent with the edges the overlay read path will deliver.
  graph::CompressedDegrees load_degrees() const;

  io::Device& device() noexcept { return *device_; }

  // File-name helpers shared with the converter.
  static std::string tiles_path(const std::string& base) { return base + ".tiles"; }
  static std::string sei_path(const std::string& base) { return base + ".sei"; }
  static std::string deg_path(const std::string& base) { return base + ".deg"; }

  // Generation manifest (compaction's publish point): a tiny file holding
  // the decimal generation number whose files are live. Swapped by atomic
  // rename so a reader always sees exactly one complete generation.
  static std::string current_path(const std::string& base) {
    return base + ".current";
  }
  // File base of generation `gen`: the logical base itself for generation 0
  // (the layout gstore_convert writes), "<base>.g<N>" afterwards.
  static std::string generation_base(const std::string& base, std::uint32_t gen);
  // Maps a logical base to the file base of the live generation by reading
  // the manifest (if present). Throws FormatError on a garbled manifest.
  static std::string resolve(const std::string& base);

  // Attaches (or detaches, with nullptr) an overlay of un-compacted edges.
  // The overlay must outlive every subsequent read; see tile/overlay.h for
  // the reader/writer contract.
  void attach_overlay(const TileOverlay* overlay) noexcept { overlay_ = overlay; }
  const TileOverlay* overlay() const noexcept { return overlay_; }

  // Total on-disk footprint (tiles + start-edge index), the quantity the
  // paper's Table II calls "G-Store Size".
  std::uint64_t storage_bytes() const;

 private:
  TileStore() = default;

  std::string base_path_;
  TileStoreMeta meta_;
  Grid grid_;
  std::vector<std::uint64_t> start_edge_;  // size tile_count+1, in layout order
  std::vector<std::uint64_t> start_byte_;  // v3: payload byte offsets, same shape
  bool packed_payloads_ = false;           // v3 codec-encoded payloads
  std::uint64_t data_offset_ = 0;
  std::uint64_t max_tile_bytes_ = 0;
  std::unique_ptr<io::Device> device_;
  const TileOverlay* overlay_ = nullptr;
};

}  // namespace gstore::tile
