#include "baseline/flashgraph.h"

#include <algorithm>
#include <cstring>

#include "io/file.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::baseline {

PageCache::PageCache(std::uint64_t budget_bytes, std::size_t page_bytes)
    : budget_(budget_bytes), page_bytes_(page_bytes) {
  GS_CHECK_MSG(page_bytes >= 64, "page size too small");
}

const std::uint8_t* PageCache::lookup(std::uint64_t page_id) {
  auto it = map_.find(page_id);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->data.data();
}

const std::uint8_t* PageCache::insert(std::uint64_t page_id,
                                      const std::uint8_t* data) {
  if (auto it = map_.find(page_id); it != map_.end()) {
    std::memcpy(it->second->data.data(), data, page_bytes_);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->data.data();
  }
  while (!lru_.empty() && (map_.size() + 1) * page_bytes_ > budget_) {
    map_.erase(lru_.back().page_id);
    lru_.pop_back();
  }
  Slot slot;
  slot.page_id = page_id;
  slot.data.assign(data, data + page_bytes_);
  lru_.push_front(std::move(slot));
  map_[page_id] = lru_.begin();
  return lru_.begin()->data.data();
}

FlashGraphEngine::FlashGraphEngine(const std::string& base_path,
                                   FlashGraphConfig config)
    : config_(config),
      adj_(base_path + ".adj", config.device),
      cache_(config.cache_bytes, config.page_bytes) {
  io::File beg(base_path + ".beg", io::OpenMode::kRead);
  const std::uint64_t entries = beg.size() / sizeof(std::uint64_t);
  GS_CHECK_MSG(entries >= 2, "beg-pos file too small");
  beg_pos_.resize(entries);
  beg.pread_full(beg_pos_.data(), entries * sizeof(std::uint64_t), 0);
}

void FlashGraphEngine::fetch_pages(const std::vector<std::uint64_t>& page_ids) {
  // Collect the missing pages, merge runs of consecutive pages, batch-read.
  std::vector<std::uint64_t> missing;
  for (std::uint64_t pid : page_ids) {
    if (cache_.lookup(pid) != nullptr) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
      missing.push_back(pid);
    }
  }
  if (missing.empty()) return;
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());

  const std::size_t pb = cache_.page_bytes();
  const std::uint64_t file_size = adj_.size();
  struct Run {
    std::uint64_t first_page;
    std::size_t pages;
  };
  std::vector<Run> runs;
  for (std::uint64_t pid : missing) {
    if (!runs.empty() &&
        runs.back().first_page + runs.back().pages == pid)
      ++runs.back().pages;
    else
      runs.push_back(Run{pid, 1});
  }

  std::vector<std::vector<std::uint8_t>> buffers(runs.size());
  std::vector<io::ReadRequest> batch;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::uint64_t off = runs[r].first_page * pb;
    const std::uint64_t want = static_cast<std::uint64_t>(runs[r].pages) * pb;
    const std::uint64_t len = std::min<std::uint64_t>(want, file_size - off);
    buffers[r].assign(static_cast<std::size_t>(runs[r].pages) * pb, 0);
    io::ReadRequest req;
    req.offset = off;
    req.length = static_cast<std::size_t>(len);
    req.buffer = buffers[r].data();
    req.tag = r;
    batch.push_back(req);
  }
  adj_.submit(std::move(batch));
  adj_.drain();

  for (std::size_t r = 0; r < runs.size(); ++r)
    for (std::size_t k = 0; k < runs[r].pages; ++k)
      cache_.insert(runs[r].first_page + k, buffers[r].data() + k * pb);
}

void FlashGraphEngine::for_active(
    const std::vector<graph::vid_t>& active,
    const std::function<void(graph::vid_t, std::span<const graph::vid_t>)>& fn) {
  const std::size_t pb = cache_.page_bytes();
  for (std::size_t batch_start = 0; batch_start < active.size();
       batch_start += config_.batch_vertices) {
    const std::size_t batch_end =
        std::min(batch_start + config_.batch_vertices, active.size());

    // Which pages does this wave of vertices need?
    std::vector<std::uint64_t> pages;
    for (std::size_t k = batch_start; k < batch_end; ++k) {
      const graph::vid_t v = active[k];
      const std::uint64_t lo = beg_pos_[v] * sizeof(graph::vid_t);
      const std::uint64_t hi = beg_pos_[v + 1] * sizeof(graph::vid_t);
      for (std::uint64_t p = lo / pb; p * pb < hi; ++p) pages.push_back(p);
      if (lo == hi) continue;
    }
    fetch_pages(pages);

    // Assemble each vertex's adjacency from the (now resident) pages.
    for (std::size_t k = batch_start; k < batch_end; ++k) {
      const graph::vid_t v = active[k];
      const std::uint64_t lo = beg_pos_[v] * sizeof(graph::vid_t);
      const std::uint64_t hi = beg_pos_[v + 1] * sizeof(graph::vid_t);
      const std::size_t n = static_cast<std::size_t>(hi - lo);
      if (n == 0) {
        fn(v, {});
        continue;
      }
      scratch_.resize(n / sizeof(graph::vid_t));
      auto* out = reinterpret_cast<std::uint8_t*>(scratch_.data());
      std::uint64_t pos = lo;
      while (pos < hi) {
        const std::uint64_t pid = pos / pb;
        const std::uint64_t in_page = pos % pb;
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(pb - in_page,
                                                             hi - pos));
        const std::uint8_t* page = cache_.lookup(pid);
        if (page == nullptr) {
          // Evicted between fetch and assembly (cache smaller than one
          // batch's footprint): re-read the page synchronously.
          ++stats_.cache_misses;
          std::vector<std::uint8_t> tmp(pb, 0);
          const std::uint64_t off = pid * pb;
          const std::uint64_t len =
              std::min<std::uint64_t>(pb, adj_.size() - off);
          adj_.read(tmp.data(), static_cast<std::size_t>(len), off);
          page = cache_.insert(pid, tmp.data());
        }
        std::memcpy(out + (pos - lo), page + in_page, take);
        pos += take;
      }
      fn(v, std::span<const graph::vid_t>(scratch_.data(), scratch_.size()));
    }
  }
}

FlashGraphStats FlashGraphEngine::run_bfs(graph::vid_t root,
                                          std::vector<std::int32_t>& depth_out) {
  stats_ = FlashGraphStats{};
  const io::DeviceStats start = adj_.stats();
  Timer t;
  depth_out.assign(vertex_count(), -1);
  depth_out[root] = 0;
  std::vector<graph::vid_t> frontier{root};
  std::int32_t level = 0;
  while (!frontier.empty()) {
    std::vector<graph::vid_t> next;
    for_active(frontier, [&](graph::vid_t, std::span<const graph::vid_t> nbrs) {
      for (graph::vid_t w : nbrs) {
        if (depth_out[w] == -1) {
          depth_out[w] = level + 1;
          next.push_back(w);
        }
      }
    });
    frontier = std::move(next);
    std::sort(frontier.begin(), frontier.end());  // sequentialize next I/O wave
    ++level;
    ++stats_.iterations;
  }
  stats_.bytes_read = (adj_.stats() - start).bytes_read;
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

FlashGraphStats FlashGraphEngine::run_pagerank(std::uint32_t iterations,
                                               double damping,
                                               std::vector<float>& rank_out) {
  stats_ = FlashGraphStats{};
  const io::DeviceStats start = adj_.stats();
  Timer t;
  const graph::vid_t n = vertex_count();
  rank_out.assign(n, 1.0f / static_cast<float>(n));
  std::vector<float> incoming(n);
  std::vector<graph::vid_t> all(n);
  for (graph::vid_t v = 0; v < n; ++v) all[v] = v;

  for (std::uint32_t it = 0; it < iterations; ++it) {
    std::fill(incoming.begin(), incoming.end(), 0.0f);
    for_active(all, [&](graph::vid_t v, std::span<const graph::vid_t> nbrs) {
      if (nbrs.empty()) return;
      const float c = rank_out[v] / static_cast<float>(nbrs.size());
      for (graph::vid_t w : nbrs) incoming[w] += c;
    });
    const float base = static_cast<float>((1.0 - damping) / n);
    for (graph::vid_t v = 0; v < n; ++v)
      rank_out[v] = base + static_cast<float>(damping) * incoming[v];
    ++stats_.iterations;
  }
  stats_.bytes_read = (adj_.stats() - start).bytes_read;
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

FlashGraphStats FlashGraphEngine::run_wcc(std::vector<graph::vid_t>& label_out) {
  stats_ = FlashGraphStats{};
  const io::DeviceStats start = adj_.stats();
  Timer t;
  const graph::vid_t n = vertex_count();
  label_out.resize(n);
  for (graph::vid_t v = 0; v < n; ++v) label_out[v] = v;
  std::vector<graph::vid_t> all(n);
  for (graph::vid_t v = 0; v < n; ++v) all[v] = v;

  bool changed = true;
  while (changed) {
    changed = false;
    for_active(all, [&](graph::vid_t v, std::span<const graph::vid_t> nbrs) {
      graph::vid_t m = label_out[v];
      for (graph::vid_t w : nbrs) m = std::min(m, label_out[w]);
      if (m < label_out[v]) {
        label_out[v] = m;
        changed = true;
      }
      // Algorithm-2 contrast: FlashGraph-style label propagation also pushes
      // the new minimum outward so convergence matches the reference.
      for (graph::vid_t w : nbrs) {
        if (m < label_out[w]) {
          label_out[w] = m;
          changed = true;
        }
      }
    });
    ++stats_.iterations;
  }
  stats_.bytes_read = (adj_.stats() - start).bytes_read;
  stats_.elapsed_seconds = t.seconds();
  return stats_;
}

}  // namespace gstore::baseline
