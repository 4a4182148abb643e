// Text graph loaders/savers for interoperability with common datasets
// (SNAP/KONECT-style edge lists — the distribution format of the paper's
// Twitter/Friendster/Subdomain graphs).
//
// Accepted line format: `src <whitespace> dst`, one edge per line, with
// optional numeric trailing columns (weights, timestamps) that are ignored;
// blank lines and lines starting with '#' or '%' (SNAP and MatrixMarket
// comment styles) are skipped. Vertex ids must be non-negative integers;
// the vertex count is max id + 1 unless a larger count is supplied.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.h"

namespace gstore::graph {

struct TextReadOptions {
  GraphKind kind = GraphKind::kDirected;
  // Force a minimum vertex count (0 = infer from max id).
  vid_t min_vertex_count = 0;
};

// Parses a whole text file; throws FormatError with a line number on
// malformed input.
EdgeList read_text_edges(const std::string& path, TextReadOptions options = {});

// Writes `src\tdst\n` lines (one per stored edge).
void write_text_edges(const std::string& path, const EdgeList& el);

// Parses edges from an in-memory string (exposed for tests and embedding).
EdgeList parse_text_edges(const std::string& text, TextReadOptions options = {});

}  // namespace gstore::graph
