// Incremental embedding retrieval with a streaming callback — paper
// Algorithm 1's "only one embedding is generated each time" protocol.
//
// CflMatcher::Match hands each embedding to `on_embedding` the moment it is
// found; returning false stops the search on the spot. Typical use:
// paginate matches in an interactive tool, or stop as soon as some
// externally-checked condition is met, without ever holding more than
// O(|V(q)|) of search state.
//
//   $ ./build/examples/incremental_search [page_size]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "gen/datasets.h"
#include "gen/query_gen.h"
#include "graph/graph_stats.h"
#include "match/cfl_match.h"

int main(int argc, char** argv) {
  using namespace cfl;
  const uint32_t page_size = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  constexpr uint32_t kPages = 3;

  Graph data = MakeYeastLike(0.5);
  std::printf("data graph: %s\n", Describe(ComputeStats(data)).c_str());

  QueryGenOptions qo;
  qo.num_vertices = 8;
  qo.sparse = true;
  qo.seed = 11;
  Graph query = GenerateQuery(data, qo);
  std::printf("query: %s\n\n", Describe(ComputeStats(query)).c_str());

  uint64_t produced = 0;
  MatchOptions options;
  options.on_embedding = [&](const Embedding& m) {
    if (produced % page_size == 0) {
      std::printf("-- page %llu --\n",
                  static_cast<unsigned long long>(produced / page_size + 1));
    }
    ++produced;
    std::printf("#%llu:", static_cast<unsigned long long>(produced));
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      std::printf(" u%u->v%u", u, m[u]);
    }
    std::printf("\n");
    return produced < kPages * page_size;  // false stops the search
  };
  CflMatcher matcher(data);
  MatchResult result = matcher.Match(query, options);

  if (produced < kPages * page_size) {
    std::printf("(no more embeddings; %llu total)\n",
                static_cast<unsigned long long>(result.embeddings));
  } else {
    std::printf("\n(stopping after %u pages; produced %llu of an unknown "
                "total — nothing beyond these was computed)\n",
                kPages, static_cast<unsigned long long>(produced));
  }
  return 0;
}
