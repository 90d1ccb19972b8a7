// Hand-built causal graphs in tests: a node for CausalGraph::AddNode with its
// label and resource interned in the graph that records it.
#ifndef TESTS_CAUSAL_NODE_H_
#define TESTS_CAUSAL_NODE_H_

#include <cstdint>
#include <string_view>

#include "src/obs/causal_graph.h"
#include "src/util/time.h"

namespace deepplan {

inline CpNode MakeNode(CausalGraph& graph, CpKind kind, std::string_view label,
                       std::string_view resource, Nanos start, Nanos end,
                       std::int64_t bytes = 0, Nanos solo = -1) {
  return {.kind = kind,
          .label = graph.Intern(label),
          .resource = graph.Intern(resource),
          .start = start,
          .end = end,
          .bytes = bytes,
          .solo = solo};
}

}  // namespace deepplan

#endif  // TESTS_CAUSAL_NODE_H_
