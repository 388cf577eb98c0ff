// Known-answer tests for the truth oracle on a hand-built graph:
//
//   A=ACGT(0)  B=GGG(1)  C=TTTAA(2)  D=CC(3)
//   path p: A+ B+ D+   (step starts 0, 4, 7; 9 bases)
//   path q: A+ C- D+   (step starts 0, 4, 9; 11 bases)

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.hpp"
#include "truth.hpp"

namespace {

using pgb::e2ebench::ReadOrigin;
using pgb::e2ebench::TruthOracle;
using pgb::e2ebench::TruthSet;
using pgb::graph::Handle;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

TruthSet
oriented(std::vector<std::pair<uint32_t, bool>> nodes)
{
    TruthSet set;
    for (const auto &[node, reverse] : nodes)
        set.push_back((static_cast<uint64_t>(node) << 1) | reverse);
    return set;
}

bool
throwsFatal(const TruthOracle &oracle, const ReadOrigin &origin)
{
    try {
        oracle.project(origin);
    } catch (const pgb::core::FatalError &) {
        return true;
    }
    return false;
}

pgb::pipeline::ReadMapping
mapped(uint32_t node, bool reverse)
{
    pgb::pipeline::ReadMapping mapping;
    mapping.mapped = true;
    mapping.node = node;
    mapping.reverse = reverse;
    return mapping;
}

} // namespace

int
main()
{
    pgb::graph::PanGraph graph;
    for (const char *bases : {"ACGT", "GGG", "TTTAA", "CC"})
        graph.addNode(pgb::seq::Sequence("", bases));
    graph.addEdge(Handle(0, false), Handle(1, false));
    graph.addEdge(Handle(1, false), Handle(3, false));
    graph.addEdge(Handle(0, false), Handle(2, true));
    graph.addEdge(Handle(2, true), Handle(3, false));
    graph.addPath("p", {Handle(0, false), Handle(1, false),
                        Handle(3, false)});
    graph.addPath("q", {Handle(0, false), Handle(2, true),
                        Handle(3, false)});
    const TruthOracle oracle(graph);

    expect(oracle.project({"p", 0, 4, false}) == oriented({{0, false}}),
           "p[0,4) is A forward");
    expect(oracle.project({"p", 3, 2, false}) ==
               oriented({{0, false}, {1, false}}),
           "p[3,5) straddles A and B");
    expect(oracle.project({"p", 4, 3, true}) == oriented({{1, true}}),
           "reverse read on B reports B reverse");
    expect(oracle.project({"p", 6, 3, false}) ==
               oriented({{1, false}, {3, false}}),
           "p[6,9) ends exactly at the path end");
    expect(oracle.project({"q", 5, 3, false}) == oriented({{2, true}}),
           "forward read on reversed step C reports C reverse");
    expect(oracle.project({"q", 5, 3, true}) == oriented({{2, false}}),
           "reverse read on reversed step C reports C forward");
    expect(oracle.project({"q", 0, 11, false}) ==
               oriented({{0, false}, {2, true}, {3, false}}),
           "whole path q");

    expect(throwsFatal(oracle, {"missing", 0, 1, false}),
           "unknown path is fatal");
    expect(throwsFatal(oracle, {"p", 8, 2, false}),
           "interval past the path end is fatal");
    expect(throwsFatal(oracle, {"p", 2, 0, false}), "empty span is fatal");

    const TruthSet onB = oracle.project({"p", 4, 3, true});
    expect(pgb::e2ebench::mappingCorrect(onB, mapped(1, true)),
           "right node, right strand is correct");
    expect(!pgb::e2ebench::mappingCorrect(onB, mapped(1, false)),
           "wrong strand is incorrect");
    expect(!pgb::e2ebench::mappingCorrect(onB, mapped(0, true)),
           "node off the origin is incorrect");
    pgb::pipeline::ReadMapping unmapped = mapped(1, true);
    unmapped.mapped = false;
    expect(!pgb::e2ebench::mappingCorrect(onB, unmapped),
           "an unmapped read is incorrect");

    if (failures == 0)
        std::printf("truth oracle: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
