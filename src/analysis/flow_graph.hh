/**
 * @file
 * Graph substrate for the dataflow framework.
 *
 * Every analysis in src/analysis/ runs over a FlowGraph: a dense,
 * integer-indexed digraph with a distinguished entry node. Adapters
 * build one from either program representation (the binary-level Cfg
 * or the distiller's DistillIr) so an analysis written once serves the
 * distiller, the linter and the tests alike.
 *
 * On top of the raw graph this header provides reverse post-order
 * (the solver's iteration order) and strongly connected components
 * (Tarjan), which is how the linter finds inescapable loops.
 */

#ifndef MSSP_ANALYSIS_FLOW_GRAPH_HH
#define MSSP_ANALYSIS_FLOW_GRAPH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mssp
{

class Cfg;
class DistillIr;

namespace analysis
{

/** A dense digraph with an entry node (node ids are 0..size-1). */
struct FlowGraph
{
    int entry = 0;
    /** Additional discovery roots (multi-entry graphs, e.g. the
     *  restart points of a distilled image). May repeat the entry. */
    std::vector<int> roots;
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;

    FlowGraph() = default;
    explicit FlowGraph(size_t n) : succs(n), preds(n) {}

    size_t size() const { return succs.size(); }

    void
    addEdge(int from, int to)
    {
        succs[static_cast<size_t>(from)].push_back(to);
        preds[static_cast<size_t>(to)].push_back(from);
    }

    /**
     * Reverse post-order of the nodes reachable from the entry or
     * any extra root. Forward problems converge fastest iterating in
     * this order, backward problems in its reverse.
     */
    std::vector<int> rpo() const;
};

/**
 * Build a FlowGraph over a Cfg. Node i corresponds to @p starts[i]
 * (block-start PCs in ascending order); edges to nonexistent blocks
 * are dropped (the Cfg models them as exits).
 */
FlowGraph graphOfCfg(const Cfg &cfg, std::vector<uint32_t> &starts);

/**
 * Build a FlowGraph over a DistillIr. Node ids equal IR block ids;
 * dead blocks keep their id but get no edges, and edges from alive
 * blocks into dead blocks are dropped (callers that need the
 * conservative "dead successor = anything" treatment handle it in
 * their boundary conditions, as computeIrLiveness does).
 */
FlowGraph graphOfIr(const DistillIr &ir);

/** Strongly connected components (Tarjan). */
struct SccResult
{
    /** Component id per node (-1 when the node has no edges at all
     *  and is unreachable; otherwise 0..count-1). */
    std::vector<int> comp;
    int count = 0;

    /** Members of each component. */
    std::vector<std::vector<int>> members;

    /** True when the component loops (>= 2 nodes, or a self-edge). */
    std::vector<bool> cyclic;
};

/** Compute SCCs over the nodes reachable from the entry. */
SccResult computeSccs(const FlowGraph &g);

} // namespace analysis
} // namespace mssp

#endif // MSSP_ANALYSIS_FLOW_GRAPH_HH
