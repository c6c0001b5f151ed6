/**
 * @file
 * Generalized iterative dataflow solver.
 *
 * One fixed-point engine serves every flow problem in the repo —
 * liveness (backward/may), defined-registers (forward/may-uninit)
 * — replacing the hand-rolled
 * `while (changed)` loops that used to live in cfg.cc and ir.cc.
 *
 * A problem is a *domain* type D providing:
 *
 *   using Value = ...;                 // with operator==, cheap copy
 *   Value top() const;                 // identity of meet()
 *   Value boundary(int node) const;    // per-node seed, met into IN
 *   void meet(Value &into, const Value &from) const;
 *   Value transfer(int node, const Value &in) const;
 *
 * A domain may additionally provide
 *
 *   void refineMeet(int node, Value &in, const Value &prev) const;
 *
 * called after the meet over flow predecessors with the node's
 * previous IN value. Domains with unbounded ascending chains (the
 * interval domain in absint.hh) use it to apply widening; finite
 * domains simply omit it. A second optional hook
 *
 *   Value edgeOut(int from, int to, const Value &out) const;
 *
 * filters the value flowing along one graph edge before the meet
 * (from/to are flow-order nodes: the CFG edge from→to for a forward
 * problem). The interval domain uses it to kill the untaken side of
 * an abstractly decided branch, which is what lets constants survive
 * a join with a statically dead path.
 *
 * Orientation is uniform for both directions: IN[n] is the value at
 * the node's dataflow *input* — met over predecessors' OUT for a
 * forward problem, over successors' OUT for a backward one — and
 * OUT[n] = transfer(n, IN[n]). For liveness (backward) that means
 * IN = live-out and OUT = live-in; callers rename as they see fit.
 *
 * The solver iterates in reverse post-order (forward) or post-order
 * (backward), the orders under which reducible graphs converge in a
 * couple of sweeps; irreducible graphs just take more sweeps (see
 * tests/test_analysis.cpp). Nodes unreachable from the entry keep
 * top().
 */

#ifndef MSSP_ANALYSIS_DATAFLOW_HH
#define MSSP_ANALYSIS_DATAFLOW_HH

#include <algorithm>
#include <vector>

#include "analysis/flow_graph.hh"

namespace mssp::analysis
{

enum class Direction : uint8_t
{
    Forward,
    Backward,
};

template <typename D>
struct DataflowResult
{
    std::vector<typename D::Value> in;    ///< value entering transfer
    std::vector<typename D::Value> out;   ///< value after transfer
    unsigned sweeps = 0;                  ///< full passes to converge
};

template <typename D>
DataflowResult<D>
solveDataflow(const FlowGraph &g, const D &dom, Direction dir)
{
    DataflowResult<D> res;
    res.in.assign(g.size(), dom.top());
    res.out.assign(g.size(), dom.top());

    std::vector<int> order = g.rpo();
    if (dir == Direction::Backward)
        std::reverse(order.begin(), order.end());

    const auto &flow_preds =
        dir == Direction::Forward ? g.preds : g.succs;

    bool changed = true;
    while (changed) {
        changed = false;
        ++res.sweeps;
        for (int id : order) {
            auto n = static_cast<size_t>(id);
            typename D::Value in = dom.boundary(id);
            for (int p : flow_preds[n]) {
                const auto &out = res.out[static_cast<size_t>(p)];
                if constexpr (requires { dom.edgeOut(p, id, out); })
                    dom.meet(in, dom.edgeOut(p, id, out));
                else
                    dom.meet(in, out);
            }
            if constexpr (requires { dom.refineMeet(id, in,
                                                    res.in[n]); })
                dom.refineMeet(id, in, res.in[n]);
            typename D::Value out = dom.transfer(id, in);
            if (!(in == res.in[n]) || !(out == res.out[n])) {
                res.in[n] = std::move(in);
                res.out[n] = std::move(out);
                changed = true;
            }
        }
    }
    return res;
}

/**
 * Convenience domain for RegMask problems: union meet, empty top,
 * per-node boundary and gen/kill transfer supplied as vectors.
 * OUT = (IN & ~kill) | gen.
 */
struct MaskDomain
{
    using Value = uint32_t;

    std::vector<uint32_t> boundaries;
    std::vector<uint32_t> gen;
    std::vector<uint32_t> kill;

    explicit MaskDomain(size_t n)
        : boundaries(n, 0), gen(n, 0), kill(n, 0)
    {}

    Value top() const { return 0; }
    Value boundary(int n) const
    {
        return boundaries[static_cast<size_t>(n)];
    }
    void meet(Value &into, const Value &from) const { into |= from; }
    Value
    transfer(int n, const Value &in) const
    {
        auto i = static_cast<size_t>(n);
        return (in & ~kill[i]) | gen[i];
    }
};

/**
 * Domain over arbitrary-width bitsets (vectors of uint64_t words),
 * union meet, empty top. OUT = (IN & ~kill) | gen. All vectors must
 * be @p words long (use the helpers to size/set them).
 */
struct BitsetDomain
{
    using Value = std::vector<uint64_t>;

    size_t words;
    std::vector<Value> boundaries;
    std::vector<Value> gen;
    std::vector<Value> kill;

    BitsetDomain(size_t n, size_t nbits)
        : words((nbits + 63) / 64),
          boundaries(n, Value(words, 0)),
          gen(n, Value(words, 0)),
          kill(n, Value(words, 0))
    {}

    static void
    setBit(Value &v, size_t bit)
    {
        v[bit / 64] |= uint64_t{1} << (bit % 64);
    }

    static bool
    testBit(const Value &v, size_t bit)
    {
        return (v[bit / 64] >> (bit % 64)) & 1;
    }

    Value top() const { return Value(words, 0); }
    Value boundary(int n) const
    {
        return boundaries[static_cast<size_t>(n)];
    }
    void
    meet(Value &into, const Value &from) const
    {
        for (size_t w = 0; w < words; ++w)
            into[w] |= from[w];
    }
    Value
    transfer(int n, const Value &in) const
    {
        auto i = static_cast<size_t>(n);
        Value out(words);
        for (size_t w = 0; w < words; ++w)
            out[w] = (in[w] & ~kill[i][w]) | gen[i][w];
        return out;
    }
};

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_DATAFLOW_HH
