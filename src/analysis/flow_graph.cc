#include "analysis/flow_graph.hh"

#include <algorithm>

#include "cfg/cfg.hh"
#include "distill/ir.hh"
#include "sim/logging.hh"

namespace mssp::analysis
{

std::vector<int>
FlowGraph::rpo() const
{
    std::vector<int> post;
    if (succs.empty())
        return post;
    std::vector<uint8_t> seen(size(), 0);

    struct Frame
    {
        int node;
        size_t nextSucc;
    };
    std::vector<Frame> stack;

    std::vector<int> all_roots{entry};
    all_roots.insert(all_roots.end(), roots.begin(), roots.end());
    for (int root : all_roots) {
        if (seen[static_cast<size_t>(root)])
            continue;
        seen[static_cast<size_t>(root)] = 1;
        stack.push_back({root, 0});
        while (!stack.empty()) {
            Frame &f = stack.back();
            const auto &ss = succs[static_cast<size_t>(f.node)];
            if (f.nextSucc < ss.size()) {
                int s = ss[f.nextSucc++];
                if (!seen[static_cast<size_t>(s)]) {
                    seen[static_cast<size_t>(s)] = 1;
                    stack.push_back({s, 0});
                }
            } else {
                post.push_back(f.node);
                stack.pop_back();
            }
        }
    }
    std::reverse(post.begin(), post.end());
    return post;
}

FlowGraph
graphOfCfg(const Cfg &cfg, std::vector<uint32_t> &starts)
{
    starts.clear();
    std::vector<int> ids;
    for (const auto &[start, bb] : cfg.blocks())
        starts.push_back(start);

    auto id_of = [&](uint32_t pc) -> int {
        auto it = std::lower_bound(starts.begin(), starts.end(), pc);
        if (it == starts.end() || *it != pc)
            return -1;
        return static_cast<int>(it - starts.begin());
    };

    FlowGraph g(starts.size());
    g.entry = id_of(cfg.entry());
    MSSP_ASSERT(g.entry >= 0);
    for (uint32_t root : cfg.roots()) {
        int id = id_of(root);
        if (id >= 0 && id != g.entry)
            g.roots.push_back(id);
    }
    for (const auto &[start, bb] : cfg.blocks()) {
        int from = id_of(start);
        for (uint32_t s : bb.succs) {
            int to = id_of(s);
            if (to >= 0)
                g.addEdge(from, to);
        }
    }
    return g;
}

FlowGraph
graphOfIr(const DistillIr &ir)
{
    FlowGraph g(ir.blocks().size());
    g.entry = ir.entryBlock();
    for (const IrBlock &blk : ir.blocks()) {
        if (!blk.alive)
            continue;
        for (int s : blk.succIds()) {
            if (ir.block(s).alive)
                g.addEdge(blk.id, s);
        }
    }
    return g;
}

SccResult
computeSccs(const FlowGraph &g)
{
    SccResult res;
    res.comp.assign(g.size(), -1);
    if (g.succs.empty())
        return res;

    // Iterative Tarjan.
    std::vector<int> index(g.size(), -1), lowlink(g.size(), 0);
    std::vector<uint8_t> on_stack(g.size(), 0);
    std::vector<int> scc_stack;
    int next_index = 0;

    struct Frame
    {
        int node;
        size_t nextSucc;
    };
    std::vector<Frame> call_stack;

    auto visit = [&](int root) {
        call_stack.push_back({root, 0});
        index[static_cast<size_t>(root)] =
            lowlink[static_cast<size_t>(root)] = next_index++;
        scc_stack.push_back(root);
        on_stack[static_cast<size_t>(root)] = 1;

        while (!call_stack.empty()) {
            Frame &f = call_stack.back();
            auto v = static_cast<size_t>(f.node);
            if (f.nextSucc < g.succs[v].size()) {
                int w = g.succs[v][f.nextSucc++];
                auto wi = static_cast<size_t>(w);
                if (index[wi] < 0) {
                    index[wi] = lowlink[wi] = next_index++;
                    scc_stack.push_back(w);
                    on_stack[wi] = 1;
                    call_stack.push_back({w, 0});
                } else if (on_stack[wi]) {
                    lowlink[v] = std::min(lowlink[v], index[wi]);
                }
            } else {
                if (lowlink[v] == index[v]) {
                    std::vector<int> members;
                    int w;
                    do {
                        w = scc_stack.back();
                        scc_stack.pop_back();
                        on_stack[static_cast<size_t>(w)] = 0;
                        res.comp[static_cast<size_t>(w)] = res.count;
                        members.push_back(w);
                    } while (w != f.node);
                    res.members.push_back(std::move(members));
                    ++res.count;
                }
                int done = f.node;
                call_stack.pop_back();
                if (!call_stack.empty()) {
                    auto p =
                        static_cast<size_t>(call_stack.back().node);
                    lowlink[p] = std::min(
                        lowlink[p], lowlink[static_cast<size_t>(done)]);
                }
            }
        }
    };

    for (int n : g.rpo()) {
        if (index[static_cast<size_t>(n)] < 0)
            visit(n);
    }

    res.cyclic.assign(static_cast<size_t>(res.count), false);
    for (int c = 0; c < res.count; ++c) {
        const auto &members = res.members[static_cast<size_t>(c)];
        if (members.size() > 1) {
            res.cyclic[static_cast<size_t>(c)] = true;
            continue;
        }
        int n = members[0];
        for (int s : g.succs[static_cast<size_t>(n)]) {
            if (s == n)
                res.cyclic[static_cast<size_t>(c)] = true;
        }
    }
    return res;
}

} // namespace mssp::analysis
