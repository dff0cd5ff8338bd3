//! Tarjan strongly-connected components over the call graph.

use ipra_ir::FuncId;

use crate::graph::CallGraph;

/// SCC decomposition of the call graph.
///
/// Components are emitted in *bottom-up* (reverse topological) order: every
/// component appears before any component that calls into it. This is
/// exactly the processing order the one-pass inter-procedural allocator
/// needs (paper §2: depth-first traversal, callees first).
#[derive(Clone, Debug)]
pub struct SccInfo {
    /// Components in bottom-up order.
    pub components: Vec<Vec<FuncId>>,
    /// Component index of each function.
    pub component_of: Vec<usize>,
    /// Whether each function sits on a call-graph cycle (member of a
    /// multi-node SCC, or directly self-recursive).
    pub on_cycle: Vec<bool>,
}

impl SccInfo {
    /// Runs Tarjan's algorithm (iterative) over all functions.
    pub fn compute(cg: &CallGraph) -> Self {
        let n = cg.len();
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<Vec<FuncId>> = Vec::new();
        let mut component_of = vec![usize::MAX; n];

        // Iterative Tarjan: frame = (node, next callee position).
        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
                let callees = &cg.callees[v];
                if *ci < callees.len() {
                    let w = callees[*ci].index();
                    *ci += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // v roots a component.
                        let comp_idx = components.len();
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component_of[w] = comp_idx;
                            comp.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                }
            }
        }

        let mut on_cycle = vec![false; n];
        for comp in &components {
            if comp.len() > 1 {
                for &f in comp {
                    on_cycle[f.index()] = true;
                }
            }
        }
        // Direct self-recursion forms a singleton SCC but is still a cycle.
        for (f, cyclic) in on_cycle.iter_mut().enumerate() {
            if cg.callees[f].iter().any(|c| c.index() == f) {
                *cyclic = true;
            }
        }

        SccInfo {
            components,
            component_of,
            on_cycle,
        }
    }

    /// Reports call-graph structure counters to the observability sink.
    /// Called once per compilation (helper passes may compute extra SCC
    /// decompositions; those are not reported).
    pub fn record_stats(&self) {
        ipra_obs::counter("callgraph.functions", &[], self.component_of.len() as u64);
        ipra_obs::counter("callgraph.sccs", &[], self.components.len() as u64);
        ipra_obs::counter(
            "callgraph.recursive_funcs",
            &[],
            self.on_cycle.iter().filter(|&&c| c).count() as u64,
        );
        ipra_obs::counter(
            "callgraph.largest_scc",
            &[],
            self.components.iter().map(|c| c.len()).max().unwrap_or(0) as u64,
        );
    }

    /// A flat bottom-up processing order over all functions: every function
    /// appears after all functions it calls, except along cycle edges.
    pub fn bottom_up_order(&self) -> Vec<FuncId> {
        self.components.iter().flatten().copied().collect()
    }

    /// Partitions the components into levels of the condensation DAG:
    /// level 0 holds the components with no calls outside themselves; a
    /// component's level is one more than the deepest level it calls
    /// into. All components of one level are mutually independent — none
    /// (transitively) calls another. The allocator walks
    /// [`SccInfo::components`] in index order instead; the levels
    /// describe the call graph's shape (depth and widest level).
    ///
    /// Returns component indices into [`SccInfo::components`], each level
    /// sorted ascending (bottom-up order within the level).
    pub fn levels(&self, cg: &CallGraph) -> Vec<Vec<usize>> {
        let nc = self.components.len();
        let mut level = vec![0usize; nc];
        // Components are in bottom-up order, so every cross-component
        // callee has a smaller index and its level is already final.
        for (ci, comp) in self.components.iter().enumerate() {
            let mut l = 0;
            for &f in comp {
                for &callee in &cg.callees[f.index()] {
                    let cc = self.component_of[callee.index()];
                    if cc != ci {
                        l = l.max(level[cc] + 1);
                    }
                }
            }
            level[ci] = l;
        }
        let depth = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); depth];
        for (ci, &l) in level.iter().enumerate() {
            waves[l].push(ci);
        }
        waves
    }

    /// The set of functions whose allocation may change when `seeds`
    /// change: the seeds plus everything that (transitively) calls them,
    /// in `FuncId` order. This is the *upper bound* the incremental cache
    /// invalidates against; the summary-keyed cache typically stops far
    /// earlier (a caller whose callees' summaries are byte-identical is a
    /// hit — the early cutoff), so this closure is what tests compare the
    /// observed miss set *against*, not what the cache recompiles.
    pub fn dirty_closure(&self, cg: &CallGraph, seeds: &[FuncId]) -> Vec<FuncId> {
        let n = cg.len();
        let mut dirty = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for &s in seeds {
            if !dirty[s.index()] {
                dirty[s.index()] = true;
                stack.push(s.index());
            }
        }
        while let Some(f) = stack.pop() {
            for caller in cg.callers(FuncId(f as u32)) {
                if !dirty[caller.index()] {
                    dirty[caller.index()] = true;
                    stack.push(caller.index());
                }
            }
        }
        (0..n)
            .filter(|&i| dirty[i])
            .map(|i| FuncId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::Module;

    /// Builds a module from an adjacency list (functions call in order).
    fn module_from_edges(n: usize, edges: &[(usize, usize)]) -> Module {
        let mut m = Module::new();
        let ids: Vec<FuncId> = (0..n).map(|i| m.declare_func(format!("f{i}"))).collect();
        for i in 0..n {
            let mut b = FunctionBuilder::new(format!("f{i}"));
            for &(from, to) in edges {
                if from == i {
                    b.call_void(ids[to], vec![]);
                }
            }
            b.ret(None);
            m.define_func(ids[i], b.build());
        }
        m
    }

    #[test]
    fn dag_bottom_up_order_respects_edges() {
        // 0 -> 1 -> 2, 0 -> 2
        let m = module_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        assert_eq!(scc.components.len(), 3);
        assert!(scc.on_cycle.iter().all(|&c| !c));
        let order = scc.bottom_up_order();
        let pos = |f: usize| order.iter().position(|x| x.index() == f).unwrap();
        assert!(pos(2) < pos(1), "callee before caller");
        assert!(pos(1) < pos(0));
        assert!(pos(2) < pos(0));
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        // 0 -> 1 -> 2 -> 1 (cycle between 1 and 2)
        let m = module_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        assert_eq!(scc.components.len(), 2);
        assert_eq!(scc.component_of[1], scc.component_of[2]);
        assert!(scc.on_cycle[1] && scc.on_cycle[2]);
        assert!(!scc.on_cycle[0]);
        let order = scc.bottom_up_order();
        assert_eq!(order.last().unwrap().index(), 0, "root processed last");
    }

    #[test]
    fn self_recursion_flagged() {
        let m = module_from_edges(2, &[(0, 0), (0, 1)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        assert!(scc.on_cycle[0]);
        assert!(!scc.on_cycle[1]);
    }

    #[test]
    fn levels_of_dag_put_callees_strictly_lower() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let m = module_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let waves = scc.levels(&cg);
        assert_eq!(waves.len(), 3);
        // Every wave's members are exactly the components, once each.
        let total: usize = waves.iter().map(|w| w.len()).sum();
        assert_eq!(total, scc.components.len());
        let wave_of = |f: usize| {
            let ci = scc.component_of[f];
            waves.iter().position(|w| w.contains(&ci)).unwrap()
        };
        assert_eq!(wave_of(3), 0);
        assert_eq!(wave_of(1), 1);
        assert_eq!(wave_of(2), 1);
        assert_eq!(wave_of(0), 2);
        // Invariant the scheduler relies on: every cross-component callee
        // sits in a strictly lower wave.
        for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            assert!(wave_of(to) < wave_of(from));
        }
    }

    #[test]
    fn levels_handle_mutual_recursion_as_one_unit() {
        // 0 -> 1 <-> 2, 2 -> 3
        let m = module_from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let waves = scc.levels(&cg);
        // Leaf 3 at level 0, the {1,2} cycle at level 1, root 0 at level 2.
        assert_eq!(waves.len(), 3);
        let cycle = scc.component_of[1];
        assert_eq!(scc.component_of[2], cycle);
        assert!(waves[1].contains(&cycle));
        assert!(waves[0].contains(&scc.component_of[3]));
        assert!(waves[2].contains(&scc.component_of[0]));
        // Intra-component edges (1 <-> 2) must not inflate the level.
        assert_eq!(waves[1].len(), 1);
    }

    #[test]
    fn levels_of_disconnected_functions_share_wave_zero() {
        // 0 -> 1; 2 and 3 are isolated roots.
        let m = module_from_edges(4, &[(0, 1)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let waves = scc.levels(&cg);
        assert_eq!(waves.len(), 2);
        // 1, 2, 3 have no callees: all in wave 0. Caller 0 in wave 1.
        assert_eq!(waves[0].len(), 3);
        assert_eq!(waves[1], vec![scc.component_of[0]]);
        // Waves list components ascending, preserving bottom-up order.
        for w in &waves {
            assert!(w.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn levels_of_empty_module_are_empty() {
        let m = Module::new();
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        assert!(scc.levels(&cg).is_empty());
    }

    #[test]
    fn dirty_closure_is_the_ancestor_set() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; plus isolated 4.
        let m = module_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let ids = |v: &[usize]| v.iter().map(|&i| FuncId(i as u32)).collect::<Vec<_>>();
        assert_eq!(scc.dirty_closure(&cg, &ids(&[3])), ids(&[0, 1, 2, 3]));
        assert_eq!(scc.dirty_closure(&cg, &ids(&[1])), ids(&[0, 1]));
        assert_eq!(scc.dirty_closure(&cg, &ids(&[4])), ids(&[4]));
        assert_eq!(scc.dirty_closure(&cg, &[]), Vec::<FuncId>::new());
        // Mutual recursion: the whole cycle and its callers are dirty.
        let m = module_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        assert_eq!(scc.dirty_closure(&cg, &ids(&[2])), ids(&[0, 1, 2]));
    }

    #[test]
    fn disconnected_functions_all_appear() {
        let m = module_from_edges(4, &[(0, 1)]);
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let order = scc.bottom_up_order();
        assert_eq!(order.len(), 4);
        let mut seen: Vec<usize> = order.iter().map(|f| f.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
