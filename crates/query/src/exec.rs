//! Plan execution over `phe-pathenum` relations.

use phe_graph::{FixedBitSet, Graph};
use phe_pathenum::PathRelation;

use crate::plan::Plan;

/// What actually happened while executing a plan.
#[derive(Debug)]
pub struct ExecutionReport {
    /// The final relation (the query answer).
    pub result: PathRelation,
    /// Actual cardinality of every non-root materialized node, in
    /// execution (post-order) order. Comparing its sum against
    /// [`Plan::estimated_cost`] measures estimator quality *where it
    /// matters*.
    pub intermediate_cardinalities: Vec<u64>,
}

impl ExecutionReport {
    /// Total pairs materialized in non-root intermediates — the actual
    /// analogue of [`Plan::estimated_cost`].
    pub fn actual_cost(&self) -> u64 {
        self.intermediate_cardinalities.iter().sum()
    }
}

/// Executes a plan bottom-up, recording intermediate sizes.
pub fn execute(graph: &Graph, plan: &Plan) -> ExecutionReport {
    let mut scratch = FixedBitSet::new(graph.vertex_count());
    let mut intermediates = Vec::new();
    let result = run(graph, plan, &mut scratch, &mut intermediates, true);
    ExecutionReport {
        result,
        intermediate_cardinalities: intermediates,
    }
}

fn run(
    graph: &Graph,
    plan: &Plan,
    scratch: &mut FixedBitSet,
    intermediates: &mut Vec<u64>,
    is_root: bool,
) -> PathRelation {
    let rel = match plan {
        Plan::Leaf { label, .. } => PathRelation::from_label(graph, *label),
        Plan::Join { left, right, .. } => {
            let l = run(graph, left, scratch, intermediates, false);
            let r = run(graph, right, scratch, intermediates, false);
            l.join(&r, scratch)
        }
    };
    if !is_root {
        intermediates.push(rel.pair_count());
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::ExactOracle;
    use crate::optimizer::{enumerate_plans, optimize};
    use crate::parse::parse_path;
    use phe_graph::GraphBuilder;
    use phe_pathenum::SparseCatalog;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        for t in 2..12 {
            b.add_edge_named(1, "b", t);
            b.add_edge_named(t, "c", 100);
        }
        b.build()
    }

    #[test]
    fn result_matches_direct_evaluation() {
        let g = graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = parse_path(&g, "a/b/c").unwrap();
        let plan = optimize(&query, &oracle);
        let report = execute(&g, &plan);
        let direct = PathRelation::evaluate(&g, &query);
        let a: Vec<_> = report.result.iter_pairs().collect();
        let b: Vec<_> = direct.iter_pairs().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_plan_shape_gives_the_same_answer() {
        let g = graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = parse_path(&g, "a/b/c").unwrap();
        let reference: Vec<_> = PathRelation::evaluate(&g, &query).iter_pairs().collect();
        for plan in enumerate_plans(&query, &oracle) {
            let report = execute(&g, &plan);
            let got: Vec<_> = report.result.iter_pairs().collect();
            assert_eq!(got, reference, "plan {plan} diverged");
        }
    }

    #[test]
    fn oracle_guided_plan_is_cheapest_in_actual_cost() {
        let g = graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = parse_path(&g, "a/b/c").unwrap();
        let chosen = optimize(&query, &oracle);
        let chosen_cost = execute(&g, &chosen).actual_cost();
        for plan in enumerate_plans(&query, &oracle) {
            let cost = execute(&g, &plan).actual_cost();
            assert!(
                chosen_cost <= cost,
                "oracle plan ({chosen_cost}) beaten by {plan} ({cost})"
            );
        }
    }

    #[test]
    fn intermediates_recorded_per_node() {
        let g = graph();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = parse_path(&g, "a/b").unwrap();
        let plan = optimize(&query, &oracle);
        let report = execute(&g, &plan);
        // Two leaves, root excluded.
        assert_eq!(report.intermediate_cardinalities.len(), 2);
        assert_eq!(report.actual_cost(), 1 + 10); // f(a)=1, f(b)=10
    }
}
