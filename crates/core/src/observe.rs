//! Cross-checks between a collected [`pde_trace`] trace and the runtime's own
//! communication ledger. Test-only: the per-rank rows come straight from
//! [`pde_trace::Trace::summarize`].

#[cfg(test)]
mod tests {
    use crate::arch::ArchSpec;
    use crate::infer::ParallelInference;
    use crate::padding::PaddingStrategy;
    use crate::train::{ParallelTrainer, TrainConfig};
    use pde_euler::dataset::paper_dataset;
    use pde_trace::Category;

    #[test]
    fn traced_rollout_bytes_agree_with_traffic_report() {
        let data = paper_dataset(16, 8);
        let arch = ArchSpec::tiny();
        let outcome = ParallelTrainer::new(
            arch.clone(),
            PaddingStrategy::NeighborPad,
            TrainConfig::quick_test(),
        )
        .train_view(&data, 6, 4)
        .unwrap();
        let inf = ParallelInference::from_outcome(arch, PaddingStrategy::NeighborPad, &outcome);

        let handle = pde_trace::begin();
        let rollout = inf.rollout(data.snapshot(6), 3).unwrap();
        let trace = handle.finish();
        assert_eq!(trace.total_dropped(), 0);

        let rows = trace.summarize();
        for (rank, t) in rollout.traffic.iter().enumerate() {
            let m = rows.iter().find(|m| m.rank == rank as u32).unwrap();
            assert_eq!(
                m.traced_bytes_sent, t.bytes_sent,
                "rank {rank}: trace and CommStats disagree on bytes sent"
            );
            assert_eq!(m.traced_sends, t.msgs_sent, "rank {rank}: send count");
            assert!(
                m.busy_us[Category::Infer.index()] > 0,
                "rank {rank}: no infer spans"
            );
        }
    }
}
