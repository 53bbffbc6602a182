//! Per-subdomain supervised datasets.
//!
//! Each rank trains on `(q(t) restricted to its input region, q(t+1)
//! restricted to its interior)` pairs cut from the global solver snapshots.
//! With [`PaddingStrategy::NeighborPad`] the input region overlaps the
//! neighboring subdomains (paper §III: "input data for neighboring
//! processes are overlapping") — during *training* that halo is read
//! directly from the stored global snapshot, so no communication happens.
//!
//! A [`SubdomainDataset`] is a view: it borrows the snapshots and cuts,
//! pads and normalizes a mini-batch from them only when asked, so a rank
//! never holds a copy of its share of the data. The trainer asks for the
//! inputs alone ([`BatchCursor::next_inputs`]); its loss reads each target
//! from the snapshots as it goes, so a training batch is its input and the
//! network's prediction. [`BatchCursor::next_into`] fills a target batch
//! too, through the same target body.

use crate::norm::ChannelNorm;
use crate::padding::PaddingStrategy;
use crate::train::PredictionMode;
use pde_domain::{Block, GridPartition, Margins};
use pde_euler::dataset::{DataSet, DataSetView};
use pde_tensor::pad::pad_tensor3;
use pde_tensor::{PadMode, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Cuts the input region of `block` (interior + `halo`) out of a global
/// snapshot, synthesizing out-of-domain halo cells with `mode`.
pub fn extract_input(snapshot: &Tensor3, block: &Block, halo: usize, mode: PadMode) -> Tensor3 {
    let (clipped, m) = block.extended(halo, snapshot.h(), snapshot.w());
    let window = snapshot.window(clipped.i0, clipped.j0, clipped.h, clipped.w);
    if m.is_zero() {
        window
    } else {
        pad_tensor3(&window, m.top, m.bottom, m.left, m.right, mode)
    }
}

/// Cuts the target region of `block` out of a global snapshot: the interior,
/// shrunk by `crop` per side for the inner-crop strategy.
pub fn extract_target(snapshot: &Tensor3, block: &Block, crop: usize) -> Tensor3 {
    assert!(
        block.h > 2 * crop && block.w > 2 * crop,
        "extract_target: crop {crop} consumes the {}x{} block",
        block.h,
        block.w
    );
    snapshot.window(
        block.i0 + crop,
        block.j0 + crop,
        block.h - 2 * crop,
        block.w - 2 * crop,
    )
}

/// One rank's training set, read in place from the global snapshots:
/// sample `k` of a view starting at snapshot `s` has input channels
/// `[q(t_{s+k−w+1}), …, q(t_{s+k})]` (oldest first, each cut to the rank's
/// input region) and target `q(t_{s+k+1})` — or, for
/// [`PredictionMode::Residual`], `q(t_{s+k+1}) − q(t_{s+k})` — on its
/// target region, all in normalized space. The shard keeps only the
/// geometry, the window, the inverse scales and the mode.
///
/// A filled batch holds, bit for bit, what the copying construction
/// `extract_input → normalize3 → concat_channels` and
/// `extract_target → normalize3 (→ axpy(−1, base))` gives: every value is
/// the same single product `v · (1 / scale)`, out-of-domain margins are the
/// zero pad times that factor, and the residual is the same difference of
/// two such products.
pub struct SubdomainDataset<'a> {
    data: &'a DataSet,
    /// Global index of sample 0's newest input snapshot.
    start: usize,
    count: usize,
    block: Block,
    halo: usize,
    crop: usize,
    /// The part of the input region inside the grid …
    inside: Block,
    /// … and the cells around it that the zero pad supplies.
    margins: Margins,
    window: usize,
    /// `1 / scale` per snapshot channel.
    inv: Vec<f64>,
    prediction: PredictionMode,
}

impl<'a> SubdomainDataset<'a> {
    /// Builds the dataset for `rank` from a view of supervised pairs,
    /// mapping inputs and targets into normalized space with `norm`.
    ///
    /// `arch_halo` is the architecture's one-sided shrink
    /// ([`crate::arch::ArchSpec::halo`]).
    pub fn build(
        view: &DataSetView<'a>,
        part: &GridPartition,
        rank: usize,
        arch_halo: usize,
        strategy: PaddingStrategy,
        norm: &ChannelNorm,
    ) -> Self {
        Self::build_with_mode(
            view,
            part,
            rank,
            arch_halo,
            strategy,
            norm,
            PredictionMode::Absolute,
        )
    }

    /// Like [`SubdomainDataset::build`], with an explicit prediction mode:
    /// for [`PredictionMode::Residual`] the supervised target is the
    /// normalized increment `q(t+1) − q(t)` on the rank's target region.
    pub fn build_with_mode(
        view: &DataSetView<'a>,
        part: &GridPartition,
        rank: usize,
        arch_halo: usize,
        strategy: PaddingStrategy,
        norm: &ChannelNorm,
        prediction: PredictionMode,
    ) -> Self {
        Self::build_windowed(view, part, rank, arch_halo, strategy, norm, prediction, 1)
    }

    /// The one constructor: [`SubdomainDataset::build_with_mode`] with a
    /// *time window* of `window` snapshots per input (1 = the paper's
    /// single-state formulation).
    ///
    /// This is the cheap step toward the temporal connectivity the paper's
    /// §V leaves to future work (recurrent/LSTM layers): the network sees a
    /// short history instead of a single state. The view's first input
    /// needs `window − 1` snapshots of history before it.
    #[allow(clippy::too_many_arguments)]
    pub fn build_windowed(
        view: &DataSetView<'a>,
        part: &GridPartition,
        rank: usize,
        arch_halo: usize,
        strategy: PaddingStrategy,
        norm: &ChannelNorm,
        prediction: PredictionMode,
        window: usize,
    ) -> Self {
        assert!(window >= 1, "SubdomainDataset: window must be >= 1");
        let (data, start) = (view.dataset(), view.start());
        assert!(
            start + 1 >= window,
            "SubdomainDataset: pair {start} lacks {window}-snapshot history"
        );
        let (c, gh, gw) = data.shape();
        assert_eq!(
            norm.channels(),
            c,
            "SubdomainDataset: norm channel count mismatch"
        );
        // The fill writes the zero pad itself.
        assert_eq!(strategy.boundary_pad_mode(), PadMode::Zeros);
        let block = part.block_of_rank(rank);
        let halo = strategy.input_halo(arch_halo);
        let crop = strategy.target_crop(arch_halo);
        assert!(
            block.h > 2 * crop && block.w > 2 * crop,
            "SubdomainDataset: crop {crop} consumes the {}x{} block",
            block.h,
            block.w
        );
        let (inside, margins) = block.extended(halo, gh, gw);
        Self {
            data,
            start,
            count: view.len(),
            block,
            halo,
            crop,
            inside,
            margins,
            window,
            inv: norm.scales().iter().map(|s| 1.0 / s).collect(),
            prediction,
        }
    }

    /// Number of supervised pairs.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when there are no pairs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The rank's interior block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The input halo width in use.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Mini-batch index order for one epoch: a seeded shuffle when
    /// `shuffle` is set, identity otherwise. Deterministic in
    /// `(seed, epoch)`.
    pub fn epoch_order(&self, shuffle: bool, seed: u64, epoch: usize) -> Vec<usize> {
        let mut order = Vec::new();
        self.fill_epoch_order(shuffle, seed, epoch, &mut order);
        order
    }

    /// [`SubdomainDataset::epoch_order`] into a caller-owned buffer: once
    /// `order` has capacity for `len()` indices this never allocates.
    pub fn fill_epoch_order(&self, shuffle: bool, seed: u64, epoch: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        if shuffle {
            let mut rng = StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9));
            order.shuffle(&mut rng);
        }
    }

    /// Lazy mini-batch iterator over `order`: each call to
    /// [`BatchCursor::next_inputs`] or [`BatchCursor::next_into`] fills
    /// caller-owned tensors instead of allocating fresh ones per batch.
    pub fn batch_cursor<'c>(&'c self, order: &'c [usize], batch_size: usize) -> BatchCursor<'c> {
        assert!(batch_size >= 1, "batch_cursor: batch_size must be >= 1");
        BatchCursor {
            ds: self,
            rest: order,
            batch_size,
        }
    }

    /// Cuts the samples named by `idx` out of the snapshots into two
    /// reusable batch tensors, resizing them in place (allocation-free once
    /// grown).
    pub fn fill_batch(&self, idx: &[usize], x: &mut Tensor4, y: &mut Tensor4) {
        self.fill_inputs(idx, x);
        self.fill_targets(idx, y);
    }

    /// The input half of [`SubdomainDataset::fill_batch`].
    fn fill_inputs(&self, idx: &[usize], x: &mut Tensor4) {
        let c = self.inv.len();
        let block = &self.block;
        let (hi, wi) = (block.h + 2 * self.halo, block.w + 2 * self.halo);
        x.resize(idx.len(), self.window * c, hi, wi);
        for (&s, sample) in idx
            .iter()
            .zip(x.as_mut_slice().chunks_exact_mut(self.window * c * hi * wi))
        {
            let now = self.newest_input(s);
            for (t, slot) in sample.chunks_exact_mut(c * hi * wi).enumerate() {
                let snap = self.data.snapshot(now + 1 + t - self.window);
                for (ch, dst) in slot.chunks_exact_mut(hi * wi).enumerate() {
                    self.fill_input_plane(dst, snap.channel(ch), self.inv[ch]);
                }
            }
        }
    }

    /// The target half of [`SubdomainDataset::fill_batch`].
    fn fill_targets(&self, idx: &[usize], y: &mut Tensor4) {
        let (n, c, th, tw) = self.target_shape(idx.len());
        y.resize(n, c, th, tw);
        self.zip_targets(idx, y, |d, t| *d = t);
    }

    /// The shape of a target batch of `n` samples.
    fn target_shape(&self, n: usize) -> (usize, usize, usize, usize) {
        let (h, w) = (self.block.h - 2 * self.crop, self.block.w - 2 * self.crop);
        (n, self.inv.len(), h, w)
    }

    /// The one target body. Pairs every element of `dst` — a target batch
    /// of the samples `idx`, in element order — with its target, cut from
    /// the snapshots, and hands both to `each`: [`fill_batch`] stores the
    /// target, the trainer's fused loss runs the loss over the prediction
    /// it holds there.
    ///
    /// A target is `v · (1 / scale)` of the next snapshot on the target
    /// region, or for [`PredictionMode::Residual`] that product minus the
    /// same product of the current snapshot.
    ///
    /// [`fill_batch`]: SubdomainDataset::fill_batch
    pub(crate) fn zip_targets(
        &self,
        idx: &[usize],
        dst: &mut Tensor4,
        mut each: impl FnMut(&mut f64, f64),
    ) {
        let (n, c, th, tw) = self.target_shape(idx.len());
        assert_eq!(
            dst.shape(),
            (n, c, th, tw),
            "zip_targets: the batch is not target-shaped"
        );
        let (i0, j0) = (self.block.i0 + self.crop, self.block.j0 + self.crop);
        let (_, _, gw) = self.data.shape();
        for (&s, sample) in idx
            .iter()
            .zip(dst.as_mut_slice().chunks_exact_mut(c * th * tw))
        {
            let (base, next) = self.data.pair(self.newest_input(s));
            for (ch, plane) in sample.chunks_exact_mut(th * tw).enumerate() {
                let inv = self.inv[ch];
                let (base, next) = (base.channel(ch), next.channel(ch));
                for (r, row) in plane.chunks_exact_mut(tw).enumerate() {
                    let at = (i0 + r) * gw + j0;
                    let next = &next[at..at + tw];
                    match self.prediction {
                        PredictionMode::Absolute => {
                            for (d, &v) in row.iter_mut().zip(next) {
                                each(d, v * inv);
                            }
                        }
                        // `axpy(−1, base)` on two normalized rows: the same
                        // two products, subtracted.
                        PredictionMode::Residual => {
                            let base = &base[at..at + tw];
                            for ((d, &v), &u) in row.iter_mut().zip(next).zip(base) {
                                each(d, v * inv - u * inv);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Global index of sample `s`'s newest input snapshot.
    fn newest_input(&self, s: usize) -> usize {
        assert!(
            s < self.count,
            "fill_batch: sample index {s} out of range (n={})",
            self.count
        );
        self.start + s
    }

    /// One channel of one input: the rows of the input region that lie in
    /// the grid, scaled, framed by the zero pad.
    fn fill_input_plane(&self, dst: &mut [f64], src: &[f64], inv: f64) {
        let (inside, m) = (&self.inside, &self.margins);
        let (_, _, gw) = self.data.shape();
        let width = m.left + inside.w + m.right;
        // The zero pad, normalized like every other value.
        let zero = 0.0 * inv;
        let (top, rest) = dst.split_at_mut(m.top * width);
        let (rows, bottom) = rest.split_at_mut(inside.h * width);
        top.fill(zero);
        bottom.fill(zero);
        for (r, row) in rows.chunks_exact_mut(width).enumerate() {
            let at = (inside.i0 + r) * gw + inside.j0;
            let (left, rest) = row.split_at_mut(m.left);
            let (body, right) = rest.split_at_mut(inside.w);
            left.fill(zero);
            right.fill(zero);
            scale_row(body, &src[at..at + inside.w], inv);
        }
    }
}

/// `dst[j] = src[j] · inv`: the product `normalize3` forms.
fn scale_row(dst: &mut [f64], src: &[f64], inv: f64) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v * inv;
    }
}

/// Walks an epoch's index order in mini-batch chunks, filling reusable
/// tensors. Created by [`SubdomainDataset::batch_cursor`].
pub struct BatchCursor<'a> {
    ds: &'a SubdomainDataset<'a>,
    rest: &'a [usize],
    batch_size: usize,
}

impl<'a> BatchCursor<'a> {
    /// Fills `x` with the inputs of the next mini-batch and returns its
    /// sample indices; `None` when exhausted. The final batch may be
    /// smaller than `batch_size` (the tensor is resized to match, which
    /// shrinks within retained capacity).
    pub fn next_inputs(&mut self, x: &mut Tensor4) -> Option<&'a [usize]> {
        if self.rest.is_empty() {
            return None;
        }
        let take = self.batch_size.min(self.rest.len());
        let (idx, rest) = self.rest.split_at(take);
        self.rest = rest;
        self.ds.fill_inputs(idx, x);
        Some(idx)
    }

    /// Fills `x`/`y` with the next mini-batch's inputs and targets; `false`
    /// when exhausted.
    pub fn next_into(&mut self, x: &mut Tensor4, y: &mut Tensor4) -> bool {
        let Some(idx) = self.next_inputs(x) else {
            return false;
        };
        self.ds.fill_targets(idx, y);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_euler::dataset::paper_dataset;

    fn setup() -> (pde_euler::DataSet, GridPartition) {
        (paper_dataset(16, 8), GridPartition::new(16, 16, 2, 2))
    }

    #[test]
    fn extract_input_interior_rank_has_real_halo() {
        let (ds, part) = setup();
        // 4×4 partition of a 16×16 grid: rank 5 (pos 1,1) is interior.
        let part16 = GridPartition::new(16, 16, 4, 4);
        let block = part16.block_of_rank(5);
        let x = extract_input(ds.snapshot(0), &block, 2, PadMode::Zeros);
        assert_eq!(x.shape(), (4, 8, 8));
        // Matches a direct window of the global snapshot.
        let direct = ds.snapshot(0).window(block.i0 - 2, block.j0 - 2, 8, 8);
        assert_eq!(x, direct);
        let _ = part;
    }

    #[test]
    fn extract_input_corner_rank_pads_with_zeros() {
        let (ds, part) = setup();
        let block = part.block_of_rank(0); // top-left corner (i0=j0=0)
        let x = extract_input(ds.snapshot(0), &block, 2, PadMode::Zeros);
        assert_eq!(x.shape(), (4, 12, 12));
        // The first two rows/cols are synthesized zeros.
        for c in 0..4 {
            for k in 0..12 {
                assert_eq!(x[(c, 0, k)], 0.0);
                assert_eq!(x[(c, k, 1)], 0.0);
            }
        }
        // Interior cell matches the global snapshot.
        assert_eq!(x[(0, 2, 2)], ds.snapshot(0)[(0, 0, 0)]);
    }

    #[test]
    fn extract_target_inner_crop() {
        let (ds, part) = setup();
        let block = part.block_of_rank(3);
        let y = extract_target(ds.snapshot(1), &block, 2);
        assert_eq!(y.shape(), (4, 4, 4));
        assert_eq!(
            y[(0, 0, 0)],
            ds.snapshot(1)[(0, block.i0 + 2, block.j0 + 2)]
        );
    }

    /// Every sample of `sd` in `order`, one `next_into` batch at a time.
    fn batches_of(
        sd: &SubdomainDataset<'_>,
        order: &[usize],
        bs: usize,
    ) -> Vec<(Tensor4, Tensor4)> {
        let mut cursor = sd.batch_cursor(order, bs);
        let (mut x, mut y) = (Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0));
        let mut out = Vec::new();
        while cursor.next_into(&mut x, &mut y) {
            out.push((x.clone(), y.clone()));
        }
        out
    }

    /// The copying construction the shard replaced: sample `k` of `view`
    /// cut with `extract_input`/`extract_target`, normalized with
    /// `normalize3`, the window concatenated and the residual taken with
    /// `axpy(−1, ·)`.
    #[allow(clippy::too_many_arguments)]
    fn copied_sample(
        view: &DataSetView<'_>,
        k: usize,
        block: &Block,
        halo: usize,
        crop: usize,
        norm: &ChannelNorm,
        prediction: PredictionMode,
        window: usize,
    ) -> (Tensor3, Tensor3) {
        let data = view.dataset();
        let now = view.global_index(k);
        let history: Vec<Tensor3> = (now + 1 - window..=now)
            .map(|s| {
                norm.normalize3(&extract_input(
                    data.snapshot(s),
                    block,
                    halo,
                    PadMode::Zeros,
                ))
            })
            .collect();
        let input = Tensor3::concat_channels(&history.iter().collect::<Vec<_>>());
        let mut target = norm.normalize3(&extract_target(data.snapshot(now + 1), block, crop));
        if prediction == PredictionMode::Residual {
            let base = norm.normalize3(&extract_target(data.snapshot(now), block, crop));
            target.axpy(-1.0, &base);
        }
        (input, target)
    }

    fn bits(t: &Tensor4) -> Vec<u64> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn views_equal_the_copying_construction_bit_for_bit() {
        // An uneven 40×36 grid in a 3×3 partition: 14/13/13 rows by 12
        // columns, so corner, edge and interior ranks all differ in shape.
        let cfg = pde_euler::SolverConfig::paper(40, 36);
        let data = pde_euler::dataset::SnapshotRecorder::new(
            cfg,
            pde_euler::Boundary::Outflow,
            &pde_euler::InitialCondition::paper_pulse(),
            1,
        )
        .record(10);
        let (_, gh, gw) = data.shape();
        let part = GridPartition::new(gh, gw, 3, 3);
        // Starts at pair 1 so window 2 has its history; 8 samples in
        // batches of 3 end on a ragged batch of 2.
        let view = data.view(1, 8);
        let norm = ChannelNorm::fit(&view);
        let arch_halo = 2;
        for strategy in PaddingStrategy::ALL {
            for window in [1, 2] {
                for prediction in [PredictionMode::Absolute, PredictionMode::Residual] {
                    for rank in 0..part.rank_count() {
                        let how =
                            format!("{strategy:?}, window {window}, {prediction:?}, rank {rank}");
                        let sd = SubdomainDataset::build_windowed(
                            &view, &part, rank, arch_halo, strategy, &norm, prediction, window,
                        );
                        let block = part.block_of_rank(rank);
                        let (halo, crop) = (
                            strategy.input_halo(arch_halo),
                            strategy.target_crop(arch_halo),
                        );
                        let order = sd.epoch_order(true, 7, 1);
                        let batches = batches_of(&sd, &order, 3);
                        assert_eq!(batches.len(), 3, "{how}");
                        for ((x, y), idx) in batches.iter().zip(order.chunks(3)) {
                            let (inputs, targets): (Vec<_>, Vec<_>) = idx
                                .iter()
                                .map(|&k| {
                                    copied_sample(
                                        &view, k, &block, halo, crop, &norm, prediction, window,
                                    )
                                })
                                .unzip();
                            let (want_x, want_y) =
                                (Tensor4::stack(&inputs), Tensor4::stack(&targets));
                            assert_eq!(x.shape(), want_x.shape(), "{how}");
                            assert_eq!(y.shape(), want_y.shape(), "{how}");
                            assert!(bits(x) == bits(&want_x), "inputs differ: {how}");
                            assert!(bits(y) == bits(&want_y), "targets differ: {how}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn building_a_shard_costs_the_same_allocations_at_any_pair_count() {
        let data = paper_dataset(16, 65);
        let part = GridPartition::new(16, 16, 2, 2);
        let norm = ChannelNorm::fit(&data.view(0, 64));
        let allocs = |count: usize| {
            let view = data.view(0, count);
            let before = pde_tensor::perf::snapshot().allocs;
            let sd = SubdomainDataset::build_with_mode(
                &view,
                &part,
                0,
                2,
                PaddingStrategy::NeighborPad,
                &norm,
                PredictionMode::Residual,
            );
            let spent = pde_tensor::perf::snapshot().allocs - before;
            assert_eq!(sd.len(), count);
            spent
        };
        assert_eq!(allocs(4), allocs(64));
    }

    #[test]
    fn dataset_shapes_per_strategy() {
        let (ds, part) = setup();
        let (train, _) = ds.chronological_split(5);
        let arch_halo = 2;
        for (strategy, in_hw, tgt_hw) in [
            (PaddingStrategy::ZeroPad, 8, 8),
            (PaddingStrategy::NeighborPad, 12, 8),
            (PaddingStrategy::InnerCrop, 8, 4),
        ] {
            let sd = SubdomainDataset::build(
                &train,
                &part,
                1,
                arch_halo,
                strategy,
                &ChannelNorm::identity(4),
            );
            assert_eq!(sd.len(), 5);
            let all = batches_of(&sd, &sd.epoch_order(false, 0, 0), 5);
            assert_eq!(all[0].0.shape(), (5, 4, in_hw, in_hw), "{strategy:?}");
            assert_eq!(all[0].1.shape(), (5, 4, tgt_hw, tgt_hw), "{strategy:?}");
        }
    }

    #[test]
    fn neighbor_pad_input_overlaps_neighbor_interior() {
        let (ds, part) = setup();
        let (train, _) = ds.chronological_split(5);
        let sd0 = SubdomainDataset::build(
            &train,
            &part,
            0,
            2,
            PaddingStrategy::NeighborPad,
            &ChannelNorm::identity(4),
        );
        // Rank 0's input right halo equals rank 1's interior left columns.
        let b1 = part.block_of_rank(1);
        let (mut x, mut y) = (Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0));
        sd0.fill_batch(&[0], &mut x, &mut y);
        let x0 = x.sample_tensor(0);
        let snap = ds.snapshot(0);
        // x0 spans rows -2..10, cols -2..10 (clamped+padded to 12×12 with
        // interior offset (2,2)); its columns 10..12 are global cols 8..10.
        for c in 0..4 {
            for i in 0..8 {
                assert_eq!(x0[(c, i + 2, 10)], snap[(c, i, b1.j0)]);
                assert_eq!(x0[(c, i + 2, 11)], snap[(c, i, b1.j0 + 1)]);
            }
        }
    }

    #[test]
    fn epoch_order_deterministic_and_permuting() {
        let (ds, part) = setup();
        let (train, _) = ds.chronological_split(6);
        let sd = SubdomainDataset::build(
            &train,
            &part,
            0,
            2,
            PaddingStrategy::ZeroPad,
            &ChannelNorm::identity(4),
        );
        let o1 = sd.epoch_order(true, 9, 3);
        let o2 = sd.epoch_order(true, 9, 3);
        assert_eq!(o1, o2);
        let o3 = sd.epoch_order(true, 9, 4);
        assert_ne!(o1, o3, "different epochs should shuffle differently");
        let mut sorted = o1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_eq!(sd.epoch_order(false, 9, 3), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn batches_cover_all_samples() {
        let ds = paper_dataset(16, 9); // 8 pairs
        let part = GridPartition::new(16, 16, 2, 2);
        let (train, _) = ds.chronological_split(7);
        let sd = SubdomainDataset::build(
            &train,
            &part,
            2,
            2,
            PaddingStrategy::ZeroPad,
            &ChannelNorm::identity(4),
        );
        let order = sd.epoch_order(false, 0, 0);
        let batches = batches_of(&sd, &order, 3);
        assert_eq!(batches.len(), 3); // 3 + 3 + 1
        assert_eq!(batches[0].0.n(), 3);
        assert_eq!(batches[2].0.n(), 1);
        let total: usize = batches.iter().map(|(x, _)| x.n()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn batch_cursor_matches_eager_batches() {
        let ds = paper_dataset(16, 9); // 8 pairs
        let part = GridPartition::new(16, 16, 2, 2);
        let (train, _) = ds.chronological_split(7);
        let norm = ChannelNorm::fit(&train);
        let sd = SubdomainDataset::build(&train, &part, 2, 2, PaddingStrategy::ZeroPad, &norm);
        let order = sd.epoch_order(true, 11, 2);
        // The eager batches: each sample copied out on its own, then stacked.
        let block = part.block_of_rank(2);
        let eager: Vec<(Tensor4, Tensor4)> = order
            .chunks(3)
            .map(|idx| {
                let (xs, ys): (Vec<_>, Vec<_>) = idx
                    .iter()
                    .map(|&k| {
                        copied_sample(&train, k, &block, 0, 0, &norm, PredictionMode::Absolute, 1)
                    })
                    .unzip();
                (Tensor4::stack(&xs), Tensor4::stack(&ys))
            })
            .collect();
        let mut cursor = sd.batch_cursor(&order, 3);
        let mut x = Tensor4::zeros(0, 0, 0, 0);
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        let mut k = 0;
        while cursor.next_into(&mut x, &mut y) {
            assert_eq!(x.as_slice(), eager[k].0.as_slice());
            assert_eq!(y.as_slice(), eager[k].1.as_slice());
            assert_eq!(x.shape(), eager[k].0.shape());
            k += 1;
        }
        assert_eq!(k, eager.len());
    }

    #[test]
    fn fill_epoch_order_matches_epoch_order() {
        let (ds, part) = setup();
        let (train, _) = ds.chronological_split(6);
        let sd = SubdomainDataset::build(
            &train,
            &part,
            0,
            2,
            PaddingStrategy::ZeroPad,
            &ChannelNorm::identity(4),
        );
        let mut order = Vec::new();
        sd.fill_epoch_order(true, 9, 3, &mut order);
        assert_eq!(order, sd.epoch_order(true, 9, 3));
        sd.fill_epoch_order(false, 9, 3, &mut order);
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }
}
