//! Packing a batch of sequences into one tall activation matrix.
//!
//! Tensor-level batching stacks `B` sequences (padded to the longest
//! length `S`) into a single `(B·S) × hidden` matrix so every projection
//! and FFN GEMM in an encoder layer runs **once per batch** instead of
//! once per sequence. Three facts make the packed forward pass
//! bit-identical to solo execution:
//!
//! 1. every GEMM kernel computes output row `i` from input row `i` alone
//!    (`mokey_tensor` pins this), and every non-GEMM operator
//!    (layer norm, GELU, softmax, bias) is row-wise;
//! 2. attention is isolated per sequence: scores are computed on each
//!    sequence's row block, padded **key** positions are driven to `−∞`
//!    before `softmax_rows` (masked probabilities come out exactly
//!    `0.0`, and the GEMM kernels skip zero coefficients, so padded
//!    value rows contribute nothing);
//! 3. executor hooks receive a [`PackedLayout`] mapping each matrix
//!    region to its request, so quantized activation encoding touches
//!    exactly the elements a solo run would touch — padded rows are
//!    passed through raw and per-request counters stay exact.
//!
//! Padded *query* rows do flow through the arithmetic (they attend over
//! real keys and produce well-defined garbage), but nothing reads them:
//! they are skipped at unpack, never encoded, and never feed a real row.
//!
//! The same plan describes a decode step ([`PackedBatch::decode_step`]):
//! one query row per request whose keys and values are its cached
//! history plus itself, so a solo forward (a pack of one), a packed
//! batch, and a decode step all run one encoder-layer implementation.

use mokey_tensor::{dot_wide, Matrix};

/// Shape bookkeeping for one packed batch: per-request query lengths,
/// per-request attention history, and the common padded length.
///
/// Request `i` owns query rows `[i·S, i·S + len_i)` of a packed
/// `(B·S) × _` activation matrix (`S` = longest query length) and
/// attends over `past_i + len_i` key/value rows, laid out at
/// `[o_i, o_i + past_i + len_i)` of a `(Σ past + B·S) × hidden` K/V
/// matrix, where each request's block of `past_i + S` rows follows the
/// previous one (`o_i` = [`PackedBatch::kv_row_of`]). An encoder pass
/// has no history, so `o_i = i·S` and the keys are the pack's own rows;
/// a decode step ([`PackedBatch::decode_step`]) is one query row per
/// request over its cached positions plus itself, so its K/V blocks are
/// exactly as long as each history and carry no padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBatch {
    lens: Vec<usize>,
    past: Vec<usize>,
    seq: usize,
    width: usize,
    /// First K/V row of each request, plus the total as a last entry.
    kv_starts: Vec<usize>,
}

impl PackedBatch {
    /// Plans the packing of `batch` (padded to the longest sequence).
    /// A lone empty sequence is a zero-row pack.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, or if a batch of two or more
    /// contains an empty sequence (its padding query rows would attend
    /// over no keys).
    pub fn new<T: AsRef<[usize]>>(batch: &[T]) -> Self {
        Self::with_history(batch.iter().map(|t| t.as_ref().len()).collect(), vec![0; batch.len()])
    }

    /// Plans one decode step: request `i` is a single new row attending
    /// over its `history[i]` cached positions plus itself.
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty.
    pub fn decode_step(history: &[usize]) -> Self {
        Self::with_history(vec![1; history.len()], history.to_vec())
    }

    /// Query lengths `lens` over `past` positions of attention history.
    pub(crate) fn with_history(lens: Vec<usize>, past: Vec<usize>) -> Self {
        assert!(!lens.is_empty(), "cannot pack an empty batch");
        assert!(lens.len() == 1 || lens.iter().all(|&l| l > 0), "cannot pack an empty sequence");
        let seq = lens.iter().copied().max().unwrap_or(0);
        let width = lens.iter().zip(&past).map(|(l, p)| l + p).max().unwrap_or(0);
        let kv_starts = std::iter::once(0)
            .chain(past.iter().scan(0, |end, p| {
                *end += p + seq;
                Some(*end)
            }))
            .collect();
        Self { lens, past, seq, width, kv_starts }
    }

    /// Number of requests in the pack.
    pub fn requests(&self) -> usize {
        self.lens.len()
    }

    /// The padded per-sequence length (longest request).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// True token length of request `i`.
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Row offset of request `i` inside a packed `(B·S) × _` matrix.
    pub fn row_of(&self, i: usize) -> usize {
        i * self.seq
    }

    /// Cached positions request `i` attends over before its own rows
    /// (its first token's position).
    pub fn past_of(&self, i: usize) -> usize {
        self.past[i]
    }

    /// Columns of the attention-probability matrix: the longest
    /// `past + len`.
    pub fn kv_width(&self) -> usize {
        self.width
    }

    /// First row of request `i`'s block in a packed K/V matrix.
    pub fn kv_row_of(&self, i: usize) -> usize {
        self.kv_starts[i]
    }

    /// Total rows of a packed K/V matrix (`Σ past + B·S`).
    pub fn kv_rows(&self) -> usize {
        self.kv_starts[self.lens.len()]
    }

    /// Total rows of a packed activation matrix (`B · S`).
    pub fn total_rows(&self) -> usize {
        self.lens.len() * self.seq
    }

    /// Rows carrying real tokens (`Σ lens`).
    pub fn valid_rows(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Padding rows (`total − valid`) — the waste the serving metrics
    /// report.
    pub fn pad_rows(&self) -> usize {
        self.total_rows() - self.valid_rows()
    }

    /// `true` when every request has the padded length (no waste).
    pub fn is_uniform(&self) -> bool {
        self.lens.iter().all(|&l| l == self.seq)
    }

    /// Layout of a standard packed activation matrix (`(B·S) × width`):
    /// request `i` owns the valid prefix of its row block, full width.
    pub fn rows_layout(&self) -> PackedLayout {
        PackedLayout {
            regions: self
                .lens
                .iter()
                .enumerate()
                .map(|(i, &len)| Region { row_blocks: vec![(i * self.seq, len)], cols: None })
                .collect(),
        }
    }

    /// Layout of the packed attention-probability matrix
    /// (`(B·heads·S) × W`, request-major then head-major): request `i`
    /// owns `heads` blocks of its true length, and only its first
    /// `past + len` columns are real probabilities (the rest are masked
    /// zeros, which must stay exactly `0.0`).
    pub fn probs_layout(&self, heads: usize) -> PackedLayout {
        PackedLayout {
            regions: (0..self.lens.len())
                .map(|i| Region {
                    row_blocks: (0..heads)
                        .map(|hd| ((i * heads + hd) * self.seq, self.lens[i]))
                        .collect(),
                    cols: Some(self.kv_len(i)),
                })
                .collect(),
        }
    }

    fn kv_len(&self, i: usize) -> usize {
        self.past[i] + self.lens[i]
    }

    /// Layout of a per-request-row matrix (`B × width`), e.g. the gathered
    /// CLS rows feeding the classification head.
    pub fn cls_layout(&self) -> PackedLayout {
        PackedLayout {
            regions: (0..self.lens.len())
                .map(|i| Region { row_blocks: vec![(i, 1)], cols: None })
                .collect(),
        }
    }
}

/// Maps the regions of one packed matrix to the requests that own them,
/// so executor hooks can attribute work per request and skip padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayout {
    /// One region per request, in batch order.
    pub regions: Vec<Region>,
}

impl PackedLayout {
    /// One request owning every row and column of a `rows × _` matrix.
    pub fn whole(rows: usize) -> Self {
        Self { regions: vec![Region { row_blocks: vec![(0, rows)], cols: None }] }
    }
}

/// The part of a packed matrix owned by one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// `(start_row, row_count)` blocks — already trimmed to valid rows.
    pub row_blocks: Vec<(usize, usize)>,
    /// Valid column prefix, or `None` for the full width.
    pub cols: Option<usize>,
}

/// Fused block-diagonal `Q·K^T` over a packed batch: one region-strided
/// pass producing the scaled, padding-masked score matrix
/// (`(B·heads·S) × W`, request-major then head-major) from the packed
/// `(B·S) × hidden` queries and the packed keys (see
/// [`PackedBatch`] for the row layout).
///
/// Each element is `dot_wide(q_slice, k_slice) * scale` on the exact head
/// slices a per-sequence `slice_block` + `matmul_transposed` + `scale`
/// would feed it — [`dot_wide`] is a pure function of its operand slices,
/// so the fused pass is bit-identical to the per-sequence path while
/// skipping every intermediate copy. Key columns beyond a request's
/// `past + len` are written as `−∞` so the caller's softmax turns them
/// into exact `0.0`; padded *query* rows are still computed
/// (deterministic garbage nothing reads back), matching the per-sequence
/// path.
pub fn fused_attention_scores(
    q: &Matrix,
    k: &Matrix,
    pack: &PackedBatch,
    heads: usize,
    dh: usize,
    scale: f32,
) -> Matrix {
    let (s, w) = (pack.seq(), pack.kv_width());
    let mut scores = Matrix::zeros(pack.requests() * heads * s, w);
    for bi in 0..pack.requests() {
        let kv_len = pack.kv_len(bi);
        let (q_base, kv_base) = (pack.row_of(bi), pack.kv_row_of(bi));
        for hd in 0..heads {
            let c0 = hd * dh;
            let probs_base = (bi * heads + hd) * s;
            for r in 0..s {
                let q_slice = &q.row(q_base + r)[c0..c0 + dh];
                let out_row = scores.row_mut(probs_base + r);
                for (c, o) in out_row[..kv_len].iter_mut().enumerate() {
                    *o = dot_wide(q_slice, &k.row(kv_base + c)[c0..c0 + dh]) * scale;
                }
                for o in &mut out_row[kv_len..] {
                    *o = f32::NEG_INFINITY;
                }
            }
        }
    }
    scores
}

/// Fused block-diagonal `P·V` over a packed batch: one region-strided
/// pass accumulating every head's context slice straight into the packed
/// `(B·S) × hidden` output, from the post-softmax probability matrix laid
/// out by [`PackedBatch::probs_layout`] and the packed values.
///
/// Per output element the accumulation is ascending over the key
/// positions with exactly one addition per non-zero probability — the
/// same per-element reduction as the per-sequence `matmul` against a
/// `slice_block` copy of `V`, so outputs are bit-identical. Masked
/// probabilities are exactly `0.0` and are skipped, so padded value rows
/// contribute nothing, exactly as the zero-skipping GEMM kernels behave.
pub fn fused_attention_context(
    probs: &Matrix,
    v: &Matrix,
    pack: &PackedBatch,
    heads: usize,
    dh: usize,
    hidden: usize,
) -> Matrix {
    let s = pack.seq();
    let mut context = Matrix::zeros(pack.total_rows(), hidden);
    for bi in 0..pack.requests() {
        let (q_base, kv_base) = (pack.row_of(bi), pack.kv_row_of(bi));
        for hd in 0..heads {
            let c0 = hd * dh;
            let probs_base = (bi * heads + hd) * s;
            for r in 0..s {
                let out = &mut context.row_mut(q_base + r)[c0..c0 + dh];
                for (kk, &pv) in probs.row(probs_base + r).iter().enumerate() {
                    if pv == 0.0 {
                        continue;
                    }
                    let v_slice = &v.row(kv_base + kk)[c0..c0 + dh];
                    for (o, &vv) in out.iter_mut().zip(v_slice) {
                        *o += pv * vv;
                    }
                }
            }
        }
    }
    context
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_shape_accounting() {
        let pack = PackedBatch::new(&[vec![0usize; 5], vec![0; 3], vec![0; 5]]);
        assert_eq!(pack.requests(), 3);
        assert_eq!(pack.seq(), 5);
        assert_eq!(pack.total_rows(), 15);
        assert_eq!(pack.valid_rows(), 13);
        assert_eq!(pack.pad_rows(), 2);
        assert!(!pack.is_uniform());
        assert_eq!(pack.row_of(2), 10);
        assert!(PackedBatch::new(&[vec![0usize; 4], vec![0; 4]]).is_uniform());
    }

    #[test]
    fn rows_layout_covers_valid_prefixes() {
        let pack = PackedBatch::new(&[vec![0usize; 4], vec![0; 2]]);
        let layout = pack.rows_layout();
        assert_eq!(layout.regions.len(), 2);
        assert_eq!(layout.regions[0].row_blocks, vec![(0, 4)]);
        assert_eq!(layout.regions[1].row_blocks, vec![(4, 2)]);
        assert_eq!(layout.regions[1].cols, None);
    }

    #[test]
    fn probs_layout_is_per_head_and_column_trimmed() {
        let pack = PackedBatch::new(&[vec![0usize; 4], vec![0; 2]]);
        let layout = pack.probs_layout(2);
        // Request 1 (len 2): head blocks start after request 0's 2 heads
        // of 4 padded rows each.
        assert_eq!(layout.regions[1].row_blocks, vec![(8, 2), (12, 2)]);
        assert_eq!(layout.regions[1].cols, Some(2));
        assert_eq!(layout.regions[0].cols, Some(4));
    }

    #[test]
    fn decode_step_is_one_query_row_over_its_history() {
        let pack = PackedBatch::decode_step(&[5, 2]);
        assert_eq!((pack.seq(), pack.total_rows(), pack.kv_width()), (1, 2, 6));
        assert_eq!(pack.past_of(1), 2);
        // K/V blocks are exactly each history plus the new row.
        assert_eq!((pack.kv_row_of(0), pack.kv_row_of(1), pack.kv_rows()), (0, 6, 9));
        let probs = pack.probs_layout(2);
        assert_eq!(probs.regions[1].row_blocks, vec![(2, 1), (3, 1)]);
        assert_eq!(probs.regions[1].cols, Some(3));
        // A lone empty sequence is a zero-row pack with no history.
        let empty = PackedBatch::new(&[Vec::<usize>::new()]);
        assert_eq!((empty.total_rows(), empty.kv_width()), (0, 0));
        // An encoder pack's keys are its own padded rows.
        let enc = PackedBatch::new(&[vec![0usize; 4], vec![0; 2]]);
        assert_eq!((enc.kv_row_of(1), enc.kv_rows()), (4, enc.total_rows()));
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let _ = PackedBatch::new(&[vec![0usize; 3], vec![]]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = PackedBatch::new(&Vec::<Vec<usize>>::new());
    }
}
