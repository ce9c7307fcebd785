//! The compute path of the trainable layers: blocked, cache-tiled, parallel
//! f32 matrix kernels plus the `im2col`/`col2im` packing that turns
//! convolutions into matrix multiplications.
//!
//! [`crate::Conv2d`], [`crate::Dense`] and [`crate::LocallyConnected2d`] run
//! forward and backward as GEMMs built on the kernels here; this is the only
//! way they compute.  The scalar loop nests the crate started from live on as
//! a test-only oracle in `nn::reference`.
//!
//! ## Determinism
//!
//! All parallel kernels are **deterministic across thread counts**: work is
//! split into fixed-size row blocks (never sized from the thread count), each
//! output element is produced by exactly one block, and the reduction over the
//! shared dimension runs sequentially in a fixed order inside that block.
//! Changing `RAYON_NUM_THREADS` changes only which OS thread computes a block,
//! never the floating-point operation order, so training runs are bit-identical
//! under any pool size.
//!
//! ## Cache blocking
//!
//! [`matmul`] uses the saxpy (outer-product-ish) loop order `i → p → j`: for a
//! block of `MC` output rows it streams `KC`-row tiles of `B`, so the `B` tile
//! stays resident while `MC` rows reuse it.  [`matmul_nt`] (the `A·Bᵀ` form
//! used by backward passes) tiles the rows of `B` in `NC`-row groups and
//! computes unrolled 8-lane dot products of contiguous rows.

/// Output rows per parallel block (fixed: thread-count independence).
const MC: usize = 64;
/// Shared-dimension tile: `KC` rows of `B` are streamed per block pass.
const KC: usize = 256;
/// Row tile of `B` in the `A·Bᵀ` kernel.
const NC: usize = 64;

fn check_dims(label: &str, rows: usize, cols: usize, len: usize) {
    assert!(
        rows * cols <= len,
        "{label}: {rows}x{cols} exceeds buffer of {len}"
    );
}

/// `C[m×n] = A[m×k] · B[k×n]`, all row-major, parallel over row blocks.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    matmul_impl(m, k, n, a, b, c, false);
}

/// `C[m×n] += A[m×k] · B[k×n]` (accumulating into `c`), parallel.
pub fn matmul_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    matmul_impl(m, k, n, a, b, c, true);
}

fn matmul_impl(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    check_dims("matmul A", m, k, a.len());
    check_dims("matmul B", k, n, b.len());
    check_dims("matmul C", m, n, c.len());
    if m == 0 || n == 0 {
        return;
    }
    use rayon::prelude::*;
    c[..m * n]
        .par_chunks_mut(MC * n)
        .enumerate()
        .for_each(|(blk, cc)| {
            let row0 = blk * MC;
            matmul_block_seq(row0, cc.len() / n, k, n, a, b, cc, acc);
        });
}

/// Sequential inner kernel: rows `row0 .. row0 + rows` of `C = A·B`.
#[allow(clippy::too_many_arguments)]
fn matmul_block_seq(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    cc: &mut [f32],
    acc: bool,
) {
    if !acc {
        cc.fill(0.0);
    }
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        for r in 0..rows {
            let a_row = &a[(row0 + r) * k..(row0 + r) * k + k];
            let c_row = &mut cc[r * n..(r + 1) * n];
            for (p, &av) in a_row.iter().enumerate().take(k1).skip(k0) {
                if av != 0.0 {
                    let b_row = &b[p * n..p * n + n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += av * bv;
                    }
                }
            }
        }
        k0 = k1;
    }
}

/// Sequential `C[m×n] = A[m×k] · B[k×n]`, for use *inside* parallel regions.
pub fn matmul_seq(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("matmul_seq A", m, k, a.len());
    check_dims("matmul_seq B", k, n, b.len());
    check_dims("matmul_seq C", m, n, c.len());
    matmul_block_seq(0, m, k, n, a, b, &mut c[..m * n], false);
}

/// Sequential `C[k×n] += Aᵀ · B` where `A` is `[m×k]` and `B` is `[m×n]`.
///
/// This is the weight-gradient form `dW += Xᵀ·dY` for small per-position
/// matrices (locally-connected layers); large instances should transpose once
/// and use [`matmul_acc`] instead.
pub fn matmul_tn_acc_seq(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("matmul_tn A", m, k, a.len());
    check_dims("matmul_tn B", m, n, b.len());
    check_dims("matmul_tn C", k, n, c.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av != 0.0 {
                let c_row = &mut c[p * n..(p + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Unrolled 8-lane dot product with a fixed, thread-independent summation tree.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let ab = &a[i * 8..i * 8 + 8];
        let bb = &b[i * 8..i * 8 + 8];
        for l in 0..8 {
            lanes[l] += ab[l] * bb[l];
        }
    }
    let mut s = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for i in chunks * 8..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// `C[m×r] = A[m×n] · B[r×n]ᵀ`, parallel: `c[i][j] = dot(a_row_i, b_row_j)`.
///
/// This is the input-gradient form `dX = dY·Wᵀ` without materialising a
/// transposed copy of `B` — both operand rows are contiguous.
pub fn matmul_nt(m: usize, n: usize, r: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("matmul_nt A", m, n, a.len());
    check_dims("matmul_nt B", r, n, b.len());
    check_dims("matmul_nt C", m, r, c.len());
    if m == 0 || r == 0 {
        return;
    }
    use rayon::prelude::*;
    c[..m * r]
        .par_chunks_mut(MC * r)
        .enumerate()
        .for_each(|(blk, cc)| {
            let row0 = blk * MC;
            let rows = cc.len() / r;
            let mut j0 = 0;
            while j0 < r {
                let j1 = (j0 + NC).min(r);
                for row in 0..rows {
                    let a_row = &a[(row0 + row) * n..(row0 + row) * n + n];
                    let c_row = &mut cc[row * r..(row + 1) * r];
                    for (j, cv) in c_row.iter_mut().enumerate().take(j1).skip(j0) {
                        *cv = dot(a_row, &b[j * n..j * n + n]);
                    }
                }
                j0 = j1;
            }
        });
}

/// Sequential `C[m×r] = A[m×n] · B[r×n]ᵀ`, for use inside parallel regions.
pub fn matmul_nt_seq(m: usize, n: usize, r: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("matmul_nt_seq A", m, n, a.len());
    check_dims("matmul_nt_seq B", r, n, b.len());
    check_dims("matmul_nt_seq C", m, r, c.len());
    for i in 0..m {
        let a_row = &a[i * n..(i + 1) * n];
        let c_row = &mut c[i * r..(i + 1) * r];
        for (j, cv) in c_row.iter_mut().enumerate() {
            *cv = dot(a_row, &b[j * n..j * n + n]);
        }
    }
}

/// Blocked transpose: `dst[c][r] = src[r][c]` for a `rows × cols` matrix.
///
/// `dst` is resized to `rows * cols` (every element is overwritten, so a
/// same-size buffer is reused without re-zeroing); 32×32 tiles keep both
/// access patterns within cache lines.
pub fn transpose(rows: usize, cols: usize, src: &[f32], dst: &mut Vec<f32>) {
    const TB: usize = 32;
    check_dims("transpose src", rows, cols, src.len());
    if dst.len() != rows * cols {
        dst.resize(rows * cols, 0.0);
    }
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TB).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// Adds `bias` (length `n`) to every one of the `rows` rows of `c`, in parallel.
pub fn add_bias_rows(rows: usize, n: usize, bias: &[f32], c: &mut [f32]) {
    assert_eq!(bias.len(), n, "bias length mismatch");
    check_dims("add_bias_rows C", rows, n, c.len());
    use rayon::prelude::*;
    c[..rows * n].par_chunks_mut(MC * n).for_each(|cc| {
        for row in cc.chunks_mut(n) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv += bv;
            }
        }
    });
}

/// Accumulates column sums of the `rows × n` matrix `src` into `acc`
/// (`acc[j] += Σ_i src[i][j]`), sequentially (it is cheap and the
/// accumulation order must not depend on the thread count).
pub fn col_sums_acc(rows: usize, n: usize, src: &[f32], acc: &mut [f32]) {
    assert_eq!(acc.len(), n, "accumulator length mismatch");
    check_dims("col_sums src", rows, n, src.len());
    for row in src[..rows * n].chunks(n) {
        for (av, &sv) in acc.iter_mut().zip(row) {
            *av += sv;
        }
    }
}

/// Geometry of a stride-1 "same"-padded convolution lowering.
///
/// Padding follows the TensorFlow `SAME` convention the reference loops
/// implement: `pad_before = (k - 1) / 2` (integer division), so even kernel
/// widths pad one less cell before than after — see `conv.rs` for the full
/// convention note.
#[derive(Debug, Clone, Copy)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input (and output) height.
    pub h: usize,
    /// Input (and output) width.
    pub w: usize,
    /// Input channels.
    pub c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

impl ConvGeom {
    /// Rows of the lowered patch matrix: one per output position.
    pub fn rows(&self) -> usize {
        self.n * self.h * self.w
    }

    /// Columns of the lowered patch matrix: `kh * kw * c`, matching the
    /// `[kh, kw, ic, oc]` weight layout of [`crate::Conv2d`].
    pub fn patch(&self) -> usize {
        self.kh * self.kw * self.c
    }

    fn pads(&self) -> (usize, usize) {
        ((self.kh - 1) / 2, (self.kw - 1) / 2)
    }
}

/// Lowers an NHWC input into the patch matrix `cols[rows() × patch()]`.
///
/// Row `(b, oh, ow)` holds the zero-padded `kh × kw × c` input window centred
/// per the "same" convention; multiplying by the `[patch × out_c]` weight
/// matrix yields the convolution output in NHWC order directly.  Parallel
/// over batch images (each image's rows are a disjoint contiguous chunk).
pub fn im2col_same(geom: ConvGeom, input: &[f32], cols: &mut Vec<f32>) {
    let ConvGeom { n, h, w, c, kh, kw } = geom;
    assert_eq!(input.len(), n * h * w * c, "input volume mismatch");
    let patch = geom.patch();
    let (ph, pw) = geom.pads();
    // Every element (including zero padding) is written below, so a
    // same-size buffer is reused without re-zeroing.
    if cols.len() != geom.rows() * patch {
        cols.resize(geom.rows() * patch, 0.0);
    }
    use rayon::prelude::*;
    cols.par_chunks_mut(h * w * patch)
        .enumerate()
        .for_each(|(b, image_cols)| {
            let image = &input[b * h * w * c..(b + 1) * h * w * c];
            for oh in 0..h {
                for ow in 0..w {
                    let row = &mut image_cols[(oh * w + ow) * patch..(oh * w + ow + 1) * patch];
                    for dkh in 0..kh {
                        let ih = oh as isize + dkh as isize - ph as isize;
                        let dst = &mut row[dkh * kw * c..(dkh + 1) * kw * c];
                        if ih < 0 || ih >= h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let ih = ih as usize;
                        // Clip the kw window to the valid input columns and
                        // copy it as one contiguous NHWC run.
                        let iw0 = ow as isize - pw as isize;
                        let lo = (-iw0).max(0) as usize; // first in-range dkw
                        let hi = (w as isize - iw0).clamp(0, kw as isize) as usize;
                        dst[..lo * c].fill(0.0);
                        dst[hi * c..].fill(0.0);
                        if lo < hi {
                            let src0 = (ih * w) as isize + iw0 + lo as isize;
                            let src = &image[src0 as usize * c..(src0 as usize + hi - lo) * c];
                            dst[lo * c..hi * c].copy_from_slice(src);
                        }
                    }
                }
            }
        });
}

/// Scatter-adds patch-matrix gradients back onto the NHWC input gradient
/// (the adjoint of [`im2col_same`]).  Parallel over batch images; within an
/// image the accumulation order is the fixed `(oh, ow, kh, kw)` scan.
pub fn col2im_same(geom: ConvGeom, dcols: &[f32], dinput: &mut [f32]) {
    let ConvGeom { n, h, w, c, kh, kw } = geom;
    assert_eq!(dinput.len(), n * h * w * c, "input volume mismatch");
    let patch = geom.patch();
    assert!(dcols.len() >= geom.rows() * patch, "dcols too small");
    let (ph, pw) = geom.pads();
    use rayon::prelude::*;
    dinput
        .par_chunks_mut(h * w * c)
        .enumerate()
        .for_each(|(b, dimage)| {
            let image_cols = &dcols[b * h * w * patch..(b + 1) * h * w * patch];
            for oh in 0..h {
                for ow in 0..w {
                    let row = &image_cols[(oh * w + ow) * patch..(oh * w + ow + 1) * patch];
                    for dkh in 0..kh {
                        let ih = oh as isize + dkh as isize - ph as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let ih = ih as usize;
                        let iw0 = ow as isize - pw as isize;
                        let lo = (-iw0).max(0) as usize;
                        let hi = (w as isize - iw0).clamp(0, kw as isize) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src = &row[dkh * kw * c + lo * c..dkh * kw * c + hi * c];
                        let dst0 = (ih * w) as isize + iw0 + lo as isize;
                        let dst = &mut dimage[dst0 as usize * c..(dst0 as usize + hi - lo) * c];
                        for (dv, &sv) in dst.iter_mut().zip(src) {
                            *dv += sv;
                        }
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seeded(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values without pulling in rand.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matmul_matches_naive_across_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (33, 70, 9), (64, 300, 40), (5, 1, 6)] {
            let a = seeded(m * k, (m * 1000 + k) as u32);
            let b = seeded(k * n, (k * 1000 + n) as u32);
            let mut c = vec![f32::NAN; m * n];
            matmul(m, k, n, &a, &b, &mut c);
            let want = naive_matmul(m, k, n, &a, &b);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let (m, k, n) = (4, 3, 2);
        let a = seeded(m * k, 1);
        let b = seeded(k * n, 2);
        let mut c = vec![1.0f32; m * n];
        matmul_acc(m, k, n, &a, &b, &mut c);
        let want = naive_matmul(m, k, n, &a, &b);
        for (got, want) in c.iter().zip(&want) {
            assert!((got - (want + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, n, r) = (9, 37, 11);
        let a = seeded(m * n, 3);
        let b = seeded(r * n, 4);
        let mut bt = Vec::new();
        transpose(r, n, &b, &mut bt); // bt is n x r
        let want = naive_matmul(m, n, r, &a, &bt);
        let mut c = vec![0.0f32; m * r];
        matmul_nt(m, n, r, &a, &b, &mut c);
        for (got, want) in c.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
        let mut c2 = vec![0.0f32; m * r];
        matmul_nt_seq(m, n, r, &a, &b, &mut c2);
        assert_eq!(
            c, c2,
            "parallel and sequential nt kernels must agree bitwise"
        );

        // Aᵀ·B: A is [m×k] with m summed out.
        let (mm, kk, nn) = (13, 6, 5);
        let a2 = seeded(mm * kk, 5);
        let b2 = seeded(mm * nn, 6);
        let mut at = Vec::new();
        transpose(mm, kk, &a2, &mut at); // kk x mm
        let want = naive_matmul(kk, mm, nn, &at, &b2);
        let mut c3 = vec![0.0f32; kk * nn];
        matmul_tn_acc_seq(mm, kk, nn, &a2, &b2, &mut c3);
        for (got, want) in c3.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        let (m, k, n) = (70, 50, 30);
        let a = seeded(m * k, 7);
        let b = seeded(k * n, 8);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let mut c = vec![0.0f32; m * n];
            pool.install(|| matmul(m, k, n, &a, &b, &mut c));
            c
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(one, run(threads), "thread count {threads} changed bits");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let src = seeded(7 * 5, 9);
        let mut t = Vec::new();
        transpose(7, 5, &src, &mut t);
        let mut back = Vec::new();
        transpose(5, 7, &t, &mut back);
        assert_eq!(src, back);
        assert_eq!(t[3 * 7 + 2], src[2 * 5 + 3]);
    }

    #[test]
    fn bias_and_col_sums() {
        let mut c = vec![0.0f32; 3 * 2];
        add_bias_rows(3, 2, &[1.0, -2.0], &mut c);
        assert_eq!(c, vec![1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        let mut acc = vec![0.5f32, 0.0];
        col_sums_acc(3, 2, &c, &mut acc);
        assert_eq!(acc, vec![3.5, -6.0]);
    }

    #[test]
    fn im2col_centre_row_of_odd_kernel() {
        // 1x3 kernel over a 1x1x4x1 input: row at ow=0 is [0, x0, x1].
        let geom = ConvGeom {
            n: 1,
            h: 1,
            w: 4,
            c: 1,
            kh: 1,
            kw: 3,
        };
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut cols = Vec::new();
        im2col_same(geom, &input, &mut cols);
        assert_eq!(cols.len(), 4 * 3);
        assert_eq!(&cols[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&cols[3..6], &[1.0, 2.0, 3.0]);
        assert_eq!(&cols[9..12], &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn im2col_even_kernel_pads_less_before() {
        // k = 2 ⇒ pad_before = 0, pad_after = 1: window at ow is [x_ow, x_ow+1].
        let geom = ConvGeom {
            n: 1,
            h: 1,
            w: 3,
            c: 1,
            kh: 1,
            kw: 2,
        };
        let input = [5.0, 6.0, 7.0];
        let mut cols = Vec::new();
        im2col_same(geom, &input, &mut cols);
        assert_eq!(cols, vec![5.0, 6.0, 6.0, 7.0, 7.0, 0.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let geom = ConvGeom {
            n: 2,
            h: 3,
            w: 4,
            c: 2,
            kh: 2,
            kw: 3,
        };
        let x = seeded(2 * 3 * 4 * 2, 10);
        let y = seeded(geom.rows() * geom.patch(), 11);
        let mut cols = Vec::new();
        im2col_same(geom, &x, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut dx = vec![0.0f32; x.len()];
        col2im_same(geom, &y, &mut dx);
        let rhs: f32 = x.iter().zip(&dx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
