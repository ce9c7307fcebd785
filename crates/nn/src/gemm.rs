//! Blocked, cache-tiled, parallel f32 matrix kernels.
//!
//! [`crate::Dense`] and [`crate::LocallyConnected2d`] run forward and
//! backward as GEMMs built on the kernels here; [`crate::Conv2d`] computes
//! its taps directly over the valid window (see its "Computation" notes) and
//! uses only the bias helpers.  The scalar loop nests the crate started from
//! live on as a test-only oracle in `nn::reference`.
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
}
