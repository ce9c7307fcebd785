//! 2-D convolution with "same" padding and stride 1.

use std::ops::Range;

use rand::Rng;
use rayon::prelude::*;

use crate::gemm;
use crate::init::Param;
use crate::layers::Layer;
use crate::tensor::Tensor;

/// Lanes of one row of the micro-kernel's tile (two SSE registers).
const LANES: usize = 8;
/// Rows of the tile: the paper's mini-batch of five images.
const ROWS: usize = 5;
/// Sums in one tile, all held in registers.
const TILE: usize = ROWS * LANES;
/// Convolutions of fewer multiply-adds (over the whole window) run on the
/// calling thread alone.
const PARALLEL_MACS: usize = 1 << 20;
/// Groups of output channels per forward job.
const BLOCK_GROUPS: usize = 4;
/// Floats of weights one forward block of steps packs for a job's channels
/// (32 KiB, within L1).
const L1_FLOATS: usize = 1 << 13;
/// Floats of packed weights one `dX` group may use (512 KiB, within L2).
const GROUP_FLOATS: usize = 1 << 17;
/// The micro-kernel's accumulator: `ROWS` rows of `LANES` sums.
type Tile = [[f32; LANES]; ROWS];

/// A 2-D convolution layer (NHWC layout, stride 1, zero "same" padding).
///
/// The paper's classifier uses two of these with 200 kernels each and a
/// rectangular `n × 2n` kernel (3×6 or 6×12 for the 6-transformation flow
/// encoding), which is why arbitrary rectangular kernels are supported.
///
/// # "Same" padding for even kernel sizes
///
/// Output spatial dimensions always equal the input's (stride 1).  Along each
/// axis the window for output position `o` covers input positions
/// `o - pad_before .. o - pad_before + k` with `pad_before = (k - 1) / 2`
/// (integer division) and zeros outside the input.  For odd `k` this is the
/// usual symmetric padding; for **even** `k` it is asymmetric — one less cell
/// of padding *before* than after (e.g. `k = 6` pads 2 left/top and 3
/// right/bottom).  This matches TensorFlow's `SAME` convention
/// (`pad_before = ⌊(k - 1) / 2⌋`, remainder after), which the paper's r1.3
/// implementation used for its even-width `n × 2n` kernels (3×6, 6×12).
/// Regression tests below pin the window alignment for even kernels on this
/// layer and on its scalar oracle.
///
/// # Computation
///
/// All three directions run one register-tiled micro-kernel: a tile of
/// `ROWS × LANES = 5 × 8` sums held in registers over the whole reduction,
/// a compile-time width at every channel count.  Partial channel groups are
/// padded with zeros inside the packed operands, and only the valid window
/// is visited, so the zero padding of the map is never read (the paper's
/// 6×12 kernel on a 6×6 map covers 37.5 % of its window on average).  A
/// step of the tile is either an outer product (five input values times one
/// row of eight weights) or a wide update (one value times forty contiguous
/// operands).
///
/// * **Forward**: a tile is one output position of five images (the paper's
///   mini-batch), whose windows agree, by eight output channels; its steps
///   are the inputs under each kernel row, `(kh, kw, in_c)` in order, times
///   the weights packed per block of steps that fits in L1.  An input that
///   is mostly zeros (the one-hot first layer) lists only the steps where one
///   of the five images reads a non-zero value.  Parallel over blocks of 32
///   output channels and, for few channels, runs of positions.
/// * **`dW`**: a tile is forty consecutive `(kw, in_c)` entries of one kernel
///   row for one output channel; each non-zero `dY` entry of that channel,
///   in ascending output position, adds its value times the inputs under the
///   kernel row (read from a zero-padded copy of the input, so taps outside
///   the map add zero).  Parallel over kernel rows.
/// * **`dX`**: per group of input channels (all of them while their packed
///   `[out_c][tap][group]` weights fit in L2), each output position's
///   `(tap, channel)` partials are summed forty at a time over its non-zero
///   `dY` entries in `out_c` order and added in output scan order.  Parallel
///   over groups.
///
/// Small convolutions run on the calling thread alone.  These are the
/// per-element operation orders of a GEMM over the zero-padded patch matrix,
/// each element is summed inside one tile, and adding or skipping an
/// exact-zero product never changes a sum that starts at +0, so the results
/// are bit-identical to that formulation at any thread count and job split
/// (`tests/backend_differential.rs` pins training-loss and convolution
/// bits).
#[derive(Debug)]
pub struct Conv2d {
    pub(crate) kernel_h: usize,
    pub(crate) kernel_w: usize,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    /// Weights laid out as `[kh, kw, in_c, out_c]`.
    pub(crate) weights: Param,
    pub(crate) bias: Param,
    /// `[n, h, w]` of the last training forward's input, which
    /// `scratch.padded` holds for `dW`.
    cached_images: Option<[usize; 3]>,
    /// The kernels' packed operands, reused from call to call.
    scratch: Scratch,
}

/// Buffers the kernels pack their operands into, owned by the
/// layer so a call allocates little beyond its output.
#[derive(Debug, Default)]
struct Scratch {
    /// `dW`: the training input with zero columns and rows around it
    /// (see `pad_columns`).
    padded: Vec<f32>,
    /// The non-zero `dY` entries of each output position, `(channel,
    /// value)` in channel order; position `p`'s run is
    /// `position_start[p]..position_start[p + 1]`.
    by_position: Vec<(u32, f32)>,
    position_start: Vec<usize>,
    /// The same entries per output channel, in ascending position.
    by_channel: Vec<Entry>,
    channel_start: Vec<usize>,
    /// `dX` of each group of input channels, `[position][width]` in a run
    /// of `positions · group_width` per group.
    staged: Vec<f32>,
}

/// A non-zero `dY` entry of one output channel: its value, the offset in
/// `Scratch::padded` of its inputs under kernel row 0 (for flat image row
/// `row`, `(row · (w + kw - 1) + ow) · in_c`), and the kernel rows and
/// columns its window keeps.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    value: f32,
    base: u32,
    rows: [u16; 2],
    cols: [u16; 2],
}

/// The sizes one call works on.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    oc: usize,
    kh: usize,
    kw: usize,
    /// "Same" padding before the window along each axis.
    ph: usize,
    pw: usize,
}

impl Geometry {
    fn taps(&self) -> usize {
        self.kh * self.kw
    }

    /// The kernel rows and columns whose taps read inside the map from
    /// output position `(oh, ow)`.
    fn window(&self, oh: usize, ow: usize) -> (Range<usize>, Range<usize>) {
        let (ph, pw) = (self.ph, self.pw);
        (
            ph.saturating_sub(oh)..(self.h + ph - oh).min(self.kh),
            pw.saturating_sub(ow)..(self.w + pw - ow).min(self.kw),
        )
    }

    /// How many parallel jobs to split `units` of work into: one (the
    /// caller alone) below `PARALLEL_MACS` multiply-adds, where waking
    /// helpers costs more than it saves; else four per thread.
    fn jobs(&self, units: usize) -> usize {
        let macs = self.n * self.h * self.w * self.taps() * self.c * self.oc;
        if macs < PARALLEL_MACS {
            1
        } else {
            units.min(4 * rayon::current_num_threads())
        }
    }

    /// Flat output positions `from..` with their flat image row
    /// (`image · h + oh`), `oh` and `ow`, counted without dividing.
    fn scan(&self, from: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let (h, w) = (self.h, self.w);
        let (mut row, mut ow) = (from / w, from % w);
        let mut oh = row % h;
        (from..).map(move |p| {
            let at = (p, row, oh, ow);
            ow += 1;
            if ow == w {
                (row, ow, oh) = (row + 1, 0, oh + 1);
                if oh == h {
                    oh = 0;
                }
            }
            at
        })
    }

    /// Input channels per `dX` group: all of them while the group's packed
    /// weights fit in `GROUP_FLOATS`, else the most whole `LANES` that do.
    fn group_width(&self) -> usize {
        let fit = GROUP_FLOATS / (self.taps() * self.oc) / LANES * LANES;
        self.c.min(fit.max(LANES))
    }

    /// The flat input position tap `(dkh, dkw)` of output position `p`
    /// reads (inside the map when the window keeps the tap).
    fn input(&self, p: usize, dkh: usize, dkw: usize) -> usize {
        p + dkh * self.w + dkw - self.ph * self.w - self.pw
    }
}

impl Conv2d {
    /// Creates a convolution layer with Glorot-initialised weights.
    pub fn new(
        kernel: (usize, usize),
        in_channels: usize,
        out_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (kernel_h, kernel_w) = kernel;
        let fan_in = kernel_h * kernel_w * in_channels;
        let fan_out = kernel_h * kernel_w * out_channels;
        let weights = Param::glorot(
            kernel_h * kernel_w * in_channels * out_channels,
            fan_in,
            fan_out,
            rng,
        );
        Conv2d {
            kernel_h,
            kernel_w,
            in_channels,
            out_channels,
            weights,
            bias: Param::zeros(out_channels),
            cached_images: None,
            scratch: Scratch::default(),
        }
    }

    /// The kernel size `(height, width)`.
    pub fn kernel(&self) -> (usize, usize) {
        (self.kernel_h, self.kernel_w)
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Accumulates `db` and `dW` for `grad_output` and leaves its non-zero
    /// entries indexed in the scratch for `dX`; returns the call's sizes.
    fn param_grads(&mut self, grad_output: &Tensor) -> Geometry {
        let images = self
            .cached_images
            .expect("training forward before backward");
        let g = self.geometry(images);
        let Conv2d {
            weights,
            bias,
            scratch: s,
            ..
        } = self;
        let positions = g.n * g.h * g.w;
        let dy = grad_output.data();
        assert_eq!(dy.len(), positions * g.oc, "gradient shape mismatch");
        // db += column sums of dY.
        gemm::col_sums_acc(positions, g.oc, dy, &mut bias.grad);
        index_nonzeros(&g, dy, s);

        // dW, in jobs of whole kernel rows.
        let (padded, by_channel) = (&s.padded[..], (&s.by_channel[..], &s.channel_start[..]));
        let (row, per_job) = (g.kw * g.c * g.oc, g.kh.div_ceil(g.jobs(g.kh)));
        weights
            .grad
            .par_chunks_mut(per_job * row)
            .enumerate()
            .for_each(|(k, gw)| {
                for (i, gw) in gw.chunks_mut(row).enumerate() {
                    weight_grad_row(&g, k * per_job + i, padded, by_channel, gw);
                }
            });
        g
    }

    fn geometry(&self, [n, h, w]: [usize; 3]) -> Geometry {
        Geometry {
            n,
            h,
            w,
            c: self.in_channels,
            oc: self.out_channels,
            kh: self.kernel_h,
            kw: self.kernel_w,
            ph: (self.kernel_h - 1) / 2,
            pw: (self.kernel_w - 1) / 2,
        }
    }
}

/// The first `N` floats of `s`.
#[inline(always)]
fn head<const N: usize>(s: &[f32]) -> &[f32; N] {
    s[..N].try_into().expect("a slice of N floats")
}

/// `acc += a · b`, lane by lane.
#[inline(always)]
fn axpy(acc: &mut [f32; LANES], a: f32, b: &[f32; LANES]) {
    for (s, &bv) in acc.iter_mut().zip(b) {
        *s += a * bv;
    }
}

/// What a forward tile runs over, in step order: segments `(k0, len,
/// offset)` of `len` contiguous steps whose values for row `r` are
/// `x[offset + rows[r]..]`, or, for an input that is mostly zeros, the
/// steps with a non-zero value packed as `(k, values)`.
#[derive(Clone, Copy)]
enum Steps<'a> {
    Segments(&'a [(usize, usize, usize)], &'a [f32], [usize; ROWS]),
    Packed(&'a [(u32, [f32; ROWS])]),
}

/// The micro-kernel, outer-product form: over the steps in order, row `r`
/// of the tile gains its value times `w[k · stride..][..LANES]` for step `k`
/// (counted from `first`).
#[inline(never)]
fn outer_tile(acc: &mut Tile, steps: Steps, (w, stride, first): (&[f32], usize, usize)) {
    let mut sums = *acc;
    match steps {
        Steps::Segments(segments, x, rows) => {
            for &(k0, len, offset) in segments {
                let xs = rows.map(|row| &x[offset + row..][..len]);
                let w = &w[(k0 - first) * stride..];
                for k in 0..len {
                    let b: &[f32; LANES] = head(&w[k * stride..]);
                    for (row, x) in sums.iter_mut().zip(xs) {
                        axpy(row, x[k], b);
                    }
                }
            }
        }
        Steps::Packed(steps) => {
            for &(k, ref a) in steps {
                let b: &[f32; LANES] = head(&w[(k as usize - first) * stride..]);
                for (row, &a) in sums.iter_mut().zip(a) {
                    axpy(row, a, b);
                }
            }
        }
    }
    *acc = sums;
}

/// The micro-kernel, wide form: over the `(a, offset)` terms in order, the
/// whole tile gains `a · b[offset..][..TILE]`, read row after row.
#[inline(never)]
fn wide_tile(acc: &mut Tile, terms: impl Iterator<Item = (f32, usize)>, b: &[f32]) {
    let mut sums = *acc;
    for (a, offset) in terms {
        let b: &[f32; TILE] = head(&b[offset..]);
        for (r, row) in sums.iter_mut().enumerate() {
            axpy(row, a, head(&b[r * LANES..]));
        }
    }
    *acc = sums;
}

/// The tiles of output positions `k0..k0 + span` of every image.  A tile
/// is one position of `ROWS` images, whose windows agree: each kernel row
/// of the window that reads a non-zero input in one of the images is a
/// segment of `(kw, in_c)` steps, contiguous in the input and in the
/// weights, listed once with where it reads in the first image (rows past
/// the last image repeat it and are not stored); a `sparse` input packs only
/// the steps where one of the images reads a non-zero value.
struct Tiles {
    sparse: bool,
    segments: Vec<(usize, usize, usize)>,
    packed: Vec<(u32, [f32; ROWS])>,
    tiles: Vec<TileSteps>,
}

/// One tile: its position in the run, its images, their input offsets and
/// its range of `Tiles::segments` or `Tiles::packed`.
struct TileSteps {
    local: usize,
    images: Range<usize>,
    inputs: [usize; ROWS],
    steps: Range<usize>,
}

impl Tiles {
    fn new(g: &Geometry, (x, sparse): (&[f32], bool), (k0, span): (usize, usize)) -> Tiles {
        let (c, kw, n) = (g.c, g.kw, g.n);
        let image = g.h * g.w * c;
        let mut t = Tiles {
            sparse,
            segments: Vec::new(),
            packed: Vec::new(),
            tiles: Vec::new(),
        };
        for (local, (position, _, oh, ow)) in g.scan(k0).take(span).enumerate() {
            let (kr, kc) = g.window(oh, ow);
            let len = kc.len() * c;
            for b0 in (0..n).step_by(ROWS) {
                let live = ROWS.min(n - b0);
                let inputs: [usize; ROWS] = std::array::from_fn(|r| (b0 + r.min(live - 1)) * image);
                let first = t.segments.len() + t.packed.len();
                for dkh in kr.clone() {
                    let s0 = (dkh * kw + kc.start) * c;
                    let offset = g.input(position, dkh, kc.start) * c;
                    if sparse {
                        for k in 0..len {
                            let values = inputs.map(|row| x[offset + row + k]);
                            if values[..live].iter().any(|&v| v != 0.0) {
                                t.packed.push(((s0 + k) as u32, values));
                            }
                        }
                    } else {
                        let reads =
                            |&row: &usize| x[offset + row..][..len].iter().any(|&v| v != 0.0);
                        if inputs[..live].iter().any(reads) {
                            t.segments.push((s0, len, offset));
                        }
                    }
                }
                let last = t.segments.len() + t.packed.len();
                t.tiles.push(TileSteps {
                    local,
                    images: b0..b0 + live,
                    inputs,
                    steps: first..last,
                });
            }
        }
        t
    }
}

/// The forward kernel for output channels `outs` over the tiles of a run of
/// output positions, whose rows `rows` holds (`rows[image · span + k]` the
/// channels `outs` of the run's position `k`).  The steps run in blocks
/// whose weights for `outs` fit in L1 (`L1_FLOATS`): the block's weights
/// are packed `[step][outs]` (zero past `out_c`), and every tile and group
/// of `LANES` channels takes up its sums, runs the block's part of its steps
/// and puts them back.  The bias is added to each finished sum.
fn forward_tiles(
    g: &Geometry,
    (x, t): (&[f32], &Tiles),
    (weights, bias): (&[f32], &[f32]),
    outs: Range<usize>,
    rows: &mut [&mut [f32]],
) {
    let oc = g.oc;
    let span = rows.len() / g.n;
    let steps = g.taps() * g.c;
    let stride = outs.len().next_multiple_of(LANES);
    let block = (L1_FLOATS / stride).max(1);
    let mut part = Vec::with_capacity(g.kh);
    let mut panel = vec![0.0f32; block * stride];
    for kb in (0..steps).step_by(block) {
        let (ke, last) = ((kb + block).min(steps), kb + block >= steps);
        // The block's weights for `outs`, `[step][stride]`, zero past
        // `out_c`: one pass of independent loads, then all reads hit L1.
        for (dst, row) in panel
            .chunks_exact_mut(stride)
            .zip(weights[kb * oc..ke * oc].chunks_exact(oc))
        {
            dst[..outs.len()].copy_from_slice(&row[outs.clone()]);
        }
        for TileSteps {
            local,
            images,
            inputs,
            steps: run,
        } in &t.tiles
        {
            // The tile's steps in this block.
            let steps = if t.sparse {
                let steps = &t.packed[run.clone()];
                let lo = steps.partition_point(|&(k, _)| (k as usize) < kb);
                let hi = steps.partition_point(|&(k, _)| (k as usize) < ke);
                Steps::Packed(&steps[lo..hi])
            } else {
                part.clear();
                for &(s0, len, offset) in &t.segments[run.clone()] {
                    let (lo, hi) = (s0.max(kb), (s0 + len).min(ke));
                    if lo < hi {
                        part.push((lo, hi - lo, offset + lo - s0));
                    }
                }
                Steps::Segments(&part, x, *inputs)
            };
            let empty = match steps {
                Steps::Packed(steps) => steps.is_empty(),
                Steps::Segments(segments, ..) => segments.is_empty(),
            };
            if empty && !last {
                continue;
            }
            for o in outs.clone().step_by(LANES) {
                let (width, at) = (LANES.min(oc - o), o - outs.start);
                let mut acc = [[0.0f32; LANES]; ROWS];
                if kb > 0 {
                    for (sums, b) in acc.iter_mut().zip(images.clone()) {
                        sums[..width].copy_from_slice(&rows[b * span + local][at..][..width]);
                    }
                }
                outer_tile(&mut acc, steps, (&panel[at..], stride, kb));
                for (sums, b) in acc.iter().zip(images.clone()) {
                    let y = &mut rows[b * span + local][at..][..width];
                    if last {
                        for ((y, &s), &bv) in y.iter_mut().zip(sums).zip(&bias[o..]) {
                            *y = s + bv;
                        }
                    } else {
                        y.copy_from_slice(&sums[..width]);
                    }
                }
            }
        }
    }
}

/// Copies `x` into `padded` with `kw - 1` zero columns around each image
/// row (`pw` before) and `ph` zero rows before the first, so that a kernel
/// row's `kw · in_c` inputs for any output position are contiguous, read
/// zero left and right of the map, and start at position
/// `(row + dkh) · (w + kw - 1) + ow` for kernel row `dkh` of flat image row
/// `row`.
fn pad_columns(g: &Geometry, x: &[f32], padded: &mut Vec<f32>) {
    let (c, wp) = (g.c, g.w + g.kw - 1);
    padded.clear();
    padded.resize((g.n * g.h + g.kh - 1) * wp * c + TILE, 0.0);
    let rows = padded[g.ph * wp * c..].chunks_mut(wp * c);
    for (dst, src) in rows.zip(x.chunks(g.w * c)) {
        dst[g.pw * c..][..g.w * c].copy_from_slice(src);
    }
}

/// Indexes the non-zero entries of `dy` by output position and by output
/// channel.  The rows are gathered branch-free: max-pooling scatters them
/// at random.
fn index_nonzeros(g: &Geometry, dy: &[f32], s: &mut Scratch) {
    let oc = g.oc;
    if s.by_position.len() < dy.len() {
        s.by_position.resize(dy.len(), (0, 0.0));
    }
    s.position_start.clear();
    s.position_start.push(0);
    let mut len = 0;
    for row in dy.chunks(oc) {
        for (o, &v) in row.iter().enumerate() {
            s.by_position[len] = (o as u32, v);
            len += usize::from(v != 0.0);
        }
        s.position_start.push(len);
    }
    let nonzero = &s.by_position[..len];
    // Channel `o`'s entries start at `channel_start[o]`: count into
    // `o + 1`, sum, fill with each start as its channel's cursor (leaving
    // it at the next channel's start), then shift the cursors back.
    s.channel_start.clear();
    s.channel_start.resize(oc + 1, 0);
    for &(o, _) in nonzero {
        s.channel_start[o as usize + 1] += 1;
    }
    for o in 0..oc {
        s.channel_start[o + 1] += s.channel_start[o];
    }
    s.by_channel.clear();
    s.by_channel.resize(len, Entry::default());
    let wp = g.w + g.kw - 1;
    for (run, (_, row, oh, ow)) in s.position_start.windows(2).zip(g.scan(0)) {
        let (kr, kc) = g.window(oh, ow);
        let base = ((row * wp + ow) * g.c) as u32;
        let (rows, cols) = (
            [kr.start, kr.end].map(|k| k as u16),
            [kc.start, kc.end].map(|k| k as u16),
        );
        for &(o, value) in &nonzero[run[0]..run[1]] {
            let slot = &mut s.channel_start[o as usize];
            s.by_channel[*slot] = Entry {
                value,
                base,
                rows,
                cols,
            };
            *slot += 1;
        }
    }
    s.channel_start.copy_within(..oc, 1);
    s.channel_start[0] = 0;
}

/// The `dW` kernel for kernel row `dkh`, whose `kw · in_c` rows of `out_c`
/// gradients `gw` holds.  A tile holds `TILE` consecutive `(kw, in_c)`
/// entries of one output channel; every non-zero `dY` entry of that channel
/// whose window reaches the tile's kernel columns, in ascending position,
/// adds its value times the inputs under the kernel row.  The tiles run
/// column run by column run, every channel's tile of a run in turn (their
/// gradient rows stay in L1), with the entries filtered once per run of
/// tiles over the same kernel columns.
fn weight_grad_row(
    g: &Geometry,
    dkh: usize,
    padded: &[f32],
    (entries, channel_start): (&[Entry], &[usize]),
    gw: &mut [f32],
) {
    let (c, oc) = (g.c, g.oc);
    let shift = dkh * (g.w + g.kw - 1) * c;
    let span = g.kw * c;
    // Each channel's terms for the current columns, `starts[o]..starts[o + 1]`.
    let mut terms: Vec<(f32, usize)> = vec![(0.0, 0); entries.len()];
    let mut starts = vec![0; oc + 1];
    let mut columns = None;
    for start in (0..span).step_by(TILE) {
        let end = span.min(start + TILE);
        let (first, last) = ((start / c) as u16, ((end - 1) / c) as u16);
        if columns != Some((first, last)) {
            columns = Some((first, last));
            let mut len = 0;
            for (o, run) in channel_start.windows(2).enumerate() {
                for e in &entries[run[0]..run[1]] {
                    terms[len] = (e.value, e.base as usize + shift);
                    let row = usize::from(e.rows[0]) <= dkh && dkh < usize::from(e.rows[1]);
                    len += usize::from(row && e.cols[0] <= last && first < e.cols[1]);
                }
                starts[o + 1] = len;
            }
        }
        let rows = &mut gw[start * oc..end * oc];
        for (o, run) in starts.windows(2).enumerate() {
            let mut acc = [[0.0f32; LANES]; ROWS];
            for (s, row) in acc.as_flattened_mut().iter_mut().zip(rows.chunks_exact(oc)) {
                *s = row[o];
            }
            wide_tile(
                &mut acc,
                terms[run[0]..run[1]].iter().copied(),
                &padded[start..],
            );
            for (&s, row) in acc.as_flattened().iter().zip(rows.chunks_exact_mut(oc)) {
                row[o] = s;
            }
        }
    }
}

/// The `dX` kernel for input channels `c0..c0 + width`, into `dx`
/// (`[position][width]`).  The group's weights are packed
/// `[out_c][tap][width]`; for each output position in scan order, the
/// `(tap, channel)` partials of its window are summed a tile at a time over
/// its non-zero `dY` entries in channel order, then added to the inputs they
/// belong to, one kernel row's run at a time.
fn input_grad_group(
    g: &Geometry,
    weights: &[f32],
    (c0, width): (usize, usize),
    (entries, position_start): (&[(u32, f32)], &[usize]),
    dx: &mut [f32],
) {
    let (kw, taps, oc) = (g.kw, g.taps(), g.oc);
    let mut group = vec![0.0f32; oc * taps * width + TILE];
    for (tap, wt) in weights.chunks(g.c * oc).enumerate() {
        for l in 0..width {
            for (o, &v) in wt[(c0 + l) * oc..][..oc].iter().enumerate() {
                group[(o * taps + tap) * width + l] = v;
            }
        }
    }
    // Each kernel row's lanes that read inside the map, and where the first
    // lands in `dx`.
    let mut rows: Vec<(Range<usize>, usize)> = Vec::with_capacity(g.kh);
    for (run, (p, _, oh, ow)) in position_start.windows(2).zip(g.scan(0)) {
        let entries = &entries[run[0]..run[1]];
        let (kr, kc) = g.window(oh, ow);
        if entries.is_empty() || kr.is_empty() || kc.is_empty() {
            continue;
        }
        rows.clear();
        rows.extend(kr.map(|dkh| {
            let lanes = (dkh * kw + kc.start) * width..(dkh * kw + kc.end) * width;
            (lanes, g.input(p, dkh, kc.start) * width)
        }));
        let (first, last) = (rows[0].0.start, rows[rows.len() - 1].0.end);
        for start in (first..last).step_by(TILE) {
            let end = last.min(start + TILE);
            if !rows
                .iter()
                .any(|(lanes, _)| lanes.start < end && start < lanes.end)
            {
                continue;
            }
            let mut acc = [[0.0f32; LANES]; ROWS];
            let terms = entries.iter().map(|&(o, v)| (v, o as usize * taps * width));
            wide_tile(&mut acc, terms, &group[start..]);
            let acc = acc.as_flattened();
            for (lanes, at) in &rows {
                let (lo, hi) = (lanes.start.max(start), lanes.end.min(end));
                if lo < hi {
                    let dst = &mut dx[at + lo - lanes.start..][..hi - lo];
                    for (d, &a) in dst.iter_mut().zip(&acc[lo - start..hi - start]) {
                        *d += a;
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let [n, h, w, c]: [usize; 4] = input.shape().try_into().expect("Conv2d expects NHWC input");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let g = self.geometry([n, h, w]);
        let (x, oc, hw) = (input.data(), g.oc, h * w);
        let mut out = Tensor::zeros(&[n, h, w, oc]);
        // Jobs over blocks of output channels (whose weights stay cached)
        // and runs of positions of every image.  Each output element is
        // summed inside one tile, so the split cannot change a bit.
        let block = BLOCK_GROUPS * LANES;
        let blocks = oc.div_ceil(block);
        let runs = g
            .jobs(hw)
            .min(rayon::current_num_threads())
            .div_ceil(blocks);
        let span = hw.div_ceil(runs);
        let mut jobs: Vec<Vec<&mut [f32]>> = (0..hw.div_ceil(span) * blocks)
            .map(|_| Vec::new())
            .collect();
        for image in out.data_mut().chunks_mut(hw * oc) {
            for (k, row) in image.chunks_mut(oc).enumerate() {
                for (j, outs) in row.chunks_mut(block).enumerate() {
                    jobs[k / span * blocks + j].push(outs);
                }
            }
        }
        // A mostly-zero input (the one-hot first layer) packs only its
        // non-zero steps.  Each run's tiles are listed once, for all blocks.
        let sparse = 2 * x.iter().filter(|&&v| v == 0.0).count() > x.len();
        let starts: Vec<usize> = (0..hw).step_by(span).collect();
        let tiles: Vec<Tiles> = starts
            .par_iter()
            .map(|&k0| Tiles::new(&g, (x, sparse), (k0, span.min(hw - k0))))
            .collect();
        let operands = (&self.weights.value[..], &self.bias.value[..]);
        jobs.par_chunks_mut(1).enumerate().for_each(|(k, job)| {
            let (run, j) = (k / blocks, k % blocks);
            let outs = j * block..oc.min((j + 1) * block);
            forward_tiles(&g, (x, &tiles[run]), operands, outs, &mut job[0]);
        });
        drop(jobs);
        if training {
            pad_columns(&g, x, &mut self.scratch.padded);
        }
        self.cached_images = training.then_some([n, h, w]);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.param_grads(grad_output);
        let Conv2d {
            weights,
            scratch: s,
            ..
        } = self;
        let (positions, c) = (g.n * g.h * g.w, g.c);

        // dX, in jobs of whole groups of input channels.
        let width = g.group_width();
        let (groups, run) = (c.div_ceil(width), positions * width);
        let per_job = groups.div_ceil(g.jobs(groups));
        s.staged.clear();
        s.staged.resize(groups * run, 0.0);
        let by_position = (&s.by_position[..], &s.position_start[..]);
        let weights = &weights.value[..];
        s.staged
            .par_chunks_mut(per_job * run)
            .enumerate()
            .for_each(|(k, dx)| {
                for (i, dx) in dx.chunks_mut(run).enumerate() {
                    let c0 = (k * per_job + i) * width;
                    input_grad_group(&g, weights, (c0, width.min(c - c0)), by_position, dx);
                }
            });
        let mut grad_input = Tensor::zeros(&[g.n, g.h, g.w, c]);
        for (k, staged) in s.staged.chunks(run).enumerate() {
            let c0 = k * width;
            let width = width.min(c - c0);
            for (dst, src) in grad_input
                .data_mut()
                .chunks_mut(c)
                .zip(staged.chunks(width))
            {
                dst[c0..c0 + width].copy_from_slice(src);
            }
        }
        grad_input
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.param_grads(grad_output);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}x{}, {} -> {})",
            self.kernel_h, self.kernel_w, self.in_channels, self.out_channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Scalar;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// The production layer and its scalar oracle, built from one seeded RNG
    /// (so with identical weights), each with a label for messages.
    fn both(
        kernel: (usize, usize),
        in_c: usize,
        out_c: usize,
    ) -> [(&'static str, Box<dyn Layer>); 2] {
        [
            (
                "production",
                Box::new(Conv2d::new(kernel, in_c, out_c, &mut rng())),
            ),
            (
                "reference",
                Box::new(Scalar::new(Conv2d::new(kernel, in_c, out_c, &mut rng()))),
            ),
        ]
    }

    fn seeded_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and zero bias is the identity map.
        for (label, mut conv) in both((1, 1), 1, 1) {
            conv.params_mut()[0].value[0] = 1.0;
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]);
            let out = conv.forward(&input, false);
            assert_eq!(out.data(), input.data(), "{label}");
        }
    }

    #[test]
    fn output_shape_preserves_spatial_dims() {
        for (label, mut conv) in both((3, 6), 1, 4) {
            let input = Tensor::zeros(&[2, 12, 6, 1]);
            let out = conv.forward(&input, false);
            assert_eq!(out.shape(), &[2, 12, 6, 4], "{label}");
        }
        let conv = Conv2d::new((3, 6), 1, 4, &mut rng());
        assert_eq!(conv.kernel(), (3, 6));
        assert_eq!(conv.out_channels(), 4);
    }

    /// Even-kernel "same" padding: output shape equals input shape for the
    /// paper's even-width kernels, on the layer and on its oracle.
    #[test]
    fn even_kernels_preserve_shape_on_both_backends() {
        for kernel in [(3, 6), (6, 12), (2, 2), (4, 4)] {
            for (label, mut conv) in both(kernel, 2, 3) {
                let input = seeded_input(&[2, 12, 12, 2], 5);
                let out = conv.forward(&input, false);
                assert_eq!(out.shape(), &[2, 12, 12, 3], "kernel {kernel:?} on {label}");
            }
        }
    }

    /// Window alignment for even kernels: `pad_before = (k - 1) / 2`, so a
    /// `1×2` kernel's window at output `o` is `[x_o, x_{o+1}]` (no padding
    /// before, one zero after).  Pinned on the layer and on its oracle.
    #[test]
    fn even_kernel_window_alignment() {
        for (label, mut conv) in both((1, 2), 1, 1) {
            // w = [w0, w1] over the window [x_o, x_{o+1}].
            conv.params_mut()[0].value = vec![10.0, 1.0];
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 1, 3, 1], vec![1.0, 2.0, 3.0]);
            let out = conv.forward(&input, false);
            // o=0: 10*1 + 1*2 = 12; o=1: 10*2 + 1*3 = 23; o=2: 10*3 + 0 = 30.
            assert_eq!(out.data(), &[12.0, 23.0, 30.0], "{label}");
        }
    }

    /// The 6-wide kernel must pad 2 before and 3 after: probe with a weight
    /// vector that selects the first window cell.
    #[test]
    fn six_wide_kernel_pads_two_before() {
        for (label, mut conv) in both((1, 6), 1, 1) {
            conv.params_mut()[0].value = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
            conv.params_mut()[1].value[0] = 0.0;
            let input = Tensor::from_vec(&[1, 1, 6, 1], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            let out = conv.forward(&input, false);
            // Window at o starts at input index o - 2 ((6-1)/2 = 2).
            assert_eq!(out.data(), &[0.0, 0.0, 1.0, 2.0, 3.0, 4.0], "{label}");
        }
    }

    /// A one-hot flow encoding: one set cell per row of the `h × w` map.
    fn one_hot_input(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Tensor::zeros(&[n, h, w, 1]);
        for b in 0..n {
            for row in 0..h {
                *x.at4_mut(b, row, rng.gen_range(0..w), 0) = 1.0;
            }
        }
        x
    }

    /// The gradient 2×2 max-pooling routes back: in each window every channel
    /// keeps one position (75 % exact zeros), and two positions get none at
    /// all (all-zero rows).
    fn pooled_gradient(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, h, w, c) = (shape[0], shape[1], shape[2], shape[3]);
        let mut g = Tensor::zeros(shape);
        for b in 0..n {
            for (wh, ww) in (0..h / 2).flat_map(|wh| (0..w / 2).map(move |ww| (wh, ww))) {
                for ch in 0..c {
                    let k = rng.gen_range(0..4usize);
                    *g.at4_mut(b, 2 * wh + k / 2, 2 * ww + k % 2, ch) = rng.gen_range(-1.0..1.0);
                }
            }
        }
        for ch in 0..c {
            *g.at4_mut(0, 0, 0, ch) = 0.0;
            *g.at4_mut(n - 1, h - 1, w - 1, ch) = 0.0;
        }
        g
    }

    #[test]
    fn fast_forward_matches_reference() {
        for (kernel, in_c, out_c, shape, one_hot) in [
            ((3, 3), 1, 2, [2, 5, 5, 1], false),
            ((3, 6), 2, 4, [1, 12, 12, 2], false),
            ((6, 12), 1, 3, [2, 12, 12, 1], false),
            ((2, 2), 3, 2, [1, 4, 4, 3], false),
            // The second stage of the paper's classifier: a 6×12 kernel on a
            // 6×6 map, where kernel column 11 never lands inside the input;
            // 40 → 36 channels splits both channel counts into blocks.
            ((6, 12), 8, 8, [2, 6, 6, 8], false),
            ((6, 12), 40, 36, [2, 6, 6, 40], false),
            // The first stage: one channel of one-hot input.
            ((6, 12), 1, 40, [2, 12, 12, 1], true),
        ] {
            let input = if one_hot {
                one_hot_input(shape[0], shape[1], shape[2], 21)
            } else {
                seeded_input(&shape, 21)
            };
            let [(_, mut conv_fast), (_, mut conv_ref)] = both(kernel, in_c, out_c);
            let a = conv_ref.forward(&input, true);
            let b = conv_fast.forward(&input, true);
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "kernel {kernel:?}, {in_c} -> {out_c}: {x} vs {y}"
                );
            }
        }
    }

    /// A mostly-zero input takes the packed-steps path; with eight channels
    /// of a 6×12 kernel its steps span several weight blocks.
    #[test]
    fn sparse_input_matches_reference() {
        let mut input = seeded_input(&[5, 6, 6, 8], 17);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            if i % 5 != 0 {
                *v = 0.0;
            }
        }
        let [(_, mut conv_fast), (_, mut conv_ref)] = both((6, 12), 8, 36);
        let a = conv_ref.forward(&input, false);
        let b = conv_fast.forward(&input, false);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn fast_backward_matches_reference() {
        for (kernel, in_c, out_c, shape, sparse) in [
            ((3, 6), 2, 3, [2, 6, 6, 2], false),
            ((6, 12), 8, 8, [2, 6, 6, 8], true),
            ((6, 12), 40, 36, [2, 6, 6, 40], true),
            ((6, 12), 1, 40, [2, 12, 12, 1], true),
        ] {
            let label = format!("kernel {kernel:?}, {in_c} -> {out_c}");
            let input = if in_c == 1 && sparse {
                one_hot_input(shape[0], shape[1], shape[2], 33)
            } else {
                seeded_input(&shape, 33)
            };
            let [(_, mut conv_fast), (_, mut conv_ref)] = both(kernel, in_c, out_c);
            // Same seed ⇒ same weights.
            assert_eq!(
                conv_ref.params_mut()[0].value,
                conv_fast.params_mut()[0].value
            );

            let out_ref = conv_ref.forward(&input, true);
            let _ = conv_fast.forward(&input, true);
            let grad_out = if sparse {
                let g = pooled_gradient(out_ref.shape(), 34);
                let zeros = g.data().iter().filter(|&&v| v == 0.0).count();
                assert!(4 * zeros >= 3 * g.len(), "{label}: dY not pool-sparse");
                g
            } else {
                seeded_input(out_ref.shape(), 34)
            };
            let gi_ref = conv_ref.backward(&grad_out);
            let gi_fast = conv_fast.backward(&grad_out);
            assert_eq!(gi_ref.shape(), gi_fast.shape());
            for (x, y) in gi_ref.data().iter().zip(gi_fast.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                    "{label} dX: {x} vs {y}"
                );
            }
            let (p_ref, p_fast) = (conv_ref.params_mut(), conv_fast.params_mut());
            for (x, y) in p_ref[0].grad.iter().zip(&p_fast[0].grad) {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                    "{label} dW: {x} vs {y}"
                );
            }
            for (x, y) in p_ref[1].grad.iter().zip(&p_fast[1].grad) {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                    "{label} db: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn parameter_only_backward_accumulates_the_same_bits() {
        let input = one_hot_input(2, 12, 12, 41);
        let mut full = Conv2d::new((3, 6), 1, 12, &mut rng());
        let mut params_only = Conv2d::new((3, 6), 1, 12, &mut rng());
        let out = full.forward(&input, true);
        let _ = params_only.forward(&input, true);
        let grad_out = pooled_gradient(out.shape(), 42);
        // Twice, so the second call accumulates onto the first.
        for _ in 0..2 {
            let _ = full.backward(&grad_out);
            params_only.backward_params(&grad_out);
        }
        let bits = |p: &Param| p.grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        for (a, b) in full.params_mut().into_iter().zip(params_only.params_mut()) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn gradient_check_small_conv() {
        // Numeric gradient check of dLoss/dW for a tiny convolution where the
        // loss is the sum of outputs, on the layer and on its oracle.
        for (label, mut conv) in both((3, 3), 1, 2) {
            let input = Tensor::from_vec(
                &[1, 3, 3, 1],
                vec![0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 1.0, 0.25, -2.0],
            );
            let out = conv.forward(&input, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = conv.backward(&grad_out);
            assert_eq!(grad_in.shape(), input.shape());

            let eps = 1e-2f32;
            for &wi in &[0usize, 3, 7, 11] {
                let analytic = conv.params_mut()[0].grad[wi];
                let orig = conv.params_mut()[0].value[wi];
                conv.params_mut()[0].value[wi] = orig + eps;
                let up = conv.forward(&input, true).sum();
                conv.params_mut()[0].value[wi] = orig - eps;
                let down = conv.forward(&input, true).sum();
                conv.params_mut()[0].value[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{label} weight {wi}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_check() {
        for (label, mut conv) in both((3, 3), 1, 1) {
            let mut input = Tensor::from_vec(
                &[1, 3, 3, 1],
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            );
            let out = conv.forward(&input, true);
            let grad_out = Tensor::full(out.shape(), 1.0);
            let grad_in = conv.backward(&grad_out);
            let eps = 1e-2f32;
            for idx in [0usize, 4, 8] {
                let orig = input.data()[idx];
                input.data_mut()[idx] = orig + eps;
                let up = conv.forward(&input, true).sum();
                input.data_mut()[idx] = orig - eps;
                let down = conv.forward(&input, true).sum();
                input.data_mut()[idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (grad_in.data()[idx] - numeric).abs() < 1e-2,
                    "{label} input {idx}: analytic {} vs numeric {numeric}",
                    grad_in.data()[idx]
                );
            }
        }
    }
}
