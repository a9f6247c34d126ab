//! Dense matrices for the topic–word model φ.
//!
//! φ is a dense `K × V` count matrix (§2.1).  The sampling kernel reads it
//! column-wise (all topics of one word), and the update-φ kernel writes it
//! with atomic adds (§6.2), so two variants are provided:
//!
//! * [`DenseMatrix`] — plain row-major storage, generic over the element type
//!   (the paper compresses φ to 16-bit entries, `DenseMatrix<u16>`).
//! * [`AtomicMatrix`] — `AtomicU32` storage shared between thread blocks
//!   during the update-φ kernel, laid out **column-major** so every column
//!   (for φ: every word's `K` topic counts) is one contiguous run.  Blocks
//!   execute on real OS threads, so these atomics are load-bearing, not
//!   simulation theater: they must stay relaxed-ordering *additive* updates
//!   (commutative), which is what keeps the accumulated counts independent
//!   of block scheduling.

use rayon::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

/// Side of the square tiles [`AtomicMatrix::to_dense`] transposes through.
const TRANSPOSE_TILE: usize = 64;

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> DenseMatrix<T> {
    /// A matrix of the given shape filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable access to element `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Set element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Size in bytes of the device-resident representation.
    pub fn device_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }
}

impl DenseMatrix<u32> {
    /// Column `c` gathered into a fresh vector (φ is read per word, i.e. per
    /// column, by the sampling kernel).
    pub fn column(&self, c: usize) -> Vec<u32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Per-row sums (for φ these are the topic totals `n_k = Σ_v φ[k,v]`).
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|&v| v as u64).sum())
            .collect()
    }

    /// Sum of every element.
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&v| v as u64).sum()
    }
}

/// A dense matrix of `AtomicU32`, used where simulated thread blocks running
/// on different host threads must update the same model replica (the
/// update-φ kernel, §6.2).
///
/// Storage is column-major: column `c` is the contiguous run
/// `data[c * rows .. (c + 1) * rows]`, exposed by [`AtomicMatrix::col`].  For
/// φ (`K × V`) that is one K-run per word, which is the axis both the
/// word-major sampling kernels and the φ synchronization walk.  Element
/// access by `(row, col)` and [`AtomicMatrix::to_dense`] (row-major) hide
/// the layout from everything else.
#[derive(Debug)]
pub struct AtomicMatrix {
    rows: usize,
    cols: usize,
    data: Vec<AtomicU32>,
}

impl AtomicMatrix {
    /// A zero-filled atomic matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        data.resize_with(rows * cols, || AtomicU32::new(0));
        AtomicMatrix { rows, cols, data }
    }

    /// Copy a plain (row-major) matrix into a fresh atomic one.
    pub fn from_dense(m: &DenseMatrix<u32>) -> Self {
        let a = AtomicMatrix::zeros(m.rows(), m.cols());
        for c in 0..m.cols() {
            for (r, x) in a.col(c).iter().enumerate() {
                x.store(m.get(r, c), Ordering::Relaxed);
            }
        }
        a
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        c * self.rows + r
    }

    /// Column `c` as one contiguous slice (`col(c)[r]` is element `(r, c)`).
    #[inline]
    pub fn col(&self, c: usize) -> &[AtomicU32] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Relaxed load of element `(r, c)`.
    #[inline]
    pub fn load(&self, r: usize, c: usize) -> u32 {
        self.data[self.idx(r, c)].load(Ordering::Relaxed)
    }

    /// Relaxed store of element `(r, c)`.
    #[inline]
    pub fn store(&self, r: usize, c: usize, v: u32) {
        self.data[self.idx(r, c)].store(v, Ordering::Relaxed)
    }

    /// Atomic `fetch_add`, mirroring CUDA's `atomicAdd`.
    #[inline]
    pub fn fetch_add(&self, r: usize, c: usize, v: u32) -> u32 {
        self.data[self.idx(r, c)].fetch_add(v, Ordering::Relaxed)
    }

    /// Atomic saturating decrement, mirroring `atomicSub` on counts.
    ///
    /// Counts never go negative in a correct sampler; in debug builds an
    /// underflow panics so bugs surface in tests.
    #[inline]
    pub fn fetch_sub(&self, r: usize, c: usize, v: u32) -> u32 {
        let prev = self.data[self.idx(r, c)].fetch_sub(v, Ordering::Relaxed);
        debug_assert!(
            prev >= v,
            "AtomicMatrix underflow at ({r},{c}): {prev} - {v}"
        );
        prev
    }

    /// Reset every element to zero.
    pub fn clear(&self) {
        for x in &self.data {
            x.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot into a plain row-major matrix.
    ///
    /// The transpose runs in parallel over bands of `TRANSPOSE_TILE` rows,
    /// and within a band over tiles of as many columns: a tile reads one
    /// short contiguous run per column and writes one short contiguous run
    /// per row, so both sides stay in cache even for a `512 × 20 000` φ.
    pub fn to_dense(&self) -> DenseMatrix<u32> {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = vec![0u32; rows * cols];
        if cols > 0 {
            out.par_chunks_mut(TRANSPOSE_TILE * cols)
                .zip((0..rows.div_ceil(TRANSPOSE_TILE)).into_par_iter())
                .for_each(|(band, b)| {
                    let r0 = b * TRANSPOSE_TILE;
                    let height = band.len() / cols;
                    for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
                        let c1 = (c0 + TRANSPOSE_TILE).min(cols);
                        for i in 0..height {
                            let row = &mut band[i * cols + c0..i * cols + c1];
                            for (dst, c) in row.iter_mut().zip(c0..c1) {
                                *dst = self.data[c * rows + r0 + i].load(Ordering::Relaxed);
                            }
                        }
                    }
                });
        }
        DenseMatrix::from_vec(rows, cols, out)
    }

    /// Overwrite `self` with the contents of `other`.
    pub fn copy_from(&self, other: &AtomicMatrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (dst, src) in self.data.iter().zip(&other.data) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Size in bytes of the device-resident representation assuming the
    /// 16-bit compressed layout of §6.1.3 (the simulator stores u32 on the
    /// host for convenience, but the *device* model and the transfer model
    /// charge 2 bytes per element).
    pub fn device_bytes_compressed(&self) -> u64 {
        (self.data.len() * 2) as u64
    }

    /// Size in bytes of the uncompressed (u32) representation.
    pub fn device_bytes_uncompressed(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

/// A vector of atomic 64-bit signed counters, used for the global topic
/// totals `n_k` which can exceed 32 bits on billion-token corpora.
#[derive(Debug)]
pub struct AtomicCounts {
    data: Vec<AtomicI64>,
}

impl AtomicCounts {
    /// `len` zero-initialised counters.
    pub fn zeros(len: usize) -> Self {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicI64::new(0));
        AtomicCounts { data }
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self, i: usize) -> i64 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, i: usize, v: i64) {
        self.data[i].store(v, Ordering::Relaxed)
    }

    /// Atomic add (may be negative).
    #[inline]
    pub fn fetch_add(&self, i: usize, v: i64) -> i64 {
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn clear(&self) {
        for x in &self.data {
            x.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot to a plain vector.
    pub fn to_vec(&self) -> Vec<i64> {
        self.data
            .iter()
            .map(|x| x.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_get_set_round_trip() {
        let mut m: DenseMatrix<u32> = DenseMatrix::zeros(3, 4);
        m.set(1, 2, 42);
        assert_eq!(m.get(1, 2), 42);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.row(1), &[0, 0, 42, 0]);
    }

    #[test]
    fn dense_from_vec_checks_shape() {
        let m = DenseMatrix::from_vec(2, 2, vec![1u32, 2, 3, 4]);
        assert_eq!(m.get(1, 0), 3);
        assert_eq!(m.column(1), vec![2, 4]);
        assert_eq!(m.row_sums(), vec![3, 7]);
        assert_eq!(m.total(), 10);
    }

    #[test]
    #[should_panic]
    fn dense_from_vec_panics_on_bad_shape() {
        let _ = DenseMatrix::from_vec(2, 3, vec![1u32, 2, 3, 4]);
    }

    #[test]
    fn dense_u16_device_bytes_are_half_of_u32() {
        let a: DenseMatrix<u16> = DenseMatrix::zeros(4, 8);
        let b: DenseMatrix<u32> = DenseMatrix::zeros(4, 8);
        assert_eq!(a.device_bytes() * 2, b.device_bytes());
    }

    #[test]
    fn atomic_fetch_add_and_snapshot() {
        let a = AtomicMatrix::zeros(2, 2);
        a.fetch_add(0, 1, 5);
        a.fetch_add(0, 1, 2);
        a.fetch_add(1, 0, 1);
        let d = a.to_dense();
        assert_eq!(d.get(0, 1), 7);
        assert_eq!(d.get(1, 0), 1);
        assert_eq!(d.get(1, 1), 0);
    }

    #[test]
    fn atomic_copy_from() {
        let a = AtomicMatrix::zeros(1, 3);
        let b = AtomicMatrix::zeros(1, 3);
        a.fetch_add(0, 0, 3);
        a.fetch_add(0, 2, 9);
        b.copy_from(&a);
        assert_eq!(b.to_dense().as_slice(), &[3, 0, 9]);
    }

    #[test]
    fn atomic_columns_are_contiguous_on_non_square_shapes() {
        for (rows, cols) in [(3, 7), (7, 3), (1, 5), (5, 1), (17, 40), (40, 17)] {
            let a = AtomicMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    a.store(r, c, (r * 1000 + c) as u32);
                }
            }
            for c in 0..cols {
                let col = a.col(c);
                assert_eq!(col.len(), rows);
                for (r, x) in col.iter().enumerate() {
                    assert_eq!(x.load(Ordering::Relaxed), a.load(r, c));
                }
            }
        }
    }

    #[test]
    fn atomic_from_dense_and_to_dense_round_trip() {
        // Shapes straddling the transpose tile, including empty matrices.
        for (rows, cols) in [
            (0, 4),
            (4, 0),
            (1, 1),
            (2, 9),
            (64, 5),
            (65, 130),
            (130, 65),
        ] {
            let data: Vec<u32> = (0..rows * cols)
                .map(|i| (i as u32).wrapping_mul(2654435761) >> 7)
                .collect();
            let m = DenseMatrix::from_vec(rows, cols, data);
            let a = AtomicMatrix::from_dense(&m);
            assert_eq!(a.to_dense(), m, "{rows} x {cols}");
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(a.load(r, c), m.get(r, c));
                }
            }
        }
    }

    #[test]
    fn atomic_matrix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicMatrix>();
        assert_send_sync::<AtomicCounts>();
    }

    #[test]
    fn atomic_parallel_updates_are_not_lost() {
        use rayon::prelude::*;
        let a = AtomicMatrix::zeros(4, 4);
        (0..1000usize).into_par_iter().for_each(|i| {
            a.fetch_add(i % 4, (i / 4) % 4, 1);
        });
        assert_eq!(a.to_dense().total(), 1000);
    }

    #[test]
    fn atomic_counts_add_and_clear() {
        let c = AtomicCounts::zeros(3);
        c.fetch_add(0, 10);
        c.fetch_add(0, -4);
        c.fetch_add(2, 7);
        assert_eq!(c.to_vec(), vec![6, 0, 7]);
        assert_eq!(c.len(), 3);
        c.clear();
        assert_eq!(c.to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn compressed_device_bytes_halved() {
        let a = AtomicMatrix::zeros(8, 8);
        assert_eq!(
            a.device_bytes_compressed() * 2,
            a.device_bytes_uncompressed()
        );
    }
}
