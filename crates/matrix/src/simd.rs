//! Runtime-dispatched SIMD bodies for the hot-path reductions.
//!
//! This module is the **single definition** of the accumulation order used by
//! every hot kernel loop in the workspace: [`crate::Csr::row_dot`], the BCSR
//! block dots, `smash_core::block_dot`, and the RHS column tiles (8-wide,
//! plus one tail tile) driven by [`crate::for_each_rhs_tile`]. Two implementations of that one
//! order exist — AVX2 and a portable scalar emulation — selected at runtime
//! by [`active`] from CPU feature detection, the `SMASH_SIMD` environment
//! variable, and an in-process test override.
//!
//! # The lane-striped contract
//!
//! Floating-point addition is not associative, so "vectorize the loop" would
//! normally change results and break this repo's web of exact `==`
//! invariants (serial ↔ parallel, SpMDM column ↔ SpMV, auto ↔ explicit).
//! Instead, every implementation — including the scalar one — commits to one
//! fixed reduction shape:
//!
//! 1. **Striping.** Term `k` of a reduction is accumulated into partial sum
//!    `s[k % L]`, where the stripe count `L` is fixed *per element type*
//!    (`f32`: `L = 8`, `f64`: `L = 4`) and does **not** vary with the ISA
//!    that happens to execute the loop.
//! 2. **Fold.** The `L` partial sums are combined by pairwise halving:
//!    `s[l] += s[l + L/2]` for `l < L/2`, then the same on the front half,
//!    down to `s[0]`.
//! 3. **No FMA.** Every body uses a separate multiply and add. The `avx2`
//!    tier requires the FMA feature (it is the natural "AVX2-class CPU"
//!    marker and leaves headroom for fused variants behind a future opt-in),
//!    but fusing today would make AVX2 results differ from scalar in the
//!    last ulp and break the cross-ISA `==` guarantee.
//!
//! For the column tiles the same contract applies per output column: stripe
//! `l` holds a vector of `w` column partial sums, and the fold adds whole
//! stripes lane-wise, so every output column sees exactly the striped-dot
//! order. Columns never interact, so the tail tile (`w < 8`), which every
//! tier runs through the portable body, gives each column the same bits as
//! the AVX2 tier's 8-wide tile bodies.
//!
//! Because the *scalar* body emulates the same stripe/fold order, any
//! supported ISA can be compared against any other with exact `==` at any
//! thread count — which is exactly what `tests/simd_identity.rs` pins.
//!
//! The fused references (`Csr::spmv`, `Bcsr::spmv`, `Dense::spmv`,
//! `Dense::matmul`) intentionally keep their simple serial `mul_add` order;
//! kernels are compared against them with tolerances, never `==`.
//!
//! # Dispatch ladder
//!
//! [`active`] resolves, in priority order:
//!
//! 1. the in-process override set by [`set_override`] (tests and benches),
//! 2. the `SMASH_SIMD` environment variable (`auto` / `avx2` / `scalar`),
//!    read once per process; an unknown or unsupported value panics rather
//!    than silently falling back,
//! 3. cached CPU feature detection: `avx2 && fma` → [`Isa::Avx2`], else
//!    [`Isa::Scalar`]. Non-x86_64 targets always resolve to
//!    [`Isa::Scalar`].
//!
//! # Safety and bounds
//!
//! The vector bodies preserve the crate's "invalid matrices panic, never
//! UB" contract. The AVX2 gather paths mask-check every index vector
//! against `x.len()` *before* issuing the gather and fall back to the
//! scalar striped continuation when any lane fails, so an out-of-range
//! column index produces the ordinary slice-index panic instead of an
//! out-of-bounds read. All raw-pointer loads/stores are within bounds proven by the preceding
//! slice operations. Debug builds also assert those bounds in the gather
//! and tile bodies themselves (`cols`/`vals` cover every vector load,
//! each B row slice `base + w ≤ bdata.len()`, each tile
//! `j0 + w ≤ out.len()`); the assertions compile out of release.

use core::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// An instruction-set tier the kernel bodies can execute under.
///
/// [`detected`] picks [`Isa::Avx2`] when the CPU supports it, else
/// [`Isa::Scalar`]. Every tier computes bit-identical results (see the module
/// docs for the lane-striped contract that makes this true).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Isa {
    /// 256-bit AVX2 bodies (requires the `avx2` **and** `fma` CPU features;
    /// see the module docs for why the bodies still use unfused mul+add).
    Avx2 = 1,
    /// Portable scalar emulation of the same lane-striped order; the only
    /// tier on non-x86_64 targets.
    Scalar = 2,
}

impl Isa {
    /// Every tier, widest first.
    pub const ALL: [Isa; 2] = [Isa::Avx2, Isa::Scalar];

    /// Stable lowercase name (`"avx2"` / `"scalar"`), as used by
    /// `SMASH_SIMD`, plan rationales, and the calibration-table `meta`
    /// record.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }

    /// Parse a [`name`](Isa::name) back into a tier. Returns `None` for
    /// anything else (including `"auto"`, which is not a tier).
    pub fn parse(s: &str) -> Option<Isa> {
        match s {
            "avx2" => Some(Isa::Avx2),
            "scalar" => Some(Isa::Scalar),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this tier.
    ///
    /// [`Isa::Scalar`] is supported everywhere. [`Isa::Avx2`] probes CPU
    /// features at runtime (cached by the standard library) and is never
    /// supported on non-x86_64 targets.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The widest tier the running CPU supports, detected once and cached.
pub fn detected() -> Isa {
    static DET: OnceLock<Isa> = OnceLock::new();
    *DET.get_or_init(|| {
        if Isa::Avx2.is_supported() {
            Isa::Avx2
        } else {
            Isa::Scalar
        }
    })
}

/// `SMASH_SIMD` resolution, computed once per process.
///
/// # Panics
///
/// Panics (once, poisoning every later call) if `SMASH_SIMD` names an
/// unknown tier or one this CPU cannot execute — a mis-typed override must
/// not silently time or test the wrong bodies.
fn resolved() -> Isa {
    static RES: OnceLock<Isa> = OnceLock::new();
    *RES.get_or_init(|| match std::env::var("SMASH_SIMD") {
        Err(_) => detected(),
        Ok(v) if v == "auto" => detected(),
        Ok(v) => {
            let isa = Isa::parse(&v).unwrap_or_else(|| {
                panic!("SMASH_SIMD: unknown value '{v}' (expected auto|avx2|scalar)")
            });
            assert!(
                isa.is_supported(),
                "SMASH_SIMD={v}: this CPU does not support the {v} tier"
            );
            isa
        }
    })
}

/// In-process override, stored as the `Isa` discriminant (0 = none).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force every subsequent kernel call in this process onto `isa`
/// (`None` clears the override and returns control to `SMASH_SIMD` /
/// detection). Takes effect immediately on all threads.
///
/// This is a **test and bench hook**: it is process-global, so concurrent
/// tests that use it must serialize (see `tests/simd_identity.rs`).
///
/// # Panics
///
/// Panics if `isa` is not supported on the running CPU — forcing an
/// unexecutable tier would be instant `SIGILL`.
pub fn set_override(isa: Option<Isa>) {
    let code = match isa {
        None => 0,
        Some(i) => {
            assert!(
                i.is_supported(),
                "simd::set_override({}): this CPU does not support that tier",
                i.name()
            );
            i as u8
        }
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// The tier every kernel body dispatches on **right now**: the
/// [`set_override`] value if one is set, else the cached `SMASH_SIMD` /
/// detection result. One relaxed atomic load on the fast path.
pub fn active() -> Isa {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Isa::Avx2,
        2 => Isa::Scalar,
        _ => resolved(),
    }
}

/// Element types with runtime-dispatched SIMD reduction bodies.
///
/// This is a supertrait of [`crate::Scalar`]; the four methods are the only
/// reduction shapes the hot kernels need, and every implementation follows
/// the module-level lane-striped contract, so results are bit-identical
/// across [`Isa`] tiers.
pub trait SimdElem: Copy + Sized + 'static {
    /// Stripe count `L` of the accumulation contract for this type —
    /// **fixed per type**, independent of the executing ISA (`f32`: 8,
    /// `f64`: 4).
    const LANES: usize;

    /// Indexed dot product `Σₖ vals[k] * x[cols[k]]` in lane-striped order.
    ///
    /// Extra entries in the longer of `cols`/`vals` are ignored (zip
    /// semantics). Panics via ordinary slice indexing if any `cols[k]` is
    /// out of range for `x`.
    fn simd_dot_indexed(cols: &[u32], vals: &[Self], x: &[Self]) -> Self;

    /// Contiguous dot product `Σₖ a[k] * b[k]` (zip semantics) in
    /// lane-striped order.
    fn simd_dot_contiguous(a: &[Self], b: &[Self]) -> Self;

    /// Sparse-row × dense-RHS column tile, **assigning**
    /// `out[j0 + c] = Σₖ vals[k] * bdata[cols[k] * stride + j0 + c]` for
    /// `c < w` in lane-striped order. `w` must be ≤ 8 (the widest tile
    /// [`crate::for_each_rhs_tile`] emits). Panics via slice indexing when
    /// a row index or the tile range is out of bounds for `bdata`.
    fn simd_row_tile(
        cols: &[u32],
        vals: &[Self],
        bdata: &[Self],
        stride: usize,
        j0: usize,
        w: usize,
        out: &mut [Self],
    );

    /// Dense-block × dense-RHS column tile, **accumulating**
    /// `out[j0 + c] += Σₖ vals[k] * bdata[(cbase + k) * stride + j0 + c]`
    /// for `c < w` in lane-striped order. `w` must be ≤ 8.
    fn simd_axpy_tile(
        vals: &[Self],
        bdata: &[Self],
        stride: usize,
        cbase: usize,
        j0: usize,
        w: usize,
        out: &mut [Self],
    );
}

/// Minimal arithmetic bound for the private scalar contract bodies.
trait Lane: Copy + Default + core::ops::AddAssign + core::ops::Mul<Output = Self> {}
impl Lane for f32 {}
impl Lane for f64 {}

/// Pairwise-halving fold of the stripe array — step 2 of the contract.
fn fold<T: Lane, const L: usize>(mut s: [T; L]) -> T {
    let mut width = L;
    while width > 1 {
        let half = width / 2;
        let (lo, hi) = s.split_at_mut(half);
        for (d, &v) in lo.iter_mut().zip(hi.iter()) {
            *d += v;
        }
        width = half;
    }
    s[0]
}

/// Scalar emulation of the striped dot of `n` terms, term `k` given by
/// `term(k)`: the one looped body behind both dot shapes.
#[inline]
fn dot_striped<T: Lane, const L: usize>(n: usize, term: impl Fn(usize) -> T) -> T {
    let mut s = [T::default(); L];
    for k in 0..n {
        s[k % L] += term(k);
    }
    fold(s)
}

/// Scalar emulation of the striped indexed dot.
fn dot_indexed_striped<T: Lane, const L: usize>(cols: &[u32], vals: &[T], x: &[T]) -> T {
    let n = cols.len().min(vals.len());
    let (cols, vals) = (&cols[..n], &vals[..n]);
    dot_striped::<T, L>(n, |k| vals[k] * x[cols[k] as usize])
}

/// Scalar emulation of the striped contiguous dot.
fn dot_seq_striped<T: Lane, const L: usize>(a: &[T], b: &[T]) -> T {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    dot_striped::<T, L>(n, |k| a[k] * b[k])
}

/// Striped dot of exactly `N` terms, term `k` given by `term(k)`, with
/// `N` a compile-time constant so the stripe loop and the fold fully
/// unroll. It performs the same additions as [`dot_striped`] in the same
/// order, minus the fold steps that add a stripe no term reached. Those
/// steps add `+0.0`, which leaves every value it can meet unchanged: each
/// reached stripe starts as `+0.0 + product`, which is never `-0.0`, and
/// a sum of two values that are not `-0.0` is not `-0.0` either. So the
/// result is bit-identical to the looped body, `-0.0` products, `±inf`
/// and NaN included.
#[inline(always)]
fn dot_short_n<T: Lane, const L: usize, const N: usize>(term: impl Fn(usize) -> T) -> T {
    let mut s = [T::default(); L];
    for k in 0..N {
        s[k % L] += term(k);
    }
    // Stripes `0..live` hold terms; the rest are still `+0.0`.
    let mut live = N.min(L);
    let mut width = L;
    while width > 1 {
        let half = width / 2;
        for l in 0..half.min(live.saturating_sub(half)) {
            s[l] += s[l + half];
        }
        live = live.min(half);
        width = half;
    }
    s[0]
}

/// The striped dot of `n` short terms, shared by both dot shapes:
/// dispatches on `n` to a fully unrolled [`dot_short_n`] body. Callers
/// pass `term` over slices already cut to `n`, so each arm knows their
/// length and drops the bounds checks it can prove. Lengths from 16 up
/// (no caller sends them: both dots route only `n < 2 * LANES ≤ 16`
/// here) fall back to the looped body.
#[inline(always)]
fn dot_short<T: Lane, const L: usize>(n: usize, term: impl Fn(usize) -> T) -> T {
    macro_rules! by_len {
        ($($n:literal)*) => {
            match n {
                $($n => dot_short_n::<T, L, $n>(&term),)*
                _ => dot_striped::<T, L>(n, term),
            }
        };
    }
    by_len!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
}

/// Lane-wise pairwise fold of the tile stripe matrix down into `acc[0]`.
fn fold_tile<T: Lane, const L: usize>(acc: &mut [[T; 8]; L], w: usize) {
    let mut width = L;
    while width > 1 {
        let half = width / 2;
        let (lo, hi) = acc.split_at_mut(half);
        for (dst, src) in lo.iter_mut().zip(hi.iter()) {
            for (d, &v) in dst[..w].iter_mut().zip(&src[..w]) {
                *d += v;
            }
        }
        width = half;
    }
}

/// Scalar emulation of the striped row tile (assigns `out[j0..j0+w]`).
fn row_tile_striped<T: Lane, const L: usize>(
    cols: &[u32],
    vals: &[T],
    bdata: &[T],
    stride: usize,
    j0: usize,
    w: usize,
    out: &mut [T],
) {
    let mut acc = [[T::default(); 8]; L];
    for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
        let base = c as usize * stride + j0;
        let brow = &bdata[base..base + w];
        for (a, &bv) in acc[k % L][..w].iter_mut().zip(brow) {
            *a += v * bv;
        }
    }
    fold_tile(&mut acc, w);
    out[j0..j0 + w].copy_from_slice(&acc[0][..w]);
}

/// Scalar emulation of the striped axpy tile (accumulates into
/// `out[j0..j0+w]`).
fn axpy_tile_striped<T: Lane, const L: usize>(
    vals: &[T],
    bdata: &[T],
    stride: usize,
    cbase: usize,
    j0: usize,
    w: usize,
    out: &mut [T],
) {
    let mut acc = [[T::default(); 8]; L];
    for (k, &v) in vals.iter().enumerate() {
        let base = (cbase + k) * stride + j0;
        let brow = &bdata[base..base + w];
        for (a, &bv) in acc[k % L][..w].iter_mut().zip(brow) {
            *a += v * bv;
        }
    }
    fold_tile(&mut acc, w);
    for (o, &a) in out[j0..j0 + w].iter_mut().zip(&acc[0][..w]) {
        *o += a;
    }
}

macro_rules! impl_simd_elem {
    ($t:ty, $lanes:expr,
     $dot_idx_avx2:ident, $dot_seq_avx2:ident,
     $row8_avx2:ident, $axpy8_avx2:ident) => {
        impl SimdElem for $t {
            const LANES: usize = $lanes;

            #[inline]
            fn simd_dot_indexed(cols: &[u32], vals: &[Self], x: &[Self]) -> Self {
                // Dots shorter than two full vector chunks take the
                // length-dispatched unrolled body on every tier: vector
                // setup and the stack spill cost more than they save
                // there, and on short CSR rows (4 entries on a road
                // network) the looped body's stripe indexing costs more
                // than the arithmetic. The cutoff is pure perf routing:
                // length is data-independent and every tier produces the
                // same bits. The vector bodies sit behind a call that is
                // kept out of line, so a caller's row loop inlines only
                // the short path.
                #[inline(never)]
                fn long(cols: &[u32], vals: &[$t], x: &[$t]) -> $t {
                    #[cfg(target_arch = "x86_64")]
                    if active() == Isa::Avx2 {
                        // SAFETY: the tier was feature-checked by
                        // `active()`'s resolution chain (detection /
                        // validated override).
                        return unsafe { x86::$dot_idx_avx2(cols, vals, x) };
                    }
                    dot_indexed_striped::<$t, $lanes>(cols, vals, x)
                }
                let n = cols.len().min(vals.len());
                if n < 2 * $lanes {
                    let (cols, vals) = (&cols[..n], &vals[..n]);
                    return dot_short::<$t, $lanes>(n, |k| vals[k] * x[cols[k] as usize]);
                }
                long(cols, vals, x)
            }

            #[inline]
            fn simd_dot_contiguous(a: &[Self], b: &[Self]) -> Self {
                // Same short-dot cutoff and unrolled body as
                // `simd_dot_indexed`: SMASH and BCSR block dots are often
                // only a few elements long. The vector bodies sit behind
                // a call that is kept out of line, so a caller's block
                // loop holds its accumulators in registers across the
                // short path.
                #[inline(never)]
                fn long(a: &[$t], b: &[$t]) -> $t {
                    #[cfg(target_arch = "x86_64")]
                    if active() == Isa::Avx2 {
                        // SAFETY: tier feature-checked by `active()`.
                        return unsafe { x86::$dot_seq_avx2(a, b) };
                    }
                    dot_seq_striped::<$t, $lanes>(a, b)
                }
                let n = a.len().min(b.len());
                if n < 2 * $lanes {
                    let (a, b) = (&a[..n], &b[..n]);
                    return dot_short::<$t, $lanes>(n, |k| a[k] * b[k]);
                }
                long(a, b)
            }

            fn simd_row_tile(
                cols: &[u32],
                vals: &[Self],
                bdata: &[Self],
                stride: usize,
                j0: usize,
                w: usize,
                out: &mut [Self],
            ) {
                #[cfg(target_arch = "x86_64")]
                if w == 8 && active() == Isa::Avx2 {
                    // SAFETY: tier feature-checked by `active()`.
                    return unsafe { x86::$row8_avx2(cols, vals, bdata, stride, j0, out) };
                }
                row_tile_striped::<$t, $lanes>(cols, vals, bdata, stride, j0, w, out)
            }

            fn simd_axpy_tile(
                vals: &[Self],
                bdata: &[Self],
                stride: usize,
                cbase: usize,
                j0: usize,
                w: usize,
                out: &mut [Self],
            ) {
                #[cfg(target_arch = "x86_64")]
                if w == 8 && active() == Isa::Avx2 {
                    // SAFETY: tier feature-checked by `active()`.
                    return unsafe { x86::$axpy8_avx2(vals, bdata, stride, cbase, j0, out) };
                }
                axpy_tile_striped::<$t, $lanes>(vals, bdata, stride, cbase, j0, w, out)
            }
        }
    };
}

impl_simd_elem!(
    f32,
    8,
    dot_idx_f32_avx2,
    dot_seq_f32_avx2,
    row_tile8_f32_avx2,
    axpy_tile8_f32_avx2
);
impl_simd_elem!(
    f64,
    4,
    dot_idx_f64_avx2,
    dot_seq_f64_avx2,
    row_tile8_f64_avx2,
    axpy_tile8_f64_avx2
);

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector bodies. Every function here realizes the module-level
    //! lane-striped contract exactly; none of them use FMA.

    use core::arch::x86_64::*;

    /// Dots: vector-accumulate full-`L` chunks, spill the stripe registers
    /// to a stack array, finish the tail (and any bounds-check bailout)
    /// with the scalar striped continuation, then run the shared scalar
    /// fold. Sharing the spill + scalar fold with the fallback body is what
    /// makes cross-ISA identity trivially auditable.
    use super::fold;

    /// `Σ vals[k] * x[cols[k]]`, f32, AVX2 gather path.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` (checked by
    /// `simd::active()`). Gather lanes are mask-checked against `x.len()`
    /// (clamped to 2³¹ so the signed-index gather cannot wrap) before the
    /// gather issues; any failing lane falls back to the scalar striped
    /// continuation, which panics like ordinary slice indexing.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_idx_f32_avx2(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
        let n = cols.len().min(vals.len());
        let limit = (x.len() as u64).min(1 << 31) as u32;
        // Unsigned `idx < limit` via the signed-compare bias trick.
        let lim = _mm256_set1_epi32((limit as i32) ^ i32::MIN);
        let bias = _mm256_set1_epi32(i32::MIN);
        let mut vacc = _mm256_setzero_ps();
        let mut k = 0usize;
        while k + 8 <= n {
            debug_assert!(k + 8 <= cols.len() && k + 8 <= vals.len());
            let idx = _mm256_loadu_si256(cols.as_ptr().add(k).cast());
            let ok = _mm256_cmpgt_epi32(lim, _mm256_xor_si256(idx, bias));
            if _mm256_movemask_epi8(ok) != -1 {
                break; // an out-of-range lane: finish scalar (and panic there)
            }
            let xv = _mm256_i32gather_ps::<4>(x.as_ptr(), idx);
            let vv = _mm256_loadu_ps(vals.as_ptr().add(k));
            vacc = _mm256_add_ps(vacc, _mm256_mul_ps(vv, xv));
            k += 8;
        }
        let mut s = [0.0f32; 8];
        _mm256_storeu_ps(s.as_mut_ptr(), vacc);
        for (i, (&c, &v)) in cols[k..n].iter().zip(&vals[k..n]).enumerate() {
            s[(k + i) % 8] += v * x[c as usize];
        }
        fold(s)
    }

    /// `Σ vals[k] * x[cols[k]]`, f64, AVX2 gather path.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; bounds handling as in
    /// [`dot_idx_f32_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_idx_f64_avx2(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        let n = cols.len().min(vals.len());
        let limit = (x.len() as u64).min(1 << 31) as u32;
        let lim = _mm_set1_epi32((limit as i32) ^ i32::MIN);
        let bias = _mm_set1_epi32(i32::MIN);
        let mut vacc = _mm256_setzero_pd();
        let mut k = 0usize;
        while k + 4 <= n {
            debug_assert!(k + 4 <= cols.len() && k + 4 <= vals.len());
            let idx = _mm_loadu_si128(cols.as_ptr().add(k).cast());
            let ok = _mm_cmpgt_epi32(lim, _mm_xor_si128(idx, bias));
            if _mm_movemask_epi8(ok) != 0xFFFF {
                break;
            }
            let xv = _mm256_i32gather_pd::<8>(x.as_ptr(), idx);
            let vv = _mm256_loadu_pd(vals.as_ptr().add(k));
            vacc = _mm256_add_pd(vacc, _mm256_mul_pd(vv, xv));
            k += 4;
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), vacc);
        for (i, (&c, &v)) in cols[k..n].iter().zip(&vals[k..n]).enumerate() {
            s[(k + i) % 4] += v * x[c as usize];
        }
        fold(s)
    }

    /// Contiguous `Σ a[k] * b[k]`, f32, AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`. All pointer loads are
    /// within `min(a.len(), b.len())`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_seq_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_ps();
        let mut k = 0usize;
        while k + 8 <= n {
            let av = _mm256_loadu_ps(a.as_ptr().add(k));
            let bv = _mm256_loadu_ps(b.as_ptr().add(k));
            vacc = _mm256_add_ps(vacc, _mm256_mul_ps(av, bv));
            k += 8;
        }
        let mut s = [0.0f32; 8];
        _mm256_storeu_ps(s.as_mut_ptr(), vacc);
        for (i, (&av, &bv)) in a[k..n].iter().zip(&b[k..n]).enumerate() {
            s[(k + i) % 8] += av * bv;
        }
        fold(s)
    }

    /// Contiguous `Σ a[k] * b[k]`, f64, AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`. All pointer loads are
    /// within `min(a.len(), b.len())`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_seq_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_pd();
        let mut k = 0usize;
        while k + 4 <= n {
            let av = _mm256_loadu_pd(a.as_ptr().add(k));
            let bv = _mm256_loadu_pd(b.as_ptr().add(k));
            vacc = _mm256_add_pd(vacc, _mm256_mul_pd(av, bv));
            k += 4;
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), vacc);
        for (i, (&av, &bv)) in a[k..n].iter().zip(&b[k..n]).enumerate() {
            s[(k + i) % 4] += av * bv;
        }
        fold(s)
    }

    /// f32 `w = 8` row tile, AVX2: one `__m256` per stripe (8 ymm live).
    /// Named accumulators + a static-index tail keep every stripe in a
    /// register. Assigns `out[j0..j0+8]`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2` and `j0 + 8 <= out.len()`
    /// is *not* assumed — all B-row and `out` accesses go through
    /// bounds-checked slicing before the raw loads/stores.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile8_f32_avx2(
        cols: &[u32],
        vals: &[f32],
        bdata: &[f32],
        stride: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let n = cols.len().min(vals.len());
        debug_assert!(j0 + 8 <= out.len(), "tile {j0}+8 past out ({})", out.len());
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut a4 = _mm256_setzero_ps();
        let mut a5 = _mm256_setzero_ps();
        let mut a6 = _mm256_setzero_ps();
        let mut a7 = _mm256_setzero_ps();
        macro_rules! term {
            ($acc:ident, $kk:expr) => {{
                let kk = $kk;
                let base = cols[kk] as usize * stride + j0;
                debug_assert!(
                    kk < n && base + 8 <= bdata.len(),
                    "B row {base}+8 past {}",
                    bdata.len()
                );
                let brow = &bdata[base..base + 8];
                let vv = _mm256_set1_ps(vals[kk]);
                $acc = _mm256_add_ps($acc, _mm256_mul_ps(vv, _mm256_loadu_ps(brow.as_ptr())));
            }};
        }
        let mut k = 0usize;
        while k + 8 <= n {
            term!(a0, k);
            term!(a1, k + 1);
            term!(a2, k + 2);
            term!(a3, k + 3);
            term!(a4, k + 4);
            term!(a5, k + 5);
            term!(a6, k + 6);
            term!(a7, k + 7);
            k += 8;
        }
        let r = n - k;
        if r > 0 {
            term!(a0, k);
        }
        if r > 1 {
            term!(a1, k + 1);
        }
        if r > 2 {
            term!(a2, k + 2);
        }
        if r > 3 {
            term!(a3, k + 3);
        }
        if r > 4 {
            term!(a4, k + 4);
        }
        if r > 5 {
            term!(a5, k + 5);
        }
        if r > 6 {
            term!(a6, k + 6);
        }
        a0 = _mm256_add_ps(a0, a4);
        a1 = _mm256_add_ps(a1, a5);
        a2 = _mm256_add_ps(a2, a6);
        a3 = _mm256_add_ps(a3, a7);
        a0 = _mm256_add_ps(a0, a2);
        a1 = _mm256_add_ps(a1, a3);
        a0 = _mm256_add_ps(a0, a1);
        _mm256_storeu_ps(out[j0..j0 + 8].as_mut_ptr(), a0);
    }

    /// f32 `w = 8` axpy tile, AVX2 (accumulates into `out[j0..j0+8]`;
    /// B rows are `cbase + k`).
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; all memory accesses go
    /// through bounds-checked slicing.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_tile8_f32_avx2(
        vals: &[f32],
        bdata: &[f32],
        stride: usize,
        cbase: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let n = vals.len();
        debug_assert!(j0 + 8 <= out.len(), "tile {j0}+8 past out ({})", out.len());
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut a4 = _mm256_setzero_ps();
        let mut a5 = _mm256_setzero_ps();
        let mut a6 = _mm256_setzero_ps();
        let mut a7 = _mm256_setzero_ps();
        macro_rules! term {
            ($acc:ident, $kk:expr) => {{
                let kk = $kk;
                let base = (cbase + kk) * stride + j0;
                debug_assert!(
                    kk < n && base + 8 <= bdata.len(),
                    "B row {base}+8 past {}",
                    bdata.len()
                );
                let brow = &bdata[base..base + 8];
                let vv = _mm256_set1_ps(vals[kk]);
                $acc = _mm256_add_ps($acc, _mm256_mul_ps(vv, _mm256_loadu_ps(brow.as_ptr())));
            }};
        }
        let mut k = 0usize;
        while k + 8 <= n {
            term!(a0, k);
            term!(a1, k + 1);
            term!(a2, k + 2);
            term!(a3, k + 3);
            term!(a4, k + 4);
            term!(a5, k + 5);
            term!(a6, k + 6);
            term!(a7, k + 7);
            k += 8;
        }
        let r = n - k;
        if r > 0 {
            term!(a0, k);
        }
        if r > 1 {
            term!(a1, k + 1);
        }
        if r > 2 {
            term!(a2, k + 2);
        }
        if r > 3 {
            term!(a3, k + 3);
        }
        if r > 4 {
            term!(a4, k + 4);
        }
        if r > 5 {
            term!(a5, k + 5);
        }
        if r > 6 {
            term!(a6, k + 6);
        }
        a0 = _mm256_add_ps(a0, a4);
        a1 = _mm256_add_ps(a1, a5);
        a2 = _mm256_add_ps(a2, a6);
        a3 = _mm256_add_ps(a3, a7);
        a0 = _mm256_add_ps(a0, a2);
        a1 = _mm256_add_ps(a1, a3);
        a0 = _mm256_add_ps(a0, a1);
        let dst = &mut out[j0..j0 + 8];
        let sum = _mm256_add_ps(_mm256_loadu_ps(dst.as_ptr()), a0);
        _mm256_storeu_ps(dst.as_mut_ptr(), sum);
    }

    /// f64 `w = 8` row tile, AVX2: 4 stripes × 2 `__m256d` halves
    /// (columns `j0..j0+4` / `j0+4..j0+8`). Assigns `out[j0..j0+8]`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; all memory accesses go
    /// through bounds-checked slicing.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile8_f64_avx2(
        cols: &[u32],
        vals: &[f64],
        bdata: &[f64],
        stride: usize,
        j0: usize,
        out: &mut [f64],
    ) {
        let n = cols.len().min(vals.len());
        debug_assert!(j0 + 8 <= out.len(), "tile {j0}+8 past out ({})", out.len());
        let mut s0l = _mm256_setzero_pd();
        let mut s0h = _mm256_setzero_pd();
        let mut s1l = _mm256_setzero_pd();
        let mut s1h = _mm256_setzero_pd();
        let mut s2l = _mm256_setzero_pd();
        let mut s2h = _mm256_setzero_pd();
        let mut s3l = _mm256_setzero_pd();
        let mut s3h = _mm256_setzero_pd();
        macro_rules! term {
            ($lo:ident, $hi:ident, $kk:expr) => {{
                let kk = $kk;
                let base = cols[kk] as usize * stride + j0;
                debug_assert!(
                    kk < n && base + 8 <= bdata.len(),
                    "B row {base}+8 past {}",
                    bdata.len()
                );
                let brow = &bdata[base..base + 8];
                let vv = _mm256_set1_pd(vals[kk]);
                $lo = _mm256_add_pd($lo, _mm256_mul_pd(vv, _mm256_loadu_pd(brow.as_ptr())));
                $hi = _mm256_add_pd(
                    $hi,
                    _mm256_mul_pd(vv, _mm256_loadu_pd(brow.as_ptr().add(4))),
                );
            }};
        }
        let mut k = 0usize;
        while k + 4 <= n {
            term!(s0l, s0h, k);
            term!(s1l, s1h, k + 1);
            term!(s2l, s2h, k + 2);
            term!(s3l, s3h, k + 3);
            k += 4;
        }
        let r = n - k;
        if r > 0 {
            term!(s0l, s0h, k);
        }
        if r > 1 {
            term!(s1l, s1h, k + 1);
        }
        if r > 2 {
            term!(s2l, s2h, k + 2);
        }
        s0l = _mm256_add_pd(s0l, s2l);
        s0h = _mm256_add_pd(s0h, s2h);
        s1l = _mm256_add_pd(s1l, s3l);
        s1h = _mm256_add_pd(s1h, s3h);
        s0l = _mm256_add_pd(s0l, s1l);
        s0h = _mm256_add_pd(s0h, s1h);
        let dst = &mut out[j0..j0 + 8];
        _mm256_storeu_pd(dst.as_mut_ptr(), s0l);
        _mm256_storeu_pd(dst.as_mut_ptr().add(4), s0h);
    }

    /// f64 `w = 8` axpy tile, AVX2 (accumulates; B rows are `cbase + k`).
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports `avx2`; all memory accesses go
    /// through bounds-checked slicing.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_tile8_f64_avx2(
        vals: &[f64],
        bdata: &[f64],
        stride: usize,
        cbase: usize,
        j0: usize,
        out: &mut [f64],
    ) {
        let n = vals.len();
        debug_assert!(j0 + 8 <= out.len(), "tile {j0}+8 past out ({})", out.len());
        let mut s0l = _mm256_setzero_pd();
        let mut s0h = _mm256_setzero_pd();
        let mut s1l = _mm256_setzero_pd();
        let mut s1h = _mm256_setzero_pd();
        let mut s2l = _mm256_setzero_pd();
        let mut s2h = _mm256_setzero_pd();
        let mut s3l = _mm256_setzero_pd();
        let mut s3h = _mm256_setzero_pd();
        macro_rules! term {
            ($lo:ident, $hi:ident, $kk:expr) => {{
                let kk = $kk;
                let base = (cbase + kk) * stride + j0;
                debug_assert!(
                    kk < n && base + 8 <= bdata.len(),
                    "B row {base}+8 past {}",
                    bdata.len()
                );
                let brow = &bdata[base..base + 8];
                let vv = _mm256_set1_pd(vals[kk]);
                $lo = _mm256_add_pd($lo, _mm256_mul_pd(vv, _mm256_loadu_pd(brow.as_ptr())));
                $hi = _mm256_add_pd(
                    $hi,
                    _mm256_mul_pd(vv, _mm256_loadu_pd(brow.as_ptr().add(4))),
                );
            }};
        }
        let mut k = 0usize;
        while k + 4 <= n {
            term!(s0l, s0h, k);
            term!(s1l, s1h, k + 1);
            term!(s2l, s2h, k + 2);
            term!(s3l, s3h, k + 3);
            k += 4;
        }
        let r = n - k;
        if r > 0 {
            term!(s0l, s0h, k);
        }
        if r > 1 {
            term!(s1l, s1h, k + 1);
        }
        if r > 2 {
            term!(s2l, s2h, k + 2);
        }
        s0l = _mm256_add_pd(s0l, s2l);
        s0h = _mm256_add_pd(s0h, s2h);
        s1l = _mm256_add_pd(s1l, s3l);
        s1h = _mm256_add_pd(s1h, s3h);
        s0l = _mm256_add_pd(s0l, s1l);
        s0h = _mm256_add_pd(s0h, s1h);
        let dst = &mut out[j0..j0 + 8];
        let lo = _mm256_add_pd(_mm256_loadu_pd(dst.as_ptr()), s0l);
        let hi = _mm256_add_pd(_mm256_loadu_pd(dst.as_ptr().add(4)), s0h);
        _mm256_storeu_pd(dst.as_mut_ptr(), lo);
        _mm256_storeu_pd(dst.as_mut_ptr().add(4), hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("auto"), None);
        assert_eq!(Isa::parse("neon"), None);
        assert_eq!(Isa::parse("sse42"), None);
    }

    #[test]
    fn detected_tier_is_supported() {
        assert!(detected().is_supported());
        assert!(Isa::Scalar.is_supported());
    }

    #[test]
    fn fold_is_pairwise_halving() {
        // 8 stripes: ((0+4)+(2+6)) + ((1+5)+(3+7)) under f64 is exact here.
        let s = [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert_eq!(fold(s), 255.0);
        assert_eq!(fold([3.5f32]), 3.5);
    }

    #[test]
    fn striped_dot_matches_manual_stripes() {
        let cols: Vec<u32> = (0..11).collect();
        let vals: Vec<f32> = (0..11).map(|k| 0.1 + k as f32).collect();
        let x: Vec<f32> = (0..11).map(|c| 1.0 / (1.0 + c as f32)).collect();
        let mut s = [0.0f32; 8];
        for k in 0..11 {
            s[k % 8] += vals[k] * x[k];
        }
        let want = fold(s);
        assert_eq!(dot_indexed_striped::<f32, 8>(&cols, &vals, &x), want);
        assert_eq!(dot_seq_striped::<f32, 8>(&vals, &x), want);
    }

    #[test]
    fn unrolled_short_dot_matches_looped_body() {
        // Every length the short body serves, with `-0.0` products mixed
        // in: the looped body's `+0.0` stripe starts turn them into
        // `+0.0`, and the unrolled body must too.
        for len in 0..16 {
            let a: Vec<f64> = (0..len)
                .map(|k| [-0.0, 1.25, 0.0, -3.5][k % 4] * (k + 1) as f64)
                .collect();
            let b: Vec<f64> = (0..len).map(|k| 1.0 / (1.5 + k as f64)).collect();
            let (a32, b32): (Vec<f32>, Vec<f32>) = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f32, y as f32))
                .unzip();
            for n in 0..=len {
                let (got, want) = (
                    dot_short::<f64, 4>(n, |k| a[k] * b[k]),
                    dot_seq_striped::<f64, 4>(&a[..n], &b),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "f64 len {n}");
                let (got, want) = (
                    dot_short::<f32, 8>(n, |k| a32[k] * b32[k]),
                    dot_seq_striped::<f32, 8>(&a32[..n], &b32),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "f32 len {n}");
            }
        }
    }

    #[test]
    fn unrolled_short_indexed_dot_matches_looped_body() {
        // The indexed twin: every length below `2 * LANES`, columns
        // permuted and repeated (and reaching the last column), `-0.0`
        // products among inexact ones, under every supported tier.
        let x = vec![1.0 / 3.0, 0.45, 2.5, 0.1, -1.75, 0.3, 7.0 / 9.0];
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        for n in 0..16 {
            let cols: Vec<u32> = (0..n as u32).map(|k| (k * 5 + 6) % 7).collect();
            let vals: Vec<f64> = (0..n)
                .map(|k| match k % 5 {
                    4 => -0.0,
                    r => [1.0, -3.0, 0.7, 1.9][r] * (k as f64 + 0.1) / 3.0,
                })
                .collect();
            let vals32: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
            let want = dot_indexed_striped::<f64, 4>(&cols, &vals, &x);
            let want32 = dot_indexed_striped::<f32, 8>(&cols, &vals32, &x32);
            for isa in Isa::ALL.into_iter().filter(|i| i.is_supported()) {
                set_override(Some(isa));
                let got = f64::simd_dot_indexed(&cols, &vals, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "f64 len {n} {isa:?}");
                let got = f32::simd_dot_indexed(&cols, &vals32, &x32);
                assert_eq!(got.to_bits(), want32.to_bits(), "f32 len {n} {isa:?}");
                set_override(None);
            }
        }
    }

    #[test]
    fn every_supported_isa_matches_scalar_exactly() {
        // Direct body-level check (the full kernel-level matrix lives in
        // tests/simd_identity.rs). Ragged lengths cover chunk tails.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 31, 100] {
            let cols: Vec<u32> = (0..len as u32)
                .map(|k| (k * 7) % len.max(1) as u32)
                .collect();
            let vals: Vec<f64> = (0..len).map(|k| (k as f64) * 0.3 - 1.0).collect();
            let x: Vec<f64> = (0..len).map(|c| 1.0 / (1.3 + c as f64)).collect();
            let want = dot_indexed_striped::<f64, 4>(&cols, &vals, &x);
            let want32 = dot_indexed_striped::<f32, 8>(
                &cols,
                &vals.iter().map(|&v| v as f32).collect::<Vec<_>>(),
                &x.iter().map(|&v| v as f32).collect::<Vec<_>>(),
            );
            for isa in Isa::ALL {
                if !isa.is_supported() {
                    continue;
                }
                set_override(Some(isa));
                assert_eq!(
                    f64::simd_dot_indexed(&cols, &vals, &x),
                    want,
                    "{}",
                    isa.name()
                );
                assert_eq!(
                    f32::simd_dot_indexed(
                        &cols,
                        &vals.iter().map(|&v| v as f32).collect::<Vec<_>>(),
                        &x.iter().map(|&v| v as f32).collect::<Vec<_>>(),
                    ),
                    want32,
                    "{}",
                    isa.name()
                );
                set_override(None);
            }
        }
    }
}
