//! Reusable allocator scratch buffers.
//!
//! Each function compiled allocates the same shapes of transient storage:
//! per-block `RegMask` vectors (occupancy, shrink-wrap dataflow),
//! per-vreg flag vectors, range-index rows, a liveness bitset, range
//! construction's pair lists, and the parallel-move resolver's worklists. [`CompileScratch`] owns one of
//! each and hands them out `clear()`ed instead of freshly allocated, so a
//! compile allocating its hundredth function reuses the buffers of its
//! first. [`ScratchPool`] holds one `CompileScratch` per compile in
//! flight and recycles them across compiles of the same
//! [`crate::Pipeline`].
//!
//! Reuse is invisible to the output: every `take_*` returns buffers in
//! the exact state a fresh allocation would have, so machine code is
//! bit-identical whether scratch is fresh or recycled (the differential
//! oracle checks this).

use std::collections::HashSet;
use std::sync::Mutex;

use ipra_cfg::BitSet;
use ipra_ir::Vreg;
use ipra_machine::{PReg, RegMask};

use crate::pipeline::lock_cache;

/// A pool of `Vec<RegMask>` buffers.
///
/// The allocator's hottest transient shape: occupancy vectors, avail/save
/// dataflow vectors in shrink-wrapping, per-vreg forbidden masks. `take`
/// pops a retired buffer (or starts an empty one) and sizes it to `n`
/// copies of `fill`; `give` retires a buffer for the next `take`.
#[derive(Debug, Default)]
pub struct MaskPool {
    free: Vec<Vec<RegMask>>,
}

impl MaskPool {
    /// A buffer of exactly `n` elements, all equal to `fill`.
    pub fn take(&mut self, n: usize, fill: RegMask) -> Vec<RegMask> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v.resize(n, fill);
        v
    }

    /// Returns a buffer to the pool.
    pub fn give(&mut self, v: Vec<RegMask>) {
        self.free.push(v);
    }
}

/// Worklists reused by the parallel-move resolver
/// ([`crate::parmove::resolve_parallel_moves_into`]). A lowering pass
/// resolves one move set per call site plus one per prologue; reusing
/// these two collections removes that per-site churn.
#[derive(Debug, Default)]
pub struct MoveScratch {
    /// Register-to-register moves still waiting to be emitted.
    pub pending: Vec<(PReg, PReg)>,
    /// Destination-uniqueness check set.
    pub seen: HashSet<PReg>,
}

/// Scratch for one in-flight compile.
///
/// Owned by a [`ScratchPool`]; the driver borrows one per compile and
/// threads it through ranges → color →
/// shrink-wrap → lower. Buffers that escape into results (`SavePlan`
/// placement maps, `Assignment` vectors) are never pooled — only
/// genuinely transient storage lives here.
#[derive(Debug, Default)]
pub struct CompileScratch {
    /// Pool of per-block / per-vreg `RegMask` vectors.
    pub masks: MaskPool,
    /// Running liveness set for range construction.
    pub live_now: BitSet,
    /// Range construction's (definition, value live just after it)
    /// pairs, the interference edges before deduplication.
    pub def_live: Vec<(Vreg, Vreg)>,
    /// Range construction's (value, call site) pairs, one per value live
    /// across a call.
    pub live_across: Vec<(Vreg, u32)>,
    /// Parallel-move resolver worklists.
    pub moves: MoveScratch,
    /// Per-vreg boolean flags (coloring's `done` vector).
    pub flags: Vec<bool>,
    /// Per-block index rows (coloring's block → live-range lists).
    index_rows: Vec<Vec<u32>>,
}

impl CompileScratch {
    /// A row-per-block table of `n` empty `u32` rows, reusing both the
    /// outer vector and every inner row's capacity.
    pub fn take_index_rows(&mut self, n: usize) -> Vec<Vec<u32>> {
        let mut rows = std::mem::take(&mut self.index_rows);
        for row in rows.iter_mut() {
            row.clear();
        }
        rows.truncate(n);
        rows.resize_with(n, Vec::new);
        rows
    }

    /// Returns an index-row table to the scratch.
    pub fn give_index_rows(&mut self, rows: Vec<Vec<u32>>) {
        self.index_rows = rows;
    }
}

/// A shared pool of [`CompileScratch`] instances, one per compile in
/// flight (a daemon runs several at once). Lives on the
/// [`crate::Pipeline`], so scratch survives not just across functions in
/// one compile but across whole recompiles. A compile that panics drops
/// the scratch it holds, and a pool whose lock a panic poisoned is
/// emptied, so no half-used scratch is handed out.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pub(crate) free: Mutex<Vec<CompileScratch>>,
}

impl ScratchPool {
    /// Borrows a scratch instance (creating one if the pool is dry).
    /// Return it with [`ScratchPool::release`] when the compile finishes.
    pub fn acquire(&self) -> CompileScratch {
        lock_cache(&self.free, Vec::clear).pop().unwrap_or_default()
    }

    /// Returns a scratch instance for the next compile.
    pub fn release(&self, s: CompileScratch) {
        lock_cache(&self.free, Vec::clear).push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_pool_recycles_and_resizes() {
        let mut pool = MaskPool::default();
        let mut v = pool.take(3, RegMask::EMPTY);
        assert_eq!(v, vec![RegMask::EMPTY; 3]);
        v[1] = RegMask(0b101);
        pool.give(v);
        let v2 = pool.take(5, RegMask(7));
        assert_eq!(v2, vec![RegMask(7); 5], "recycled buffer is re-initialized");
        pool.give(v2);
        let v3 = pool.take(0, RegMask::EMPTY);
        assert!(v3.is_empty());
    }

    #[test]
    fn index_rows_come_back_empty_and_sized() {
        let mut s = CompileScratch::default();
        let mut rows = s.take_index_rows(4);
        rows[0].extend([1, 2, 3]);
        rows[3].push(9);
        s.give_index_rows(rows);
        let rows2 = s.take_index_rows(2);
        assert_eq!(rows2, vec![Vec::<u32>::new(); 2]);
        s.give_index_rows(rows2);
        let rows3 = s.take_index_rows(6);
        assert_eq!(rows3, vec![Vec::<u32>::new(); 6]);
    }

    #[test]
    fn scratch_pool_round_trips() {
        let pool = ScratchPool::default();
        let mut a = pool.acquire();
        a.flags.push(true);
        pool.release(a);
        let b = pool.acquire();
        // Contents are the caller's responsibility; identity round-trips.
        assert_eq!(b.flags, vec![true]);
        pool.release(b);
    }
}
