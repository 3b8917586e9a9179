//! A pool of warmed simulator CPUs for parallel frame evaluation.
//!
//! The block-cached engine shares its decoded-trace cache between CPU
//! clones through `Arc` snapshots ([`pcount_isa::Cpu`] is `Send`), so one
//! warmup inference decodes the whole deployed program once and every
//! pooled CPU — on any thread — dispatches fully pre-decoded
//! superblocks from the first frame.
//!
//! [`Deployment::run_batch`][crate::Deployment::run_batch] drives the
//! pool through the persistent `pcount-runtime` worker pool: the batch is
//! split into one contiguous frame range per pooled CPU and each range
//! runs as one runtime job, so no threads are spawned per batch and the
//! collected results are deterministic and order-preserving —
//! bit-identical to the serial [`run_frame`][crate::Deployment::run_frame]
//! loop regardless of the worker count.

use pcount_isa::Cpu;

/// Upper bound on auto-sized CPU pools: every pooled CPU clones the full
/// deployed memory image, and flow batch sizes are modest, so cloning
/// one per hardware thread on a many-core host would only waste memory.
const MAX_AUTO_CPUS: usize = 8;

/// A fixed set of warmed, pristine CPUs, one per concurrent frame range,
/// plus the pristine base they were cloned from.
///
/// Created by [`Deployment::make_pool`][crate::Deployment::make_pool];
/// every CPU is a clone of the deployment's base CPU taken *after* a
/// warmup inference populated the shared block cache. The base is kept so
/// a pooled CPU that faulted mid-inference (torn memory image,
/// mid-program PC) can be [`quarantined`][CpuPool::quarantine] — reset to
/// the pristine state — before it is ever reused; corrupted architectural
/// state must never leak into a later frame's inference.
#[derive(Debug, Clone)]
pub struct CpuPool {
    base: Cpu,
    pub(crate) cpus: Vec<Cpu>,
}

impl CpuPool {
    /// Builds a pool of `threads` clones of `base` (`0` = auto: the
    /// runtime pool's width, capped at [`MAX_AUTO_CPUS`] — each pooled
    /// CPU carries a full memory image, and the flow's batch sizes never
    /// keep more ranges busy).
    pub(crate) fn from_base(base: &Cpu, threads: usize) -> Self {
        let threads = resolve_cpu_pool_threads(threads);
        Self {
            base: base.clone(),
            cpus: (0..threads).map(|_| base.clone()).collect(),
        }
    }

    /// Number of concurrent frame ranges this pool supports.
    pub fn threads(&self) -> usize {
        self.cpus.len()
    }

    /// The pristine warmed CPU every pool slot was cloned from.
    pub fn base(&self) -> &Cpu {
        &self.base
    }

    /// Shared reference to pool slot `w` (used by the batch fan-out,
    /// which clones it per frame).
    pub fn cpu(&self, w: usize) -> &Cpu {
        &self.cpus[w]
    }

    /// Splits the pool into the pristine base and the mutable CPU slots,
    /// for streaming paths that run frames *in place* on a slot
    /// (restoring architectural state from the base between frames)
    /// instead of cloning a fresh CPU per frame.
    pub fn split_mut(&mut self) -> (&Cpu, &mut [Cpu]) {
        let Self { base, cpus } = self;
        (base, cpus)
    }

    /// Runs `f(i, cpu, base)` for every `i in 0..n` across the runtime
    /// pool and returns the results in index order. Indices are split
    /// into one contiguous range per pool slot — slot `w` runs
    /// `w * chunk..(w + 1) * chunk` in order on its own CPU — so a
    /// result depends only on `f`, `i` and what `f` leaves on the slot's
    /// CPU, never on the worker count.
    pub fn map<T: Send, F: Fn(usize, &mut Cpu, &Cpu) -> T + Sync>(
        &mut self,
        n: usize,
        f: F,
    ) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let Self { base, cpus } = self;
        let chunk = n.div_ceil(cpus.len().max(1));
        let mut ranges: Vec<(&mut Cpu, Vec<T>)> =
            cpus.iter_mut().map(|cpu| (cpu, Vec::new())).collect();
        pcount_runtime::current().par_chunks_mut(&mut ranges, 1, 0, |w, range| {
            let (cpu, out) = &mut range[0];
            let hi = ((w + 1) * chunk).min(n);
            *out = ((w * chunk).min(hi)..hi).map(|i| f(i, cpu, base)).collect();
        });
        ranges.into_iter().flat_map(|(_, out)| out).collect()
    }

    /// Quarantines pool slot `w`: restores its architectural and memory
    /// state from the pristine base (see `Cpu::restore_from`). Must be
    /// called on any slot whose inference faulted before the slot is
    /// reused — a timed-out or faulted frame leaves a torn memory image
    /// and a mid-program PC behind, and reusing that state would perturb
    /// the next frame's logits.
    pub fn quarantine(&mut self, w: usize) {
        let Self { base, cpus } = self;
        cpus[w].restore_from(base);
    }
}

pub use pcount_runtime::resolve_threads;

/// The `0 = auto` knob for CPU-pool sizing specifically: explicit values
/// pass through, `0` becomes the runtime pool's width capped at
/// [`MAX_AUTO_CPUS`]. Every `make_pool`-style surface resolves through
/// this so the memory cap cannot be bypassed by resolving the generic
/// knob first.
pub(crate) fn resolve_cpu_pool_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        resolve_threads(0).min(MAX_AUTO_CPUS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_gives_each_slot_one_contiguous_range_and_keeps_index_order() {
        let mut pool = CpuPool::from_base(&Cpu::new_default(), 3);
        // Each slot counts the indices it ran in its own `instret`.
        let runs = pool.map(7, |i, cpu, base| {
            cpu.instret += 1;
            (i, cpu.instret - base.instret)
        });
        assert_eq!(
            runs,
            [(0, 1), (1, 2), (2, 3), (3, 1), (4, 2), (5, 3), (6, 1)]
        );
        assert_eq!(pool.map(2, |i, _, _| i), [0, 1]);
        assert!(pool.map(0, |i, _, _| i).is_empty());
    }
}
