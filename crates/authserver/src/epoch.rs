//! Epoch-published snapshots: a single-writer, many-reader cell whose
//! read path is one uncontended atomic acquisition plus a reference
//! count — never a held lock, never a clone of the data.
//!
//! [`Epoch<T>`] keeps the current state in an [`Arc<T>`] behind a
//! [`parking_lot::RwLock`]. Readers take the read lock just long enough
//! to bump the refcount and walk away with a frozen snapshot; writers
//! go through [`Arc::make_mut`], which edits **in place** while nobody
//! holds a snapshot (the steady state during bulk loads, where reads
//! are transient) and copies-on-write exactly once when one is
//! outstanding. A snapshot handed to a reader stays valid for as long
//! as the reader keeps it — superseded states are freed by the
//! refcount when their last holder drops, so memory is bounded by the
//! number of *live* snapshots, not by mutation count.
//!
//! Two cells can also share one snapshot ([`Epoch::share`]): the clone
//! is O(1), and the first mutation on either side un-shares it. That is
//! exactly the fault plane's frozen-authority semantics — capture now,
//! diverge lazily.

use std::sync::Arc;

use parking_lot::RwLock;

/// A copy-on-write snapshot cell. See the module docs.
pub struct Epoch<T: Clone> {
    inner: RwLock<Arc<T>>,
}

impl<T: Clone> std::fmt::Debug for Epoch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch").finish_non_exhaustive()
    }
}

impl<T: Clone + Default> Default for Epoch<T> {
    fn default() -> Self {
        Epoch::new(T::default())
    }
}

impl<T: Clone> Epoch<T> {
    /// A cell starting at `value`.
    pub fn new(value: T) -> Self {
        Epoch {
            inner: RwLock::new(Arc::new(value)),
        }
    }

    /// The current snapshot, frozen: later mutations never show through
    /// it. The read lock is held only for the refcount bump.
    pub fn read(&self) -> Arc<T> {
        self.inner.read().clone()
    }

    /// Mutates the state; readers see the new state on their next
    /// [`Epoch::read`]. In place when no snapshot is outstanding, one
    /// copy-on-write clone when one is.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.inner.write();
        f(Arc::make_mut(&mut guard))
    }

    /// A new cell sharing this one's current snapshot — O(1); the first
    /// mutation on either cell un-shares it (copy-on-write).
    pub fn share(&self) -> Epoch<T> {
        Epoch {
            inner: RwLock::new(self.read()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_sees_initial_value() {
        let cell = Epoch::new(vec![1, 2, 3]);
        assert_eq!(*cell.read(), [1, 2, 3]);
        assert_eq!(*cell.read(), [1, 2, 3]);
    }

    #[test]
    fn mutation_is_visible_on_next_read() {
        let cell = Epoch::new(0u64);
        assert_eq!(*cell.read(), 0);
        cell.mutate(|v| *v = 7);
        assert_eq!(*cell.read(), 7);
    }

    #[test]
    fn interleaved_mutation_and_transient_reads_stay_in_place() {
        // The population-build pattern: mutate, peek, mutate, peek. With
        // no snapshot held across the mutation, `Arc::make_mut` must
        // reuse the allocation — no per-cycle clone of the state.
        let cell = Epoch::new(vec![0u64]);
        let home = Arc::as_ptr(&cell.read()) as usize;
        for i in 1..100 {
            cell.mutate(|v| v.push(i));
            let snap = cell.read();
            assert_eq!(snap.len() as u64, i + 1);
            assert_eq!(Arc::as_ptr(&snap) as usize, home, "no clone while unshared");
        }
    }

    #[test]
    fn held_snapshots_survive_mutation_unchanged() {
        let cell = Epoch::new(String::from("first"));
        let before = cell.read();
        cell.mutate(|v| *v = String::from("second"));
        let after = cell.read();
        assert_eq!(*before, "first");
        assert_eq!(*after, "second");
    }

    #[test]
    fn shared_cells_diverge_on_first_mutation() {
        let live = Epoch::new(vec![1, 2]);
        let frozen = live.share();
        assert_eq!(
            Arc::as_ptr(&live.read()),
            Arc::as_ptr(&frozen.read()),
            "sharing is O(1): same allocation"
        );
        live.mutate(|v| v.push(3));
        assert_eq!(*live.read(), [1, 2, 3]);
        assert_eq!(*frozen.read(), [1, 2], "the frozen side never moves");
    }

    #[test]
    fn concurrent_readers_and_writer_agree() {
        let cell = std::sync::Arc::new(Epoch::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = cell.clone();
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..1000 {
                        let v = *cell.read();
                        assert!(v >= last, "reads never go backwards");
                        last = v;
                    }
                });
            }
            scope.spawn(|| {
                for i in 1..=50 {
                    cell.mutate(|v| *v = i);
                }
            });
        });
        assert_eq!(*cell.read(), 50);
    }
}
