//! A full-speed, lock-based world for real-thread benchmarking.
//!
//! [`ThreadWorld`] implements the same [`World`] interface as the model
//! world but with no scheduler: every operation acquires a short critical
//! section on the object map and returns immediately. Operations are
//! linearizable (they execute atomically under the lock) but interleavings
//! are whatever the OS scheduler produces — suitable for measuring protocol
//! costs (benches E1–E6) and for stress tests, not for deterministic
//! replay or crash injection (use [`crate::model_world::ModelWorld`] for
//! those). The objects and their semantics are the model world's own
//! `Object`s (cell fingerprints left at 0), so both worlds create objects,
//! read, write and panic on algorithm bugs identically.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::model_world::{Cell, Object};
use crate::world::{MemVal, ObjKey, Pid, World};

/// Lock-based shared-object heap for real threads. Cheap to clone.
#[derive(Clone, Default)]
pub struct ThreadWorld {
    objects: Arc<Mutex<HashMap<ObjKey, Object>>>,
}

impl std::fmt::Debug for ThreadWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadWorld").field("objects", &self.objects.lock().len()).finish()
    }
}

impl ThreadWorld {
    /// Creates an empty world.
    pub fn new() -> Self {
        ThreadWorld::default()
    }

    /// Runs `f` under the heap lock on the object at `key`, created by
    /// `default` on first access.
    fn with_obj<R>(
        &self,
        key: ObjKey,
        default: impl FnOnce() -> Object,
        f: impl FnOnce(&mut Object) -> R,
    ) -> R {
        f(self.objects.lock().entry(key).or_insert_with(default))
    }
}

impl World for ThreadWorld {
    fn reg_write<T: MemVal>(&self, _pid: Pid, key: ObjKey, val: T) {
        let cell = Cell::new(val, false);
        self.with_obj(key, || Object::Register(None), |obj| obj.write_register(key, cell));
    }

    fn reg_read<T: MemVal>(&self, _pid: Pid, key: ObjKey) -> Option<T> {
        self.with_obj(key, || Object::Register(None), |obj| obj.read_register(key))
    }

    fn snap_write<T: MemVal>(&self, _pid: Pid, key: ObjKey, len: usize, idx: usize, val: T) {
        assert!(idx < len, "snapshot cell index {idx} out of range (len {len})");
        let cell = Cell::new(val, false);
        self.with_obj(
            key,
            || Object::Snapshot(vec![None; len]),
            |obj| obj.write_cell(key, len, idx, cell),
        );
    }

    fn snap_scan<T: MemVal>(&self, _pid: Pid, key: ObjKey, len: usize) -> Vec<Option<T>> {
        self.with_obj(key, || Object::Snapshot(vec![None; len]), |obj| obj.scan(key, len))
    }

    fn tas(&self, _pid: Pid, key: ObjKey) -> bool {
        self.with_obj(key, || Object::Tas(false), |obj| obj.test_and_set(key))
    }

    fn xcons_propose<T: MemVal>(&self, pid: Pid, key: ObjKey, ports: &[Pid], val: T) -> T {
        self.with_obj(
            key,
            || Object::XCons { ports: ports.to_vec(), decided: None },
            |obj| obj.propose(pid, key, ports, val, false),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const K: ObjKey = ObjKey::new(7, 0, 0);

    #[test]
    fn basic_semantics_match_model_world() {
        let w = ThreadWorld::new();
        assert_eq!(w.reg_read::<u64>(0, K), None);
        w.reg_write(0, K, 9u64);
        assert_eq!(w.reg_read::<u64>(0, K), Some(9));

        let s = ObjKey::new(8, 0, 0);
        w.snap_write(0, s, 2, 1, 4u64);
        assert_eq!(w.snap_scan::<u64>(0, s, 2), vec![None, Some(4)]);

        let t = ObjKey::new(9, 0, 0);
        assert!(w.tas(0, t));
        assert!(!w.tas(1, t));
    }

    #[test]
    fn concurrent_tas_single_winner() {
        let w = ThreadWorld::new();
        let key = ObjKey::new(11, 0, 0);
        let wins: usize = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|pid| {
                    let w = w.clone();
                    s.spawn(move || usize::from(w.tas(pid, key)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1);
    }

    #[test]
    fn concurrent_xcons_agreement() {
        let w = ThreadWorld::new();
        let key = ObjKey::new(12, 0, 0);
        let ports: Vec<Pid> = (0..6).collect();
        let decisions: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|pid| {
                    let w = w.clone();
                    let ports = ports.clone();
                    s.spawn(move || w.xcons_propose(pid, key, &ports, pid as u64 + 1))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
        assert!((1..=6).contains(&decisions[0]), "validity");
    }

    #[test]
    fn concurrent_snapshot_scans_are_consistent() {
        // Writer fills cells 0 and 1 with equal counters in separate ops;
        // scans under the lock must never observe cell1 > cell0.
        let w = ThreadWorld::new();
        let key = ObjKey::new(13, 0, 0);
        thread::scope(|s| {
            let ww = w.clone();
            s.spawn(move || {
                for k in 0..2000u64 {
                    ww.snap_write(0, key, 2, 0, k + 1);
                    ww.snap_write(0, key, 2, 1, k + 1);
                }
            });
            let wr = w.clone();
            s.spawn(move || {
                for _ in 0..2000 {
                    let v = wr.snap_scan::<u64>(1, key, 2);
                    let a = v[0].unwrap_or(0);
                    let b = v[1].unwrap_or(0);
                    assert!(a >= b, "scan saw cell1 ahead of cell0: {a} < {b}");
                }
            });
        });
    }
}
