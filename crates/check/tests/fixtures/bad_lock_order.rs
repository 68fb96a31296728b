// Known-bad fixture: acquisition sites that violate the sharded map's
// locking protocol — the maintenance → shard order, the
// one-shard-per-point-op rule, the publication precondition, and the
// tracked-wrapper rule. (Fixtures are lexed, never compiled: the wrapper
// fns and the `Striped` cell are the real crate's names, not imports.)

use std::sync::{Mutex, RwLock};

pub struct Shard {
    // lock-order: shard
    pub map: RwLock<Vec<u64>>,
}

pub struct Directory {
    pub shards: Vec<Shard>,
}

pub struct Map {
    pub dir: Striped<Directory>,
    // lock-order: maintenance
    pub maint: Mutex<()>,
}

impl Map {
    pub fn bad_second_shard(&self, d: &Directory) {
        let a = rlock(&d.shards[0].map, Level::Shard);
        // finding: second shard acquisition without the maintenance lock
        let b = rlock(&d.shards[1].map, Level::Shard);
        drop((a, b));
    }

    pub fn bad_maintenance_under_shard(&self, d: &Directory) {
        let s = rlock(&d.shards[0].map, Level::Shard);
        // finding: maintenance lock requested under a shard guard
        let m = mlock(&self.maint);
        drop((s, m));
    }

    pub fn bad_maintenance_reentry(&self) {
        let outer = mlock(&self.maint);
        // finding: the maintenance mutex is not re-entrant
        let inner = mlock(&self.maint);
        drop((outer, inner));
    }

    pub fn bad_publish_under_shard(&self, d: &Directory, next: Directory) {
        let m = mlock(&self.maint);
        let s = wlock(&d.shards[0].map, Level::Shard);
        // finding: publishing while a shard guard is still live
        self.dir.publish(next);
        drop((m, s));
    }

    pub fn bad_raw_acquire(&self, s: &Shard) {
        // findings: each raw acquisition on an annotated field bypasses
        // the tracker, the blocking ones and the non-blocking probes
        let _r = s.map.read();
        let _w = s.map.write();
        let _g = self.maint.lock();
        let _tr = s.map.try_read();
        let _tw = s.map.try_write();
        let _tl = self.maint.try_lock();
    }

    pub fn fine_maintenance_stacks_shards(&self, d: &Directory, next: Directory) {
        let m = mlock(&self.maint);
        {
            let a = wlock(&d.shards[0].map, Level::Shard);
            let b = wlock(&d.shards[1].map, Level::Shard);
            drop((a, b));
        }
        self.dir.publish(next);
        drop(m);
    }

    pub fn fine_read_path(&self) -> usize {
        let dir = self.dir.load();
        let shard = rlock(&dir.shards[0].map, Level::Shard);
        shard.len()
    }

    pub fn fine_sequential(&self) -> usize {
        let n = {
            let dir = self.dir.load();
            let left = rlock(&dir.shards[0].map, Level::Shard);
            left.len()
        };
        let m = {
            let dir = self.dir.load();
            let right = rlock(&dir.shards[1].map, Level::Shard);
            right.len()
        };
        n + m
    }
}
